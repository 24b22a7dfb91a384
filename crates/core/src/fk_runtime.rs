//! Foreign-key combination runtime (§4.4) — the `_opt` variants.
//!
//! The static rewrite ([`rsj_query::CombinePlan`]) decides which relations
//! merge; this module executes it on the stream. Each combined relation is
//! a fact plus an ordered list of dimension joins, every one on the
//! dimension's primary key (at most one match). A fact tuple walks the
//! dimension chain, parking in a waiting list at the first missing
//! dimension; a dimension arrival releases its waiters. Every combined
//! tuple is emitted exactly once, as soon as its last constituent arrives —
//! matching the paper: "when a tuple t_j is inserted into R_j, we need to
//! identify all tuples in R_i that can join with t_j".
//!
//! Since PR 10 the combiner is a *signed* delta pipeline: each original
//! relation routes to its own pipeline (the fact pipeline or one
//! dimension-step pipeline), and both directions flow through the same
//! registry of fact records. [`FkCombiner::process`] emits `+1` combined
//! tuples; [`FkCombiner::retract`] emits the `-1` mirror — a deleted fact
//! withdraws its combined tuple, a deleted dimension tuple withdraws every
//! combined tuple routed through it and re-parks the affected facts at the
//! now-missing step, exactly the state they held before that dimension
//! arrived. Feeding the `+` side to an engine's insert path and the `-`
//! side to its delete path keeps the engine's view identical to running
//! the rewritten query over the live (post-delete) database.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashMap, Key, Value};
use rsj_query::foreign_key::{CombinePlan, Routing};
use rsj_query::Query;

/// One registered fact tuple of a combined relation.
#[derive(Clone, Debug)]
struct FactRec {
    /// Accumulated tuple: the full combined width once emitted, truncated
    /// to the prefix entering `parked_at` while parked.
    acc: Vec<Value>,
    /// The dimension step this fact waits at; `None` once fully combined
    /// (and therefore emitted).
    parked_at: Option<usize>,
}

/// Per-combined-relation streaming state.
#[derive(Clone, Debug, Default)]
struct CombinedState {
    /// Per dimension step: PK value -> dimension tuple.
    dim_maps: Vec<FxHashMap<Key, Vec<Value>>>,
    /// Per dimension step: FK value -> fact ids parked there, in arrival
    /// order (list order fixes the release order, hence emission order).
    waiting: Vec<FxHashMap<Key, Vec<u32>>>,
    /// Per dimension step: FK value -> fact ids that consumed the
    /// dimension tuple at that key (advanced past the step), in arrival
    /// order — the reverse index a dimension delete walks.
    passed: Vec<FxHashMap<Key, Vec<u32>>>,
    /// Original fact tuple -> slab id (set semantics on the fact stream).
    fact_ids: FxHashMap<Vec<Value>, u32>,
    /// Fact slab; freed slots are recycled through `free`.
    facts: Vec<Option<FactRec>>,
    free: Vec<u32>,
    /// `prefix_lens[s]` is the accumulated-tuple length entering step `s`;
    /// the last entry is the full combined width.
    prefix_lens: Vec<usize>,
}

/// Executes a [`CombinePlan`] over the input stream, emitting signed
/// tuples of the rewritten query's relations.
#[derive(Clone, Debug)]
pub struct FkCombiner {
    plan: CombinePlan,
    states: Vec<CombinedState>,
    inserts: u64,
    deletes: u64,
}

/// Removes `id` from the list at `key`, preserving the order of the
/// remaining entries (order fixes future emission order) and dropping the
/// entry when the list empties.
fn unregister(map: &mut FxHashMap<Key, Vec<u32>>, key: &Key, id: u32) {
    let list = map.get_mut(key).expect("fact registered under this key");
    let pos = list
        .iter()
        .position(|&x| x == id)
        .expect("fact present in its registry list");
    list.remove(pos);
    if list.is_empty() {
        map.remove(key);
    }
}

impl FkCombiner {
    /// Creates a combiner for a plan.
    pub fn new(plan: CombinePlan) -> FkCombiner {
        let states = plan
            .combined
            .iter()
            .map(|c| {
                let mut prefix_lens = Vec::with_capacity(c.dims.len() + 1);
                let mut len = c.schema_attrs.len()
                    - c.dims
                        .iter()
                        .map(|d| d.append_positions.len())
                        .sum::<usize>();
                prefix_lens.push(len);
                for d in &c.dims {
                    len += d.append_positions.len();
                    prefix_lens.push(len);
                }
                CombinedState {
                    dim_maps: vec![FxHashMap::default(); c.dims.len()],
                    waiting: vec![FxHashMap::default(); c.dims.len()],
                    passed: vec![FxHashMap::default(); c.dims.len()],
                    fact_ids: FxHashMap::default(),
                    facts: Vec::new(),
                    free: Vec::new(),
                    prefix_lens,
                }
            })
            .collect();
        FkCombiner {
            plan,
            states,
            inserts: 0,
            deletes: 0,
        }
    }

    /// The static plan.
    pub fn plan(&self) -> &CombinePlan {
        &self.plan
    }

    /// The rewritten query the emitted tuples belong to.
    pub fn rewritten_query(&self) -> &Query {
        &self.plan.rewritten
    }

    /// Original-stream tuples accepted so far (set semantics — duplicate
    /// facts and idempotent dimension re-inserts are not counted).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Original-stream tuples deleted so far (present at deletion time).
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Processes one original-stream insert; returns the emitted
    /// `(rewritten_relation, tuple)` pairs (possibly empty or many).
    pub fn process(&mut self, orig_rel: usize, tuple: &[Value]) -> Vec<(usize, Vec<Value>)> {
        match self.plan.routing[orig_rel] {
            Routing::Fact { combined } => {
                let st = &mut self.states[combined];
                if st.fact_ids.contains_key(tuple) {
                    return Vec::new(); // duplicate fact (set semantics)
                }
                let id = match st.free.pop() {
                    Some(id) => id,
                    None => {
                        st.facts.push(None);
                        (st.facts.len() - 1) as u32
                    }
                };
                st.fact_ids.insert(tuple.to_vec(), id);
                self.inserts += 1;
                Self::advance(&self.plan.combined[combined], st, id, tuple.to_vec(), 0)
                    .map(|t| vec![(combined, t)])
                    .unwrap_or_default()
            }
            Routing::Dim { combined, step } => self.on_dim(combined, step, tuple),
        }
    }

    /// Retracts one original-stream tuple; returns the *withdrawn*
    /// `(rewritten_relation, tuple)` pairs — the `-1` side of the pipeline.
    /// Deleting an absent tuple is a no-op. A retraction never emits on the
    /// `+` side: removing input can only un-complete combined tuples.
    pub fn retract(&mut self, orig_rel: usize, tuple: &[Value]) -> Vec<(usize, Vec<Value>)> {
        match self.plan.routing[orig_rel] {
            Routing::Fact { combined } => self.retract_fact(combined, tuple),
            Routing::Dim { combined, step } => self.retract_dim(combined, step, tuple),
        }
    }

    /// Walks the dimension chain from `step`, registering the fact in the
    /// `passed` reverse index at every consumed step; parks at the first
    /// missing dimension, returns the full combined tuple otherwise. The
    /// fact record is (re)written in either case.
    fn advance(
        c: &rsj_query::foreign_key::CombinedRelation,
        st: &mut CombinedState,
        id: u32,
        mut acc: Vec<Value>,
        step: usize,
    ) -> Option<Vec<Value>> {
        for (s, d) in c.dims.iter().enumerate().skip(step) {
            let fk = Key::project(&acc, &d.fk_positions_in_acc);
            match st.dim_maps[s].get(&fk) {
                Some(dim_tuple) => {
                    for &p in &d.append_positions {
                        acc.push(dim_tuple[p]);
                    }
                    st.passed[s].entry(fk).or_default().push(id);
                }
                None => {
                    st.waiting[s].entry(fk).or_default().push(id);
                    st.facts[id as usize] = Some(FactRec {
                        acc,
                        parked_at: Some(s),
                    });
                    return None;
                }
            }
        }
        st.facts[id as usize] = Some(FactRec {
            acc: acc.clone(),
            parked_at: None,
        });
        Some(acc)
    }

    /// A dimension tuple arrived: register it and release waiters.
    fn on_dim(
        &mut self,
        combined: usize,
        step: usize,
        tuple: &[Value],
    ) -> Vec<(usize, Vec<Value>)> {
        let c = &self.plan.combined[combined];
        let d = &c.dims[step];
        let pk = Key::project(tuple, &d.pk_positions_in_dim);
        let st = &mut self.states[combined];
        if let Some(prev) = st.dim_maps[step].get(&pk) {
            assert!(
                prev.as_slice() == tuple,
                "duplicate primary key {pk} in dimension {}",
                c.name
            );
            return Vec::new(); // idempotent re-insert (set semantics)
        }
        st.dim_maps[step].insert(pk, tuple.to_vec());
        self.inserts += 1;
        let waiters = st.waiting[step].remove(&pk).unwrap_or_default();
        let mut out = Vec::new();
        for id in waiters {
            let rec = st.facts[id as usize].take().expect("waiting fact exists");
            let mut acc = rec.acc;
            for &p in &d.append_positions {
                acc.push(tuple[p]);
            }
            st.passed[step].entry(pk).or_default().push(id);
            if let Some(full) = Self::advance(c, st, id, acc, step + 1) {
                out.push((combined, full));
            }
        }
        out
    }

    /// Withdraws a fact: unregister it everywhere, retract its combined
    /// tuple if it had been emitted.
    fn retract_fact(&mut self, combined: usize, tuple: &[Value]) -> Vec<(usize, Vec<Value>)> {
        let c = &self.plan.combined[combined];
        let st = &mut self.states[combined];
        let Some(id) = st.fact_ids.remove(tuple) else {
            return Vec::new(); // absent-tuple delete is a no-op
        };
        self.deletes += 1;
        let rec = st.facts[id as usize].take().expect("registered fact");
        st.free.push(id);
        let progress = rec.parked_at.unwrap_or(c.dims.len());
        for (s, d) in c.dims.iter().enumerate().take(progress) {
            let fk = Key::project(&rec.acc, &d.fk_positions_in_acc);
            unregister(&mut st.passed[s], &fk, id);
        }
        if let Some(park) = rec.parked_at {
            let fk = Key::project(&rec.acc, &c.dims[park].fk_positions_in_acc);
            unregister(&mut st.waiting[park], &fk, id);
        }
        match rec.parked_at {
            None => vec![(combined, rec.acc)],
            Some(_) => Vec::new(),
        }
    }

    /// Withdraws a dimension tuple: every fact that consumed it loses its
    /// emitted combined tuple (if any), rewinds to the state it held before
    /// this dimension arrived, and re-parks at the now-missing step.
    fn retract_dim(
        &mut self,
        combined: usize,
        step: usize,
        tuple: &[Value],
    ) -> Vec<(usize, Vec<Value>)> {
        let c = &self.plan.combined[combined];
        let st = &mut self.states[combined];
        let d = &c.dims[step];
        let pk = Key::project(tuple, &d.pk_positions_in_dim);
        match st.dim_maps[step].get(&pk) {
            Some(existing) if existing.as_slice() == tuple => {}
            _ => return Vec::new(), // absent (or a different tuple): no-op
        }
        st.dim_maps[step].remove(&pk);
        self.deletes += 1;
        let ids = st.passed[step].remove(&pk).unwrap_or_default();
        let mut out = Vec::new();
        for id in ids {
            let rec = st.facts[id as usize].take().expect("passed fact exists");
            let progress = rec.parked_at.unwrap_or(c.dims.len());
            if rec.parked_at.is_none() {
                out.push((combined, rec.acc.clone()));
            }
            for (s, ds) in c.dims.iter().enumerate().take(progress).skip(step + 1) {
                let fk = Key::project(&rec.acc, &ds.fk_positions_in_acc);
                unregister(&mut st.passed[s], &fk, id);
            }
            if let Some(park) = rec.parked_at {
                let fk = Key::project(&rec.acc, &c.dims[park].fk_positions_in_acc);
                unregister(&mut st.waiting[park], &fk, id);
            }
            let mut acc = rec.acc;
            acc.truncate(st.prefix_lens[step]);
            st.waiting[step].entry(pk).or_default().push(id);
            st.facts[id as usize] = Some(FactRec {
                acc,
                parked_at: Some(step),
            });
        }
        out
    }

    /// Serializes the combiner's complete dynamic state canonically:
    /// dimension maps as sorted tuple lists, the fact slab and free list
    /// verbatim (ids are load-bearing), the waiting/`passed` registries
    /// with keys sorted and list orders verbatim (list order fixes future
    /// emission order), and the op counters.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_u64(self.inserts);
        enc.put_u64(self.deletes);
        for st in &self.states {
            for m in &st.dim_maps {
                let mut tuples: Vec<&Vec<Value>> = m.values().collect();
                tuples.sort_unstable();
                enc.put_usize(tuples.len());
                for t in tuples {
                    enc.put_u64s(t);
                }
            }
            enc.put_usize(st.facts.len());
            for slot in &st.facts {
                match slot {
                    Some(rec) => {
                        enc.put_bool(true);
                        enc.put_u64s(&rec.acc);
                        match rec.parked_at {
                            Some(s) => {
                                enc.put_bool(true);
                                enc.put_usize(s);
                            }
                            None => enc.put_bool(false),
                        }
                    }
                    None => enc.put_bool(false),
                }
            }
            enc.put_u32s(&st.free);
            for registry in [&st.waiting, &st.passed] {
                for m in registry {
                    let mut entries: Vec<(&Key, &Vec<u32>)> = m.iter().collect();
                    entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
                    enc.put_usize(entries.len());
                    for (k, ids) in entries {
                        k.encode_to(enc);
                        enc.put_u32s(ids);
                    }
                }
            }
        }
    }

    /// Restores state produced by [`FkCombiner::snapshot_to`] into a
    /// combiner built from the same plan. On error the receiver may be
    /// partially overwritten and must be discarded.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        self.inserts = dec.u64()?;
        self.deletes = dec.u64()?;
        for (ci, c) in self.plan.combined.iter().enumerate() {
            let st = &mut self.states[ci];
            for (s, d) in c.dims.iter().enumerate() {
                let n = dec.seq_len(8)?;
                let mut m = FxHashMap::default();
                for _ in 0..n {
                    let t = dec.u64s()?;
                    let pk = Key::project(&t, &d.pk_positions_in_dim);
                    if m.insert(pk, t).is_some() {
                        return Err(CodecError::Corrupt("duplicate dimension PK in snapshot"));
                    }
                }
                st.dim_maps[s] = m;
            }
            let slots = dec.seq_len(1)?;
            let mut facts = Vec::with_capacity(slots);
            let mut fact_ids = FxHashMap::default();
            let fact_arity = st.prefix_lens[0];
            for id in 0..slots {
                if !dec.bool()? {
                    facts.push(None);
                    continue;
                }
                let acc = dec.u64s()?;
                let parked_at = if dec.bool()? {
                    let s = dec.usize()?;
                    if s >= c.dims.len() {
                        return Err(CodecError::Corrupt("parked step out of range"));
                    }
                    Some(s)
                } else {
                    None
                };
                let expect_len = st.prefix_lens[parked_at.unwrap_or(c.dims.len())];
                if acc.len() != expect_len || acc.len() < fact_arity {
                    return Err(CodecError::Corrupt("fact prefix length mismatch"));
                }
                if fact_ids
                    .insert(acc[..fact_arity].to_vec(), id as u32)
                    .is_some()
                {
                    return Err(CodecError::Corrupt("duplicate fact tuple in snapshot"));
                }
                facts.push(Some(FactRec { acc, parked_at }));
            }
            st.facts = facts;
            st.fact_ids = fact_ids;
            st.free = dec.u32s()?;
            for which in 0..2 {
                for s in 0..c.dims.len() {
                    let n = dec.seq_len(2)?;
                    let mut m: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
                    for _ in 0..n {
                        let k = Key::decode_from(dec)?;
                        let ids = dec.u32s()?;
                        if ids.is_empty() {
                            return Err(CodecError::Corrupt("empty registry list"));
                        }
                        for &id in &ids {
                            if st.facts.get(id as usize).is_none_or(|f| f.is_none()) {
                                return Err(CodecError::Corrupt("registry id without a fact"));
                            }
                        }
                        if m.insert(k, ids).is_some() {
                            return Err(CodecError::Corrupt("duplicate registry key"));
                        }
                    }
                    if which == 0 {
                        st.waiting[s] = m;
                    } else {
                        st.passed[s] = m;
                    }
                }
            }
        }
        Ok(())
    }

    /// Estimated heap bytes of the combiner state (dimension maps, fact
    /// slab, registries).
    pub fn heap_size(&self) -> usize {
        self.states
            .iter()
            .map(|st| {
                let dims: usize = st
                    .dim_maps
                    .iter()
                    .map(|m| {
                        m.values()
                            .map(|v| v.capacity() * std::mem::size_of::<Value>() + 48)
                            .sum::<usize>()
                    })
                    .sum();
                let facts: usize = st
                    .facts
                    .iter()
                    .flatten()
                    .map(|r| r.acc.capacity() * std::mem::size_of::<Value>() + 48)
                    .sum();
                let lists: usize = st
                    .waiting
                    .iter()
                    .chain(st.passed.iter())
                    .map(|m| m.values().map(|ids| ids.capacity() * 4 + 48).sum::<usize>())
                    .sum();
                dims + facts + lists
            })
            .sum()
    }
}

/// How building an [`FkReservoirJoin`] can fail: the static rewrite
/// rejected the schema, or the inner acyclic driver rejected the rewritten
/// query.
#[derive(Debug)]
pub enum FkBuildError {
    /// The foreign-key rewrite failed (see [`rsj_query::CombineError`]).
    Rewrite(rsj_query::CombineError),
    /// The inner dynamic index rejected the rewritten query.
    Index(rsj_index::dynamic::IndexError),
}

impl std::fmt::Display for FkBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FkBuildError::Rewrite(e) => write!(f, "{e}"),
            FkBuildError::Index(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FkBuildError {}

impl From<rsj_query::CombineError> for FkBuildError {
    fn from(e: rsj_query::CombineError) -> FkBuildError {
        FkBuildError::Rewrite(e)
    }
}

impl From<rsj_index::dynamic::IndexError> for FkBuildError {
    fn from(e: rsj_index::dynamic::IndexError) -> FkBuildError {
        FkBuildError::Index(e)
    }
}

/// `RSJoin_opt`: a [`super::ReservoirJoin`] over the FK-rewritten query,
/// fed through an [`FkCombiner`].
pub struct FkReservoirJoin {
    /// The original query the input stream addresses.
    query: Query,
    combiner: FkCombiner,
    inner: super::ReservoirJoin,
}

impl FkReservoirJoin {
    /// Builds the optimized driver from the original query, its FK schema,
    /// and reservoir parameters, with the default index options.
    pub fn new(
        query: &Query,
        fks: &rsj_query::FkSchema,
        k: usize,
        seed: u64,
    ) -> Result<FkReservoirJoin, FkBuildError> {
        Self::with_options(query, fks, k, seed, rsj_index::IndexOptions::default())
    }

    /// Builds the optimized driver with explicit index options for the
    /// inner acyclic driver.
    pub fn with_options(
        query: &Query,
        fks: &rsj_query::FkSchema,
        k: usize,
        seed: u64,
        options: rsj_index::IndexOptions,
    ) -> Result<FkReservoirJoin, FkBuildError> {
        let plan = CombinePlan::build(query, fks)?;
        let inner = super::ReservoirJoin::with_options(plan.rewritten.clone(), k, seed, options)?;
        Ok(FkReservoirJoin {
            query: query.clone(),
            combiner: FkCombiner::new(plan),
            inner,
        })
    }

    /// Processes one original-stream tuple.
    pub fn process(&mut self, orig_rel: usize, tuple: &[Value]) {
        for (rel, t) in self.combiner.process(orig_rel, tuple) {
            self.inner.process(rel, &t);
        }
    }

    /// Deletes one original-stream tuple: the combiner's `-1` deltas route
    /// to the inner driver's delete path, which repairs its reservoir by
    /// eviction-and-backfill against the exact live count.
    pub fn delete(&mut self, orig_rel: usize, tuple: &[Value]) {
        for (rel, t) in self.combiner.retract(orig_rel, tuple) {
            self.inner.delete(rel, &t);
        }
    }

    /// Current samples, as value tuples of the *rewritten* query (attribute
    /// names are preserved; use [`Self::rewritten_query`] to interpret).
    pub fn samples(&self) -> &[Vec<Value>] {
        self.inner.samples()
    }

    /// The rewritten query.
    pub fn rewritten_query(&self) -> &Query {
        self.combiner.rewritten_query()
    }

    /// The original query, whose relations the input stream addresses.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The streaming combiner.
    pub fn combiner(&self) -> &FkCombiner {
        &self.combiner
    }

    /// The inner acyclic driver.
    pub fn inner(&self) -> &super::ReservoirJoin {
        &self.inner
    }

    /// Mutable access to the inner acyclic driver (re-planning the
    /// rewritten-query orientation).
    pub fn inner_mut(&mut self) -> &mut super::ReservoirJoin {
        &mut self.inner
    }

    /// Exact live `|Q(R)|`, read from the inner index's resident count
    /// view — the same view the delete repair folds, so a count costs the
    /// combined tuples logged since the previous one, not an `O(N)` walk.
    pub fn exact_result_count(&self) -> u128 {
        self.inner.index().exact_count()
    }

    /// Serializes the full dynamic state: combiner registries, then the
    /// inner driver's snapshot.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.combiner.snapshot_to(enc);
        self.inner.snapshot_to(enc);
    }

    /// Restores from a [`FkReservoirJoin::snapshot_to`] image taken by a
    /// driver built with the same `(query, fks, k, seed, options)`.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        self.combiner.restore_from_snapshot(dec)?;
        self.inner.restore_from_snapshot(dec)
    }

    /// Estimated heap bytes (combiner state + inner driver).
    pub fn heap_size(&self) -> usize {
        self.combiner.heap_size() + self.inner.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_common::FxHashSet;
    use rsj_query::{FkSchema, QueryBuilder};

    /// fact(K, M) ⋈ dim(K, D), PK(dim) = K.
    fn simple_plan() -> CombinePlan {
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("dim", &["K", "D"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(2).with_pk(1, vec![0]);
        CombinePlan::build(&q, &fks).unwrap()
    }

    #[test]
    fn fact_after_dim_emits_immediately() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(c.process(1, &[7, 100]).is_empty());
        let out = c.process(0, &[7, 1]);
        assert_eq!(out, vec![(0, vec![7, 1, 100])]);
    }

    #[test]
    fn fact_before_dim_waits_then_flushes() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(c.process(0, &[7, 1]).is_empty());
        assert!(c.process(0, &[7, 2]).is_empty());
        let out = c.process(1, &[7, 100]);
        let set: FxHashSet<Vec<u64>> = out.into_iter().map(|(_, t)| t).collect();
        assert_eq!(
            set,
            [vec![7, 1, 100], vec![7, 2, 100]].into_iter().collect()
        );
    }

    #[test]
    fn unmatched_fact_never_emits() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(c.process(0, &[9, 1]).is_empty());
        assert!(c.process(1, &[7, 100]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn duplicate_pk_asserts() {
        // Two *different* tuples under one PK violate the FkSchema
        // contract; an identical re-insert is an idempotent no-op.
        let mut c = FkCombiner::new(simple_plan());
        c.process(1, &[7, 100]);
        assert!(c.process(1, &[7, 100]).is_empty());
        c.process(1, &[7, 200]);
    }

    #[test]
    fn retracting_a_fact_withdraws_its_emission() {
        let mut c = FkCombiner::new(simple_plan());
        c.process(1, &[7, 100]);
        assert_eq!(c.process(0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        assert_eq!(c.retract(0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        // Gone: retracting again (or the dim) withdraws nothing further.
        assert!(c.retract(0, &[7, 1]).is_empty());
        assert!(c.retract(1, &[7, 100]).is_empty());
        assert_eq!(c.inserts(), 2);
        assert_eq!(c.deletes(), 2);
    }

    #[test]
    fn retracting_a_parked_fact_is_silent() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(c.process(0, &[7, 1]).is_empty()); // parked at the dim
        assert!(c.retract(0, &[7, 1]).is_empty());
        // The dim arriving later releases nothing.
        assert!(c.process(1, &[7, 100]).is_empty());
    }

    #[test]
    fn retracting_a_dim_reparks_its_consumers() {
        let mut c = FkCombiner::new(simple_plan());
        c.process(1, &[7, 100]);
        assert_eq!(c.process(0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        assert!(c.process(0, &[8, 2]).is_empty()); // different key, parked
                                                   // Withdraw the dim: the emitted combined tuple comes back signed -1.
        assert_eq!(c.retract(1, &[7, 100]), vec![(0, vec![7, 1, 100])]);
        // The fact is parked again: re-inserting the dim re-emits it.
        assert_eq!(c.process(1, &[7, 100]), vec![(0, vec![7, 1, 100])]);
        // And the unrelated parked fact is still waiting for its own key.
        assert_eq!(c.process(1, &[8, 50]), vec![(0, vec![8, 2, 50])]);
    }

    /// Chain: fact(K,M) ⋈ d1(K,L) ⋈ d2(L,W); PKs d1.K, d2.L.
    fn chain_plan() -> CombinePlan {
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("d1", &["K", "L"]);
        qb.relation("d2", &["L", "W"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2]);
        CombinePlan::build(&q, &fks).unwrap()
    }

    #[test]
    fn chain_resolves_in_any_arrival_order() {
        // All 6 arrival orders of {fact, d1, d2} must emit the same single
        // combined tuple.
        let events: [(usize, Vec<u64>); 3] = [(0, vec![7, 1]), (1, vec![7, 3]), (2, vec![3, 9])];
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for order in orders {
            let mut c = FkCombiner::new(chain_plan());
            let mut emitted = Vec::new();
            for &i in &order {
                let (rel, t) = &events[i];
                emitted.extend(c.process(*rel, t));
            }
            assert_eq!(emitted, vec![(0, vec![7, 1, 3, 9])], "order {order:?}");
        }
    }

    #[test]
    fn mid_chain_dim_retraction_rewinds_to_that_step() {
        // Retracting d1 must also unregister the fact from d2's registries
        // and truncate its accumulated tuple back to the fact prefix.
        let mut c = FkCombiner::new(chain_plan());
        c.process(1, &[7, 3]); // d1: K=7 -> L=3
        c.process(2, &[3, 9]); // d2: L=3 -> W=9
        assert_eq!(c.process(0, &[7, 1]), vec![(0, vec![7, 1, 3, 9])]);
        assert_eq!(c.retract(1, &[7, 3]), vec![(0, vec![7, 1, 3, 9])]);
        // Retracting d2 now withdraws nothing (the fact rewound past it).
        assert!(c.retract(2, &[3, 9]).is_empty());
        // A different d1 binding re-routes the fact through a fresh chain.
        c.process(2, &[4, 11]);
        assert_eq!(c.process(1, &[7, 4]), vec![(0, vec![7, 1, 4, 11])]);
    }

    /// Turnstile equivalence: a shuffled insert/delete history must leave
    /// the combiner emitting exactly the live combined tuples — checked by
    /// maintaining the signed multiset of emissions against a brute-force
    /// recomputation over the live input.
    #[test]
    fn signed_emissions_track_the_live_combined_relation() {
        let mut rng = RsjRng::seed_from_u64(97);
        let mut c = FkCombiner::new(chain_plan());
        let mut live: [FxHashSet<Vec<u64>>; 3] = Default::default();
        let mut emitted: FxHashSet<Vec<u64>> = FxHashSet::default();
        for step in 0..4000 {
            let rel = rng.index(3);
            let t = match rel {
                0 => vec![rng.below_u64(6), rng.below_u64(4)],
                1 => vec![rng.below_u64(6), rng.below_u64(6)],
                _ => vec![rng.below_u64(6), rng.below_u64(8)],
            };
            // Dims: one tuple per PK (the FkSchema contract). Delete the
            // old binding before inserting a conflicting one.
            let dim_pk_conflict = (rel == 1 || rel == 2)
                && live[rel].iter().any(|u| u[0] == t[0] && u.as_slice() != t);
            if dim_pk_conflict || (rng.below_u64(4) == 0 && live[rel].contains(&t)) {
                let victim = if dim_pk_conflict {
                    live[rel].iter().find(|u| u[0] == t[0]).unwrap().clone()
                } else {
                    t.clone()
                };
                live[rel].remove(&victim);
                for (_, gone) in c.retract(rel, &victim) {
                    assert!(emitted.remove(&gone), "step {step}: unknown retraction");
                }
                if !dim_pk_conflict {
                    continue;
                }
            }
            if live[rel].insert(t.clone()) {
                for (_, new) in c.process(rel, &t) {
                    assert!(emitted.insert(new), "step {step}: duplicate emission");
                }
            }
        }
        // Brute-force the live combined relation: fact ⋈ d1 ⋈ d2.
        let mut expect: FxHashSet<Vec<u64>> = FxHashSet::default();
        for f in &live[0] {
            for d1 in live[1].iter().filter(|d| d[0] == f[0]) {
                for d2 in live[2].iter().filter(|d| d[0] == d1[1]) {
                    expect.insert(vec![f[0], f[1], d1[1], d2[1]]);
                }
            }
        }
        assert_eq!(emitted, expect);
        assert!(c.inserts() > 0 && c.deletes() > 0);
    }

    #[test]
    fn combiner_snapshot_round_trips_mid_history() {
        let mut rng = RsjRng::seed_from_u64(131);
        let mut c = FkCombiner::new(chain_plan());
        let mut live: [FxHashSet<Vec<u64>>; 3] = Default::default();
        let mut history: Vec<(bool, usize, Vec<u64>)> = Vec::new();
        for _ in 0..600 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(5), rng.below_u64(5)];
            if rel != 0 && live[rel].iter().any(|u| u[0] == t[0] && u.as_slice() != t) {
                continue; // would violate the PK contract
            }
            if rng.below_u64(4) == 0 && live[rel].contains(&t) {
                live[rel].remove(&t);
                history.push((false, rel, t));
            } else if live[rel].insert(t.clone()) {
                history.push((true, rel, t));
            }
        }
        let split = history.len() * 2 / 3;
        for (insert, rel, t) in &history[..split] {
            if *insert {
                c.process(*rel, t);
            } else {
                c.retract(*rel, t);
            }
        }
        let mut enc = Encoder::new();
        c.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = FkCombiner::new(chain_plan());
        restored
            .restore_from_snapshot(&mut Decoder::new(&bytes))
            .unwrap();
        // Identical emissions (and order) on the rest of the history.
        for (insert, rel, t) in &history[split..] {
            let (a, b) = if *insert {
                (c.process(*rel, t), restored.process(*rel, t))
            } else {
                (c.retract(*rel, t), restored.retract(*rel, t))
            };
            assert_eq!(a, b);
        }
        assert_eq!(c.inserts(), restored.inserts());
        assert_eq!(c.deletes(), restored.deletes());
        // Truncated images are rejected, not mis-restored.
        let mut fresh = FkCombiner::new(chain_plan());
        assert!(fresh
            .restore_from_snapshot(&mut Decoder::new(&bytes[..bytes.len() / 2]))
            .is_err());
    }

    #[test]
    fn fk_reservoir_matches_plain_reservoir_results() {
        // QY-like query; with k >= results, RSJoin and RSJoin_opt must
        // collect the same set of value assignments.
        let build_query = || {
            let mut qb = QueryBuilder::new();
            qb.relation("ss", &["CK", "M"]);
            qb.relation("c1", &["CK", "HD1"]);
            qb.relation("d1", &["HD1", "IB"]);
            qb.relation("d2", &["HD2", "IB"]);
            qb.relation("c2", &["HD2", "M2"]);
            qb.build().unwrap()
        };
        let q = build_query();
        let fks = FkSchema::none(5)
            .with_pk(1, vec![0])
            .with_pk(2, vec![2])
            .with_pk(3, vec![4]);
        let mut rng = RsjRng::seed_from_u64(21);
        // Dimensions with unique PKs; facts with random FKs.
        let mut stream: Vec<(usize, Vec<u64>)> = Vec::new();
        for ck in 0..10u64 {
            stream.push((1, vec![ck, ck % 4]));
        }
        for hd in 0..4u64 {
            stream.push((2, vec![hd, hd % 2]));
            stream.push((3, vec![hd, hd % 2]));
        }
        for _ in 0..30 {
            stream.push((0, vec![rng.below_u64(10), rng.below_u64(100)]));
            stream.push((4, vec![rng.below_u64(4), rng.below_u64(100)]));
        }
        let mut s = stream.clone();
        let mut shuffle_rng = RsjRng::seed_from_u64(33);
        for i in (1..s.len()).rev() {
            let j = shuffle_rng.index(i + 1);
            s.swap(i, j);
        }
        // Plain driver over the original query.
        let mut plain = super::super::ReservoirJoin::new(q.clone(), 100_000, 1).unwrap();
        // Optimized driver.
        let mut opt = FkReservoirJoin::new(&q, &fks, 100_000, 2).unwrap();
        for (rel, t) in &s {
            plain.process(*rel, t);
            opt.process(*rel, t);
        }
        // Compare as sets of (attr name -> value) maps, since the rewritten
        // query orders attributes differently.
        let project = |samples: &[Vec<u64>], query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        let a = project(plain.samples(), &q);
        let b = project(opt.samples(), opt.rewritten_query());
        assert!(!a.is_empty(), "test instance produced no results");
        assert_eq!(a, b);
    }

    #[test]
    fn fk_reservoir_deletes_match_plain_reservoir_deletes() {
        // Same QY-like instance, now with a turnstile tail: both engines
        // must converge on the live result set after deletes hit facts and
        // dimensions alike.
        let mut qb = QueryBuilder::new();
        qb.relation("ss", &["CK", "M"]);
        qb.relation("c1", &["CK", "HD1"]);
        qb.relation("d1", &["HD1", "IB"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2]);
        let mut plain = super::super::ReservoirJoin::new(q.clone(), 100_000, 1).unwrap();
        let mut opt = FkReservoirJoin::new(&q, &fks, 100_000, 2).unwrap();
        let mut apply = |ins: bool, rel: usize, t: &[u64]| {
            if ins {
                plain.process(rel, t);
                opt.process(rel, t);
            } else {
                plain.delete(rel, t);
                opt.delete(rel, t);
            }
        };
        for ck in 0..6u64 {
            apply(true, 1, &[ck, ck % 3]);
        }
        for hd in 0..3u64 {
            apply(true, 2, &[hd, hd * 10]);
        }
        for i in 0..24u64 {
            apply(true, 0, &[i % 6, i]);
        }
        // Delete a dimension tuple (kills every chain through CK=2), two
        // facts, and a second-level dimension tuple.
        apply(false, 1, &[2, 2]);
        apply(false, 0, &[0, 0]);
        apply(false, 0, &[3, 3]);
        apply(false, 2, &[1, 10]);
        let project = |samples: &[Vec<u64>], query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        let a = project(plain.samples(), &q);
        let b = project(opt.samples(), opt.rewritten_query());
        assert!(!a.is_empty(), "deletes emptied the test instance");
        assert_eq!(a, b);
        assert_eq!(opt.exact_result_count(), a.len() as u128);
    }
}
