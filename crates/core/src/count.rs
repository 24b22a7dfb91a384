//! Exact `|Q(R)|` counting outside a dynamic index.
//!
//! Engines built on a [`DynamicIndex`](rsj_index::DynamicIndex) read the
//! exact count from the index's resident view
//! ([`DynamicIndex::exact_count`](rsj_index::DynamicIndex::exact_count)),
//! which folds a signed dirty log instead of recounting. What stays here
//! is counting from scratch, over the one allocation-free message pass
//! ([`CountPlan`]) the view's own full-pass fallback runs:
//!
//! * [`exact_result_count`] counts directly over a [`Database`] (live
//!   tuples only — tombstones are skipped): the stand-alone oracle tests
//!   and benchmarks check the view against. It builds the join tree on
//!   every call, so engines never call it on a hot path;
//! * `JoinCounter` (crate-internal, used by the sharded workers and the
//!   service's boxed members) owns its tuple sets — those engines have no
//!   relation access through the `JoinSampler` interface — and counts on
//!   demand, with deletions removing from the sets.
//!
//! Acyclic queries count by one bottom-up pass over the join tree (`O(N)`
//! with hashing); queries without a join tree (or with a join key wider
//! than `MAX_KEY_ARITY`) fall back to backtracking enumeration.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashSet, Value};
use rsj_index::CountPlan;
use rsj_query::{JoinTree, Query};
use rsj_storage::Database;

/// Exact `|Q(R)|` over the live tuples of `db`.
///
/// One `O(N)` join-tree message pass for acyclic queries, backtracking
/// enumeration otherwise. Tombstoned (deleted) tuples are skipped.
pub fn exact_result_count(query: &Query, db: &Database) -> u128 {
    match JoinTree::build(query).and_then(|tree| CountPlan::new(query, &tree)) {
        Some(plan) => plan.count(|r| db.relation(r).iter().map(|(_, t)| t)),
        None => {
            let seen: Vec<Vec<Vec<Value>>> = (0..query.num_relations())
                .map(|r| db.relation(r).iter().map(|(_, t)| t.to_vec()).collect())
                .collect();
            count_backtracking(query, &seen, 0, &mut vec![None; query.num_attrs()])
        }
    }
}

/// Exact per-shard result counting: a `Database`-free sidecar that stores
/// the shard's accepted tuples (set semantics) and computes `|Q_i|` on
/// demand.
///
/// The sidecar keeps its own copy of the shard's tuples — roughly
/// doubling per-shard input storage next to the inner engine's — because
/// the `JoinSampler` interface deliberately exposes no relation access;
/// the trade is input-linear memory for an exact merge with any engine.
/// Deletions remove from the sets, so the count stays exact under
/// turnstile streams.
pub(crate) struct JoinCounter {
    query: Query,
    plan: Option<CountPlan>,
    /// Per relation: the distinct tuples currently live.
    seen: Vec<FxHashSet<Vec<Value>>>,
}

impl JoinCounter {
    pub(crate) fn new(query: Query) -> JoinCounter {
        let plan = JoinTree::build(&query).and_then(|t| CountPlan::new(&query, &t));
        let seen = vec![FxHashSet::default(); query.num_relations()];
        JoinCounter { query, plan, seen }
    }

    /// Accepts one tuple; duplicates are no-ops, mirroring the engines' set
    /// semantics.
    pub(crate) fn insert(&mut self, rel: usize, tuple: Vec<Value>) {
        self.seen[rel].insert(tuple);
    }

    /// Removes one tuple; absent tuples are no-ops (set semantics).
    pub(crate) fn remove(&mut self, rel: usize, tuple: &[Value]) {
        self.seen[rel].remove(tuple);
    }

    /// Serializes the live tuple sets, sorted per relation for a canonical
    /// image. The counting plan is a pure function of the query and is not
    /// serialized.
    pub(crate) fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.seen.len());
        for side in &self.seen {
            let mut tuples: Vec<&Vec<Value>> = side.iter().collect();
            tuples.sort_unstable();
            enc.put_usize(tuples.len());
            for t in tuples {
                enc.put_u64s(t);
            }
        }
    }

    /// Restores the live tuple sets from a [`JoinCounter::snapshot_to`]
    /// image taken over the same query.
    pub(crate) fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let seen = Self::decode_live(dec, self.query.num_relations())?;
        self.seen = seen;
        Ok(())
    }

    /// Decodes the per-relation live tuple sets of a counter image without
    /// needing a counter instance — the shard-rebalance replay path reads
    /// old counter images directly.
    pub(crate) fn decode_live(
        dec: &mut Decoder,
        num_relations: usize,
    ) -> Result<Vec<FxHashSet<Vec<Value>>>, CodecError> {
        let nrels = dec.seq_len(1)?;
        if nrels != num_relations {
            return Err(CodecError::Corrupt(
                "counter snapshot relation count mismatch",
            ));
        }
        let mut seen = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            let n = dec.seq_len(1)?;
            let mut side = FxHashSet::default();
            for _ in 0..n {
                if !side.insert(dec.u64s()?) {
                    return Err(CodecError::Corrupt("duplicate tuple in counter snapshot"));
                }
            }
            seen.push(side);
        }
        Ok(seen)
    }

    /// Structural heap bytes of the live tuple sets — the sidecar's share
    /// of a service member's footprint.
    pub(crate) fn heap_size(&self) -> usize {
        self.seen
            .iter()
            .map(|side| {
                side.capacity() * std::mem::size_of::<Vec<Value>>()
                    + side
                        .iter()
                        .map(|t| t.capacity() * std::mem::size_of::<Value>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Exact `|Q_i|` over the live accepted tuples.
    pub(crate) fn count(&self) -> u128 {
        match &self.plan {
            Some(plan) => plan.count(|r| self.seen[r].iter().map(|t| t.as_slice())),
            None => {
                let seen: Vec<Vec<Vec<Value>>> = self
                    .seen
                    .iter()
                    .map(|s| s.iter().cloned().collect())
                    .collect();
                count_backtracking(
                    &self.query,
                    &seen,
                    0,
                    &mut vec![None; self.query.num_attrs()],
                )
            }
        }
    }
}

fn count_backtracking(
    query: &Query,
    seen: &[Vec<Vec<Value>>],
    rel: usize,
    partial: &mut Vec<Option<Value>>,
) -> u128 {
    if rel == query.num_relations() {
        return 1;
    }
    let schema = &query.relation(rel).attrs;
    let mut total: u128 = 0;
    'tuples: for t in &seen[rel] {
        let mut newly_bound = Vec::new();
        for (pos, &attr) in schema.iter().enumerate() {
            match partial[attr] {
                Some(v) if v != t[pos] => {
                    for &a in &newly_bound {
                        partial[a] = None;
                    }
                    continue 'tuples;
                }
                Some(_) => {}
                None => {
                    partial[attr] = Some(t[pos]);
                    newly_bound.push(attr);
                }
            }
        }
        total = total.saturating_add(count_backtracking(query, seen, rel + 1, partial));
        for &a in &newly_bound {
            partial[a] = None;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_query::QueryBuilder;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    #[test]
    fn db_count_matches_counter_and_tracks_deletes() {
        let q = line3();
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        let mut counter = JoinCounter::new(q.clone());
        let mut rng = RsjRng::seed_from_u64(9);
        let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
        for _ in 0..250 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(5), rng.below_u64(5)];
            if db.relation_mut(rel).insert(&t).is_some() {
                live.push((rel, t.clone()));
            }
            counter.insert(rel, t);
        }
        assert_eq!(exact_result_count(&q, &db), counter.count());
        assert!(counter.count() > 0, "degenerate instance");
        // Delete a third of the live tuples from both sides.
        for (rel, t) in live.iter().step_by(3) {
            db.relation_mut(*rel).remove(t).unwrap();
            counter.remove(*rel, t);
        }
        assert_eq!(exact_result_count(&q, &db), counter.count());
    }

    #[test]
    fn cyclic_count_over_database() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        db.relation_mut(0).insert(&[1, 2]);
        db.relation_mut(1).insert(&[2, 3]);
        db.relation_mut(2).insert(&[3, 1]);
        db.relation_mut(2).insert(&[3, 9]);
        assert_eq!(exact_result_count(&q, &db), 1);
        db.relation_mut(2).remove(&[3, 1]).unwrap();
        assert_eq!(exact_result_count(&q, &db), 0);
    }
}
