//! The executor layer: one uniform interface over every join-sampling
//! engine.
//!
//! The paper's evaluation (§6) compares seven engines — `RSJoin`,
//! `RSJoin_opt`, the cyclic GHD driver, and the `NaiveRebuild` / `SJoin` /
//! `SJoin_opt` / `SymmetricHashJoin` baselines. Each historically exposed
//! its own ad-hoc `process` method, so every test, bench and example
//! re-implemented the same driver loop per engine. [`JoinSampler`] is the
//! shared operator interface: feed original-stream tuples in arrival
//! order, read back the current uniform sample, inspect instrumentation.
//!
//! Implementations for the three paper engines live here; the baselines
//! implement the trait in `rsj-baselines`, and the `Engine` factory that
//! constructs any of the seven behind `Box<dyn JoinSampler>` lives in the
//! `rsjoin` facade crate.

use crate::cyclic::CyclicReservoirJoin;
use crate::fk_runtime::FkReservoirJoin;
use crate::reservoir_join::ReservoirJoin;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::{ColumnarBatch, InputTuple, OpStream, StreamOp, TupleStream};

/// Uniform instrumentation snapshot across engines.
///
/// Every field is optional: engines report what they actually measure
/// (`None` never means zero, it means "not tracked by this engine").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Distinct tuples accepted (set semantics). On an insert-only stream
    /// this is the paper's `N`; under turnstile streams subtract
    /// [`deletes`](SamplerStats::deletes) for the live count.
    pub inserts: Option<u64>,
    /// Tuples deleted (present at deletion time; absent-tuple deletes are
    /// no-ops and not counted). Always zero for insert-only engines.
    pub deletes: Option<u64>,
    /// Predicate-evaluating reservoir stops, each costing one retrieve.
    pub reservoir_stops: Option<u64>,
    /// Estimated heap footprint in bytes (index + reservoir).
    pub heap_bytes: Option<usize>,
    /// Exact `|Q(R)|` when the engine maintains it (SJoin family,
    /// symmetric hash join).
    pub exact_results: Option<u128>,
    /// Worker restarts performed by a supervising executor (sharded
    /// executor) after fault-induced deaths.
    pub restarts: Option<u64>,
    /// Transient I/O errors absorbed by retry/backoff in the durability
    /// layer.
    pub retries: Option<u64>,
    /// Degradation indicator: dead shards past the restart budget, or `1`
    /// when a durability wrapper is serving with logging marked lost.
    pub degraded: Option<u64>,
}

/// A [`StreamOp::Delete`] was fed to an engine that only supports
/// insert-only streams (see [`JoinSampler::supports_deletes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeleteUnsupported {
    /// [`JoinSampler::name`] of the rejecting engine.
    pub engine: &'static str,
}

impl std::fmt::Display for DeleteUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} is insert-only: it cannot process StreamOp::Delete",
            self.engine
        )
    }
}

impl std::error::Error for DeleteUnsupported {}

/// A streaming join-sampling engine: maintains `k` uniform samples without
/// replacement of `Q(R)` while tuples of `R` stream in.
///
/// The unit of work is [`process`](JoinSampler::process): one tuple of the
/// *original* query's stream. Engines that internally rewrite the query
/// (foreign-key combination, GHD bag-level queries) still accept original
/// relation indices and translate internally; their samples are tuples of
/// [`output_query`](JoinSampler::output_query), which may order attributes
/// differently from the original. [`samples_named`](JoinSampler::samples_named)
/// is the engine-independent view used for cross-engine comparison.
pub trait JoinSampler {
    /// Short display name (`"RSJoin"`, `"SJoin_opt"`, ...).
    fn name(&self) -> &'static str;

    /// The query whose attribute ids index the rows of
    /// [`samples`](JoinSampler::samples). For rewriting engines this is
    /// the rewritten/bag-level query; attribute *names* always match the
    /// original query's.
    fn output_query(&self) -> &Query;

    /// The query whose relations the *input* stream addresses: ops name
    /// its relation indices and carry tuples of its arities. Defaults to
    /// [`output_query`](JoinSampler::output_query); engines that rewrite
    /// their query (foreign-key combination, GHD bags, sharding over a
    /// rewriting engine) return the original. Callers validate ops
    /// against it before handing them over — the durability layer does,
    /// so an op the engine would reject never reaches the log.
    fn input_query(&self) -> &Query {
        self.output_query()
    }

    /// Feeds one tuple of the original stream. Duplicate tuples are no-ops
    /// (set semantics).
    fn process(&mut self, rel: usize, tuple: &[Value]);

    /// Feeds a delta batch of original-stream tuples in arrival order.
    ///
    /// Semantically identical to calling [`process`](JoinSampler::process)
    /// per tuple (samples are byte-identical for a fixed seed). The
    /// sharded executor's workers feed each channel batch to their inner
    /// engine through this entry point, so the `RSJoin` family keeps its
    /// projection scratch and materialization buffers hot across the
    /// whole batch.
    fn process_batch(&mut self, batch: &[InputTuple]) {
        for t in batch {
            self.process(t.relation, &t.values);
        }
    }

    /// Feeds an entire stream in arrival order.
    fn process_stream(&mut self, stream: &TupleStream) {
        self.process_batch(stream.tuples());
    }

    /// Feeds a columnar (struct-of-arrays) batch.
    ///
    /// The batch is a transport format: the default adapter shreds it back
    /// to rows in arrival order through [`process`](JoinSampler::process),
    /// byte-identical to having fed the source rows directly. Only the
    /// sharded executor overrides it, to split the batch across shards
    /// without re-shaping it; see ARCHITECTURE.md, "Columnar transport".
    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        batch.shred(|rel, t| self.process(rel, t));
    }

    /// Whether this engine accepts [`StreamOp::Delete`] — the capability
    /// probe of the update-model contract (see ARCHITECTURE.md, "Update
    /// model"). Insert-only engines keep the default `false` and
    /// [`process_op`](JoinSampler::process_op) rejects deletes for them.
    fn supports_deletes(&self) -> bool {
        false
    }

    /// Feeds one turnstile stream op. Inserts behave exactly like
    /// [`process`](JoinSampler::process); deletes remove the tuple (set
    /// semantics — deleting an absent tuple is a no-op) and repair the
    /// maintained sample so it stays uniform over the post-delete `Q(R)`.
    ///
    /// The default implementation handles inserts and errors on deletes;
    /// fully-dynamic engines override it together with
    /// [`supports_deletes`](JoinSampler::supports_deletes).
    fn process_op(&mut self, op: &StreamOp) -> Result<(), DeleteUnsupported> {
        match op {
            StreamOp::Insert(t) => {
                self.process(t.relation, &t.values);
                Ok(())
            }
            StreamOp::Delete(_) => Err(DeleteUnsupported {
                engine: self.name(),
            }),
        }
    }

    /// Feeds a batch of turnstile ops in arrival order. The batch is
    /// atomic with respect to capability: it is pre-scanned, and a batch
    /// containing any delete an insert-only engine cannot process is
    /// rejected *before any op is applied*, leaving the sampler
    /// byte-identical to its pre-batch state (the same contract the
    /// service layer enforces per batch).
    ///
    /// Delete-free windows travel as one [`ColumnarBatch`] through
    /// [`process_columnar`](JoinSampler::process_columnar), with identical
    /// samples and stats (the sharded executor routes the whole window at
    /// once). Windows containing any delete stay on the per-op path (the
    /// columnar layout is insert-only).
    fn process_op_batch(&mut self, ops: &[StreamOp]) -> Result<(), DeleteUnsupported> {
        if let Some(batch) = ColumnarBatch::from_insert_ops(ops) {
            self.process_columnar(&batch);
            return Ok(());
        }
        // The batch contains at least one delete: reject it up front if
        // this engine is insert-only, so no prefix of the batch lands.
        if !self.supports_deletes() {
            return Err(DeleteUnsupported {
                engine: self.name(),
            });
        }
        for op in ops {
            self.process_op(op)?;
        }
        Ok(())
    }

    /// Feeds an entire turnstile stream in arrival order.
    fn process_op_stream(&mut self, stream: &OpStream) -> Result<(), DeleteUnsupported> {
        self.process_op_batch(stream.ops())
    }

    /// Re-evaluates the engine's execution plan against statistics
    /// observed so far and adapts it — for the `RSJoin` family, the
    /// adaptive re-rooting hook (see `rsj_core::reservoir_join`): a
    /// cost-model pass over the live stored relations that may switch the
    /// sampling root in place or rebuild the dynamic index into a better
    /// join-tree orientation, repopulating the reservoir exactly.
    ///
    /// Returns `true` when anything about the plan changed. The default is
    /// a no-op for engines without plan choice (the exact-count baselines,
    /// the two-table symmetric join).
    fn replan(&mut self) -> bool {
        false
    }

    /// The current samples as materialized full-width value tuples of
    /// [`output_query`](JoinSampler::output_query): uniform without
    /// replacement over `Q(R)`, fewer than `k` while `|Q(R)| < k`.
    ///
    /// Returns an owned vector because some engines materialize on demand;
    /// hot paths needing zero-copy access should use the engine's inherent
    /// accessors.
    fn samples(&self) -> Vec<Vec<Value>>;

    /// Reservoir capacity `k`.
    fn k(&self) -> usize;

    /// Instrumentation snapshot; engines fill the fields they track.
    fn stats(&self) -> SamplerStats {
        SamplerStats::default()
    }

    /// Whether this engine supports full-state snapshot/restore — the
    /// capability probe of the durability layer (see ARCHITECTURE.md,
    /// "Durability"). Engines that keep the default `false` cannot be
    /// wrapped in the facade's `Persistent` checkpoint/WAL driver.
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Serializes the engine's complete dynamic state, or `None` for
    /// engines without snapshot support. The encoding captures everything
    /// future behavior depends on — index physical layout, sample slots,
    /// RNG positions, counters — so restoring it into a freshly built
    /// engine with identical construction parameters reproduces the
    /// original byte-for-byte on any further stream.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by
    /// [`snapshot_state`](JoinSampler::snapshot_state) into `self`, which
    /// must have been built with the same construction parameters (query,
    /// `k`, seed, options). Any prior dynamic state of `self` is
    /// discarded. The default rejects — insert-only engines without the
    /// capability stay honest about it.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let _ = bytes;
        Err(CodecError::Corrupt(
            "engine does not support state snapshots",
        ))
    }

    /// Samples as sorted `(attribute name, value)` pairs — identical
    /// across engines regardless of internal attribute order, so
    /// cross-engine tests compare these.
    fn samples_named(&self) -> Vec<Vec<(String, Value)>> {
        let q = self.output_query();
        self.samples()
            .iter()
            .map(|s| {
                let mut kv: Vec<(String, Value)> = q
                    .attr_names()
                    .iter()
                    .cloned()
                    .zip(s.iter().copied())
                    .collect();
                kv.sort();
                kv
            })
            .collect()
    }
}

/// Boxed engines forward every method to the boxee, so `Box<dyn
/// JoinSampler + Send>` (what the `Engine` factory hands out) satisfies
/// generic bounds like the facade's `Persistent<S: JoinSampler>` without
/// unwrapping.
impl<S: JoinSampler + ?Sized> JoinSampler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn output_query(&self) -> &Query {
        (**self).output_query()
    }

    fn input_query(&self) -> &Query {
        (**self).input_query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        (**self).process(rel, tuple)
    }

    fn process_batch(&mut self, batch: &[InputTuple]) {
        (**self).process_batch(batch)
    }

    fn process_stream(&mut self, stream: &TupleStream) {
        (**self).process_stream(stream)
    }

    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        (**self).process_columnar(batch)
    }

    fn supports_deletes(&self) -> bool {
        (**self).supports_deletes()
    }

    fn process_op(&mut self, op: &StreamOp) -> Result<(), DeleteUnsupported> {
        (**self).process_op(op)
    }

    fn process_op_batch(&mut self, ops: &[StreamOp]) -> Result<(), DeleteUnsupported> {
        (**self).process_op_batch(ops)
    }

    fn process_op_stream(&mut self, stream: &OpStream) -> Result<(), DeleteUnsupported> {
        (**self).process_op_stream(stream)
    }

    fn replan(&mut self) -> bool {
        (**self).replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        (**self).samples()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn stats(&self) -> SamplerStats {
        (**self).stats()
    }

    fn supports_snapshot(&self) -> bool {
        (**self).supports_snapshot()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        (**self).restore_state(bytes)
    }

    fn samples_named(&self) -> Vec<Vec<(String, Value)>> {
        (**self).samples_named()
    }
}

impl JoinSampler for ReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin"
    }

    fn output_query(&self) -> &Query {
        self.index().query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        ReservoirJoin::process(self, rel, tuple);
    }

    fn process_batch(&mut self, batch: &[InputTuple]) {
        ReservoirJoin::process_batch(self, batch);
    }

    fn replan(&mut self) -> bool {
        ReservoirJoin::replan(self)
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        ReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        ReservoirJoin::k(self)
    }

    /// Fully dynamic: deletions mirror insertions in the index and repair
    /// the reservoir by eviction-and-backfill (see
    /// `rsj_core::reservoir_join`).
    fn supports_deletes(&self) -> bool {
        true
    }

    fn process_op(&mut self, op: &StreamOp) -> Result<(), DeleteUnsupported> {
        match op {
            StreamOp::Insert(t) => {
                ReservoirJoin::process(self, t.relation, &t.values);
            }
            StreamOp::Delete(t) => {
                ReservoirJoin::delete(self, t.relation, &t.values);
            }
        }
        Ok(())
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.inserts()),
            deletes: Some(self.deletes()),
            reservoir_stops: Some(self.reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            exact_results: None,
            ..SamplerStats::default()
        }
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        ReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        ReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for FkReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin_opt"
    }

    fn output_query(&self) -> &Query {
        self.rewritten_query()
    }

    fn input_query(&self) -> &Query {
        self.query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        FkReservoirJoin::process(self, rel, tuple);
    }

    /// Re-plans the *rewritten* query's orientation (the foreign-key
    /// combiner in front is plan-independent).
    fn replan(&mut self) -> bool {
        self.inner_mut().replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        FkReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        self.inner().k()
    }

    /// Fully dynamic since PR 10: the foreign-key combiner is a signed
    /// delta pipeline — retractions withdraw combined tuples (and re-park
    /// rewound facts), and the inner acyclic driver repairs its reservoir
    /// by eviction-and-backfill.
    fn supports_deletes(&self) -> bool {
        true
    }

    fn process_op(&mut self, op: &StreamOp) -> Result<(), DeleteUnsupported> {
        match op {
            StreamOp::Insert(t) => {
                FkReservoirJoin::process(self, t.relation, &t.values);
            }
            StreamOp::Delete(t) => {
                FkReservoirJoin::delete(self, t.relation, &t.values);
            }
        }
        Ok(())
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.combiner().inserts()),
            deletes: Some(self.combiner().deletes()),
            reservoir_stops: Some(self.inner().reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            // Read from the inner index's resident count view (the one
            // the delete repair folds).
            exact_results: Some(self.exact_result_count()),
            ..SamplerStats::default()
        }
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        FkReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        FkReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for CyclicReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin_cyclic"
    }

    fn output_query(&self) -> &Query {
        self.inner().index().query()
    }

    fn input_query(&self) -> &Query {
        self.query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        CyclicReservoirJoin::process(self, rel, tuple);
    }

    /// Re-plans the inner acyclic driver over the *bag-level* query (the
    /// GHD itself stays fixed).
    fn replan(&mut self) -> bool {
        self.inner_mut().replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        CyclicReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        self.inner().k()
    }

    /// Fully dynamic since PR 10: deletions enumerate the bag's dead delta
    /// and forward it, signed, into the inner acyclic driver's delete path.
    fn supports_deletes(&self) -> bool {
        true
    }

    fn process_op(&mut self, op: &StreamOp) -> Result<(), DeleteUnsupported> {
        match op {
            StreamOp::Insert(t) => {
                CyclicReservoirJoin::process(self, t.relation, &t.values);
            }
            StreamOp::Delete(t) => {
                CyclicReservoirJoin::delete(self, t.relation, &t.values);
            }
        }
        Ok(())
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.inserts()),
            deletes: Some(self.deletes()),
            reservoir_stops: Some(self.inner().reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            // Read from the bag-level index's resident count view (the
            // one the delete repair folds).
            exact_results: Some(self.exact_result_count()),
            ..SamplerStats::default()
        }
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        CyclicReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        CyclicReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_query::QueryBuilder;

    fn two_table() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    #[test]
    fn trait_object_drives_rsjoin() {
        let mut s: Box<dyn JoinSampler> = Box::new(ReservoirJoin::new(two_table(), 10, 1).unwrap());
        let mut stream = TupleStream::new();
        stream.push(0, vec![1, 2]);
        stream.push(1, vec![2, 3]);
        s.process_stream(&stream);
        assert_eq!(s.samples(), vec![vec![1, 2, 3]]);
        assert_eq!(s.k(), 10);
        assert_eq!(s.name(), "RSJoin");
        assert_eq!(s.stats().inserts, Some(2));
        assert_eq!(s.stats().deletes, Some(0));
    }

    #[test]
    fn op_stream_round_trip_through_trait() {
        let mut s: Box<dyn JoinSampler> = Box::new(ReservoirJoin::new(two_table(), 10, 1).unwrap());
        assert!(s.supports_deletes());
        let mut ops = OpStream::new();
        ops.push_insert(0, vec![1, 2]);
        ops.push_insert(1, vec![2, 3]);
        ops.push_delete(0, vec![1, 2]);
        s.process_op_stream(&ops).unwrap();
        assert!(s.samples().is_empty());
        assert_eq!(s.stats().inserts, Some(2));
        assert_eq!(s.stats().deletes, Some(1));
    }

    /// Minimal insert-only engine: every real engine is fully dynamic now,
    /// so the default-impl contracts (delete rejection, batch atomicity)
    /// are exercised through a stub that keeps the trait defaults.
    struct InsertOnlyStub {
        query: Query,
        applied: Vec<(usize, Vec<Value>)>,
    }

    impl InsertOnlyStub {
        fn new() -> InsertOnlyStub {
            InsertOnlyStub {
                query: two_table(),
                applied: Vec::new(),
            }
        }
    }

    impl JoinSampler for InsertOnlyStub {
        fn name(&self) -> &'static str {
            "InsertOnlyStub"
        }
        fn output_query(&self) -> &Query {
            &self.query
        }
        fn process(&mut self, rel: usize, tuple: &[Value]) {
            self.applied.push((rel, tuple.to_vec()));
        }
        fn samples(&self) -> Vec<Vec<Value>> {
            Vec::new()
        }
        fn k(&self) -> usize {
            1
        }
    }

    #[test]
    fn insert_only_engines_reject_deletes() {
        let mut s: Box<dyn JoinSampler> = Box::new(InsertOnlyStub::new());
        assert!(!s.supports_deletes());
        assert!(s.process_op(&StreamOp::insert(0, vec![1, 2])).is_ok());
        let err = s.process_op(&StreamOp::delete(0, vec![1, 2])).unwrap_err();
        assert_eq!(err.engine, "InsertOnlyStub");
        assert!(err.to_string().contains("insert-only"));
    }

    #[test]
    fn rejected_op_batch_applies_nothing() {
        // Regression: the default `process_op_batch` used to apply ops one
        // at a time, leaving the inserts before a mid-batch unsupported
        // delete applied behind the error. The batch must be atomic with
        // respect to the capability check.
        let mut s = InsertOnlyStub::new();
        let ops = vec![
            StreamOp::insert(0, vec![1, 2]),
            StreamOp::insert(1, vec![2, 3]),
            StreamOp::delete(0, vec![1, 2]),
            StreamOp::insert(0, vec![4, 5]),
        ];
        let err = s.process_op_batch(&ops).unwrap_err();
        assert_eq!(err.engine, "InsertOnlyStub");
        assert!(
            s.applied.is_empty(),
            "rejected batch left partial state: {:?}",
            s.applied
        );
        // Delete-free batches still apply in full.
        s.process_op_batch(&ops[..2]).unwrap();
        assert_eq!(s.applied.len(), 2);
    }

    #[test]
    fn samples_named_is_order_independent() {
        let mut rj = ReservoirJoin::new(two_table(), 10, 1).unwrap();
        JoinSampler::process(&mut rj, 0, &[1, 2]);
        JoinSampler::process(&mut rj, 1, &[2, 3]);
        let named = rj.samples_named();
        assert_eq!(named.len(), 1);
        assert_eq!(
            named[0],
            vec![
                ("X".to_string(), 1),
                ("Y".to_string(), 2),
                ("Z".to_string(), 3)
            ]
        );
    }

    #[test]
    fn insert_only_op_batches_match_columnar_ingest() {
        // A delete-free op batch travels as a columnar batch; the stats
        // and the reservoir bytes must match both an explicit columnar
        // call and tuple-at-a-time processing of the same arrivals.
        let mut rng = rsj_common::rng::RsjRng::seed_from_u64(77);
        let mut ops = Vec::new();
        for _ in 0..300 {
            ops.push(StreamOp::insert(
                rng.index(2),
                vec![rng.below_u64(7), rng.below_u64(7)],
            ));
        }
        let mut via_ops = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        let mut via_cols = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        let mut via_rows = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        JoinSampler::process_op_batch(&mut via_ops, &ops).unwrap();
        let batch = ColumnarBatch::from_insert_ops(&ops).expect("insert-only");
        JoinSampler::process_columnar(&mut via_cols, &batch);
        for op in &ops {
            let t = op.tuple();
            via_rows.process(t.relation, &t.values);
        }
        assert_eq!(JoinSampler::stats(&via_ops), JoinSampler::stats(&via_cols));
        assert_eq!(JoinSampler::stats(&via_ops), JoinSampler::stats(&via_rows));
        assert_eq!(via_ops.samples(), via_cols.samples());
        assert_eq!(via_ops.samples(), via_rows.samples());
    }

    #[test]
    fn columnar_reservoir_bytes_match_row_path() {
        // The byte-exactness contract of `JoinSampler::process_columnar`:
        // identical reservoir contents (not just distribution) regardless
        // of how the stream is chunked into columnar batches.
        for seed in [1u64, 9, 42] {
            let mut rng = rsj_common::rng::RsjRng::seed_from_u64(seed);
            let mut row_engine = ReservoirJoin::new(two_table(), 6, seed).unwrap();
            let mut col_engine = ReservoirJoin::new(two_table(), 6, seed).unwrap();
            let mut rows = Vec::new();
            for _ in 0..600 {
                let rel = rng.index(2);
                let t = vec![rng.below_u64(9), rng.below_u64(9)];
                row_engine.process(rel, &t);
                rows.push(InputTuple::new(rel, t));
            }
            for chunk in rows.chunks(128) {
                JoinSampler::process_columnar(&mut col_engine, &ColumnarBatch::from_rows(chunk));
            }
            assert_eq!(row_engine.samples(), col_engine.samples(), "seed={seed}");
            assert_eq!(
                JoinSampler::stats(&row_engine),
                JoinSampler::stats(&col_engine),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn cyclic_engine_through_trait() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        let mut s: Box<dyn JoinSampler> = Box::new(CyclicReservoirJoin::new(q, 10, 1).unwrap());
        s.process(0, &[1, 2]);
        s.process(1, &[2, 3]);
        s.process(2, &[3, 1]);
        assert_eq!(s.samples_named().len(), 1);
    }
}
