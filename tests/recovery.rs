//! Crash-recovery harness for the durability layer (`rsjoin::persist`).
//!
//! The contract under test: kill a [`Persistent`]-wrapped engine at *any*
//! op boundary of a turnstile stream, recover from the checkpoint + WAL
//! suffix into a freshly built engine, finish the stream — and the final
//! reservoir is **byte-identical** (FNV digest over the sample matrix) to
//! an uninterrupted run of the same stream. The sweep covers every engine
//! family — including the signed-delta FK combiners and the cyclic GHD
//! driver — checkpoint cadences from every-op to never, torn log tails,
//! and cross-engine checkpoint rejection.

use rsjoin::engine::Engine;
use rsjoin::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Scratch dirs (no tempfile dependency) and digesting
// ---------------------------------------------------------------------------

static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

/// Self-cleaning scratch directory under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let id = SCRATCH_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rsj-recovery-{tag}-{}-{id}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over the sample matrix, in reservoir order — same digest the
/// golden-determinism suite pins, so "equal digests" means "identical
/// reservoir bytes".
fn digest(samples: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(samples.len() as u64);
    for s in samples {
        eat(s.len() as u64);
        for &v in s {
            eat(v);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Turnstile workloads
// ---------------------------------------------------------------------------

fn line3() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

fn two_rel() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["x", "y"]);
    qb.relation("S", &["y", "z"]);
    qb.build().unwrap()
}

/// Mixed insert/delete stream: every op either inserts a random tuple or
/// (1 in 4) deletes a currently-live one, so replay exercises the repair
/// paths, not just appends.
fn turnstile_ops(query: &Query, n_ops: usize, domain: u64, seed: u64) -> Vec<StreamOp> {
    let mut rng = RsjRng::seed_from_u64(seed);
    let nrels = query.num_relations();
    let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
    let mut live_set: rsjoin::common::FxHashSet<(usize, Vec<Value>)> = Default::default();
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        if !live.is_empty() && rng.below_u64(4) == 0 {
            let j = rng.index(live.len());
            let (rel, t) = live.swap_remove(j);
            live_set.remove(&(rel, t.clone()));
            ops.push(StreamOp::delete(rel, t));
        } else {
            let rel = rng.index(nrels);
            let arity = query.relation(rel).attrs.len();
            let t: Vec<Value> = (0..arity).map(|_| rng.below_u64(domain)).collect();
            if live_set.insert((rel, t.clone())) {
                live.push((rel, t.clone()));
            }
            ops.push(StreamOp::insert(rel, t));
        }
    }
    ops
}

type BoxedSampler = Box<dyn JoinSampler + Send>;

fn build(engine: &Engine, query: &Query) -> BoxedSampler {
    engine
        .build(query, 16, 0xD15EA5E, &EngineOpts::default())
        .unwrap()
}

/// Digest of an uninterrupted run over the whole stream.
fn uninterrupted_digest(engine: &Engine, query: &Query, ops: &[StreamOp]) -> u64 {
    let mut s = build(engine, query);
    for op in ops {
        s.process_op(op).unwrap();
    }
    digest(&s.samples())
}

/// Every engine family and the query each runs (SymmetricHashJoin is
/// binary-only; the `_opt` engines recover their signed FK combiner, the
/// cyclic driver its bag tries, alongside the inner reservoir).
fn recovery_engines() -> Vec<(Engine, Query)> {
    vec![
        (Engine::Reservoir, line3()),
        (Engine::FkReservoir, line3()),
        (Engine::Cyclic, line3()),
        (Engine::Naive, line3()),
        (Engine::SJoin, line3()),
        (Engine::SJoinOpt, line3()),
        (Engine::sharded(Engine::Reservoir, 2), line3()),
        (Engine::Symmetric, two_rel()),
    ]
}

// ---------------------------------------------------------------------------
// Kill-at-random-op recovery, every engine family
// ---------------------------------------------------------------------------

/// For each engine: run through `Persistent`, "kill" at a random op
/// boundary (drop after flush), recover into a freshly built engine,
/// finish the stream, and require the exact uninterrupted digest. Kill
/// points straddle checkpoint boundaries (policy: every 71 ops).
#[test]
fn kill_at_random_op_recovers_byte_identically() {
    let n_ops = 500;
    let mut rng = RsjRng::seed_from_u64(0xDEAD);
    for (engine, query) in recovery_engines() {
        let ops = turnstile_ops(&query, n_ops, 6, 0xFEED);
        let expect = uninterrupted_digest(&engine, &query, &ops);
        // Deterministic edge kills plus random interior ones.
        let mut kills = vec![0, 1, 70, 71, 72, n_ops - 1, n_ops];
        kills.extend((0..4).map(|_| rng.index(n_ops)));
        for kill in kills {
            let scratch = Scratch::new(engine.name());
            let mut p = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(71),
            )
            .unwrap();
            for op in &ops[..kill] {
                p.process_op(op).unwrap();
            }
            p.flush().unwrap();
            drop(p); // the kill: in-memory engine state is gone

            let mut r = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(71),
            )
            .unwrap();
            assert_eq!(
                r.next_lsn(),
                kill as u64,
                "{}: recovery must land exactly at the kill point",
                engine.name()
            );
            for op in &ops[kill..] {
                r.process_op(op).unwrap();
            }
            assert_eq!(
                digest(&r.engine().samples()),
                expect,
                "{} killed at op {kill}: recovered stream diverged",
                engine.name()
            );
        }
    }
}

/// Checkpoint-cadence sweep (proptest-style, hand-rolled seeds): for a
/// spread of `EveryOps` cadences — every op, primes, larger than the
/// stream (i.e. never) — and several stream seeds, a mid-stream kill must
/// recover to the identical digest. Catches any state the snapshot forgets
/// and any op the truncated log drops.
#[test]
fn checkpoint_cadence_sweep_preserves_digests() {
    let engine = Engine::Reservoir;
    let query = line3();
    let n_ops = 300;
    for stream_seed in [11u64, 222, 3333] {
        let ops = turnstile_ops(&query, n_ops, 5, stream_seed);
        let expect = uninterrupted_digest(&engine, &query, &ops);
        let mut rng = RsjRng::seed_from_u64(stream_seed ^ 0xC0FFEE);
        for cadence in [1u64, 2, 13, 97, 10_000] {
            let kill = 1 + rng.index(n_ops - 1);
            let scratch = Scratch::new("cadence");
            let mut p = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(cadence),
            )
            .unwrap();
            for op in &ops[..kill] {
                p.process_op(op).unwrap();
            }
            p.flush().unwrap();
            drop(p);

            let mut r = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(cadence),
            )
            .unwrap();
            for op in &ops[kill..] {
                r.process_op(op).unwrap();
            }
            assert_eq!(
                digest(&r.engine().samples()),
                expect,
                "cadence {cadence}, kill {kill}, stream {stream_seed}"
            );
        }
    }
}

/// Manual checkpoints at arbitrary points (plus log truncation) are
/// equally recoverable, and checkpointing twice in a row is fine.
#[test]
fn manual_checkpoints_recover() {
    let engine = Engine::SJoin;
    let query = line3();
    let ops = turnstile_ops(&query, 240, 5, 77);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("manual");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for (i, op) in ops[..200].iter().enumerate() {
        p.process_op(op).unwrap();
        if i == 60 || i == 61 || i == 150 {
            p.checkpoint().unwrap();
            assert_eq!(p.ops_since_checkpoint(), 0);
        }
    }
    p.flush().unwrap();
    drop(p);

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 200);
    for op in &ops[200..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

// ---------------------------------------------------------------------------
// Torn tails
// ---------------------------------------------------------------------------

fn final_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("wal has at least one segment")
}

/// Garbage appended past the last record (a torn in-flight append) is
/// dropped on recovery; the flushed prefix survives intact.
#[test]
fn torn_tail_garbage_is_discarded() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 99);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("torn-garbage");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    for op in &ops[..150] {
        p.process_op(op).unwrap();
    }
    p.sync().unwrap();
    drop(p);

    // The crash left half an appended record: length prefix + junk.
    let seg = final_segment(scratch.path());
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x44, 0x00, 0x00, 0x00, 0xAB, 0xCD, 0xEF]);
    fs::write(&seg, bytes).unwrap();

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 150, "torn bytes must not become ops");
    for op in &ops[150..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

/// A truncated final segment (the tail of the last record never hit disk)
/// recovers the surviving record prefix; finishing the stream from the
/// recovered LSN still converges on the uninterrupted digest.
#[test]
fn truncated_final_segment_recovers_the_prefix() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 55);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("torn-truncate");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    for op in &ops[..150] {
        p.process_op(op).unwrap();
    }
    p.sync().unwrap();
    drop(p);

    // Chop 5 bytes off the final segment — the last record is now torn.
    let seg = final_segment(scratch.path());
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    let recovered = r.next_lsn() as usize;
    assert!(
        (128..150).contains(&recovered),
        "exactly the checkpointed prefix plus whole tail records survive, got {recovered}"
    );
    for op in &ops[recovered..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

// ---------------------------------------------------------------------------
// Rejections
// ---------------------------------------------------------------------------

/// A checkpoint written by one engine must not restore into another.
#[test]
fn recovery_rejects_checkpoint_from_different_engine() {
    let query = line3();
    let ops = turnstile_ops(&query, 80, 5, 13);
    let scratch = Scratch::new("mismatch");
    let mut p = Persistent::open(
        build(&Engine::Reservoir, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    p.checkpoint().unwrap();
    drop(p);

    let err = Persistent::open(
        build(&Engine::Naive, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .err()
    .expect("cross-engine restore must fail");
    assert!(
        matches!(err, PersistError::Engine(ref m) if m.contains("RSJoin")),
        "unexpected error: {err}"
    );
}

/// Engines without snapshot support are rejected up front, before any
/// files are written. Every real engine family snapshots now, so the
/// probe is exercised through a minimal snapshotless stub — the contract
/// still protects third-party samplers and engines mid-bringup.
#[test]
fn snapshotless_engines_are_rejected() {
    struct Snapshotless(Query);
    impl JoinSampler for Snapshotless {
        fn name(&self) -> &'static str {
            "Snapshotless"
        }
        fn output_query(&self) -> &Query {
            &self.0
        }
        fn process(&mut self, _rel: usize, _tuple: &[Value]) {}
        fn samples(&self) -> Vec<Vec<Value>> {
            Vec::new()
        }
        fn k(&self) -> usize {
            1
        }
    }
    let scratch = Scratch::new("unsupported");
    let err = Persistent::open(
        Box::new(Snapshotless(line3())) as Box<dyn JoinSampler + Send>,
        scratch.path().join("nested"),
        CheckpointPolicy::Manual,
    )
    .err()
    .expect("snapshotless engines must be rejected");
    assert!(matches!(err, PersistError::Unsupported(_)));
    assert!(
        !scratch.path().join("nested").exists(),
        "rejection must precede directory creation"
    );
}

/// Checkpointing truncates the log: old segments disappear, and recovery
/// afterwards reads only the fresh segment.
#[test]
fn checkpoint_truncates_the_log() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 120, 5, 31);
    let scratch = Scratch::new("truncate");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap(); // appends are buffered; measure what's on disk
    let before: u64 = fs::read_dir(scratch.path().join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    p.checkpoint().unwrap();
    let after: u64 = fs::read_dir(scratch.path().join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        after < before / 4,
        "checkpoint must truncate the log ({before} -> {after} bytes)"
    );
    drop(p);
    let r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 120, "lsn is global, surviving truncation");
}

/// Sum of the log's segment sizes on disk.
fn wal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// A poison op — wrong arity, unknown relation — is refused before it
/// reaches the log. Logging it first would panic the engine on apply and
/// then on every later recovery replay; instead the call returns a typed
/// error, the WAL bytes stay unchanged, and a reopen recovers the exact
/// prefix. Every engine family is covered, including the rewriting ones
/// whose input schema differs from their output query.
#[test]
fn poison_ops_are_rejected_before_logging() {
    for (engine, query) in recovery_engines() {
        let ops = turnstile_ops(&query, 60, 5, 17);
        let scratch = Scratch::new("poison");
        let mut p = Persistent::open(
            build(&engine, &query),
            scratch.path(),
            CheckpointPolicy::Manual,
        )
        .unwrap();
        for op in &ops {
            p.process_op(op).unwrap();
        }
        p.flush().unwrap();
        let bytes = wal_bytes(scratch.path());
        let arity = query.relation(0).attrs.len();
        let wide = StreamOp::insert(0, vec![1; arity + 1]);
        let err = p
            .process_op(&wide)
            .expect_err("wrong arity must be refused");
        assert!(
            matches!(
                err,
                PersistError::Rejected(ServiceError::Store(SharedStoreError::ArityMismatch {
                    relation: 0,
                    expected,
                    got
                })) if expected == arity && got == arity + 1
            ),
            "{}: {err}",
            engine.name()
        );
        let stray = StreamOp::delete(query.num_relations(), vec![1; arity]);
        let err = p
            .process_op(&stray)
            .expect_err("unknown relation must be refused");
        assert!(
            matches!(
                err,
                PersistError::Rejected(ServiceError::Store(SharedStoreError::UnknownRelation(r)))
                    if r == query.num_relations()
            ),
            "{}: {err}",
            engine.name()
        );
        p.flush().unwrap();
        assert_eq!(wal_bytes(scratch.path()), bytes, "{}", engine.name());
        assert_eq!(p.next_lsn(), ops.len() as u64);
        let digest_before = digest(&p.engine().samples());
        drop(p);
        let r = Persistent::open(
            build(&engine, &query),
            scratch.path(),
            CheckpointPolicy::Manual,
        )
        .unwrap_or_else(|e| panic!("{}: reopen failed: {e}", engine.name()));
        assert_eq!(r.next_lsn(), ops.len() as u64);
        assert_eq!(
            digest(&r.engine().samples()),
            digest_before,
            "{}",
            engine.name()
        );
    }
}

/// A delete for an insert-only engine is refused before logging too: the
/// engine would reject it on apply and on every later replay.
#[test]
fn deletes_for_insert_only_engines_are_rejected_before_logging() {
    struct InsertOnly(Query);
    impl JoinSampler for InsertOnly {
        fn name(&self) -> &'static str {
            "InsertOnly"
        }
        fn output_query(&self) -> &Query {
            &self.0
        }
        fn process(&mut self, _rel: usize, _tuple: &[Value]) {}
        fn samples(&self) -> Vec<Vec<Value>> {
            Vec::new()
        }
        fn k(&self) -> usize {
            1
        }
        fn supports_snapshot(&self) -> bool {
            true
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            Some(Vec::new())
        }
        fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), rsjoin::common::CodecError> {
            Ok(())
        }
    }
    let scratch = Scratch::new("insert-only");
    let mut p = Persistent::open(
        InsertOnly(line3()),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    p.process_op(&StreamOp::insert(0, vec![1, 2])).unwrap();
    let err = p
        .process_op(&StreamOp::delete(0, vec![1, 2]))
        .expect_err("insert-only engines cannot take deletes");
    assert!(matches!(
        err,
        PersistError::Rejected(ServiceError::DeleteUnsupported("InsertOnly"))
    ));
    assert_eq!(p.next_lsn(), 1);
    drop(p);
    let r = Persistent::open(
        InsertOnly(line3()),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .expect("the refused delete never reached the log");
    assert_eq!(r.next_lsn(), 1);
}

/// Both durability wrappers refuse a poison op through the one validator,
/// with the same error, and neither logs it.
#[test]
fn both_wrappers_reject_a_poison_op_alike() {
    let query = line3();
    let wide = StreamOp::insert(1, vec![1; query.relation(1).attrs.len() + 1]);
    let scratch = Scratch::new("poison-engine");
    let mut p = Persistent::open(
        build(&Engine::Reservoir, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    let engine_err = p.process_op(&wide).expect_err("wrong arity");
    assert_eq!(p.next_lsn(), 0);
    let scratch = Scratch::new("poison-service");
    let mut rebuild = |_: &str, _: usize| -> Option<Box<dyn JoinSampler + Send>> { None };
    let mut ps = PersistentService::open(
        SamplerService::new(query.clone()),
        scratch.path(),
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    ps.flush().unwrap();
    let bytes = wal_bytes(scratch.path());
    let service_err = ps.process_op(&wide).expect_err("wrong arity");
    assert!(matches!(
        service_err,
        PersistError::Rejected(ServiceError::Store(SharedStoreError::ArityMismatch {
            relation: 1,
            ..
        }))
    ));
    assert_eq!(engine_err.to_string(), service_err.to_string());
    assert_eq!(ps.service().lsn(), 0);
    ps.flush().unwrap();
    assert_eq!(wal_bytes(scratch.path()), bytes);
}
