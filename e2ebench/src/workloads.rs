//! The three workloads: input generation from the seed, one measured
//! round through the public API, and the traced variant that drives
//! shadows of the inner layers over the same ops.

use crate::alloc::thread_allocs;
use crate::oracle::LineOracle;
use rsjoin::common::Value;
use rsjoin::core::{
    JoinSampler, QueryOpts, ReservoirJoin, SampleReader, SamplerService, ServiceOpts,
};
use rsjoin::datagen::turnstile::{TurnstileConfig, VictimPolicy};
use rsjoin::datagen::GraphConfig;
use rsjoin::index::{DynamicIndex, IndexOptions, IndexStats};
use rsjoin::persist::{CheckpointPolicy, Persistent, CHECKPOINT_FILE};
use rsjoin::queries::line_k;
use rsjoin::query::Query;
use rsjoin::storage::wal::Wal;
use rsjoin::storage::{ColumnarBatch, StreamOp};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reservoir capacity of the single-engine workloads.
const ENGINE_K: usize = 1000;
/// Reservoir capacity of each service registration.
const SERVICE_K: usize = 250;
/// Registrations sharing the service's one index.
const SERVICE_QUERIES: usize = 16;
/// Fixed engine seed: the workload seed only shapes the generated ops.
const ENGINE_SEED: u64 = 7;
/// In-thread `samples()` reads happen after every this many ops.
const READ_EVERY: usize = 64;
/// The turnstile workload's `CheckpointPolicy::EveryOps` cadence.
const CHECKPOINT_EVERY: u64 = 4_000;
/// The service's publish cadence (`ServiceOpts::default()`).
const PUBLISH_EVERY: u64 = 1024;
/// The service reader's open-loop schedule.
const READER_PERIOD: Duration = Duration::from_millis(1);

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InsertLine4,
    TurnstileLine3,
    ServiceLine3,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::InsertLine4,
        Workload::TurnstileLine3,
        Workload::ServiceLine3,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InsertLine4 => "insert_line4",
            Workload::TurnstileLine3 => "turnstile_line3",
            Workload::ServiceLine3 => "service_line3",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs a run generates from its seed and cycles its rounds through.
/// Figures of one generated zipf graph differ from the next graph's by as
/// much as a quarter on the turnstile's repair-bound latencies and a third
/// on the insert-only op p99.9, so with one graph per run the seed, more
/// than the code, set them; four graphs average that out.
pub const INPUTS: usize = 4;

/// A workload's generated input: the set-up (or, for the durable
/// workload, untimed) prefix, the timed stream, and the oracle's live
/// state after both.
pub struct Inputs {
    pub workload: Workload,
    /// Which of the run's [`INPUTS`] this is.
    pub instance: usize,
    pub query: Query,
    pub setup: Vec<StreamOp>,
    pub timed: Vec<StreamOp>,
    pub oracle: LineOracle,
}

impl Inputs {
    /// Generates input `instance` of the workload's run from the run's
    /// `seed` (zipf-1.0 graphs); instance 0 uses the seed itself.
    pub fn generate(workload: Workload, seed: u64, instance: usize) -> Inputs {
        let seed = seed.wrapping_add((instance as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (line, nodes, edges) = match workload {
            Workload::InsertLine4 => (4, 20_000, 60_000),
            Workload::TurnstileLine3 => (3, 10_000, 8_000),
            Workload::ServiceLine3 => (3, 15_000, 40_000),
        };
        let graph = GraphConfig {
            nodes,
            edges,
            zipf: 1.0,
            seed,
        }
        .generate();
        let w = line_k(line, &graph, seed ^ 0x5eed);
        let ops: Vec<StreamOp> = match workload {
            Workload::TurnstileLine3 => TurnstileConfig {
                delete_ratio: 0.2,
                policy: VictimPolicy::Uniform,
                seed: seed ^ 0xde1e7e,
            }
            .weave(&w.stream)
            .ops()
            .to_vec(),
            _ => w
                .stream
                .iter()
                .map(|t| StreamOp::insert(t.relation, t.values.clone()))
                .collect(),
        };
        let split = match workload {
            Workload::InsertLine4 => ops.len() / 2,
            Workload::TurnstileLine3 => ops.len() * 3 / 10,
            Workload::ServiceLine3 => ops.len() / 4,
        };
        let (setup, timed) = ops.split_at(split);
        let mut oracle = LineOracle::new(line);
        ops.iter().for_each(|op| oracle.apply(op));
        Inputs {
            workload,
            instance,
            query: w.query,
            setup: setup.to_vec(),
            timed: timed.to_vec(),
            oracle,
        }
    }
}

/// Accumulated time and call count of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as u64;
        self.calls += 1;
    }
}

/// Spans recorded around the public calls of one traced round.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Wall time of the timed stream.
    pub wall_ns: u64,
    /// Top-level calls.
    pub insert: Span,
    pub delete: Span,
    pub read: Span,
    /// The explicit checkpoint (turnstile) or publish (service) call.
    pub maintain: Span,
    /// Shadows of the inner layers, split by op kind.
    pub wal_insert: Span,
    pub wal_delete: Span,
    pub index_insert: Span,
    pub index_delete: Span,
}

impl Spans {
    pub fn shadow_ns(&self) -> u64 {
        self.wal_insert.ns + self.wal_delete.ns + self.index_insert.ns + self.index_delete.ns
    }

    pub fn top_level_ns(&self) -> u64 {
        self.insert.ns + self.delete.ns + self.read.ns + self.maintain.ns
    }
}

/// What the service reader thread saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Successful snapshot latency, first attempt to success.
    pub read_ns: Vec<u64>,
    /// How late each read started against its 1 ms schedule.
    pub late_ns: Vec<u64>,
    pub attempts: u64,
    pub retries: u64,
}

/// One measured round.
pub struct Round {
    pub setup_s: f64,
    pub ops: u64,
    pub op_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub visible_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Final samples (all registrations, in handle order, for the service).
    pub samples: Vec<Vec<Value>>,
    /// Deterministic counters: `(name, value)`.
    pub counters: Vec<(&'static str, f64)>,
    pub spans: Spans,
    pub reader: ReaderLog,
}

impl Round {
    /// Drops the per-op samples of a round that is not measured.
    pub fn forget_latencies(&mut self) {
        self.op_ns = Vec::new();
        self.read_ns = Vec::new();
        self.visible_ns = Vec::new();
        self.reader = ReaderLog::default();
    }
}

/// Scratch directories for the durable workload, under the working
/// directory; removed when dropped.
pub struct Scratch {
    base: PathBuf,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let base = Path::new(".e2ebench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
        Ok(Scratch { base })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.base.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
        // Removes the shared parent too once no other run is using it.
        let _ = std::fs::remove_dir(Path::new(".e2ebench_tmp"));
    }
}

/// The inner-layer shadows a traced round drives beside the engine.
struct Shadow {
    index: DynamicIndex,
    wal: Option<Wal>,
}

impl Shadow {
    /// A shadow index over `query` holding `prefix`, plus a shadow WAL in
    /// `wal_dir` when the workload logs.
    fn new(query: &Query, prefix: &[StreamOp], wal_dir: Option<PathBuf>) -> Result<Shadow, String> {
        let mut index = DynamicIndex::new(query.clone(), IndexOptions::default())
            .map_err(|e| format!("shadow index: {e}"))?;
        for op in prefix {
            apply_index(&mut index, op);
        }
        let wal = match wal_dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(&dir);
                Some(Wal::open(dir).map_err(|e| format!("shadow wal: {e}"))?)
            }
            None => None,
        };
        Ok(Shadow { index, wal })
    }

    /// Applies `op` to each shadow, timing from `start` (the end of the
    /// engine call) so no bookkeeping falls between the spans.
    fn apply(&mut self, op: &StreamOp, start: Instant, spans: &mut Spans) -> Result<(), String> {
        let delete = op.is_delete();
        let mut t = start;
        if let Some(wal) = self.wal.as_mut() {
            wal.append(op)
                .map_err(|e| format!("shadow wal append: {e}"))?;
            let now = Instant::now();
            if delete {
                &mut spans.wal_delete
            } else {
                &mut spans.wal_insert
            }
            .add(now - t);
            t = now;
        }
        apply_index(&mut self.index, op);
        let d = t.elapsed();
        if delete {
            &mut spans.index_delete
        } else {
            &mut spans.index_insert
        }
        .add(d);
        Ok(())
    }
}

fn apply_index(index: &mut DynamicIndex, op: &StreamOp) {
    let t = op.tuple();
    if op.is_delete() {
        black_box(index.delete(t.relation, &t.values));
    } else {
        black_box(index.insert(t.relation, &t.values));
    }
}

/// Checks the shadow index ran exactly the engine's index work.
fn check_index_shadow(shadow: &Shadow, engine: IndexStats) -> Result<(), String> {
    let s = shadow.index.stats();
    let key = |x: IndexStats| (x.inserts, x.deletes, x.propagation_loops, x.tilde_changes);
    if key(s) != key(engine) {
        return Err(format!(
            "shadow index stats {s:?} differ from the engine's {engine:?}"
        ));
    }
    Ok(())
}

/// The public entry points one workload drives.
trait Target {
    /// One op through the workload's public entry point; `false` on `Err`.
    fn apply(&mut self, op: &StreamOp) -> bool;
    /// One in-thread read; returns the number of samples read.
    fn read(&mut self) -> usize;
    /// The maintenance call (checkpoint or publish) a traced round makes
    /// explicitly where the untraced configuration makes it inside
    /// `apply`; `false` on `Err`.
    fn maintain(&mut self) -> bool;
}

impl Target for ReservoirJoin {
    fn apply(&mut self, op: &StreamOp) -> bool {
        JoinSampler::process_op(self, op).is_ok()
    }

    fn read(&mut self) -> usize {
        black_box(JoinSampler::samples(self)).len()
    }

    fn maintain(&mut self) -> bool {
        true
    }
}

impl Target for Persistent<ReservoirJoin> {
    fn apply(&mut self, op: &StreamOp) -> bool {
        self.process_op(op).is_ok()
    }

    fn read(&mut self) -> usize {
        black_box(JoinSampler::samples(self.engine())).len()
    }

    fn maintain(&mut self) -> bool {
        self.checkpoint().is_ok()
    }
}

impl Target for SamplerService {
    fn apply(&mut self, op: &StreamOp) -> bool {
        self.process_op(op).is_ok()
    }

    /// Service reads run on the reader thread, never through this.
    fn read(&mut self) -> usize {
        0
    }

    fn maintain(&mut self) -> bool {
        self.publish();
        true
    }
}

/// How a round streams its timed ops.
struct StreamPlan {
    /// In-thread read cadence (`None`: reads happen on another thread).
    read_every: Option<usize>,
    /// Explicit maintenance cadence (traced rounds only).
    maintain_every: Option<usize>,
}

/// What the timed stream measured.
#[derive(Default)]
struct Streamed {
    op_ns: Vec<u64>,
    read_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    /// Send time of every op (for visibility measured on another thread).
    sends: Vec<Instant>,
    allocs: u64,
    failed: u64,
    spans: Spans,
}

/// The closed loop: each op is sent when the previous call returns.
fn stream<T: Target>(
    target: &mut T,
    ops: &[StreamOp],
    plan: &StreamPlan,
    mut shadow: Option<&mut Shadow>,
) -> Result<Streamed, String> {
    let mut s = Streamed {
        op_ns: Vec::with_capacity(ops.len()),
        visible_ns: Vec::with_capacity(ops.len()),
        read_ns: Vec::with_capacity(ops.len() / plan.read_every.unwrap_or(ops.len()) + 1),
        sends: Vec::with_capacity(if plan.read_every.is_none() {
            ops.len()
        } else {
            0
        }),
        ..Streamed::default()
    };
    let mut pending: Vec<Instant> = Vec::with_capacity(plan.read_every.unwrap_or(0));
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let a = thread_allocs();
        let t0 = Instant::now();
        let ok = target.apply(op);
        let t1 = Instant::now();
        if let Some(sh) = shadow.as_deref_mut() {
            sh.apply(op, t1, &mut s.spans)?;
        }
        s.allocs += thread_allocs() - a;
        s.failed += u64::from(!ok);
        let d = t1 - t0;
        s.op_ns.push(d.as_nanos() as u64);
        if op.is_delete() {
            &mut s.spans.delete
        } else {
            &mut s.spans.insert
        }
        .add(d);
        if plan.maintain_every.is_some_and(|m| (i + 1) % m == 0) {
            let t = Instant::now();
            s.failed += u64::from(!target.maintain());
            s.spans.maintain.add(t.elapsed());
        }
        match plan.read_every {
            Some(every) => {
                pending.push(t0);
                if (i + 1) % every == 0 {
                    let r0 = Instant::now();
                    black_box(target.read());
                    let r1 = Instant::now();
                    s.read_ns.push((r1 - r0).as_nanos() as u64);
                    s.spans.read.add(r1 - r0);
                    s.visible_ns
                        .extend(pending.drain(..).map(|sent| (r1 - sent).as_nanos() as u64));
                }
            }
            None => s.sends.push(t0),
        }
    }
    s.spans.wall_ns = start.elapsed().as_nanos() as u64;
    Ok(s)
}

fn heap_mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn engine_counters(rj: &ReservoirJoin, allocs: u64, ops: usize) -> Vec<(&'static str, f64)> {
    let ix = rj.index_stats();
    vec![
        ("index.propagation_loops", ix.propagation_loops as f64),
        ("index.tilde_changes", ix.tilde_changes as f64),
        ("stream.reservoir_stops", rj.reservoir_stops() as f64),
        ("sampler.rebuilds", rj.rebuilds() as f64),
        ("alloc.per_op", allocs as f64 / ops as f64),
        ("heap.engine_mb", heap_mb(rj.heap_size())),
    ]
}

/// Once-per-run preparation outside every measured round: the durable
/// workload's checkpoint and WAL suffix.
pub fn prepare(inputs: &Inputs, scratch: &Scratch) -> Result<(), String> {
    match inputs.workload {
        Workload::TurnstileLine3 => write_durable_prefix(inputs, &prefix_dir(inputs, scratch)),
        _ => Ok(()),
    }
}

fn prefix_dir(inputs: &Inputs, scratch: &Scratch) -> PathBuf {
    scratch.path(&format!("prefix{}", inputs.instance))
}

/// Runs one round of `inputs`' workload; `traced` adds the shadows.
pub fn run_round(inputs: &Inputs, scratch: &Scratch, traced: bool) -> Result<Round, String> {
    match inputs.workload {
        Workload::InsertLine4 => insert_round(inputs, traced),
        Workload::TurnstileLine3 => turnstile_round(inputs, scratch, traced),
        Workload::ServiceLine3 => service_round(inputs, traced),
    }
}

fn round_from(s: Streamed, setup_s: f64, ops: usize) -> Round {
    Round {
        setup_s,
        ops: ops as u64,
        attempted: (ops + s.read_ns.len()) as u64,
        failed: s.failed,
        op_ns: s.op_ns,
        read_ns: s.read_ns,
        visible_ns: s.visible_ns,
        samples: Vec::new(),
        counters: Vec::new(),
        spans: s.spans,
        reader: ReaderLog::default(),
    }
}

fn insert_round(inputs: &Inputs, traced: bool) -> Result<Round, String> {
    let t = Instant::now();
    let mut rj = ReservoirJoin::new(inputs.query.clone(), ENGINE_K, ENGINE_SEED)
        .map_err(|e| format!("engine build: {e}"))?;
    let bulk_ok = JoinSampler::process_op_batch(&mut rj, &inputs.setup).is_ok();
    let setup_s = t.elapsed().as_secs_f64();
    let mut shadow = match traced {
        true => Some(Shadow::new(&inputs.query, &inputs.setup, None)?),
        false => None,
    };
    let plan = StreamPlan {
        read_every: Some(READ_EVERY),
        maintain_every: None,
    };
    let s = stream(&mut rj, &inputs.timed, &plan, shadow.as_mut())?;
    if let Some(sh) = &shadow {
        check_index_shadow(sh, rj.index_stats())?;
    }
    let counters = engine_counters(&rj, s.allocs, inputs.timed.len());
    let mut round = round_from(s, setup_s, inputs.timed.len());
    round.attempted += 1;
    round.failed += u64::from(!bulk_ok);
    round.samples = rj.samples().to_vec();
    inputs
        .oracle
        .check_sample(&inputs.query, &round.samples, ENGINE_K)?;
    round.counters = counters;
    Ok(round)
}

/// Writes the durable workload's untimed first part through `Persistent`
/// into `dir`: a checkpoint plus the WAL suffix a restart recovers.
fn write_durable_prefix(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let rj = ReservoirJoin::new(inputs.query.clone(), ENGINE_K, ENGINE_SEED)
        .map_err(|e| format!("engine build: {e}"))?;
    let mut p = Persistent::open(rj, dir, CheckpointPolicy::EveryOps(CHECKPOINT_EVERY))
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    for op in &inputs.setup {
        p.process_op(op)
            .map_err(|e| format!("durable prefix: {e}"))?;
    }
    p.flush().map_err(|e| format!("durable prefix flush: {e}"))
}

fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copy {} -> {}: {e}", src.display(), dst.display());
    std::fs::create_dir_all(dst).map_err(err)?;
    for entry in std::fs::read_dir(src).map_err(err)? {
        let entry = entry.map_err(err)?;
        let to = dst.join(entry.file_name());
        if entry.file_type().map_err(err)?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to).map_err(err)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn turnstile_round(inputs: &Inputs, scratch: &Scratch, traced: bool) -> Result<Round, String> {
    let dir = scratch.path("round");
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&prefix_dir(inputs, scratch), &dir)?;
    let policy = match traced {
        true => CheckpointPolicy::Manual,
        false => CheckpointPolicy::EveryOps(CHECKPOINT_EVERY),
    };
    let t = Instant::now();
    let rj = ReservoirJoin::new(inputs.query.clone(), ENGINE_K, ENGINE_SEED)
        .map_err(|e| format!("engine build: {e}"))?;
    let mut p = Persistent::open(rj, &dir, policy).map_err(|e| format!("restart: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();
    let lsn_at_open = p.next_lsn();
    let mut shadow = match traced {
        true => Some(Shadow::new(
            &inputs.query,
            &inputs.setup,
            Some(scratch.path("shadow_wal")),
        )?),
        false => None,
    };
    let plan = StreamPlan {
        read_every: Some(READ_EVERY),
        maintain_every: traced.then_some(CHECKPOINT_EVERY as usize),
    };
    let s = stream(&mut p, &inputs.timed, &plan, shadow.as_mut())?;
    p.flush().map_err(|e| format!("flush: {e}"))?;
    if let Some(sh) = &mut shadow {
        check_index_shadow(sh, p.engine().index_stats())?;
        let wal = sh.wal.as_mut().expect("the durable shadow logs");
        if wal.next_lsn() != p.next_lsn() - lsn_at_open {
            return Err(format!(
                "shadow wal logged {} ops, the engine's {}",
                wal.next_lsn(),
                p.next_lsn() - lsn_at_open
            ));
        }
    }
    let checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE))
        .map_err(|e| format!("checkpoint file: {e}"))?
        .len();
    let mut counters = engine_counters(p.engine(), s.allocs, inputs.timed.len());
    counters.push(("persist.wal_bytes", dir_bytes(&dir.join("wal")) as f64));
    counters.push(("persist.checkpoint_bytes", checkpoint_bytes as f64));
    let mut round = round_from(s, setup_s, inputs.timed.len());
    round.samples = p.engine().samples().to_vec();
    inputs
        .oracle
        .check_sample(&inputs.query, &round.samples, ENGINE_K)?;
    round.counters = counters;
    Ok(round)
}

/// The open-loop reader: one `try_snapshot` read every millisecond,
/// rotating over the registrations, retried until it succeeds. Logs the
/// first time each new LSN was seen.
fn read_loop(readers: &[SampleReader], stop: &AtomicBool) -> (ReaderLog, Vec<(Instant, u64)>) {
    let mut log = ReaderLog::default();
    let mut seen: Vec<(Instant, u64)> = Vec::new();
    let mut last_lsn = 0;
    let mut due = Instant::now();
    let mut j = 0;
    while !stop.load(Ordering::Acquire) {
        due += READER_PERIOD;
        // Spin rather than sleep: a sleeping vCPU wakes cold, and the
        // wake-up would be timed as part of the next read.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        log.late_ns
            .push(start.saturating_duration_since(due).as_nanos() as u64);
        let reader = &readers[j % readers.len()];
        j += 1;
        let snap = loop {
            log.attempts += 1;
            if let Some(snap) = reader.try_snapshot() {
                break snap;
            }
            log.retries += 1;
            std::hint::spin_loop();
        };
        let end = Instant::now();
        log.read_ns.push((end - start).as_nanos() as u64);
        if snap.lsn > last_lsn {
            last_lsn = snap.lsn;
            seen.push((end, snap.lsn));
        }
        black_box(snap);
    }
    (log, seen)
}

/// Sets the reader's stop flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Time from each op's send to the first reader observation whose LSN
/// covers it (op `i` of the stream has LSN `base + i`; a snapshot at LSN
/// `l` covers every op below `l`). Ops no observation covered are left out.
fn visibility(sends: &[Instant], base: u64, seen: &[(Instant, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(sends.len());
    let mut j = 0;
    for (i, sent) in sends.iter().enumerate() {
        let lsn = base + i as u64;
        while j < seen.len() && seen[j].1 <= lsn {
            j += 1;
        }
        let Some(&(at, _)) = seen.get(j) else { break };
        out.push(at.saturating_duration_since(*sent).as_nanos() as u64);
    }
    out
}

fn service_round(inputs: &Inputs, traced: bool) -> Result<Round, String> {
    let publish_every = if traced { 0 } else { PUBLISH_EVERY };
    let t = Instant::now();
    let mut svc = SamplerService::with_opts(inputs.query.clone(), ServiceOpts { publish_every });
    let mut handles = Vec::with_capacity(SERVICE_QUERIES);
    for i in 0..SERVICE_QUERIES {
        let opts = QueryOpts::new(SERVICE_K, 1000 + i as u64);
        handles.push(
            svc.register(&inputs.query, &opts)
                .map_err(|e| format!("register: {e}"))?,
        );
    }
    let bulk =
        ColumnarBatch::from_insert_ops(&inputs.setup).ok_or("service set-up holds a delete")?;
    let bulk_ok = svc.process_columnar(&bulk).is_ok();
    if traced {
        // The default cadence publishes after a batch of >= 1024 ops.
        svc.publish();
    }
    let setup_s = t.elapsed().as_secs_f64();
    let readers = handles
        .iter()
        .map(|&h| svc.reader(h))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reader: {e}"))?;
    let mut shadow = match traced {
        true => Some(Shadow::new(&inputs.query, &inputs.setup, None)?),
        false => None,
    };
    let plan = StreamPlan {
        read_every: None,
        maintain_every: traced.then_some(PUBLISH_EVERY as usize),
    };
    let base = svc.lsn();
    let stop = AtomicBool::new(false);
    let (s, (reader, seen)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&readers, &stop));
        let s = {
            // Stops the reader even if the stream panics, so the scope's
            // join cannot hang.
            let _stop = StopOnDrop(&stop);
            stream(&mut svc, &inputs.timed, &plan, shadow.as_mut())
        };
        (s, reader.join().expect("reader thread panicked"))
    });
    let s = s?;
    if svc.lsn() != base + inputs.timed.len() as u64 {
        return Err(format!(
            "service lsn {} after {} ops from {base}",
            svc.lsn(),
            inputs.timed.len()
        ));
    }
    let visible_ns = visibility(&s.sends, base, &seen);
    let publishes_before_check = readers[0].snapshot().epoch / 2;
    svc.publish();
    let mut samples = Vec::new();
    for (h, r) in handles.iter().zip(&readers) {
        let snap = r.snapshot();
        if snap.lsn != svc.lsn() {
            return Err(format!(
                "final snapshot at lsn {} not {}",
                snap.lsn,
                svc.lsn()
            ));
        }
        let population = inputs
            .oracle
            .check_sample(&inputs.query, &snap.samples, SERVICE_K)?;
        if snap.population != population {
            return Err(format!(
                "published |Q| {} but the oracle counts {population}",
                snap.population
            ));
        }
        if svc.samples(*h).map_err(|e| e.to_string())? != snap.samples {
            return Err("published samples differ from the owner-side read".into());
        }
        samples.extend(snap.samples);
    }
    if let Some(sh) = &shadow {
        let shadow_count = rsjoin::core::exact_result_count(sh.index.query(), sh.index.database());
        let engine_count = svc.exact_count(handles[0]).map_err(|e| e.to_string())?;
        if shadow_count != engine_count {
            return Err(format!(
                "shadow index counts {shadow_count} results, the service {engine_count}"
            ));
        }
    }
    let mut counters = vec![
        ("service.publishes", publishes_before_check as f64),
        ("service.history_ops", svc.store().history().len() as f64),
        ("alloc.per_op", s.allocs as f64 / inputs.timed.len() as f64),
        ("heap.engine_mb", heap_mb(svc.heap_size())),
    ];
    if let Some(sh) = &shadow {
        // The service keeps its index private; the shadow did the same
        // index work (checked above), so it reports the index counters.
        let ix = sh.index.stats();
        counters.push(("index.propagation_loops", ix.propagation_loops as f64));
        counters.push(("index.tilde_changes", ix.tilde_changes as f64));
    }
    let mut round = round_from(s, setup_s, inputs.timed.len());
    round.attempted += 1 + reader.read_ns.len() as u64;
    round.failed += u64::from(!bulk_ok);
    round.read_ns = reader.read_ns.clone();
    round.visible_ns = visible_ns;
    round.reader = reader;
    round.samples = samples;
    round.counters = counters;
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_inputs(workload: Workload) -> Inputs {
        let query = line_k(3, &[(0, 1)], 0).query;
        let graph = GraphConfig {
            nodes: 40,
            edges: 120,
            zipf: 1.0,
            seed: 3,
        }
        .generate();
        let w = line_k(3, &graph, 9);
        let ops = TurnstileConfig::default().weave(&w.stream).ops().to_vec();
        let (setup, timed) = ops.split_at(ops.len() / 2);
        let mut oracle = LineOracle::new(3);
        ops.iter().for_each(|op| oracle.apply(op));
        Inputs {
            workload,
            instance: 0,
            query,
            setup: setup.to_vec(),
            timed: timed.to_vec(),
            oracle,
        }
    }

    #[test]
    fn shadow_index_matches_the_engine_on_a_tiny_stream() {
        let inputs = tiny_inputs(Workload::TurnstileLine3);
        let mut rj = ReservoirJoin::new(inputs.query.clone(), 8, 1).unwrap();
        JoinSampler::process_op_batch(&mut rj, &inputs.setup).unwrap();
        let mut shadow = Shadow::new(&inputs.query, &inputs.setup, None).unwrap();
        let plan = StreamPlan {
            read_every: Some(4),
            maintain_every: None,
        };
        let s = stream(&mut rj, &inputs.timed, &plan, Some(&mut shadow)).unwrap();
        assert!(s.spans.index_delete.calls > 0, "fixture should delete");
        assert_eq!(
            s.spans.index_insert.calls + s.spans.index_delete.calls,
            inputs.timed.len() as u64
        );
        check_index_shadow(&shadow, rj.index_stats()).unwrap();
        // One op the engine never saw breaks the equality.
        apply_index(&mut shadow.index, &StreamOp::insert(0, vec![1000, 1001]));
        assert!(check_index_shadow(&shadow, rj.index_stats()).is_err());
    }

    #[test]
    fn visibility_uses_the_first_covering_observation() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let sends = [ms(0), ms(1), ms(2), ms(3)];
        // LSN 12 covers ops 10 and 11; LSN 14 covers 12 and 13.
        let seen = [(ms(5), 12), (ms(9), 14)];
        let v = visibility(&sends, 10, &seen);
        assert_eq!(v, vec![5_000_000, 4_000_000, 7_000_000, 6_000_000]);
        // Ops past the last observation are left out.
        assert_eq!(visibility(&sends, 10, &seen[..1]).len(), 2);
    }
}
