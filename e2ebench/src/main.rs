//! End-to-end benchmark of the reservoir-sampling-over-joins engines.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload turnstile_line3 --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Three workloads run through the public engine, durability and service
//! APIs (see `BENCHMARK.json` for why each was chosen and which layers it
//! bypasses):
//!
//! * `turnstile_line3`: line-3 with 20% deletes behind `Persistent`;
//! * `service_line3`: a `SamplerService` with 16 line-3 registrations at
//!   the default publish cadence, read by a second thread every 1 ms;
//! * `insert_line4`: a bare `ReservoirJoin` on line-4, insert-only. It
//!   stays runnable by hand but is not in `BENCHMARK.json`: its
//!   `samples()` reads change speed by some 70% from one round to the next
//!   with the load on a shared host, and no run length that the
//!   benchmark's time budget allowed three workloads kept their spread
//!   from run to run within its bound.
//!
//! A run generates four inputs from its seed, makes one unmeasured warm-up
//! round on each, then repeats measured rounds (set-up, then the timed
//! stream) through them in turn until `--seconds` have elapsed. Every
//! round's final sample is checked against the benchmark's own oracle, and
//! rounds of one input must agree on their samples and deterministic
//! counters; each round is folded into the run's tally as it ends and then
//! dropped. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced rounds with traced ones, which
//! time the public calls into each layer and drive shadows of the inner
//! layers, and prints the per-layer metrics. The last stdout line is the
//! JSON result.

mod alloc;
mod oracle;
mod stats;
mod workloads;

use stats::{median, percentile, trimmed_mean, Batches};
use std::time::Instant;
use workloads::{Inputs, Round, Scratch, Workload, INPUTS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured rounds a run makes at least, whatever `--seconds` says:
/// means and medians over rounds need several, and four turnstile rounds
/// hold the 1000 reads a p99 needs.
const MIN_ROUNDS: usize = 4;
/// Unmeasured rounds a run makes first (see `run`): one per input, since
/// an input's first round becomes its reference.
const WARMUP_ROUNDS: usize = INPUTS;
/// The self times of a traced round's top-level calls must sum to within
/// this share of its wall time minus shadow time.
const MAX_UNATTRIBUTED: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Pins glibc malloc's adaptive thresholds at the values its own
/// adaptation moves towards (the largest mmap threshold; no trimming of
/// the heap top). Left adaptive, they moved as rounds freed their engines:
/// a process's first rounds ran slower than its later ones, and the same
/// round's `samples()` reads flipped between two speeds some 50% apart
/// from one round to the next.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit targets.
        const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
        // SAFETY: mallopt only sets allocator parameters; it is called
        // before the program starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A latency percentile of the measured rounds (see [`Batches`])
/// converted from ns, failing when the rounds held too few samples for it.
fn pct(batches: &mut Batches, what: &str, ns_per_unit: f64) -> Result<f64, String> {
    let (n, permille) = (batches.samples(), batches.permille());
    batches.finish().map(|v| v / ns_per_unit).ok_or(format!(
        "{n} {what} samples are too few for p{}",
        permille as f64 / 10.0
    ))
}

fn end_to_end(t: &mut Tally, peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
    println!(
        "samples: {} ops, {} reads, {} visibility over {} rounds",
        t.ops[0].samples(),
        t.reads[0].samples(),
        t.visible[0].samples(),
        t.throughput.len()
    );
    let [op50, op99, op999] = &mut t.ops;
    let [read50, read99] = &mut t.reads;
    let [vis50, vis99] = &mut t.visible;
    Ok(vec![
        m("ingest_ops_per_s", trimmed_mean(&t.throughput), "ops/s"),
        m("op_p50_us", pct(op50, "op", 1e3)?, "us"),
        m("op_p99_us", pct(op99, "op", 1e3)?, "us"),
        m("op_p999_us", pct(op999, "op", 1e3)?, "us"),
        m("read_p50_us", pct(read50, "read", 1e3)?, "us"),
        m("read_p99_us", pct(read99, "read", 1e3)?, "us"),
        m("visible_p50_ms", pct(vis50, "visibility", 1e6)?, "ms"),
        m("visible_p99_ms", pct(vis99, "visibility", 1e6)?, "ms"),
        m("setup_s", median(&t.setup), "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m(
            "success_rate",
            1.0 - t.failed as f64 / t.attempted as f64,
            "ratio",
        ),
    ])
}

/// Mean microseconds per call (0 when there were no calls).
fn per_call_us(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

/// Per-layer times and shares of one traced round. Layers the workload
/// does not run report 0.
fn layer_values(w: Workload, r: &Round) -> Result<Vec<(&'static str, f64)>, String> {
    let s = &r.spans;
    let base = (s.wall_ns - s.shadow_ns()) as f64;
    let share = |ns: u64| ns as f64 / base;
    let unattributed = 1.0 - s.top_level_ns() as f64 / base;
    if unattributed.abs() > MAX_UNATTRIBUTED {
        return Err(format!(
            "top-level self times cover {:.1}% of traced wall time minus shadow time",
            100.0 * (1.0 - unattributed)
        ));
    }
    let wal = s.wal_insert.ns + s.wal_delete.ns;
    let wal_calls = s.wal_insert.calls + s.wal_delete.calls;
    // What a top-level op spends beyond the shadowed inner layers.
    let ins_self = s
        .insert
        .ns
        .saturating_sub(s.wal_insert.ns + s.index_insert.ns);
    let del_self = s
        .delete
        .ns
        .saturating_sub(s.wal_delete.ns + s.index_delete.ns);
    let service = w == Workload::ServiceLine3;
    let (sampler_ins, service_apply) = if service {
        (0, ins_self)
    } else {
        (ins_self, 0)
    };
    let (checkpoint, publish) = if service {
        (0, s.maintain.ns)
    } else {
        (s.maintain.ns, 0)
    };
    let maint_calls = s.maintain.calls;
    let reader = &r.reader;
    let mut late = reader.late_ns.clone();
    late.sort_unstable();
    Ok(vec![
        ("persist.wal_append_us", per_call_us(wal, wal_calls)),
        ("persist.wal_share", share(wal)),
        (
            "persist.checkpoint_ms",
            per_call_us(checkpoint, maint_calls) / 1e3,
        ),
        ("persist.checkpoint_share", share(checkpoint)),
        (
            "index.insert_us",
            per_call_us(s.index_insert.ns, s.index_insert.calls),
        ),
        ("index.insert_share", share(s.index_insert.ns)),
        (
            "index.delete_us",
            per_call_us(s.index_delete.ns, s.index_delete.calls),
        ),
        ("index.delete_share", share(s.index_delete.ns)),
        (
            "sampler.insert_self_us",
            per_call_us(sampler_ins, s.insert.calls),
        ),
        ("sampler.insert_share", share(sampler_ins)),
        (
            "sampler.delete_self_us",
            per_call_us(del_self, s.delete.calls),
        ),
        ("sampler.delete_share", share(del_self)),
        ("sampler.read_us", per_call_us(s.read.ns, s.read.calls)),
        ("sampler.read_share", share(s.read.ns)),
        (
            "service.apply_self_us",
            per_call_us(service_apply, s.insert.calls),
        ),
        ("service.apply_share", share(service_apply)),
        (
            "service.publish_ms",
            per_call_us(publish, maint_calls) / 1e3,
        ),
        ("service.publish_share", share(publish)),
        (
            "service.read_us",
            per_call_us(reader.read_ns.iter().sum(), reader.read_ns.len() as u64),
        ),
        (
            "service.read_retry_ratio",
            if reader.attempts == 0 {
                0.0
            } else {
                reader.retries as f64 / reader.attempts as f64
            },
        ),
        (
            "service.reader_late_us",
            percentile(&late, 500).map_or(0.0, |v| v as f64 / 1e3),
        ),
        ("trace.unattributed_share", unattributed),
    ])
}

/// Units of the per-layer metrics, in report order.
const LAYER_UNITS: &[(&str, &str)] = &[
    ("persist.wal_append_us", "us/call"),
    ("persist.wal_share", "ratio"),
    ("persist.checkpoint_ms", "ms/call"),
    ("persist.checkpoint_share", "ratio"),
    ("index.insert_us", "us/call"),
    ("index.insert_share", "ratio"),
    ("index.delete_us", "us/call"),
    ("index.delete_share", "ratio"),
    ("sampler.insert_self_us", "us/call"),
    ("sampler.insert_share", "ratio"),
    ("sampler.delete_self_us", "us/call"),
    ("sampler.delete_share", "ratio"),
    ("sampler.read_us", "us/call"),
    ("sampler.read_share", "ratio"),
    ("service.apply_self_us", "us/call"),
    ("service.apply_share", "ratio"),
    ("service.publish_ms", "ms/call"),
    ("service.publish_share", "ratio"),
    ("service.read_us", "us/call"),
    ("service.read_retry_ratio", "ratio"),
    ("service.reader_late_us", "us/read"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("index.propagation_loops", "count"),
    ("index.tilde_changes", "count"),
    ("stream.reservoir_stops", "count"),
    ("sampler.rebuilds", "count"),
    ("service.publishes", "count"),
    ("service.history_ops", "count"),
    ("persist.wal_bytes", "bytes"),
    ("persist.checkpoint_bytes", "bytes"),
    ("alloc.per_op", "count/op"),
    ("heap.engine_mb", "MiB"),
];

fn per_layer(t: &Tally) -> Vec<Metric> {
    let overhead = median(&t.traced_wall) / median(&t.untraced_wall) - 1.0;
    // Counters come from the untraced rounds (the traced ones move the
    // checkpoint and publish calls out of the ops); the service's index
    // counters exist only on its shadow.
    let mut counters = t.references[0]
        .as_ref()
        .map_or(Vec::new(), |r| r.counters.clone());
    for &(name, v) in t.traced_counters.iter().flatten() {
        if !counters.iter().any(|&(n, _)| n == name) {
            counters.push((name, v));
        }
    }
    LAYER_UNITS
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead" {
                overhead
            } else if let Some(i) = t.layers[0].iter().position(|&(n, _)| n == name) {
                median(&t.layers.iter().map(|v| v[i].1).collect::<Vec<_>>())
            } else {
                counters
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v)
            };
            m(name, value, unit)
        })
        .collect()
}

/// How a round takes part in the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Checked, not measured.
    Warmup,
    /// Checked and measured: the end-to-end metrics.
    Measured,
    /// Checked and measured with the shadows: the per-layer metrics.
    Traced,
}

/// What a run keeps of its rounds. Each round is checked and folded in as
/// it ends, then dropped: rounds kept to the end of the run pinned their
/// buffers and samples all over the heap, every later round built its
/// engine around them, and reads slowed round after round.
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// Each input's first round, whose samples and counters every later
    /// round of that input must repeat exactly: the engines are
    /// deterministic, and a traced round must not perturb them.
    references: Vec<Option<Round>>,
    throughput: Vec<f64>,
    setup: Vec<f64>,
    /// p50, p99 and p99.9 of the op latencies.
    ops: [Batches; 3],
    /// p50 and p99 of the read and visibility latencies.
    reads: [Batches; 2],
    visible: [Batches; 2],
    /// Per-layer values of each traced round.
    layers: Vec<Vec<(&'static str, f64)>>,
    /// Wall time of the untraced rounds, and of the traced ones minus
    /// their shadow time.
    untraced_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    traced_counters: Option<Vec<(&'static str, f64)>>,
}

impl Tally {
    fn new(workload: Workload) -> Tally {
        Tally {
            workload,
            attempted: 0,
            failed: 0,
            references: (0..INPUTS).map(|_| None).collect(),
            throughput: Vec::new(),
            setup: Vec::new(),
            ops: [500, 990, 999].map(Batches::new),
            reads: [500, 990].map(Batches::new),
            visible: [500, 990].map(Batches::new),
            layers: Vec::new(),
            untraced_wall: Vec::new(),
            traced_wall: Vec::new(),
            traced_counters: None,
        }
    }

    /// Makes room for the measured rounds of a stream of `ops` ops, so
    /// that no buffer of the tally moves while they run.
    fn reserve(&mut self, ops: usize) {
        let rounds = 4096;
        for v in [&mut self.throughput, &mut self.setup] {
            v.reserve(rounds);
        }
        for v in [&mut self.untraced_wall, &mut self.traced_wall] {
            v.reserve(rounds);
        }
        self.layers.reserve(rounds);
        let samples = 2 * ops + 2048;
        for b in self
            .ops
            .iter_mut()
            .chain(&mut self.reads)
            .chain(&mut self.visible)
        {
            b.reserve(samples);
        }
    }

    /// Checks `r`, a round of input `instance`, against that input's
    /// reference round and folds it in. Warm-up rounds must cover every
    /// input: an input's first round becomes its reference.
    fn add(&mut self, mut r: Round, instance: usize, stage: Stage) -> Result<(), String> {
        self.attempted += r.attempted;
        self.failed += r.failed;
        let Some(reference) = &self.references[instance] else {
            assert!(
                stage == Stage::Warmup,
                "input {instance} had no warm-up round"
            );
            r.forget_latencies();
            self.references[instance] = Some(r);
            return Ok(());
        };
        if r.samples != reference.samples {
            return Err("final samples differ between rounds of one seed".into());
        }
        check_counters(&reference.counters, &r.counters, stage == Stage::Traced)?;
        match stage {
            Stage::Warmup => {}
            Stage::Measured => {
                let wall_ns = r.spans.wall_ns as f64;
                self.throughput.push(r.ops as f64 / (wall_ns / 1e9));
                self.setup.push(r.setup_s);
                self.untraced_wall.push(wall_ns);
                self.ops.iter_mut().for_each(|b| b.push(&r.op_ns));
                self.reads.iter_mut().for_each(|b| b.push(&r.read_ns));
                self.visible.iter_mut().for_each(|b| b.push(&r.visible_ns));
            }
            Stage::Traced => {
                self.layers.push(layer_values(self.workload, &r)?);
                self.traced_wall
                    .push((r.spans.wall_ns - r.spans.shadow_ns()) as f64);
                self.traced_counters.get_or_insert(r.counters);
            }
        }
        Ok(())
    }
}

/// Untraced rounds must agree exactly on every counter, and traced rounds
/// on every counter they share with them except `alloc.per_op` (a traced
/// round makes the checkpoint or publish call outside the timed op).
fn check_counters(
    reference: &[(&'static str, f64)],
    counters: &[(&'static str, f64)],
    traced: bool,
) -> Result<(), String> {
    if !traced {
        if counters != reference {
            return Err(format!(
                "deterministic counters differ between rounds: {reference:?} vs {counters:?}"
            ));
        }
        return Ok(());
    }
    for &(name, v) in counters {
        let untraced_v = reference.iter().find(|&&(n, _)| n == name);
        if name != "alloc.per_op" && untraced_v.is_some_and(|&(_, u)| u != v) {
            return Err(format!(
                "traced round changed counter {name}: {v} vs {untraced_v:?}"
            ));
        }
    }
    Ok(())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs the rounds and computes the metrics; an `Err` is a failed check.
fn run(args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let scratch = Scratch::new()?;
    let mut inputs = Vec::new();
    for instance in 0..INPUTS {
        let input = Inputs::generate(args.workload, args.seed, instance);
        println!(
            "workload {} seed {} input {instance}: {} set-up ops, {} timed ops, oracle |Q(R)| = {}",
            args.workload.name(),
            args.seed,
            input.setup.len(),
            input.timed.len(),
            input.oracle.count()
        );
        workloads::prepare(&input, &scratch)?;
        inputs.push(input);
    }
    let start = Instant::now();
    let report = |stage: &str, i: usize, r: &Round| {
        let mut reads = r.read_ns.clone();
        reads.sort_unstable();
        eprintln!(
            "{stage} round {i}: set-up {:.3} s, {:.0} ops/s, read p50 {:.1} us, at {:.1} s",
            r.setup_s,
            r.ops as f64 * 1e9 / r.spans.wall_ns as f64,
            reads.get(reads.len() / 2).map_or(0.0, |&v| v as f64 / 1e3),
            start.elapsed().as_secs_f64()
        );
    };
    // Round `i` of each stage runs input `i % inputs.len()`.
    let round = |i: usize, traced: bool| {
        let instance = i % inputs.len();
        workloads::run_round(&inputs[instance], &scratch, traced).map(|r| (r, instance))
    };
    // A fresh process runs its first rounds in a fresh heap: reads change
    // speed over three or four rounds until the heap's layout settles,
    // while users of a resident engine run in a settled one. Warm-up rounds
    // are checked like the others but not measured; the first one gives
    // the workload's peak resident set.
    let mut peak_rss = None;
    for i in 0..WARMUP_ROUNDS {
        let (r, instance) = round(i, false)?;
        report("warm-up", i + 1, &r);
        peak_rss.get_or_insert(peak_rss_mb()?);
        tally.add(r, instance, Stage::Warmup)?;
    }
    tally.reserve(inputs.iter().map(|x| x.timed.len()).max().unwrap_or(0));
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let (r, instance) = round(rounds, false)?;
        rounds += 1;
        report("measured", rounds, &r);
        tally.add(r, instance, Stage::Measured)?;
        if args.trace {
            let (r, instance) = round(rounds - 1, true)?;
            tally.add(r, instance, Stage::Traced)?;
        }
    }
    let reference = tally.references[0].as_ref().expect("a round ran");
    println!("counters of input 0 (identical in every round of it):");
    for (name, v) in &reference.counters {
        println!("  {name:<28} {v}");
    }
    if args.trace {
        Ok(per_layer(tally))
    } else {
        end_to_end(tally, peak_rss.expect("at least one round ran"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    pin_malloc_thresholds();
    let mut tally = Tally::new(args.workload);
    let result = run(&args, &mut tally);
    let (attempted, failed) = (tally.attempted, tally.failed);
    match result {
        Ok(metrics) if metrics.iter().all(|x| x.value.is_finite()) => {
            for x in &metrics {
                println!("  {:<28} {:>14.4} {}", x.name, x.value, x.unit);
            }
            println!("{}", json_line(true, attempted, failed, &metrics));
        }
        Ok(_) => {
            eprintln!("error: a metric is not finite");
            println!("{}", json_line(false, attempted.max(1), failed, &[]));
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            println!("{}", json_line(false, attempted.max(1), failed, &[]));
            std::process::exit(1);
        }
    }
}
