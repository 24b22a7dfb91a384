//! Microbenchmarks for the primitive operations whose costs the paper's
//! complexity claims are built from: index insert (`O(log N)` amortized),
//! positional retrieve (`O(log N)`), full-query sample (`O(log N)`
//! expected), and the reservoir skip machinery.
//!
//! Custom harness (no external bench framework): each benchmark runs a
//! timed loop after a warmup pass and reports mean wall time per
//! iteration.

use rsj_bench::{fig_name, record_json};
use rsj_common::rng::RsjRng;
use rsj_datagen::GraphConfig;
use rsj_index::{DynamicIndex, FullSampler, IndexOptions};
use rsj_queries::line_k;
use rsj_stream::{Reservoir, SliceBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so every bench reports allocs/iter, not just
/// wall time (a relaxed counter around `System`). For
/// `index_insert_8k_edges_line3` the count covers a whole build from an
/// empty index, so it includes every growth step of the index's storage.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Times `iters` runs of `f` (after one warmup call) and prints the mean
/// wall time and heap allocations per iteration.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let per_iter = total / iters;
    println!(
        "{name:<36} {per_iter:>12.2?}/iter  ({iters} iters, {:.1} allocs/iter)",
        allocs as f64 / iters as f64
    );
    record_json(
        &fig_name(),
        name,
        "-",
        iters as usize,
        total.as_nanos(),
        Some(iters as f64 / total.as_secs_f64().max(f64::MIN_POSITIVE)),
        None,
        None,
        false,
    );
}

fn loaded_index() -> DynamicIndex {
    let edges = GraphConfig {
        nodes: 1000,
        edges: 8000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
    for t in w.stream.iter() {
        idx.insert(t.relation, &t.values);
    }
    idx
}

fn bench_index_insert() {
    let edges = GraphConfig {
        nodes: 1000,
        edges: 8000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    bench("index_insert_8k_edges_line3", 10, || {
        let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
        for t in w.stream.iter() {
            idx.insert(t.relation, &t.values);
        }
        black_box(idx.stats().inserts);
    });
}

fn bench_full_sample() {
    let idx = loaded_index();
    let sampler = FullSampler::default();
    let mut rng = RsjRng::seed_from_u64(1);
    bench("full_query_sample", 10_000, || {
        black_box(sampler.sample(&idx, &mut rng));
    });
}

fn bench_delta_retrieve() {
    let idx = loaded_index();
    // Pick a tuple of relation 0 with a non-empty batch.
    let mut target = None;
    for tid in 0..idx.database().relation(0).num_slots() as u32 {
        let b = idx.delta_batch(0, tid);
        if b.size() > 4 {
            target = Some((tid, b.size()));
            break;
        }
    }
    let (tid, size) = target.expect("some tuple has results");
    let mut rng = RsjRng::seed_from_u64(2);
    bench("delta_retrieve_random_position", 10_000, || {
        let z = rng.below_u128(size);
        black_box(idx.delta_batch(0, tid).retrieve(z));
    });
}

fn bench_reservoir_skip() {
    let items: Vec<u64> = (0..1_000_000).collect();
    bench("reservoir_1m_items_k100", 10, || {
        let mut r = Reservoir::new(100, 7);
        let mut batch = SliceBatch::new(&items);
        r.process_batch(&mut batch, Some);
        black_box(r.stops());
    });
}

fn main() {
    println!("micro — primitive-operation costs\n");
    bench_index_insert();
    bench_full_sample();
    bench_delta_retrieve();
    bench_reservoir_skip();
}
