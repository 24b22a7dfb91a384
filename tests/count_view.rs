//! The resident exact-count view behind `DynamicIndex::exact_count`.
//!
//! * Properties: on random signed op streams — duplicate inserts, deletes
//!   of absent tuples, delete-then-reinsert, counts at random points, a
//!   snapshot/restore and a `ReservoirJoin::replan` rebuild mid-stream —
//!   the view equals a brute-force backtracking count, on line-2/3/4 (and
//!   line-3 listed middle relation first), a star, and a query with a
//!   non-join attribute (a groupable node), with grouping on and off. Two
//!   drivers see every stream: a bare index that counts only at the
//!   stream's count points (large folds), and a `ReservoirJoin` whose
//!   delete repairs count on their own (many small folds between the
//!   checks).
//! * Work counters: a count after one insert into a warm index visits far
//!   fewer than `N` tuples, outgrowing the log drops it for exactly one
//!   full pass, and the index's own counters do not depend on whether
//!   anyone counts.

use proptest::prelude::*;
use rsjoin::common::codec::{Decoder, Encoder};
use rsjoin::core::exact_result_count;
use rsjoin::index::count::FOLD_VISIT_COST;
use rsjoin::prelude::*;
use std::collections::BTreeSet;

fn query(rels: &[(&str, &[&str])]) -> Query {
    let mut qb = QueryBuilder::new();
    for (name, attrs) in rels {
        qb.relation(name, attrs);
    }
    qb.build().unwrap()
}

fn line(n: usize) -> Query {
    let attrs: Vec<String> = (0..=n).map(|i| format!("A{i}")).collect();
    let mut qb = QueryBuilder::new();
    for i in 0..n {
        qb.relation(&format!("G{i}"), &[&attrs[i], &attrs[i + 1]]);
    }
    qb.build().unwrap()
}

fn star() -> Query {
    query(&[
        ("S1", &["H", "B1"]),
        ("S2", &["H", "B2"]),
        ("S3", &["H", "B3"]),
    ])
}

/// Line-3 listed middle relation first: the view roots at the tree's
/// center, here relation 0, whose two children a fold can change at once
/// (in `line(3)` the center is relation 1).
fn mid_rooted_line3() -> Query {
    query(&[("M", &["B", "C"]), ("L", &["A", "B"]), ("R", &["C", "D"])])
}

/// `Rb` joins on `Y` and `W` and carries `Z` on its own — the shape the
/// grouping optimization applies to.
fn non_join_attr() -> Query {
    query(&[
        ("Ra", &["X", "Y"]),
        ("Rb", &["Y", "Z", "W"]),
        ("Rc", &["W", "U"]),
    ])
}

/// Brute-force `|Q|` by backtracking over the live tuples.
fn brute_count(q: &Query, live: &[BTreeSet<Vec<Value>>]) -> u128 {
    fn go(
        q: &Query,
        live: &[BTreeSet<Vec<Value>>],
        rel: usize,
        bind: &mut [Option<Value>],
    ) -> u128 {
        if rel == live.len() {
            return 1;
        }
        let attrs = &q.relation(rel).attrs;
        let mut total = 0;
        for t in &live[rel] {
            if attrs
                .iter()
                .zip(t)
                .all(|(&a, &v)| bind[a].is_none_or(|b| b == v))
            {
                let fresh: Vec<usize> = attrs
                    .iter()
                    .copied()
                    .filter(|&a| bind[a].is_none())
                    .collect();
                for (&a, &v) in attrs.iter().zip(t) {
                    bind[a] = Some(v);
                }
                total += go(q, live, rel + 1, bind);
                for a in fresh {
                    bind[a] = None;
                }
            }
        }
        total
    }
    go(q, live, 0, &mut vec![None; q.num_attrs()])
}

/// One generated op: `(kind, relation, a, (b, c))`.
type Op = (u8, usize, u64, (u64, u64));

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..20, 0usize..4, 0u64..4, (0u64..4, 0u64..3)), 0..240)
}

fn greedy() -> Planner {
    Planner {
        hold_margin: 0.0,
        ..Planner::default()
    }
}

/// A driver with a greedy planner and no automatic replans. Queries with
/// several join trees start from one the GYO reduction does not pick, so
/// a mid-stream replan has somewhere to move.
fn driver(q: &Query, grouping: bool) -> ReservoirJoin {
    let mut plan = Plan::canonical(q).unwrap();
    let gyo = plan.tree.canonical_edges();
    if let Some(other) = rsjoin::query::all_join_trees(q, 32)
        .into_iter()
        .rev()
        .find(|t| t.canonical_edges() != gyo)
    {
        plan.tree = other;
        plan.is_canonical = false;
    }
    let mut rj =
        ReservoirJoin::with_plan(q.clone(), 3, 11, IndexOptions { grouping }, plan).unwrap();
    rj.set_planner(greedy());
    rj.set_replan_policy(ReplanPolicy {
        auto: false,
        min_inserts: 0,
    });
    rj
}

/// Runs one generated stream through a bare index and a driver, checking
/// both against the brute-force count at every count point and at the end.
fn check_stream(q: &Query, ops: &[Op]) {
    for grouping in [false, true] {
        let opts = IndexOptions { grouping };
        let mut idx = DynamicIndex::new(q.clone(), opts).unwrap();
        let mut rj = driver(q, grouping);
        let mut live: Vec<BTreeSet<Vec<Value>>> = vec![BTreeSet::new(); q.num_relations()];
        let check = |idx: &DynamicIndex, rj: &ReservoirJoin, live: &[BTreeSet<Vec<Value>>]| {
            let expect = brute_count(q, live);
            assert_eq!(idx.exact_count(), expect, "bare index, grouping={grouping}");
            assert_eq!(
                rj.index().exact_count(),
                expect,
                "driver, grouping={grouping}"
            );
            assert_eq!(exact_result_count(q, idx.database()), expect, "full pass");
        };
        for &(kind, rel, a, (b, c)) in ops {
            let rel = rel % q.num_relations();
            let arity = q.relation(rel).attrs.len();
            let t: Vec<Value> = [a, b, c].iter().copied().cycle().take(arity).collect();
            let some_live = |live: &[BTreeSet<Vec<Value>>]| {
                let n = live[rel].len();
                (n > 0).then(|| live[rel].iter().nth(a as usize % n).unwrap().clone())
            };
            match kind {
                // Inserts, duplicates included.
                0..=9 => {
                    let fresh = live[rel].insert(t.clone());
                    assert_eq!(idx.insert(rel, &t).is_some(), fresh);
                    assert_eq!(rj.process(rel, &t).is_some(), fresh);
                }
                // Deletes, absent tuples included.
                10..=13 => {
                    let present = live[rel].remove(&t);
                    assert_eq!(idx.delete(rel, &t).is_some(), present);
                    assert_eq!(rj.delete(rel, &t).is_some(), present);
                }
                // Delete a live tuple, then reinsert it (fresh tuple id).
                14 => {
                    if let Some(t) = some_live(&live) {
                        assert!(idx.delete(rel, &t).is_some() && rj.delete(rel, &t).is_some());
                        assert!(idx.insert(rel, &t).is_some() && rj.process(rel, &t).is_some());
                    }
                }
                // Explicit duplicate of a live tuple.
                15 => {
                    if let Some(t) = some_live(&live) {
                        assert!(idx.insert(rel, &t).is_none() && rj.process(rel, &t).is_none());
                    }
                }
                16..=17 => check(&idx, &rj, &live),
                // Snapshot both, continue on restored copies.
                18 => {
                    let mut e = Encoder::new();
                    idx.snapshot_state_to(&mut e);
                    let mut restored = DynamicIndex::new(q.clone(), opts).unwrap();
                    restored
                        .restore_state_from(&mut Decoder::new(&e.into_bytes()))
                        .unwrap();
                    idx = restored;
                    let mut e = Encoder::new();
                    rj.snapshot_to(&mut e);
                    let mut restored = driver(q, grouping);
                    restored
                        .restore_from_snapshot(&mut Decoder::new(&e.into_bytes()))
                        .unwrap();
                    rj = restored;
                }
                // Greedy replan: a rebuild whenever another tree wins.
                _ => {
                    rj.replan();
                }
            }
        }
        check(&idx, &rj, &live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn view_matches_brute_force_on_line2(ops in ops()) {
        check_stream(&line(2), &ops);
    }

    #[test]
    fn view_matches_brute_force_on_line3(ops in ops()) {
        check_stream(&line(3), &ops);
    }

    #[test]
    fn view_matches_brute_force_on_line4(ops in ops()) {
        check_stream(&line(4), &ops);
    }

    #[test]
    fn view_matches_brute_force_on_mid_rooted_line3(ops in ops()) {
        check_stream(&mid_rooted_line3(), &ops);
    }

    #[test]
    fn view_matches_brute_force_on_star(ops in ops()) {
        check_stream(&star(), &ops);
    }

    #[test]
    fn view_matches_brute_force_with_a_non_join_attribute(ops in ops()) {
        check_stream(&non_join_attr(), &ops);
    }
}

/// The mid-stream replans of the star streams above do rebuild the
/// index (or the rebuild case would be vacuous), and the rebuilt view
/// counts exactly.
#[test]
fn star_replans_rebuild_the_index() {
    let mut rebuilds = 0;
    for seed in 0..8 {
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut rj = driver(&star(), true);
        for _ in 0..120 {
            let t = [rng.below_u64(4), rng.below_u64(4)];
            rj.process(rng.index(3), &t);
        }
        rj.index().exact_count();
        rj.replan();
        rj.process(0, &[0, 99]);
        assert_eq!(
            rj.index().exact_count(),
            exact_result_count(rj.index().query(), rj.index().database())
        );
        rebuilds += rj.rebuilds();
    }
    assert!(rebuilds > 0, "no replan rebuilt the index");
}

/// A line-3 index over `n` random tuples.
fn warm_line3(n: usize, seed: u64) -> (DynamicIndex, Vec<(usize, Vec<Value>)>) {
    let mut rng = RsjRng::seed_from_u64(seed);
    let mut idx = DynamicIndex::new(line(3), IndexOptions::default()).unwrap();
    let mut live = Vec::new();
    while live.len() < n {
        let rel = rng.index(3);
        let t = vec![rng.below_u64(200), rng.below_u64(200)];
        if idx.insert(rel, &t).is_some() {
            live.push((rel, t));
        }
    }
    (idx, live)
}

#[test]
fn a_count_after_one_insert_visits_far_fewer_than_n_tuples() {
    let n = 3000;
    let (mut idx, _) = warm_line3(n, 1);
    let full = idx.exact_count();
    let s = idx.count_stats();
    assert_eq!((s.full_passes, s.folds), (1, 0));
    assert_eq!(s.tuples_visited, n as u64, "a full pass visits every tuple");
    for (rel, t) in [(2, [7, 123_456]), (1, [5, 9]), (0, [123_456, 3])] {
        assert!(idx.insert(rel, &t).is_some());
        let before = idx.count_stats();
        assert!(idx.exact_count() >= full);
        let after = idx.count_stats();
        assert_eq!(after.folds, before.folds + 1);
        assert_eq!(after.full_passes, 1, "a small log folds, never recounts");
        let visited = after.tuples_visited - before.tuples_visited;
        assert!(
            visited < n as u64 / 20,
            "rel {rel}: one insert visited {visited} tuples"
        );
    }
    assert_eq!(
        idx.exact_count(),
        exact_result_count(idx.query(), idx.database())
    );
}

#[test]
fn outgrowing_the_log_drops_it_for_exactly_one_full_pass() {
    let n = 2000;
    let (mut idx, live) = warm_line3(n, 2);
    idx.exact_count();
    assert_eq!(idx.count_stats().full_passes, 1);
    // With no fold measured yet an op is predicted to cost one visit, so
    // the log drops once it holds 1/FOLD_VISIT_COST of the live tuples,
    // well within these n/2 - 10 uncounted deletes.
    for (rel, t) in live.iter().take(n / 2 - 10) {
        idx.delete(*rel, t);
    }
    assert_eq!(idx.count_stats().log_drops, 1);
    // No further logging (and no further drops) until the next count.
    for (rel, t) in live.iter().take(n / 2 - 10) {
        idx.insert(*rel, t);
    }
    assert_eq!(idx.count_stats().log_drops, 1);
    let expect = exact_result_count(idx.query(), idx.database());
    assert_eq!(idx.exact_count(), expect);
    let s = idx.count_stats();
    assert_eq!((s.full_passes, s.folds), (2, 0), "one full pass, no fold");
    // The rebuilt view folds again afterwards.
    idx.insert(0, &[1, 1]);
    assert_eq!(
        idx.exact_count(),
        exact_result_count(idx.query(), idx.database())
    );
    let s = idx.count_stats();
    assert_eq!((s.full_passes, s.folds), (2, 1));
}

/// Deletes `ops` one at a time until the view drops its log; returns how
/// many deletes that took and the live tuples left.
fn deletes_until_drop(idx: &mut DynamicIndex, ops: &[(usize, Vec<Value>)]) -> (usize, usize) {
    let drops = idx.count_stats().log_drops;
    for (i, (rel, t)) in ops.iter().enumerate() {
        assert!(idx.delete(*rel, t).is_some());
        if idx.count_stats().log_drops > drops {
            return (i + 1, idx.database().total_tuples());
        }
    }
    panic!("the log was never dropped");
}

/// The op that finds the log's predicted fold cost — logged ops times the
/// folds' mean visits per op, weighted by `FOLD_VISIT_COST` — at or past
/// the live tuple count (after the op) drops it. Before any fold an op is
/// predicted at one visit.
#[test]
fn log_drop_threshold_follows_the_folds_mean_cost() {
    let (mut idx, live) = warm_line3(1000, 3);
    idx.exact_count();
    let (ops, remaining) = deletes_until_drop(&mut idx, &live);
    assert!(
        ((ops - 1) as u64 * FOLD_VISIT_COST) >= remaining as u64
            && ((ops - 2) as u64 * FOLD_VISIT_COST) < remaining as u64 + 1,
        "dropped after {ops} ops with {remaining} live"
    );
    // Two folds of different sizes: re-insert deleted tuples and count.
    idx.exact_count();
    let (mut folded, mut visited) = (0u64, 0u64);
    for batch in [&live[..40], &live[40..45]] {
        let before = idx.count_stats();
        for (rel, t) in batch {
            assert!(idx.insert(*rel, t).is_some());
        }
        idx.exact_count();
        let after = idx.count_stats();
        assert_eq!(after.folds, before.folds + 1);
        folded += batch.len() as u64;
        visited += after.tuples_visited - before.tuples_visited;
    }
    let op_cost = (FOLD_VISIT_COST * visited)
        .div_ceil(folded)
        .max(FOLD_VISIT_COST);
    assert!(
        op_cost > FOLD_VISIT_COST,
        "{visited} visits for {folded} ops"
    );
    let (ops, remaining) = deletes_until_drop(&mut idx, &live[ops..]);
    assert!(
        (ops - 1) as u64 * op_cost >= remaining as u64
            && ((ops - 2) as u64 * op_cost) < remaining as u64 + 1,
        "dropped after {ops} ops with {remaining} live at {op_cost} per op"
    );
}

#[test]
fn counting_never_changes_the_index_counters() {
    let mut rng = RsjRng::seed_from_u64(4);
    let q = non_join_attr();
    let mut counted = DynamicIndex::new(q.clone(), IndexOptions::default()).unwrap();
    let mut silent = DynamicIndex::new(q.clone(), IndexOptions::default()).unwrap();
    let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
    for step in 0..3000 {
        if !live.is_empty() && rng.below_u64(4) == 0 {
            let (rel, t) = live.swap_remove(rng.index(live.len()));
            assert_eq!(counted.delete(rel, &t), silent.delete(rel, &t));
        } else {
            let rel = rng.index(3);
            let arity = q.relation(rel).attrs.len();
            let t: Vec<Value> = (0..arity).map(|_| rng.below_u64(12)).collect();
            let tid = counted.insert(rel, &t);
            assert_eq!(tid, silent.insert(rel, &t));
            if tid.is_some() {
                live.push((rel, t));
            }
        }
        if step % 7 == 0 {
            counted.exact_count();
        }
    }
    let key =
        |s: rsjoin::index::IndexStats| (s.inserts, s.deletes, s.propagation_loops, s.tilde_changes);
    assert_eq!(key(counted.stats()), key(silent.stats()));
    assert!(counted.count_stats().folds > 0);
    assert_eq!(silent.count_stats(), Default::default());
    // The snapshot bytes carry no trace of the view either.
    let snap = |idx: &DynamicIndex| {
        let mut e = Encoder::new();
        idx.snapshot_state_to(&mut e);
        e.into_bytes()
    };
    assert_eq!(snap(&counted), snap(&silent));
}
