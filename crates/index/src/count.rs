//! Exact `|Q(R)|` as a resident count view.
//!
//! The dynamic index maintains *rounded* counts (`cnt~`), which is all
//! sampling needs. The turnstile repair protocol and the service's publish
//! points also need the *exact* live `|Q(R)|`. Recounting it from scratch
//! is one bottom-up message pass over the join tree — `O(N)` per call —
//! and repair points come every `~|Q(R)|/4k` deletes, so the recount used
//! to dominate turnstile ingest.
//!
//! The index keeps the pass's messages resident instead: F-IVM's view
//! tree (Nikolic & Olteanu, SIGMOD 2018) specialised to `COUNT`. Rooted at
//! the center of the index's own join tree (on the benchmark's line-3
//! inputs a fold visits 0.3-0.6x the tuples it visits rooted at an end
//! relation), it holds per relation a map
//! from the key shared with the parent to the summed subtree weight of the
//! relation's tuples under that key; the root's single entry (under the
//! empty key) is `|Q(R)|`.
//!
//! * [`DynamicIndex::insert`](crate::DynamicIndex::insert) and
//!   [`delete`](crate::DynamicIndex::delete) only append `(rel, tid, ±1)`
//!   to a dirty log — the ingest path does no folding.
//! * [`DynamicIndex::exact_count`](crate::DynamicIndex::exact_count) folds
//!   the log bottom-up: signs are netted per tuple id (ids are monotone and
//!   never reused, so a tuple inserted and deleted since the last count
//!   cancels without a lookup), each dirty tuple adds or retracts its
//!   weight, and for every child key whose message changed the parent's
//!   items are walked through the child-index postings the index's
//!   (node, parent) configurations already keep — the view stores no
//!   second copy of any tuple.
//! * Once folding the log would cost more than a full pass, it is dropped
//!   and the next count runs one full pass. The fold's cost is predicted
//!   from the measured mean visits per logged op of the folds so far (see
//!   [`FOLD_VISIT_COST`]; the mean, not the last fold, since one small
//!   fold into a hot key can cost a hundred visits per op); since every op costs at least one visit, the
//!   log never holds more than a third of the live tuples, and an index
//!   that is never counted (a sampling-disabled pipeline) never logs at
//!   all after its first drop.
//!
//! The fold is the delta rule `Δ(w·Π m) = Δw·Π m_old + w_new·ΔΠ m`, with
//! the product difference telescoped child by child so no item is visited
//! twice per changed key. Arithmetic is wrapping (a ring homomorphism), so
//! the view is exact whenever `|Q(R)|` and every message fit in `u128`.
//!
//! The view is derived state: it is never serialized, a restored index
//! starts from a full pass, and [`CountStats`] keeps its work counters
//! apart from [`IndexStats`](crate::IndexStats).

use crate::state::NodeState;
use rsj_common::{fx_hash_one, HeapSize, Key, KeyMap, TupleId, Value};
use rsj_query::{JoinTree, NodeInfo, Query, RootedTree};
use rsj_storage::Database;
use std::sync::{Mutex, MutexGuard};

/// What one tuple visit of a fold costs, in tuples of a full pass. A fold
/// visit walks a posting, projects and hashes a key and probes one or two
/// maps per sibling; a full-pass tuple projects and probes once. Timed on
/// the benchmark's line-3 inputs (2-vCPU host, logs of 27 to 4096 ops), a
/// fold visit cost 2.5-2.8x a full-pass tuple on the turnstile workload
/// and 3.3-4.9x on the zipf-skewed service workload.
pub const FOLD_VISIT_COST: u64 = 3;

/// The bottom-up message schedule of one rooted join tree: the one exact
/// counting pass shared by the resident view's full-pass fallback and the
/// stand-alone counters over a [`Database`] or a tuple-set sidecar.
#[derive(Clone, Debug)]
pub struct CountPlan {
    /// Relations in BFS order from the root (parents before children);
    /// passes walk it in reverse.
    order: Vec<usize>,
    root: usize,
    /// Per relation: schema positions of the attributes shared with its
    /// parent (empty for the root).
    up: Vec<Vec<usize>>,
    /// Per relation: `(child, schema positions of the child's key)`, in the
    /// rooted tree's child order.
    down: Vec<Vec<(usize, Vec<usize>)>>,
}

impl CountPlan {
    /// The schedule of `tree` rooted at its center (a relation of least
    /// eccentricity), or `None` when some shared key is wider than
    /// [`rsj_common::value::MAX_KEY_ARITY`].
    pub fn new(query: &Query, tree: &JoinTree) -> Option<CountPlan> {
        RootedTree::build(query, tree, Self::center(tree))
            .ok()
            .map(|rt| Self::from_rooted(&rt))
    }

    /// A relation of least eccentricity in `tree` (the smallest id among
    /// ties): rooted there, the tree is as shallow as it gets, and a fold
    /// walks the fewest levels from a changed leaf to the root.
    pub(crate) fn center(tree: &JoinTree) -> usize {
        let n = tree.len();
        let eccentricity = |from: usize| {
            let mut depth = vec![usize::MAX; n];
            depth[from] = 0;
            let mut queue = vec![from];
            let mut i = 0;
            while i < queue.len() {
                let r = queue[i];
                i += 1;
                for &c in tree.neighbors(r) {
                    if depth[c] == usize::MAX {
                        depth[c] = depth[r] + 1;
                        queue.push(c);
                    }
                }
            }
            depth[queue[queue.len() - 1]]
        };
        (0..n).min_by_key(|&r| eccentricity(r)).unwrap_or(0)
    }

    pub(crate) fn from_rooted(rt: &RootedTree) -> CountPlan {
        CountPlan {
            order: rt.bfs_order().to_vec(),
            root: rt.root(),
            up: rt.nodes().iter().map(|n| n.key_positions.clone()).collect(),
            down: rt
                .nodes()
                .iter()
                .map(|n| {
                    n.children
                        .iter()
                        .copied()
                        .zip(n.child_key_positions.iter().cloned())
                        .collect()
                })
                .collect(),
        }
    }

    /// Exact `|Q|` over the tuples `tuples_of(rel)` yields per relation.
    pub fn count<'a, I>(&self, tuples_of: impl Fn(usize) -> I) -> u128
    where
        I: Iterator<Item = &'a [Value]>,
    {
        let mut msgs = vec![KeyMap::default(); self.up.len()];
        self.pass(&mut msgs, tuples_of);
        root_total(&msgs[self.root])
    }

    /// One bottom-up message pass into `msgs` (one empty map per
    /// relation); returns the tuples visited. Each tuple projects and
    /// fx-hashes inline [`Key`]s — no per-tuple allocation. Saturating, so
    /// an astronomically large join reports `u128::MAX`.
    fn pass<'a, I>(&self, msgs: &mut [KeyMap<u128>], tuples_of: impl Fn(usize) -> I) -> u64
    where
        I: Iterator<Item = &'a [Value]>,
    {
        let mut visited = 0u64;
        for &r in self.order.iter().rev() {
            for t in tuples_of(r) {
                visited += 1;
                let mut w: u128 = 1;
                for (c, pos) in &self.down[r] {
                    w = w.saturating_mul(message(&msgs[*c], &Key::project(t, pos)));
                    if w == 0 {
                        break;
                    }
                }
                if w != 0 {
                    let k = Key::project(t, &self.up[r]);
                    let slot = msgs[r].get_or_insert_with(fx_hash_one(&k), k, || 0).0;
                    *slot = slot.saturating_add(w);
                }
            }
        }
        visited
    }
}

/// The message under `key` (absent keys carry weight 0).
#[inline]
fn message(msgs: &KeyMap<u128>, key: &Key) -> u128 {
    msgs.get(fx_hash_one(key), key).copied().unwrap_or(0)
}

/// The root's single message: the whole join's count.
fn root_total(msgs: &KeyMap<u128>) -> u128 {
    message(msgs, &Key::EMPTY)
}

/// Work counters of the exact-count view, kept apart from
/// [`IndexStats`](crate::IndexStats): counting is a read, and the index
/// counters must not depend on whether anyone counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountStats {
    /// Counts answered by folding the dirty log.
    pub folds: u64,
    /// Counts answered by a full message pass: the first count, and the
    /// first count after each dropped log.
    pub full_passes: u64,
    /// Times the dirty log was dropped because folding it was predicted to
    /// cost more than a full pass.
    pub log_drops: u64,
    /// Tuples (or grouped items) visited by folds and full passes — the
    /// counting work.
    pub tuples_visited: u64,
}

/// The resident exact-count view of one [`DynamicIndex`](crate::DynamicIndex).
///
/// Counting is a logical read, so [`count`](CountView::count) takes `&self`
/// and folds behind a mutex; the ingest path reaches the state through
/// `&mut self` and never locks.
#[derive(Debug)]
pub(crate) struct CountView(Mutex<ViewState>);

#[derive(Clone, Debug)]
struct ViewState {
    plan: CountPlan,
    /// Per relation: its configuration in the tree rooted at `plan.root`.
    cfg: Vec<u32>,
    /// Whether `msgs` reflect the index as of the last count plus `log`;
    /// `false` makes the next count a full pass.
    valid: bool,
    /// Per relation: key shared with the parent -> summed subtree weight.
    /// Zero messages stay resident, as the index's empty groups do.
    msgs: Vec<KeyMap<u128>>,
    /// Per relation: `(tid, inserted?)` since the last count.
    log: Vec<Vec<(TupleId, bool)>>,
    logged: usize,
    /// Logged ops and tuple visits of every fold so far.
    folded_ops: u64,
    fold_visits: u64,
    /// Predicted cost of folding one logged op, in full-pass tuples:
    /// [`FOLD_VISIT_COST`] times the folds' mean visits per logged op, and
    /// never below [`FOLD_VISIT_COST`] (one visit per op).
    op_cost: u64,
    /// Per relation: slots allocated as of the last count — tuple ids at
    /// or past it were inserted since.
    counted_slots: Vec<usize>,
    stats: CountStats,
}

impl Clone for CountView {
    fn clone(&self) -> CountView {
        CountView(Mutex::new(self.lock().clone()))
    }
}

impl CountView {
    /// An empty view over the tree rooted at `rooted.root()`, whose
    /// configurations per relation are `cfg`. It starts invalid: the first
    /// count is a full pass.
    pub(crate) fn new(rooted: &RootedTree, cfg: Vec<u32>) -> CountView {
        let n = cfg.len();
        CountView(Mutex::new(ViewState {
            plan: CountPlan::from_rooted(rooted),
            cfg,
            valid: false,
            msgs: vec![KeyMap::default(); n],
            log: vec![Vec::new(); n],
            logged: 0,
            folded_ops: 0,
            fold_visits: 0,
            op_cost: FOLD_VISIT_COST,
            counted_slots: vec![0; n],
            stats: CountStats::default(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, ViewState> {
        self.0
            .lock()
            .expect("a count panicked while folding the view")
    }

    fn state_mut(&mut self) -> &mut ViewState {
        self.0
            .get_mut()
            .expect("a count panicked while folding the view")
    }

    /// Logs one accepted insert (`inserted`) or delete of `tid` in `rel`.
    /// `live` is the index's live tuple count after the op. O(1),
    /// allocation-free once the log's buffers are warm.
    #[inline]
    pub(crate) fn record(&mut self, rel: usize, tid: TupleId, inserted: bool, live: usize) {
        let st = self.state_mut();
        if !st.valid {
            return;
        }
        if st.logged as u64 * st.op_cost >= live as u64 {
            // Folding this much would cost more than a full pass; stop
            // logging until the next count rebuilds from scratch.
            st.valid = false;
            st.stats.log_drops += 1;
            st.clear_log();
            return;
        }
        st.log[rel].push((tid, inserted));
        st.logged += 1;
    }

    /// Forgets everything: the index's state was replaced wholesale.
    pub(crate) fn invalidate(&mut self) {
        let st = self.state_mut();
        st.valid = false;
        st.clear_log();
    }

    /// Exact `|Q(R)|` of the index whose state is `(configs, infos, db)`.
    pub(crate) fn count(&self, configs: &[NodeState], infos: &[NodeInfo], db: &Database) -> u128 {
        let mut st = self.lock();
        if st.valid {
            st.fold(configs, infos, db);
        } else {
            st.full_pass(db);
        }
        st.clear_log();
        for (r, slots) in st.counted_slots.iter_mut().enumerate() {
            *slots = db.relation(r).num_slots();
        }
        st.valid = true;
        root_total(&st.msgs[st.plan.root])
    }

    /// The view's work counters.
    pub(crate) fn stats(&self) -> CountStats {
        self.lock().stats
    }

    /// Heap bytes of the resident messages and the log.
    pub(crate) fn heap_size(&self) -> usize {
        let st = self.lock();
        st.msgs.iter().map(HeapSize::heap_size).sum::<usize>()
            + st.log.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl ViewState {
    fn clear_log(&mut self) {
        for l in &mut self.log {
            l.clear();
        }
        self.logged = 0;
    }

    fn full_pass(&mut self, db: &Database) {
        self.stats.full_passes += 1;
        for m in &mut self.msgs {
            *m = KeyMap::default();
        }
        self.stats.tuples_visited += self
            .plan
            .pass(&mut self.msgs, |r| db.relation(r).iter().map(|(_, t)| t));
    }

    /// Folds the dirty log into the messages, children before parents.
    fn fold(&mut self, configs: &[NodeState], infos: &[NodeInfo], db: &Database) {
        self.stats.folds += 1;
        let ViewState {
            plan,
            cfg,
            msgs,
            log,
            logged,
            folded_ops,
            fold_visits,
            op_cost,
            counted_slots,
            stats,
            ..
        } = self;
        // Per relation: the net message change of each key this fold
        // touches, in touch order, indexed through `pending_at`. Scratch
        // lives for one fold and is sized by what the fold touches.
        let n = msgs.len();
        let mut pending: Vec<Vec<(Key, u64, u128)>> = vec![Vec::new(); n];
        let mut pending_at: Vec<KeyMap<u32>> = vec![KeyMap::default(); n];
        let mut visited = 0u64;
        // The root's changes all land on its single (empty) key.
        let mut root_delta: u128 = 0;
        for &r in plan.order.iter().rev() {
            let is_root = r == plan.root;
            let children = &plan.down[r];
            let rel = db.relation(r);
            // Own changes, weighted by the children's old messages (they
            // are applied only after this node is done).
            for &(tid, inserted) in &log[r] {
                let cancelled = if inserted {
                    !rel.is_live(tid)
                } else {
                    tid as usize >= counted_slots[r]
                };
                if cancelled {
                    continue;
                }
                visited += 1;
                let t = rel.tuple(tid);
                let mut w: u128 = 1;
                for (c, pos) in children {
                    w = w.wrapping_mul(message(&msgs[*c], &Key::project(t, pos)));
                    if w == 0 {
                        break;
                    }
                }
                let d = if inserted { w } else { w.wrapping_neg() };
                if is_root {
                    root_delta = root_delta.wrapping_add(d);
                } else if w != 0 {
                    add_pending(
                        &mut pending,
                        &mut pending_at,
                        r,
                        Key::project(t, &plan.up[r]),
                        d,
                    );
                }
            }
            // Children's changes, walked through the child-index postings
            // of this node's configuration. Telescoping: for child j, the
            // children before it count with their new messages and the
            // ones after it with their old ones.
            let node = cfg[r] as usize;
            let (ns, info) = (&configs[node], &infos[node]);
            let (child_pos, up_pos) = if ns.grouped {
                (
                    &info.child_key_positions_in_ebar,
                    &info.key_positions_in_ebar,
                )
            } else {
                (&info.child_key_positions, &info.key_positions)
            };
            for (j, &(c, _)) in children.iter().enumerate() {
                for p in 0..pending[c].len() {
                    let (key, hash, d) = pending[c][p];
                    if d == 0 {
                        continue;
                    }
                    let Some(&list) = ns.child_indexes[j].get(hash, &key) else {
                        continue;
                    };
                    for item in ns.postings.iter(list) {
                        visited += 1;
                        let (vals, mult) = if ns.grouped {
                            (
                                ns.grouped_data.ebar_vals[item as usize].as_slice(),
                                ns.grouped_data.feq[item as usize] as u128,
                            )
                        } else {
                            (rel.tuple(item), 1)
                        };
                        let mut w = mult.wrapping_mul(d);
                        for (i, &(other, _)) in children.iter().enumerate() {
                            if w == 0 {
                                break;
                            }
                            if i == j {
                                continue;
                            }
                            let k = Key::project(vals, &child_pos[i]);
                            let h = fx_hash_one(&k);
                            let mut m = msgs[other].get(h, &k).copied().unwrap_or(0);
                            if i < j {
                                if let Some(&at) = pending_at[other].get(h, &k) {
                                    m = m.wrapping_add(pending[other][at as usize].2);
                                }
                            }
                            w = w.wrapping_mul(m);
                        }
                        if is_root {
                            root_delta = root_delta.wrapping_add(w);
                        } else if w != 0 {
                            add_pending(
                                &mut pending,
                                &mut pending_at,
                                r,
                                Key::project(vals, up_pos),
                                w,
                            );
                        }
                    }
                }
            }
            for &(c, _) in children {
                apply_pending(msgs, &pending, c);
            }
        }
        add_pending(
            &mut pending,
            &mut pending_at,
            plan.root,
            Key::EMPTY,
            root_delta,
        );
        apply_pending(msgs, &pending, plan.root);
        stats.tuples_visited += visited;
        *folded_ops += *logged as u64;
        *fold_visits += visited;
        if *folded_ops > 0 {
            *op_cost = (FOLD_VISIT_COST * *fold_visits)
                .div_ceil(*folded_ops)
                .max(FOLD_VISIT_COST);
        }
    }
}

/// Accumulates `d` into relation `r`'s pending change under `key`.
fn add_pending(
    pending: &mut [Vec<(Key, u64, u128)>],
    pending_at: &mut [KeyMap<u32>],
    r: usize,
    key: Key,
    d: u128,
) {
    let hash = fx_hash_one(&key);
    let next = pending[r].len() as u32;
    let (&mut at, created) = pending_at[r].get_or_insert_with(hash, key, || next);
    if created {
        pending[r].push((key, hash, d));
    } else {
        let slot = &mut pending[r][at as usize].2;
        *slot = slot.wrapping_add(d);
    }
}

/// Folds relation `r`'s pending changes into its messages.
fn apply_pending(msgs: &mut [KeyMap<u128>], pending: &[Vec<(Key, u64, u128)>], r: usize) {
    for &(key, hash, d) in &pending[r] {
        if d == 0 {
            continue;
        }
        let m = msgs[r].get_or_insert_with(hash, key, || 0).0;
        *m = m.wrapping_add(d);
    }
}
