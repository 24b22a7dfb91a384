//! The benchmark's own correctness oracle for line-k joins.
//!
//! It keeps a live edge set per relation from the op stream and counts
//! line-k results with a per-vertex path DP. It shares no code with the
//! engines' counting (`rsj-core::count`) or indexing, so a bug there cannot
//! hide itself.

use rsjoin::common::{FxHashMap, FxHashSet, Value};
use rsjoin::query::Query;
use rsjoin::storage::StreamOp;

/// Live relations of a line-k query `G1(A0,A1) ⋈ G2(A1,A2) ⋈ … ⋈ Gk(A(k-1),Ak)`.
pub struct LineOracle {
    live: Vec<FxHashSet<(Value, Value)>>,
}

impl LineOracle {
    /// An oracle with `k` empty relations.
    pub fn new(k: usize) -> LineOracle {
        LineOracle {
            live: vec![FxHashSet::default(); k],
        }
    }

    /// Applies one op with set semantics (duplicate inserts and absent
    /// deletes change nothing).
    pub fn apply(&mut self, op: &StreamOp) {
        let t = op.tuple();
        let edge = (t.values[0], t.values[1]);
        if op.is_delete() {
            self.live[t.relation].remove(&edge);
        } else {
            self.live[t.relation].insert(edge);
        }
    }

    /// Exact number of line-k results: `paths[v]` counts the partial paths
    /// through the relations so far that end at vertex `v`.
    pub fn count(&self) -> u128 {
        let mut paths: FxHashMap<Value, u128> = FxHashMap::default();
        for &(_, dst) in &self.live[0] {
            *paths.entry(dst).or_default() += 1;
        }
        for rel in &self.live[1..] {
            let mut next: FxHashMap<Value, u128> = FxHashMap::default();
            for &(src, dst) in rel {
                if let Some(&n) = paths.get(&src) {
                    *next.entry(dst).or_default() += n;
                }
            }
            paths = next;
        }
        paths.values().sum()
    }

    /// Checks a sample of capacity `k` against the live state: every row is
    /// a live join result of `query`, the rows are distinct, and there are
    /// exactly `min(k, |Q(R)|)` of them. Returns `|Q(R)|`.
    pub fn check_sample(
        &self,
        query: &Query,
        samples: &[Vec<Value>],
        k: usize,
    ) -> Result<u128, String> {
        let population = self.count();
        let expected = (k as u128).min(population);
        if samples.len() as u128 != expected {
            return Err(format!(
                "sample holds {} rows, expected min(k={k}, |Q|={population}) = {expected}",
                samples.len()
            ));
        }
        let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
        for row in samples {
            if row.len() != query.num_attrs() {
                return Err(format!("sample row {row:?} has the wrong width"));
            }
            for (rel, live) in self.live.iter().enumerate() {
                let attrs = &query.relation(rel).attrs;
                if !live.contains(&(row[attrs[0]], row[attrs[1]])) {
                    return Err(format!(
                        "sample row {row:?} uses a tuple not live in relation {rel}"
                    ));
                }
            }
            if !seen.insert(row) {
                return Err(format!("sample row {row:?} appears twice"));
            }
        }
        Ok(population)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsjoin::common::rng::RsjRng;
    use rsjoin::queries::line_k;

    /// Every line-k result by nested enumeration over the live sets.
    fn brute_force(o: &LineOracle) -> FxHashSet<Vec<Value>> {
        let mut paths: Vec<Vec<Value>> = o.live[0].iter().map(|&(s, t)| vec![s, t]).collect();
        for rel in &o.live[1..] {
            let mut next = Vec::new();
            for p in &paths {
                for &(s, t) in rel {
                    if s == *p.last().unwrap() {
                        let mut q = p.clone();
                        q.push(t);
                        next.push(q);
                    }
                }
            }
            paths = next;
        }
        paths.into_iter().collect()
    }

    /// A random op stream over a small vertex set; `delete_pct` of the ops
    /// delete a random (possibly absent) edge.
    fn random_ops(k: usize, n: usize, delete_pct: u64, rng: &mut RsjRng) -> Vec<StreamOp> {
        (0..n)
            .map(|_| {
                let rel = rng.index(k);
                let e = vec![rng.index(6) as Value, rng.index(6) as Value];
                if (rng.index(100) as u64) < delete_pct {
                    StreamOp::delete(rel, e)
                } else {
                    StreamOp::insert(rel, e)
                }
            })
            .collect()
    }

    #[test]
    fn count_matches_brute_force() {
        let mut rng = RsjRng::seed_from_u64(11);
        for trial in 0..60 {
            let k = 2 + trial % 3;
            let delete_pct = if trial % 2 == 0 { 0 } else { 30 };
            let mut o = LineOracle::new(k);
            for op in random_ops(k, 40, delete_pct, &mut rng) {
                o.apply(&op);
                assert_eq!(o.count(), brute_force(&o).len() as u128);
            }
        }
    }

    #[test]
    fn check_sample_accepts_exactly_the_live_results() {
        let query = line_k(3, &[(0, 1)], 0).query;
        let mut rng = RsjRng::seed_from_u64(5);
        let mut o = LineOracle::new(3);
        for op in random_ops(3, 60, 20, &mut rng) {
            o.apply(&op);
        }
        // Line-k attribute ids run A0..Ak in order, so a path is a row.
        let all: Vec<Vec<Value>> = brute_force(&o).into_iter().collect();
        assert!(all.len() > 3, "fixture should have several results");
        let n = all.len() as u128;
        assert_eq!(o.check_sample(&query, &all, all.len() + 5), Ok(n));
        assert_eq!(o.check_sample(&query, &all[..3], 3), Ok(n));
        // Too few rows for the capacity.
        assert!(o.check_sample(&query, &all[..2], 3).is_err());
        // A duplicate row.
        let dup = vec![all[0].clone(), all[0].clone(), all[1].clone()];
        assert!(o.check_sample(&query, &dup, 3).is_err());
        // A row that is not a join result.
        let mut bad = all[..3].to_vec();
        bad[2][3] = 99;
        assert!(o.check_sample(&query, &bad, 3).is_err());
    }
}
