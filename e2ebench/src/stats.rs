//! Order statistics for latency samples.

/// Samples a percentile must leave beyond it before it is reported: a
/// tail percentile resting on fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, given in parts per
/// thousand (`500` = p50, `999` = p99.9; integer so that the rank is
/// exact), or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], permille: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || permille == 0 || permille > 1000 {
        return None;
    }
    let rank = (permille * n).div_ceil(1000);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// A percentile robust to noise that hits some rounds and not others:
/// consecutive rounds are pooled into batches just large enough for the
/// percentile (a short final batch joins the one before it), and
/// [`Batches::finish`] returns the [`trimmed_mean`] of the batches'
/// percentiles.
///
/// Rounds are folded in as they end, so a run keeps no round's samples:
/// the two batch buffers are reused and reach a steady capacity.
pub struct Batches {
    permille: usize,
    /// Percentiles of the batches before `last`.
    values: Vec<f64>,
    /// The last complete batch: a short final batch still joins it.
    last: Vec<u64>,
    open: Vec<u64>,
    samples: usize,
}

impl Batches {
    pub fn new(permille: usize) -> Batches {
        Batches {
            permille,
            values: Vec::new(),
            last: Vec::new(),
            open: Vec::new(),
            samples: 0,
        }
    }

    /// Makes room for `samples` more samples in each buffer, so that they
    /// do not move while rounds are folded in.
    pub fn reserve(&mut self, samples: usize) {
        self.values.reserve(1024);
        self.last.reserve(samples);
        self.open.reserve(samples);
    }

    /// Adds one round's samples.
    pub fn push(&mut self, round: &[u64]) {
        self.samples += round.len();
        self.open.extend_from_slice(round);
        self.open.sort_unstable();
        if percentile(&self.open, self.permille).is_some() {
            if let Some(v) = percentile(&self.last, self.permille) {
                self.values.push(v as f64);
            }
            std::mem::swap(&mut self.last, &mut self.open);
            self.open.clear();
        }
    }

    /// Samples pushed so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    pub fn permille(&self) -> usize {
        self.permille
    }

    /// The trimmed mean of the batches' percentiles, once every round is
    /// in; `None` when all rounds together are too few.
    pub fn finish(&mut self) -> Option<f64> {
        if self.last.is_empty() {
            return None;
        }
        self.last.append(&mut self.open);
        self.last.sort_unstable();
        let v = percentile(&self.last, self.permille).expect("every batch holds enough samples");
        self.values.push(v as f64);
        Some(trimmed_mean(&self.values))
    }
}

/// Mean of a non-empty slice of per-round or per-batch figures after
/// dropping its `(n + 2) / 6` highest and as many lowest values (a sixth
/// of each end, rounded). On a shared host, noise comes in episodes of a
/// few seconds that slow whole rounds, so per-round figures fall into a
/// fast and a slow mode: a median jumps between the modes as the share of
/// slow rounds crosses one half, while a mean follows that share smoothly.
/// The trim drops rounds hit by a rarer, larger burst.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() + 2) / 6;
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of a non-empty slice of measurements (mean of the two middle
/// values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), Some(50));
        assert_eq!(percentile(&v, 900), Some(90));
        // p99 of 100 samples has one sample beyond it: not reportable.
        assert_eq!(percentile(&v, 990), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10_000 samples: p99.9 has exactly 10 beyond it.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 999), Some(9_990));
        // One fewer sample leaves only 9 beyond it.
        assert_eq!(percentile(&v[..9_999], 999), None);
        assert_eq!(percentile(&v[..9_999], 990), Some(9_900));
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 500), None);
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&v, 0), None);
        assert_eq!(percentile(&v, 1500), None);
    }

    fn batched_percentile(rounds: &[&[u64]], permille: usize) -> Option<f64> {
        let mut b = Batches::new(permille);
        rounds.iter().for_each(|r| b.push(r));
        b.finish()
    }

    #[test]
    fn batches_pool_rounds_until_the_tail_is_reportable() {
        let big: Vec<u64> = (1..=100).collect();
        let shifted: Vec<u64> = (101..=200).collect();
        // Each round alone suffices for p50: trimmed mean of the round
        // medians, which drops the one outlying round of four.
        assert_eq!(
            batched_percentile(&[&big, &shifted, &big, &big], 500),
            Some(50.0)
        );
        // p90 needs 100 samples per batch: each round is its own batch.
        assert_eq!(batched_percentile(&[&big, &shifted], 900), Some(140.0));
        // p95 needs 200: the two rounds form one batch.
        assert_eq!(batched_percentile(&[&big, &shifted], 950), Some(190.0));
        // A short final round joins the batch before it.
        let short: Vec<u64> = vec![1000; 5];
        assert_eq!(batched_percentile(&[&big, &short], 900), Some(95.0));
        // Too few samples overall.
        assert_eq!(batched_percentile(&[&big], 990), None);
        assert_eq!(batched_percentile(&[], 500), None);
    }

    #[test]
    fn trimmed_mean_drops_a_sixth_of_each_end() {
        // Fewer than four values: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        // Four values: the highest and the lowest go.
        assert_eq!(trimmed_mean(&[100.0, 1.0, 3.0, 5.0]), 4.0);
        // Ten values: two of each end go.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), 5.5);
        assert_eq!(
            trimmed_mean(&[-1e9, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1e9]),
            2.0
        );
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
