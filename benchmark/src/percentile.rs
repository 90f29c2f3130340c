//! Exact order statistics over raw samples.
//!
//! Every percentile here is read off the sorted samples with the
//! nearest-rank rule, never from histogram bucket edges, so a reported
//! latency is a latency some operation actually had.

/// A percentile read off a sample set: its value, the quantile it sits
/// at and the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The quantile, in `(0, 1]`.
    pub q: f64,
    /// Samples the quantile was taken from.
    pub n: usize,
}

/// Sorts a copy of `samples` (total order, NaN last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it (`rank = ceil(q × n)`, clamped to
/// `1..=n`). `None` for an empty set.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(samples), 0.5)
}

/// Samples a tail percentile must leave beyond it to be trusted.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_BEYOND`] samples above
/// its rank: rank `n − 10` of `n` sorted samples, quantile `(n − 10)/n`.
/// Below 21 samples that rank would fall under the median, so the tail
/// is the median: a short run never claims a tail it did not observe.
pub fn tail(samples: &[f64]) -> Option<Quantile> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND).max(n.div_ceil(2));
    Some(Quantile {
        value: s[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_real_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1000 samples: rank 990 is p99 with samples 991..=1000 beyond.
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&s).expect("non-empty");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
        assert!((t.q - 0.99).abs() < 1e-12);
        let beyond = s.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // 200 samples: p95.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&s).expect("non-empty");
        assert_eq!((t.value, t.q), (190.0, 0.95));

        // 21 samples: rank 11, the median, is the first that qualifies.
        let s: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&s).expect("non-empty").value, 11.0);
    }

    #[test]
    fn tail_of_a_short_run_falls_back_to_the_median() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        let t = tail(&s).expect("non-empty");
        assert_eq!((t.value, t.n), (3.0, 5));
        let s: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(tail(&s).expect("non-empty").value, 7.0);
        assert_eq!(tail(&[]), None);
    }
}
