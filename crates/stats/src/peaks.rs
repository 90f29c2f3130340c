//! Local-maxima detection and the paper's sum-of-local-maxima metric.
//!
//! Section V-B of the paper observes that the genuine-vs-infected EM
//! differences concentrate at trace peaks, takes the **local maxima** of the
//! absolute difference trace as points of interest, and **sums** them into a
//! single detection statistic. This module implements that pipeline on raw
//! `f64` sample slices so it can also serve non-EM series.

/// A detected local maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the maximum.
    pub index: usize,
    /// Sample value at the maximum.
    pub value: f64,
}

/// Finds strict local maxima: samples greater than both neighbours.
///
/// Plateaus (runs of equal values higher than both sides) report their first
/// index. Endpoints are never peaks — the paper's points of interest are
/// interior trace peaks.
///
/// ```
/// use htd_stats::peaks::local_maxima;
///
/// let xs = [0.0, 2.0, 1.0, 1.0, 3.0, 3.0, 0.5];
/// let peaks = local_maxima(&xs);
/// let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
/// assert_eq!(idx, vec![1, 4]);
/// ```
pub fn local_maxima(xs: &[f64]) -> Vec<Peak> {
    let mut peaks = Vec::new();
    let n = xs.len();
    if n < 3 {
        return peaks;
    }
    let mut i = 1;
    while i + 1 < n {
        if xs[i] > xs[i - 1] {
            // Scan across a possible plateau.
            let start = i;
            let mut j = i;
            while j + 1 < n && xs[j + 1] == xs[j] {
                j += 1;
            }
            if j + 1 < n && xs[j + 1] < xs[j] {
                peaks.push(Peak {
                    index: start,
                    value: xs[start],
                });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    peaks
}

/// The paper's detection statistic: the sum of all local-maximum values of
/// `xs` (normally `xs` is an absolute-difference trace).
///
/// Returns `0.0` when the series has no interior peaks.
///
/// ```
/// use htd_stats::peaks::sum_of_local_maxima;
///
/// assert_eq!(sum_of_local_maxima(&[0.0, 2.0, 0.0, 3.0, 0.0]), 5.0);
/// assert_eq!(sum_of_local_maxima(&[1.0, 1.0, 1.0]), 0.0);
/// ```
pub fn sum_of_local_maxima(xs: &[f64]) -> f64 {
    local_maxima(xs).iter().map(|p| p.value).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_simple_peaks() {
        let xs = [0.0, 1.0, 0.0, 2.0, 0.0];
        let p = local_maxima(&xs);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].index, 1);
        assert_eq!(p[1].value, 2.0);
    }

    #[test]
    fn endpoints_are_not_peaks() {
        // [5,1,4]: both 5 and 4 are endpoints, 1 is a valley — no peaks.
        assert!(local_maxima(&[5.0, 1.0, 4.0]).is_empty());
        assert!(local_maxima(&[5.0, 1.0]).is_empty());
        assert!(local_maxima(&[3.0, 2.0, 1.0]).is_empty());
        // Interior peak next to an endpoint still counts.
        assert_eq!(local_maxima(&[0.0, 2.0, 1.0]).len(), 1);
    }

    #[test]
    fn plateau_reports_first_index_once() {
        let xs = [0.0, 4.0, 4.0, 4.0, 1.0];
        let p = local_maxima(&xs);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index, 1);
    }

    #[test]
    fn plateau_running_into_the_end_is_not_a_peak() {
        let xs = [0.0, 4.0, 4.0];
        assert!(local_maxima(&xs).is_empty());
    }

    #[test]
    fn monotone_series_has_no_peaks() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(local_maxima(&xs).is_empty());
        assert_eq!(sum_of_local_maxima(&xs), 0.0);
    }

    #[test]
    fn sum_of_local_maxima_matches_manual_sum() {
        let xs = [0.0, 1.5, 0.0, 2.5, 1.0, 3.0, 0.0];
        assert!((sum_of_local_maxima(&xs) - 7.0).abs() < 1e-15);
    }
}
