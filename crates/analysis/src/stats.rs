//! Descriptive statistics used throughout the figures.
//!
//! The paper relies on medians ("some high-volume traffic devices skew
//! the means … the rest of the analysis in this work will rely on median
//! values", §4) and box-and-whisker summaries with whiskers at the 1st
//! and 95th percentiles (Figures 6 and 7).

/// Interpolated percentile (R-7, the numpy default) of a sorted slice.
/// `q` in [0, 100]. Returns `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 100.0);
    let h = (sorted.len() - 1) as f64 * q / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Sort a vector and compute a percentile.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// Median of unsorted values.
pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The box-and-whisker summary the paper's Figures 6 and 7 draw:
/// whiskers at p1/p95, box at quartiles, plus p99 (discussed for TikTok).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Sample count (the paper prints `n=` per group).
    pub n: usize,
    /// 1st percentile (lower whisker).
    pub p1: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl BoxStats {
    /// Compute from unsorted values. Returns `None` on empty input.
    pub fn compute(values: &mut [f64]) -> Option<BoxStats> {
        values.sort_by(f64::total_cmp);
        Some(BoxStats {
            n: values.len(),
            p1: percentile_sorted(values, 1.0)?,
            q1: percentile_sorted(values, 25.0)?,
            median: percentile_sorted(values, 50.0)?,
            q3: percentile_sorted(values, 75.0)?,
            p95: percentile_sorted(values, 95.0)?,
            p99: percentile_sorted(values, 99.0)?,
        })
    }
}

/// Simple moving average over a daily series; window is centered and
/// truncated at the edges (Figure 8 uses a 3-day moving average).
pub fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    if window == 0 || series.is_empty() {
        return series.to_vec();
    }
    let half = window / 2;
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(series.len());
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_basic() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 50.0), Some(3.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 25.0), Some(2.0));
        // Interpolation between ranks.
        let v = vec![0.0, 10.0];
        assert_eq!(percentile_sorted(&v, 50.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 75.0), Some(7.5));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(median(&mut Vec::new()), None);
        assert_eq!(BoxStats::compute(&mut Vec::new()), None);
    }

    #[test]
    fn median_unsorted() {
        let mut v = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut v), Some(5.0));
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
    }

    #[test]
    fn box_stats_ordering_invariant() {
        let mut v: Vec<f64> = (0..1000).map(|i| ((i * 37) % 1000) as f64).collect();
        let b = BoxStats::compute(&mut v).unwrap();
        assert_eq!(b.n, 1000);
        assert!(b.p1 <= b.q1 && b.q1 <= b.median);
        assert!(b.median <= b.q3 && b.q3 <= b.p95 && b.p95 <= b.p99);
        assert!((b.median - 499.5).abs() < 1.0);
    }

    #[test]
    fn moving_average_window3() {
        let s = vec![0.0, 3.0, 6.0, 9.0];
        let ma = moving_average(&s, 3);
        assert_eq!(ma.len(), 4);
        assert!((ma[0] - 1.5).abs() < 1e-12); // truncated edge: (0+3)/2
        assert!((ma[1] - 3.0).abs() < 1e-12);
        assert!((ma[2] - 6.0).abs() < 1e-12);
        assert!((ma[3] - 7.5).abs() < 1e-12);
        assert_eq!(moving_average(&s, 0), s);
    }
}
