//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here is the spread an outside
//! checker computes from the same values.

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A single observation: all three quartiles coincide.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The `i`-th of `parts` cut points of sorted `data` (exclusive method).
fn cut_point(data: &[f64], i: usize, parts: usize) -> f64 {
    let m = data.len();
    if m == 1 {
        return data[0];
    }
    let pos = i * (m + 1);
    let j = (pos / parts).clamp(1, m - 1);
    let delta = pos as f64 - (j * parts) as f64;
    (data[j - 1] * (parts as f64 - delta) + data[j] * delta) / parts as f64
}

/// Median and quartiles; `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let median = if m % 2 == 1 {
        data[m / 2]
    } else {
        (data[m / 2 - 1] + data[m / 2]) / 2.0
    };
    Some(Summary {
        n: m,
        median,
        q1: cut_point(&data, 1, 4),
        q3: cut_point(&data, 3, 4),
    })
}

/// Median of a sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond it: a p99 of 248
/// samples is the second-largest value, not a percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = (((n - 1) as f64) * q).round() as usize;
    let beyond = n - 1 - idx.min(n - 1);
    (beyond >= MIN_BEYOND).then(|| sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[4.0]).unwrap(), Summary::single(4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..1000).collect();
        // index 989 → 10 samples beyond: the limit case is reported.
        assert_eq!(percentile(&v, 0.99), Some(989));
        // 900 samples leave nine beyond p99: refused, p50 still fine.
        assert_eq!(percentile(&v[..900], 0.99), None);
        assert_eq!(percentile(&v[..900], 0.5), Some(450));
        // p999 of 1000 samples has one sample beyond: refused.
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
        // 21 samples: the median has exactly ten beyond it.
        assert_eq!(percentile(&v[..21], 0.5), Some(10));
        assert_eq!(percentile(&v[..20], 0.5), None);
    }
}
