//! Order statistics over timing samples.

/// Samples sorted ascending (NaN-free input assumed: every sample is a
/// finite host time or ratio).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method) does.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile whose nearest-rank sample still leaves at
/// least ten samples beyond it: `p90` for 100 samples, `p80` for 50.
/// `None` below eleven samples, where no percentile qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100u32)
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The nearest-rank `p`-th percentile.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `1..=100`.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    sorted(v)[rank(v.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        // Exactly ten beyond at the chosen point, fewer one percentile up.
        for n in [11, 37, 100, 101, 250, 1000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n} p={p} is not the highest");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 1), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }
}
