//! Small order statistics shared by every workload: medians and the
//! tail-percentile rule.

/// Percentile levels the tail rule may report, highest first.
pub const TAIL_LEVELS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile as reported: the level actually used, its value,
/// and the sample count it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile level in `0..1` (`0.99` is p99).
    pub level: f64,
    /// The sample at that level.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

impl Tail {
    /// `p99`, `p95`, `p99.9`, ... for printing.
    pub fn label(&self) -> String {
        let pct = self.level * 100.0;
        if pct.fract() == 0.0 {
            format!("p{pct:.0}")
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Sorted copy of `xs` (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `level` of the samples at or below it.
fn nearest_rank(sorted: &[f64], level: f64) -> f64 {
    let n = sorted.len();
    let rank = ((level * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile in [`TAIL_LEVELS`], no higher than
/// `preferred`, with at least [`TAIL_MIN_BEYOND`] samples strictly
/// beyond its rank. With too few samples for even the median, the
/// maximum is reported at level 1.0, so the caller always gets a value
/// and the printed level says how much to trust it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64], preferred: f64) -> Tail {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let n = v.len();
    for level in TAIL_LEVELS.into_iter().filter(|l| *l <= preferred + 1e-12) {
        let rank = ((level * n as f64).ceil() as usize).clamp(1, n);
        if n - rank >= TAIL_MIN_BEYOND {
            return Tail { level, value: nearest_rank(&v, level), n };
        }
    }
    Tail { level: 1.0, value: v[n - 1], n }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly 10 beyond -> p99 allowed.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.level, t.value, t.n), (0.99, 990.0, 1000));
        // 999 samples: p99 rank is 990 with 9 beyond -> falls to p95.
        let t = tail(&ramp(999), 0.99);
        assert_eq!(t.level, 0.95);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.n, 999);
    }

    #[test]
    fn tail_walks_down_the_levels() {
        assert_eq!(tail(&ramp(200), 0.99).level, 0.95);
        assert_eq!(tail(&ramp(100), 0.99).level, 0.9);
        assert_eq!(tail(&ramp(40), 0.99).level, 0.75);
        assert_eq!(tail(&ramp(20), 0.99).level, 0.5);
        // Fewer than 20 samples: nothing qualifies, the max is shown.
        let t = tail(&ramp(12), 0.99);
        assert_eq!((t.level, t.value), (1.0, 12.0));
    }

    #[test]
    fn tail_never_exceeds_the_preferred_level() {
        let t = tail(&ramp(100_000), 0.5);
        assert_eq!(t.level, 0.5);
        assert_eq!(t.value, 50_000.0);
        assert_eq!(tail(&ramp(100_000), 0.99).level, 0.99);
        assert_eq!(tail(&ramp(100_000), 1.0).level, 0.999);
    }

    #[test]
    fn tail_labels() {
        assert_eq!(Tail { level: 0.99, value: 0.0, n: 1 }.label(), "p99");
        assert_eq!(Tail { level: 0.999, value: 0.0, n: 1 }.label(), "p99.9");
    }
}
