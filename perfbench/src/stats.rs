//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so that a tail
//! figure is never read off a handful of samples.

/// Samples a tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of fraction `q` among `n` samples: the
/// smallest sample with at least `q` of the samples at or below it.  The small
/// slack keeps `0.99 · 1000` at rank 990 despite binary rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail figure: the percentile actually used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, as a fraction (`0.99` when enough samples).
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The `want` percentile if at least [`MIN_BEYOND`] samples lie beyond
/// it, otherwise the highest percentile that leaves exactly that many.
/// With [`MIN_BEYOND`] samples or fewer there is no such percentile and
/// the median is used.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n <= MIN_BEYOND {
        return Tail {
            q: 0.5,
            value: median(&s),
        };
    }
    // Requiring n − rank ≥ 10 caps the nearest rank at n − 10.
    let r = rank(want, n).min(n - MIN_BEYOND);
    Tail {
        q: r as f64 / n as f64,
        value: s[r - 1],
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(rank(0.5, 100), 50);
        assert_eq!(rank(0.99, 100), 99);
        assert_eq!(rank(0.99, 1000), 990);
        assert_eq!(rank(1.0, 100), 100);
        assert_eq!(rank(0.0, 100), 1);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        let beyond = ramp(1000).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn p99_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would leave 2 above it; the rule caps at
        // rank 190 (p95), which leaves 10.
        let s = ramp(200);
        let t = tail(&s, 0.99);
        assert!((t.q - 0.95).abs() < 1e-12);
        assert_eq!(t.value, 190.0);
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        let t = tail(&ramp(9), 0.99);
        assert_eq!(t.q, 0.5);
        assert_eq!(t.value, 5.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut s = ramp(500);
        s.reverse();
        assert_eq!(tail(&s, 0.99).value, tail(&ramp(500), 0.99).value);
    }
}
