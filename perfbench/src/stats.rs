//! Statistics over raw samples: medians and tail percentiles.
//!
//! Every timing is reported as its median plus the highest percentile
//! that still has at least [`BEYOND`] samples above it, chosen from a
//! fixed ladder so the label stays stable from run to run. The sample
//! count is always printed with it.

/// Samples a tail percentile must leave beyond it to be reported.
pub const BEYOND: usize = 10;

/// Candidate tail percentiles in tenths of a percent, highest first
/// (integers, so nearest-rank indices are exact).
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Median and tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`BEYOND`] samples beyond it; `None` below `BEYOND + 1`
    /// samples.
    pub tail: Option<(f64, f64)>,
}

impl Dist {
    /// Summarizes `samples` (order irrelevant). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let tail = LADDER
            .iter()
            .find_map(|&permille| tail_at(&s, permille).map(|v| (permille as f64 / 10.0, v)));
        Some(Dist { n, median, tail })
    }

    /// `"p99 1.23 (n=4000)"`-style rendering of the tail in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "median {} {unit}, p{p} {v} {unit} (n={}, >= {BEYOND} beyond p{p})",
                self.median, self.n
            ),
            None => format!(
                "median {} {unit} (n={}, too few samples for a tail)",
                self.median, self.n
            ),
        }
    }
}

/// The `permille`-th per-mille (nearest rank) of `sorted`, if at least
/// [`BEYOND`] samples lie beyond it.
fn tail_at(sorted: &[f64], permille: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (permille * n).div_ceil(1000).clamp(1, n.max(1));
    (n >= rank + BEYOND).then(|| sorted[rank - 1])
}

/// The `permille`-th per-mille of `samples` (990 = p99), if at least
/// [`BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], permille: usize) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    tail_at(&s, permille)
}

/// Median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).map_or(0.0, |d| d.median)
}

/// Element-wise `a[i] - b[i]`: differences paired per sample, so a
/// per-request overhead is never taken as a difference of medians.
pub fn paired_diff(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let d = Dist::of(&xs).unwrap();
        assert_eq!(d.n, 10);
        assert_eq!(d.tail, None);
    }

    #[test]
    fn tail_leaves_at_least_ten_beyond() {
        // 20 samples: p50 (rank 10) leaves exactly 10 above it; p75
        // (rank 15) would leave only 5.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).unwrap().tail, Some((50.0, 10.0)));
        // 1000 samples: p99 (rank 990) leaves 10, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).unwrap().tail, Some((99.0, 990.0)));
        // 10000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).unwrap().tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 990), Some(990.0));
        assert_eq!(percentile(&xs[..999], 990), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        let d = Dist::of(&xs).unwrap();
        assert_eq!(d.median, 50.5);
        assert_eq!(d.tail, Some((90.0, 90.0)));
    }

    #[test]
    fn paired_diff_is_per_sample() {
        // The difference of medians is 3 - 8 = -5; the median paired
        // overhead is 1.
        let rtt = [2.0, 3.0, 10.0];
        let server = [1.0, 8.0, 9.0];
        let d = paired_diff(&rtt, &server);
        assert_eq!(d, vec![1.0, -5.0, 1.0]);
        assert_eq!(median(&d), 1.0);
    }
}
