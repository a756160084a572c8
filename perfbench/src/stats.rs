//! Sample summaries: a median plus the highest percentile the sample
//! supports, always quoted with the sample count.

/// Percentiles considered for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile is quoted only when at least this many samples
/// lie beyond it.
const MIN_BEYOND: usize = 10;

/// Median, supported tail and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// `(percentile, value)`: the highest percentile with at least ten
    /// samples beyond it, or `None` when fewer than twenty samples
    /// exist.
    pub tail: Option<(f64, f64)>,
    /// The 10th percentile (nearest rank; the minimum below ten
    /// samples): the fastest decile of run times.
    pub p10: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (any order). An empty slice summarizes to
    /// zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                median: 0.0,
                tail: None,
                p10: 0.0,
                n,
            };
        }
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let tail = TAIL_PERCENTILES.iter().find_map(|&p| {
            let rank = nearest_rank(p, n);
            (n - rank >= MIN_BEYOND).then(|| (p, sorted[rank - 1]))
        });
        let p10 = sorted[nearest_rank(10.0, n) - 1];
        Summary {
            median,
            tail,
            p10,
            n,
        }
    }

    /// `median (pXX value, n = N)` in `unit`, for the human report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, value)) => format!(
                "median {} {unit}, p{p} {} {unit}, n = {}",
                fmt_sig(self.median),
                fmt_sig(value),
                self.n
            ),
            None => format!(
                "median {} {unit}, n = {} (too few samples for a tail)",
                fmt_sig(self.median),
                self.n
            ),
        }
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Four significant digits, for human-readable tables only.
pub fn fmt_sig(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let digits = 4 - 1 - value.abs().log10().floor() as i32;
    format!("{value:.prec$}", prec = digits.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_supported_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.n, 100);
        // p90 leaves exactly ten samples beyond it; p95 leaves five.
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.p10, 10.0);
    }

    #[test]
    fn small_samples_have_no_tail() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.tail, None);
        assert_eq!(s.p10, 1.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
