//! Order statistics for timings: nearest-rank percentiles and the tail rule
//! (report the highest percentile that still has at least ten samples
//! beyond it, together with the sample count).

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles and the tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// The tail percentile chosen by the rule and its value, when even
    /// the median has fewer than ten samples beyond it this is `None`.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples);
        Some(Summary {
            n: s.len(),
            p25: percentile(&s, 25.0)?,
            p50: percentile(&s, 50.0)?,
            p75: percentile(&s, 75.0)?,
            tail: tail(&s),
        })
    }

    /// One-line rendering: `p25/p50/p75`, the tail and the sample count.
    pub fn render(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.3}"),
            None => "tail=n/a".to_string(),
        };
        format!(
            "p25={:.3} p50={:.3} p75={:.3} {tail} n={}",
            self.p25, self.p50, self.p75, self.n
        )
    }
}

/// The highest ladder percentile of `sorted` with at least ten samples
/// beyond it, as `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n >= TAIL_BEYOND && n - rank(n, p) >= TAIL_BEYOND)
        .and_then(|&p| Some((p, percentile(sorted, p)?)))
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, exactly ten beyond; p95 has five.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90 with nine beyond, so p75 is reported.
        assert_eq!(tail(&ramp(99)), Some((75.0, 75.0)));
        // 1000 samples reach p99.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 20 samples only support the median; 19 support nothing.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn summary_reports_the_sample_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]).expect("non-empty");
        assert_eq!((s.n, s.p25, s.p50, s.p75), (4, 1.0, 2.0, 3.0));
        assert_eq!(s.tail, None);
        assert!(s.render().ends_with("tail=n/a n=4"), "{}", s.render());
        assert!(Summary::of(&[]).is_none());
    }
}
