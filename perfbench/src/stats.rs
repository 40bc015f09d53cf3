//! Percentiles from raw per-op samples.
//!
//! Every latency the benchmark reports comes from the full list of
//! per-op samples, sorted, never from a bucketed histogram.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` (in `[0, 1]`) of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Summary of one latency sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it
    /// (`100 * (1 - 10 / count)`), and the sample there.
    pub top_pct: f64,
    pub top: f64,
}

impl Summary {
    /// All zeros for an empty sample set.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p99: 0.0,
                top_pct: 0.0,
                top: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let top_q = (1.0 - 10.0 / count as f64).max(0.0);
        Summary {
            count,
            mean: mean(&sorted),
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
            top_pct: 100.0 * top_q,
            top: percentile(&sorted, top_q),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"top_pct\":{},\"top\":{}}}",
            self.count, self.mean, self.p50, self.p99, self.top_pct, self.top
        )
    }
}
