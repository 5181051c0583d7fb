//! Order statistics over timing samples.

/// A copy of `v` sorted ascending (timings are finite; NaN sorts last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quantile `q` of an ascending sample, interpolating linearly between
/// the two closest ranks. An empty sample gives NaN.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Sample size, extremes and quartiles of one timing series.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Tenth percentile.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize an unsorted sample.
    pub fn of(v: &[f64]) -> Self {
        let s = sorted(v);
        Summary {
            n: s.len(),
            min: s.first().copied().unwrap_or(f64::NAN),
            p10: quantile(&s, 0.1),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `n=.. min=.. p10=.. q1=.. med=.. q3=.. max=..`, each value times
    /// `scale`.
    pub fn describe(&self, scale: f64) -> String {
        format!(
            "n={} min={:.4} p10={:.4} q1={:.4} med={:.4} q3={:.4} max={:.4}",
            self.n,
            self.min * scale,
            self.p10 * scale,
            self.q1 * scale,
            self.median * scale,
            self.q3 * scale,
            self.max * scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }
}
