//! Order statistics over per-round samples. Quantiles use the same
//! "exclusive" interpolation as Python's `statistics.quantiles`, so the
//! spreads printed here can be re-derived with the driver's own tool.

/// Sorted copy of `xs` (NaNs are not produced by any caller).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile (0 < p < 1) of `xs`; 0 for an empty slice.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = (p * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        0.0
    } else {
        (quantile(xs, 0.75) - quantile(xs, 0.25)) / m.abs()
    }
}

/// Median, quartiles and the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        // In tenths of a percent, so "ten samples beyond" is exact.
        let tail = [999usize, 990, 950, 900, 750, 500]
            .into_iter()
            .find(|tenths| xs.len() * (1000 - tenths) >= 10_000)
            .map(|tenths| (tenths as f64 / 10.0, quantile(xs, tenths as f64 / 1000.0)));
        Self {
            n: xs.len(),
            median: median(xs),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
            tail,
        }
    }

    /// `n=… q1=… q3=… pNN=…` for the human-readable table.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((pct, v)) => format!("p{pct}={v:.6}"),
            None => "p-=n<20".to_string(),
        };
        format!("n={} q1={:.6} q3={:.6} {tail}", self.n, self.q1, self.q3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        assert!((relative_iqr(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(Summary::of(&few).tail.is_none());
        let some: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&some).tail.map(|t| t.0), Some(90.0));
    }
}
