//! Z-score thermal-extremity analysis (paper Section 6.1, Figure 15).
//!
//! "To account for workload specificity of a job encountering an error, we
//! considered temperature at the offending GPU core in the context of
//! temperature distribution across all GPUs within the job at the moment
//! of failure. We used the z-score, the number of standard deviations
//! above the mean, as a metric of thermal extremity that is independent of
//! the associated workload."

/// Z-score of `x` within a population given its mean and std.
/// NaN if std is not positive or any input is non-finite.
pub fn zscore(x: f64, mean: f64, std: f64) -> f64 {
    if !x.is_finite() || !mean.is_finite() || !std.is_finite() || std <= 0.0 {
        return f64::NAN;
    }
    (x - mean) / std
}

/// A labelled extremity observation (one failure event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremity {
    /// The observed value (e.g. GPU core temperature at failure, °C).
    pub value: f64,
    /// Z-score within the in-job population at the failure moment.
    pub z: f64,
}

/// Distribution-level summary of the extremity of a set of failures —
/// what Figure 15 plots per failure type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtremitySummary {
    /// Number of finite z-scores.
    pub count: usize,
    /// Mean z-score.
    pub mean_z: f64,
    /// Median z-score.
    pub median_z: f64,
    /// Fisher-Pearson skewness of the z distribution. The paper's key
    /// finding: no failure type is left-skewed (overheating would produce
    /// left skew of temperature... i.e. right-shifted z); double-bit and
    /// off-the-bus are right-skewed in temperature terms.
    pub skewness: f64,
    /// Fraction of events with z > 1 ("hot" outliers).
    pub frac_above_1: f64,
    /// Fraction of events with z < -1 ("cold" outliers).
    pub frac_below_neg1: f64,
}

impl ExtremitySummary {
    /// Summarizes a set of z-scores (NaNs dropped). `None` if empty.
    pub fn compute(zs: &[f64]) -> Option<Self> {
        let v: Vec<f64> = zs.iter().copied().filter(|z| z.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let median = crate::stats::median(&v);
        let skew = crate::stats::skewness(&v);
        let above = v.iter().filter(|&&z| z > 1.0).count() as f64 / v.len() as f64;
        let below = v.iter().filter(|&&z| z < -1.0).count() as f64 / v.len() as f64;
        Some(Self {
            count: v.len(),
            mean_z: mean,
            median_z: median,
            skewness: skew,
            frac_above_1: above,
            frac_below_neg1: below,
        })
    }

    /// The paper's qualitative classification of a distribution.
    pub fn skew_label(&self) -> &'static str {
        if !self.skewness.is_finite() {
            "indeterminate"
        } else if self.skewness > 0.25 {
            "right-skewed"
        } else if self.skewness < -0.25 {
            "left-skewed"
        } else {
            "symmetric"
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn zscore_basic() {
        assert_eq!(zscore(12.0, 10.0, 2.0), 1.0);
        assert_eq!(zscore(6.0, 10.0, 2.0), -2.0);
        assert!(zscore(1.0, 1.0, 0.0).is_nan());
        assert!(zscore(f64::NAN, 0.0, 1.0).is_nan());
    }

    #[test]
    fn extremity_summary_symmetric() {
        let zs: Vec<f64> = (-50..=50).map(|i| i as f64 / 10.0).collect();
        let s = ExtremitySummary::compute(&zs).unwrap();
        assert!((s.mean_z).abs() < 1e-9);
        assert_eq!(s.skew_label(), "symmetric");
        assert!((s.frac_above_1 - s.frac_below_neg1).abs() < 1e-9);
    }

    #[test]
    fn extremity_summary_right_skewed() {
        // Mostly cool with a hot tail.
        let mut zs = vec![-0.5; 80];
        zs.extend((0..20).map(|i| 1.0 + i as f64 * 0.3));
        let s = ExtremitySummary::compute(&zs).unwrap();
        assert_eq!(s.skew_label(), "right-skewed");
        assert!(s.frac_above_1 > 0.1);
    }

    #[test]
    fn extremity_summary_empty() {
        assert!(ExtremitySummary::compute(&[]).is_none());
        assert!(ExtremitySummary::compute(&[f64::NAN]).is_none());
    }
}
