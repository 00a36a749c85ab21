//! Empirical cumulative distribution functions.
//!
//! The paper leans heavily on CDFs: Figure 7 (job features for scheduling
//! classes 1/2 with an 80 % red-line), Figure 10 (edge counts and edge
//! durations per class). This module provides an exact ECDF with value and
//! percentile queries in `O(log n)`.

/// An empirical CDF built from a sample.
///
/// ```
/// use summit_analysis::cdf::Ecdf;
/// let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(e.eval(2.0), 0.5);
/// assert_eq!(e.percentile(0.8), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// Sorted finite sample values.
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF, dropping NaNs. Returns `None` if no finite values.
    pub fn new(data: &[f64]) -> Option<Self> {
        let _obs = summit_obs::span("summit_analysis_cdf_build");
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.total_cmp(b));
        Some(Self { sorted })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false — construction requires at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)` — fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest sample value `v` such that `F(v) >= p`.
    ///
    /// This is the query behind the paper's "80 % of Class 2 jobs take
    /// almost up to 3 hours" style statements.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile p must be in [0,1], got {p}"
        );
        if p == 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample value (NaN for an impossible empty sample — the
    /// constructor rejects empty input).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Evaluates the CDF on a uniform grid of `points` x-values spanning
    /// the sample range; returns `(xs, fs)`. Useful for rendering the
    /// figure curves.
    pub fn curve(&self, points: usize) -> (Vec<f64>, Vec<f64>) {
        assert!(points >= 2, "need at least two curve points");
        let lo = self.min();
        let hi = self.max();
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let xs: Vec<f64> = (0..points)
            .map(|i| lo + span * i as f64 / (points - 1) as f64)
            .collect();
        let fs = xs.iter().map(|&x| self.eval(x)).collect();
        (xs, fs)
    }

    /// Detects a "non-differentiable point at the maximum cumulative
    /// density" — a mass concentration at the sample maximum, the paper's
    /// signature of the Class-5 120-minute wall-limit (Section 4.2).
    /// Returns the fraction of samples within `tol` of the maximum.
    pub fn terminal_mass(&self, tol: f64) -> f64 {
        let hi = self.max();
        let count = self.sorted.iter().filter(|&&v| v >= hi - tol).count();
        count as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn ecdf_step_values() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_drops_nan() {
        let e = Ecdf::new(&[f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn ecdf_none_for_empty() {
        assert!(Ecdf::new(&[]).is_none());
        assert!(Ecdf::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn percentile_inverse_of_eval() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let e = Ecdf::new(&data).unwrap();
        assert_eq!(e.percentile(0.8), 80.0);
        assert_eq!(e.percentile(1.0), 100.0);
        assert_eq!(e.percentile(0.01), 1.0);
        assert_eq!(e.percentile(0.0), 1.0);
    }

    #[test]
    fn percentile_roundtrip_property() {
        let data: Vec<f64> = (0..57).map(|i| (i as f64 * 1.618).fract() * 10.0).collect();
        let e = Ecdf::new(&data).unwrap();
        for i in 1..=20 {
            let p = i as f64 / 20.0;
            let v = e.percentile(p);
            assert!(
                e.eval(v) >= p - 1e-12,
                "F(percentile(p)) >= p violated at p={p}"
            );
        }
    }

    #[test]
    fn curve_is_monotone() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64).collect();
        let e = Ecdf::new(&data).unwrap();
        let (_, fs) = e.curve(64);
        for w in fs.windows(2) {
            assert!(w[1] >= w[0], "CDF curve must be non-decreasing");
        }
        assert_eq!(*fs.last().unwrap(), 1.0);
    }

    #[test]
    fn terminal_mass_detects_wall_limit() {
        // Simulate class-5 walltimes clipped at 120 min: heavy mass at max.
        let mut data: Vec<f64> = (0..80).map(|i| (i % 100) as f64).collect();
        data.extend(std::iter::repeat_n(120.0, 20));
        let e = Ecdf::new(&data).unwrap();
        assert!((e.terminal_mass(1e-9) - 0.2).abs() < 1e-12);
    }
}
