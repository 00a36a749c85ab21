//! Pearson correlation with significance testing and Bonferroni correction.
//!
//! Figure 13 of the paper counts each GPU failure type per node (a
//! 4,626-dimensional vector per type), computes the Pearson correlation for
//! every pair of types, and reports coefficients "significant at 0.05 after
//! applying the Bonferroni correction to account for the number of pairs".
//! This module implements that exact procedure for arbitrary count matrices.

use crate::special::student_t_two_sided_p;
use rayon::prelude::*;

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns NaN when either side has zero variance or fewer than 2 points.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal lengths");
    let n = x.len();
    if n < 2 {
        return f64::NAN;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Two-sided p-value for a Pearson r under the null of zero correlation,
/// via the `t = r*sqrt((n-2)/(1-r^2))` transform.
pub fn pearson_p_value(r: f64, n: usize) -> f64 {
    if n < 3 || r.is_nan() {
        return f64::NAN;
    }
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let t = r * (df / (1.0 - r * r)).sqrt();
    student_t_two_sided_p(t, df)
}

/// One entry of a pairwise correlation analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCorrelation {
    /// First variable index.
    pub i: usize,
    /// Second variable index.
    pub j: usize,
    /// Pearson correlation coefficient.
    pub r: f64,
    /// Two-sided p-value under the zero-correlation null.
    pub p_value: f64,
    /// True if `p_value <= alpha / n_pairs` (Bonferroni-corrected).
    pub significant: bool,
}

/// The full pairwise correlation matrix of a set of variables, with
/// Bonferroni-corrected significance at level `alpha`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    /// Number of variables.
    pub vars: usize,
    /// Number of observations per variable.
    pub observations: usize,
    /// All `vars*(vars-1)/2` upper-triangle pairs.
    pub pairs: Vec<PairCorrelation>,
    /// The Bonferroni-corrected threshold actually applied.
    pub corrected_alpha: f64,
}

impl CorrelationMatrix {
    /// Computes all pairwise Pearson correlations between the rows of
    /// `variables` (each row is one variable observed over the same
    /// `observations` columns), flagging significance at `alpha` after
    /// Bonferroni correction. Pairs are computed in parallel.
    pub fn compute(variables: &[Vec<f64>], alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let _obs = summit_obs::span("summit_analysis_correlation");
        let vars = variables.len();
        let observations = variables.first().map_or(0, |v| v.len());
        for v in variables {
            assert_eq!(v.len(), observations, "all variables need equal length");
        }
        let n_pairs = vars * vars.saturating_sub(1) / 2;
        let corrected_alpha = if n_pairs > 0 {
            alpha / n_pairs as f64
        } else {
            alpha
        };

        let index_pairs: Vec<(usize, usize)> = (0..vars)
            .flat_map(|i| ((i + 1)..vars).map(move |j| (i, j)))
            .collect();

        // Typical matrices (Figure 13: 10 failure types -> 45 pairs)
        // have far fewer pairs than the pool-dispatch break-even, so
        // small inputs run inline; the chunk grid is unchanged either
        // way, keeping results bit-identical.
        let pairs: Vec<PairCorrelation> = index_pairs
            .par_iter()
            .seq_below(32)
            .map(|&(i, j)| {
                let r = pearson(&variables[i], &variables[j]);
                let p = pearson_p_value(r, observations);
                PairCorrelation {
                    i,
                    j,
                    r,
                    p_value: p,
                    significant: p.is_finite() && p <= corrected_alpha,
                }
            })
            .collect();

        Self {
            vars,
            observations,
            pairs,
            corrected_alpha,
        }
    }

    /// The correlation entry for `(i, j)` (order-insensitive).
    pub fn get(&self, i: usize, j: usize) -> Option<&PairCorrelation> {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.pairs.iter().find(|p| p.i == a && p.j == b)
    }

    /// Only the significant pairs, sorted by |r| descending.
    pub fn significant_pairs(&self) -> Vec<&PairCorrelation> {
        let mut v: Vec<&PairCorrelation> = self.pairs.iter().filter(|p| p.significant).collect();
        v.sort_by(|a, b| b.r.abs().total_cmp(&a.r.abs()));
        v
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn pearson_perfect_correlation() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_independent_is_small() {
        // Deterministic pseudo-independent sequences.
        let x: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761_usize) % 997) as f64)
            .collect();
        let y: Vec<f64> = (0..1000)
            .map(|i| ((i * 40503 + 12345) % 1009) as f64)
            .collect();
        assert!(pearson(&x, &y).abs() < 0.1);
    }

    #[test]
    fn pearson_zero_variance_is_nan() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert!(pearson(&x, &y).is_nan());
    }

    #[test]
    fn pearson_reference_value() {
        // Hand computation: sxy = 12, sxx = 10, syy = 21.2 -> r = 12/sqrt(212).
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0];
        let expect = 12.0 / 212.0_f64.sqrt();
        assert!((pearson(&x, &y) - expect).abs() < 1e-12);
    }

    #[test]
    fn p_value_closed_form_df2() {
        // For n = 4 (df = 2) the t CDF has the closed form
        // P(T<=t) = 1/2 + t / (2*sqrt(2+t^2)), so the two-sided p-value of
        // r = 0.5 is exactly 0.5.
        let p = pearson_p_value(0.5, 4);
        assert!((p - 0.5).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn p_value_strong_correlation_significant() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v + ((v * 13.0).sin())).collect();
        let r = pearson(&x, &y);
        assert!(pearson_p_value(r, 100) < 1e-10);
    }

    #[test]
    fn matrix_flags_only_real_pairs() {
        let n = 200;
        let base: Vec<f64> = (0..n).map(|i| ((i * 7919) % 103) as f64).collect();
        // v1 strongly tied to v0; v2 independent.
        let v0 = base.clone();
        let v1: Vec<f64> = base.iter().map(|x| 2.0 * x + 1.0).collect();
        let v2: Vec<f64> = (0..n).map(|i| ((i * 104729 + 31) % 97) as f64).collect();
        let m = CorrelationMatrix::compute(&[v0, v1, v2], 0.05);
        assert_eq!(m.pairs.len(), 3);
        let p01 = m.get(0, 1).unwrap();
        assert!(p01.significant && p01.r > 0.999);
        let p02 = m.get(0, 2).unwrap();
        assert!(
            !p02.significant,
            "independent pair flagged: r={} p={}",
            p02.r, p02.p_value
        );
    }

    #[test]
    fn bonferroni_threshold_applied() {
        let vars: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..30).map(|i| ((i * (k + 3) * 31) % 17) as f64).collect())
            .collect();
        let m = CorrelationMatrix::compute(&vars, 0.05);
        // 10 pairs -> corrected alpha = 0.005.
        assert!((m.corrected_alpha - 0.005).abs() < 1e-12);
        for p in &m.pairs {
            assert_eq!(p.significant, p.p_value <= m.corrected_alpha);
        }
    }

    #[test]
    fn significant_pairs_sorted() {
        let n = 100;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.0).collect();
        let c: Vec<f64> = a.iter().map(|x| x + 30.0 * ((x * 0.7).sin())).collect();
        let m = CorrelationMatrix::compute(&[a, b, c], 0.05);
        let sig = m.significant_pairs();
        for w in sig.windows(2) {
            assert!(w[0].r.abs() >= w[1].r.abs());
        }
    }

    #[test]
    fn get_is_order_insensitive() {
        let vars: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..10).map(|i| ((i + k) * 3 % 7) as f64).collect())
            .collect();
        let m = CorrelationMatrix::compute(&vars, 0.05);
        assert_eq!(
            m.get(0, 2).map(|p| (p.i, p.j)),
            m.get(2, 0).map(|p| (p.i, p.j))
        );
    }

    #[test]
    fn empty_and_single_variable() {
        let m = CorrelationMatrix::compute(&[], 0.05);
        assert!(m.pairs.is_empty());
        let m1 = CorrelationMatrix::compute(&[vec![1.0, 2.0]], 0.05);
        assert!(m1.pairs.is_empty());
    }
}
