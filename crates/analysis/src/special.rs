//! Special mathematical functions implemented from scratch.
//!
//! The analysis toolkit needs a small set of special functions — the error
//! function for Gaussian CDFs, the log-gamma function, and the regularized
//! incomplete beta function for Student-t p-values (Pearson correlation
//! significance, Figure 13 of the paper). All are implemented here with
//! double precision and validated against reference values in the tests.

/// Error function `erf(x)`, maximum absolute error below 1.2e-7.
///
/// Uses the Abramowitz & Stegun 7.1.26 rational approximation with the
/// sign-symmetry `erf(-x) = -erf(x)`.
pub fn erf(x: f64) -> f64 {
    // Handle non-finite inputs explicitly so downstream CDFs stay sane.
    if x.is_nan() {
        return f64::NAN;
    }
    if x.is_infinite() {
        return x.signum();
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Natural log of the gamma function, Lanczos approximation (g=7, n=9).
///
/// Accurate to ~15 significant digits for positive arguments; uses the
/// reflection formula for `x < 0.5`.
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Domain error raised by the special functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecialFnError {
    /// A shape parameter that must be strictly positive was not.
    NonPositiveShape {
        /// The offending `a` parameter.
        a: f64,
        /// The offending `b` parameter.
        b: f64,
    },
    /// The evaluation point fell outside the function's domain.
    OutOfDomain {
        /// The offending argument.
        x: f64,
    },
}

impl std::fmt::Display for SpecialFnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositiveShape { a, b } => {
                write!(f, "shape parameters must be > 0 (got a={a}, b={b})")
            }
            Self::OutOfDomain { x } => write!(f, "argument x must be in [0, 1], got {x}"),
        }
    }
}

impl std::error::Error for SpecialFnError {}

/// Regularized incomplete beta function `I_x(a, b)`, with domain checks.
///
/// Computed via the continued-fraction expansion (Numerical Recipes
/// `betacf`), with the symmetry transform for fast convergence. Returns
/// [`SpecialFnError`] when `a <= 0`, `b <= 0`, or `x` is outside `[0, 1]`.
pub fn try_betai(a: f64, b: f64, x: f64) -> Result<f64, SpecialFnError> {
    if !(a > 0.0 && b > 0.0) {
        return Err(SpecialFnError::NonPositiveShape { a, b });
    }
    if !(0.0..=1.0).contains(&x) {
        return Err(SpecialFnError::OutOfDomain { x });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    Ok(if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cont_frac(a, b, x) / a
    } else {
        1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b
    })
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Infallible convenience wrapper over [`try_betai`]: domain violations
/// (`a <= 0`, `b <= 0`, or `x` outside `[0, 1]`) yield NaN instead of an
/// error, matching the NaN-propagation convention of the rest of the
/// toolkit.
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    try_betai(a, b, x).unwrap_or(f64::NAN)
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;

    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of freedom.
///
/// `P(|T| > |t|) = I_{df/(df+t^2)}(df/2, 1/2)`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    if t.is_nan() {
        return f64::NAN;
    }
    if t.is_infinite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    betai(0.5 * df, 0.5, x).clamp(0.0, 1.0)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's rational approximation, refined by one Halley step against
/// [`normal_cdf`]; overall accuracy is limited by the erf approximation
/// (~2e-6 absolute), ample for confidence-interval work.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0, 1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-accuracy CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Critical value of the Student-t distribution for a two-sided interval.
///
/// Returns `t*` such that `P(|T| <= t*) = confidence`. Used for the 95 %
/// confidence envelopes on the Figure 11/12 snapshot superpositions.
/// Solved by bisection on the two-sided p-value.
pub fn student_t_critical(df: f64, confidence: f64) -> f64 {
    assert!(df > 0.0);
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    let alpha = 1.0 - confidence;
    let (mut lo, mut hi) = (0.0_f64, 1e3_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_two_sided_p(mid, df) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {b} +/- {tol}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn erf_reference_values() {
        // The A&S 7.1.26 approximation carries ~1.5e-7 absolute error.
        close(erf(0.0), 0.0, 2e-7);
        close(erf(0.5), 0.5204998778, 2e-7);
        close(erf(1.0), 0.8427007929, 2e-7);
        close(erf(2.0), 0.9953222650, 2e-7);
        close(erf(-1.0), -0.8427007929, 2e-7);
        close(erf(3.5), 0.999999257, 2e-7);
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            close(erf(-x), -erf(x), 1e-15);
        }
    }

    #[test]
    fn erf_handles_infinities() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn normal_cdf_reference_values() {
        close(normal_cdf(0.0), 0.5, 1e-7);
        close(normal_cdf(1.0), 0.8413447461, 1e-6);
        close(normal_cdf(-1.96), 0.0249978951, 1e-6);
        close(normal_cdf(2.575), 0.9949897, 1e-5);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)! for integer n
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), (24.0_f64).ln(), 1e-10);
        close(ln_gamma(11.0), (3628800.0_f64).ln(), 1e-9);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        // Γ(3/2) = sqrt(π)/2
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-10,
        );
    }

    #[test]
    fn betai_boundary_values() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betai_symmetric_case() {
        // I_x(a, a) at x = 0.5 is exactly 0.5.
        for &a in &[0.5, 1.0, 3.0, 10.0] {
            close(betai(a, a, 0.5), 0.5, 1e-10);
        }
    }

    #[test]
    fn betai_uniform_case() {
        // I_x(1, 1) = x (Beta(1,1) is uniform).
        for &x in &[0.1, 0.25, 0.7, 0.99] {
            close(betai(1.0, 1.0, x), x, 1e-10);
        }
    }

    #[test]
    fn betai_reference_value() {
        // scipy.special.betainc(2, 3, 0.4) = 0.5248
        close(betai(2.0, 3.0, 0.4), 0.5248, 1e-10);
    }

    #[test]
    fn t_test_p_values() {
        // For df → large, t = 1.96 should give p ≈ 0.05.
        close(student_t_two_sided_p(1.96, 10_000.0), 0.05, 1e-3);
        // scipy: 2*(1-t.cdf(2.0, 10)) = 0.07338...
        close(student_t_two_sided_p(2.0, 10.0), 0.073388, 1e-5);
        // t = 0 → p = 1.
        close(student_t_two_sided_p(0.0, 5.0), 1.0, 1e-12);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for &p in &[0.001, 0.025, 0.5, 0.8, 0.975, 0.999] {
            close(normal_cdf(normal_quantile(p)), p, 1e-8);
        }
    }

    #[test]
    fn normal_quantile_reference() {
        close(normal_quantile(0.975), 1.959963985, 1e-5);
        close(normal_quantile(0.5), 0.0, 1e-6);
    }

    #[test]
    fn t_critical_large_df_approaches_normal() {
        close(student_t_critical(1e6, 0.95), 1.95996, 1e-3);
    }

    #[test]
    fn t_critical_reference() {
        // t_{0.975, 10} = 2.2281
        close(student_t_critical(10.0, 0.95), 2.2281, 1e-3);
        // t_{0.975, 3} = 3.1824
        close(student_t_critical(3.0, 0.95), 3.1824, 1e-3);
    }

    #[test]
    fn betai_rejects_out_of_range() {
        assert_eq!(
            try_betai(1.0, 1.0, 1.5),
            Err(SpecialFnError::OutOfDomain { x: 1.5 })
        );
        assert_eq!(
            try_betai(-1.0, 1.0, 0.5),
            Err(SpecialFnError::NonPositiveShape { a: -1.0, b: 1.0 })
        );
        // The infallible wrapper maps domain errors to NaN.
        assert!(betai(1.0, 1.0, 1.5).is_nan());
        assert!(betai(0.0, 1.0, 0.5).is_nan());
    }
}
