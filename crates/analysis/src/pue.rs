//! Power usage effectiveness (PUE) and energy integration.
//!
//! PUE = total facility power / IT equipment power; a value close to 1.0
//! indicates an efficient data center (paper footnote 2). Summit's 2020
//! average was 1.11, rising to 1.22 in summer and briefly 1.3 during the
//! February cooling-tower maintenance (Section 4.1).

use crate::series::Series;

/// Computes instantaneous PUE from facility and IT power (both in watts).
/// Returns NaN for non-positive IT power (idle meter dropout) and clamps
/// nothing — overly small facility readings (< IT) are reported as-is so
/// data errors stay visible.
pub fn pue(facility_w: f64, it_w: f64) -> f64 {
    if !facility_w.is_finite() || !it_w.is_finite() || it_w <= 0.0 {
        return f64::NAN;
    }
    facility_w / it_w
}

/// Element-wise PUE series from aligned facility-power and IT-power series.
///
/// # Panics
/// If the series are misaligned.
pub fn pue_series(facility: &Series, it: &Series) -> Series {
    assert_eq!(facility.dt(), it.dt(), "dt mismatch");
    assert_eq!(facility.len(), it.len(), "length mismatch");
    let values = facility
        .values()
        .iter()
        .zip(it.values())
        .map(|(&f, &i)| pue(f, i))
        .collect();
    Series::new(facility.t0(), facility.dt(), values)
}

/// Integrates a power series (watts) into total energy (joules) using the
/// rectangle rule (each sample holds for `dt`). NaN samples contribute
/// nothing; the covered (non-NaN) duration is also returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyIntegral {
    /// Total energy in joules.
    pub energy_j: f64,
    /// Seconds of valid (finite) samples integrated.
    pub covered_s: f64,
    /// Seconds of missing (NaN) samples skipped.
    pub missing_s: f64,
}

impl EnergyIntegral {
    /// Mean power over the covered duration (W); NaN if nothing covered.
    pub fn mean_power_w(&self) -> f64 {
        if self.covered_s <= 0.0 {
            f64::NAN
        } else {
            self.energy_j / self.covered_s
        }
    }
}

/// Integrates a power series into energy.
pub fn integrate_energy(power: &Series) -> EnergyIntegral {
    let dt = power.dt();
    let mut energy = 0.0;
    let mut covered = 0.0;
    let mut missing = 0.0;
    for &p in power.values() {
        if p.is_finite() {
            energy += p * dt;
            covered += dt;
        } else {
            missing += dt;
        }
    }
    EnergyIntegral {
        energy_j: energy,
        covered_s: covered,
        missing_s: missing,
    }
}

/// Time-weighted average PUE over a window: integral of facility power
/// divided by integral of IT power (the correct way to average a ratio).
pub fn average_pue(facility: &Series, it: &Series) -> f64 {
    let ef = integrate_energy(facility);
    let ei = integrate_energy(it);
    if ei.energy_j <= 0.0 {
        return f64::NAN;
    }
    ef.energy_j / ei.energy_j
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn pue_point_values() {
        assert!((pue(11.1e6, 10.0e6) - 1.11).abs() < 1e-12);
        assert!(pue(1.0, 0.0).is_nan());
        assert!(pue(f64::NAN, 1.0).is_nan());
    }

    #[test]
    fn pue_series_elementwise() {
        let fac = Series::new(0.0, 1.0, vec![12.0, 11.0, f64::NAN]);
        let it = Series::new(0.0, 1.0, vec![10.0, 10.0, 10.0]);
        let p = pue_series(&fac, &it);
        assert!((p.values()[0] - 1.2).abs() < 1e-12);
        assert!((p.values()[1] - 1.1).abs() < 1e-12);
        assert!(p.values()[2].is_nan());
    }

    #[test]
    fn energy_integration() {
        // 1 MW for 1 hour at 10 s sampling = 1 MWh.
        let n = 360;
        let s = Series::new(0.0, 10.0, vec![1e6; n]);
        let e = integrate_energy(&s);
        assert!((e.energy_j - 3.6e9).abs() < 1.0);
        assert_eq!(e.covered_s, 3600.0);
        assert_eq!(e.missing_s, 0.0);
        assert!((e.mean_power_w() - 1e6).abs() < 1e-6);
    }

    #[test]
    fn energy_integration_skips_nan() {
        let s = Series::new(0.0, 1.0, vec![100.0, f64::NAN, 100.0]);
        let e = integrate_energy(&s);
        assert_eq!(e.energy_j, 200.0);
        assert_eq!(e.covered_s, 2.0);
        assert_eq!(e.missing_s, 1.0);
    }

    #[test]
    fn energy_additivity() {
        let s = Series::new(0.0, 1.0, (0..100).map(|i| i as f64).collect());
        let whole = integrate_energy(&s).energy_j;
        let a = integrate_energy(&s.window(0.0, 50.0)).energy_j;
        let b = integrate_energy(&s.window(50.0, 100.0)).energy_j;
        assert!((whole - (a + b)).abs() < 1e-9);
    }

    #[test]
    fn average_pue_is_energy_weighted() {
        // Hour 1: IT 10 MW, facility 11 MW. Hour 2: IT 2 MW, facility 3 MW.
        // Energy-weighted PUE = 14/12 ≈ 1.1667, not (1.1 + 1.5)/2 = 1.3.
        let fac = Series::new(0.0, 3600.0, vec![11e6, 3e6]);
        let it = Series::new(0.0, 3600.0, vec![10e6, 2e6]);
        let avg = average_pue(&fac, &it);
        assert!((avg - 14.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn average_pue_degenerate() {
        let z = Series::new(0.0, 1.0, vec![0.0]);
        assert!(average_pue(&z, &z).is_nan());
    }
}
