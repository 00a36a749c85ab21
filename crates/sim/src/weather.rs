//! East-Tennessee weather model (wet-bulb temperature).
//!
//! The facility's cooling mode depends on outside conditions: evaporative
//! towers suffice "when the weather conditions are advantageous (i.e.,
//! wet-bulb temperature is below the necessary supply temperature)", and
//! chilled water trims the rest, "especially true during the hot and
//! humid Tennessee summer months", for "only about 20% of the year"
//! (Section 2). This model produces a deterministic seasonal + diurnal +
//! weather-front wet-bulb signal with those properties.

use crate::rng::stable_jitter;

/// Seconds per day.
pub const DAY_S: f64 = 86_400.0;
/// Days per simulated year (2020 was a leap year).
pub const YEAR_DAYS: f64 = 366.0;

/// Wet-bulb temperature model for the Oak Ridge area.
#[derive(Debug, Clone, Copy)]
pub struct Weather {
    /// Annual mean wet-bulb (°C).
    pub annual_mean_c: f64,
    /// Seasonal half-amplitude (°C).
    pub seasonal_amp_c: f64,
    /// Diurnal half-amplitude (°C).
    pub diurnal_amp_c: f64,
    /// Weather-front (multi-day) half-amplitude (°C).
    pub front_amp_c: f64,
    seed: u64,
}

impl Default for Weather {
    fn default() -> Self {
        Self::oak_ridge(2020)
    }
}

impl Weather {
    /// Climatology of Oak Ridge, TN: wet-bulb ranges from around -2 °C in
    /// January nights to ~23 °C on humid July afternoons.
    pub fn oak_ridge(seed: u64) -> Self {
        Self {
            annual_mean_c: 10.0,
            seasonal_amp_c: 10.5,
            diurnal_amp_c: 2.5,
            front_amp_c: 3.0,
            seed,
        }
    }

    /// Wet-bulb temperature (°C) at `t` seconds since Jan 1 00:00.
    pub fn wet_bulb_c(&self, t: f64) -> f64 {
        let day = t / DAY_S;
        // Seasonal: minimum mid-January (day ~15), maximum mid-July.
        let season =
            -(2.0 * std::f64::consts::PI * (day - 15.0) / YEAR_DAYS).cos() * self.seasonal_amp_c;
        // Diurnal: minimum ~05:00, maximum ~15:00.
        let hour = (t % DAY_S) / 3600.0;
        let diurnal =
            -(2.0 * std::f64::consts::PI * (hour - 3.0) / 24.0).cos() * self.diurnal_amp_c;
        // Weather fronts: piecewise-smooth multi-day wobble from hashed
        // control points every 3 days, linearly interpolated.
        let front_period_days = 3.0;
        let knot = (day / front_period_days).floor();
        let frac = (day / front_period_days) - knot;
        let a = stable_jitter(self.seed, knot as u64);
        let b = stable_jitter(self.seed, knot as u64 + 1);
        let front = self.front_amp_c * (a * (1.0 - frac) + b * frac);
        self.annual_mean_c + season + diurnal + front
    }

    /// True if `t` falls in the meteorological summer (Jun-Aug).
    pub fn is_summer(t: f64) -> bool {
        let day = (t / DAY_S) % YEAR_DAYS;
        // Jun 1 = day 152 (leap year), Sep 1 = day 244.
        (152.0..244.0).contains(&day)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn seasonal_shape() {
        let w = Weather::default();
        // Mid-January noon vs mid-July noon.
        let jan = w.wet_bulb_c(15.0 * DAY_S + 12.0 * 3600.0);
        let jul = w.wet_bulb_c(197.0 * DAY_S + 12.0 * 3600.0);
        assert!(
            jul > jan + 15.0,
            "summer {jul} must be much warmer than winter {jan}"
        );
        assert!((-8.0..12.0).contains(&jan), "January wet-bulb {jan}");
        assert!((15.0..28.0).contains(&jul), "July wet-bulb {jul}");
    }

    #[test]
    fn diurnal_shape() {
        let w = Weather::default();
        let day = 200.0 * DAY_S;
        let night = w.wet_bulb_c(day + 3.0 * 3600.0);
        let afternoon = w.wet_bulb_c(day + 15.0 * 3600.0);
        assert!(afternoon > night + 3.0);
    }

    #[test]
    fn deterministic() {
        let w = Weather::oak_ridge(7);
        assert_eq!(w.wet_bulb_c(1234.5), w.wet_bulb_c(1234.5));
        let w2 = Weather::oak_ridge(8);
        assert_ne!(w.wet_bulb_c(1e6), w2.wet_bulb_c(1e6));
    }

    #[test]
    fn continuous_across_front_knots() {
        let w = Weather::default();
        // At the 3-day knot boundary, interpolation keeps the jump small.
        let eps = 1.0;
        let t = 3.0 * DAY_S;
        let before = w.wet_bulb_c(t - eps);
        let after = w.wet_bulb_c(t + eps);
        assert!(
            (before - after).abs() < 0.1,
            "front wobble must be continuous"
        );
    }

    #[test]
    fn summer_predicate() {
        assert!(!Weather::is_summer(10.0 * DAY_S));
        assert!(Weather::is_summer(180.0 * DAY_S));
        assert!(!Weather::is_summer(300.0 * DAY_S));
    }

    #[test]
    fn chilled_water_needed_about_20_percent_of_year() {
        // Count hours where wet-bulb + tower approach exceeds what the MTW
        // supply target allows — the condition that forces chillers.
        let w = Weather::default();
        let approach = 4.0; // tower approach (K)
        let target = crate::spec::MTW_SUPPLY_NOMINAL_C;
        let mut need = 0usize;
        let mut total = 0usize;
        let mut t = 0.0;
        while t < YEAR_DAYS * DAY_S {
            if w.wet_bulb_c(t) + approach > target {
                need += 1;
            }
            total += 1;
            t += 3600.0;
        }
        let frac = need as f64 / total as f64;
        assert!(
            (0.12..0.32).contains(&frac),
            "chiller fraction {frac} should be near the paper's ~20 %"
        );
    }
}
