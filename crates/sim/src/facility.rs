//! Central energy plant (CEP) model: MTW loop, cooling towers, trim
//! chillers, and PUE accounting (paper Figure 1-(d), Sections 2, 4.1, 5).
//!
//! Calibrated against the paper's operational anchors:
//! - average PUE 1.11, summer average 1.22, ~1.3 during the February
//!   cooling-tower maintenance (100 % chilled water);
//! - chilled water needed only ~20 % of the year;
//! - MTW supply 64-71 °F (nominal 70 °F), return 80-100 °F;
//! - cooling response lags the load by "roughly one minute", and
//!   "attenuation ... is much slower during decreases than increases".

use summit_telemetry::records::CepRecord;

use crate::spec::{MTW_SUPPLY_NOMINAL_C, WATTS_PER_TON};

/// Facility configuration.
#[derive(Debug, Clone, Copy)]
pub struct FacilityConfig {
    /// MTW design mass flow (kg/s).
    pub mtw_flow_kg_s: f64,
    /// Cooling-tower approach temperature (K): tower outlet can reach
    /// wet-bulb + approach.
    pub tower_approach_k: f64,
    /// Chiller coefficient of performance.
    pub chiller_cop: f64,
    /// Pump power as a fraction of heat load.
    pub pump_fraction: f64,
    /// Base pump/controls power (W).
    pub pump_base_w: f64,
    /// Tower fan power as a fraction of tower-removed heat.
    pub tower_fan_fraction: f64,
    /// Electrical distribution losses as a fraction of IT power.
    pub distribution_loss_fraction: f64,
    /// Time constant of the MTW return-temperature response (s).
    pub return_tau_s: f64,
    /// Staging time constant when cooling must increase (s).
    pub stage_up_tau_s: f64,
    /// Staging time constant when cooling decreases (s) — slower, per the
    /// paper's falling-edge observation.
    pub stage_down_tau_s: f64,
    /// Minimum chiller loading once engaged: a staged chiller cannot trim
    /// at arbitrarily small part-load, so any engagement carries at least
    /// this share of the duty.
    pub chiller_min_share: f64,
    /// Optional maintenance window [start, end) in seconds during which
    /// the towers are offline and chillers carry 100 % of the load (the
    /// paper's early-February event).
    pub maintenance: Option<(f64, f64)>,
}

impl Default for FacilityConfig {
    fn default() -> Self {
        Self {
            mtw_flow_kg_s: 250.0,
            tower_approach_k: 3.5,
            chiller_cop: 4.5,
            pump_fraction: 0.015,
            pump_base_w: 120e3,
            tower_fan_fraction: 0.025,
            distribution_loss_fraction: 0.025,
            return_tau_s: 60.0,
            stage_up_tau_s: 60.0,
            stage_down_tau_s: 200.0,
            chiller_min_share: 0.45,
            maintenance: None,
        }
    }
}

/// Specific heat of water (J/(kg K)).
const WATER_CP: f64 = 4186.0;

/// The stateful facility model.
///
/// ```
/// use summit_sim::facility::{Facility, FacilityConfig};
/// let mut plant = Facility::new(FacilityConfig::default(), 6.0e6);
/// // Winter day: towers only, PUE near the paper's 1.11 annual mean.
/// let mut rec = plant.step(0.0, 6.0e6, 5.0, 10.0);
/// for i in 1..400 { rec = plant.step(i as f64 * 10.0, 6.0e6, 5.0, 10.0); }
/// assert!(rec.chiller_tons < 10.0);
/// assert!(rec.pue() > 1.0 && rec.pue() < 1.15);
/// ```
#[derive(Debug, Clone)]
pub struct Facility {
    config: FacilityConfig,
    /// Current (lagged) MTW return temperature (°C).
    return_c: f64,
    /// Current (lagged) total cooling delivered (W of heat removal).
    cooling_w: f64,
    /// Current chiller share of the cooling duty [0, 1].
    chiller_share: f64,
}

impl Facility {
    /// Creates the facility at thermal equilibrium with a given idle load.
    pub fn new(config: FacilityConfig, initial_it_w: f64) -> Self {
        let return_c = MTW_SUPPLY_NOMINAL_C + initial_it_w / (config.mtw_flow_kg_s * WATER_CP);
        Self {
            config,
            return_c,
            cooling_w: initial_it_w,
            chiller_share: 0.0,
        }
    }

    /// Whether `t` falls in a configured maintenance window.
    pub fn in_maintenance(&self, t: f64) -> bool {
        self.config
            .maintenance
            .map(|(a, b)| t >= a && t < b)
            .unwrap_or(false)
    }

    /// Advances the plant by `dt` seconds under `it_power_w` of IT load
    /// and the given wet-bulb temperature, returning the CEP record.
    pub fn step(&mut self, t: f64, it_power_w: f64, wet_bulb_c: f64, dt: f64) -> CepRecord {
        assert!(dt > 0.0, "dt must be positive");
        assert!(it_power_w >= 0.0, "IT power cannot be negative");
        let cfg = self.config;
        let heat_w = it_power_w; // all IT power leaves as heat

        // MTW return temperature: first-order approach to the steady
        // state set by the heat load ("roughly one minute delay").
        let return_target = MTW_SUPPLY_NOMINAL_C + heat_w / (cfg.mtw_flow_kg_s * WATER_CP);
        let a_ret = 1.0 - (-dt / cfg.return_tau_s).exp();
        self.return_c += a_ret * (return_target - self.return_c);

        // Chiller duty share: towers cool to wet-bulb + approach; the
        // shortfall to the supply target is trimmed by chillers.
        let tower_outlet_c = wet_bulb_c + cfg.tower_approach_k;
        let span = (self.return_c - MTW_SUPPLY_NOMINAL_C).max(0.5);
        let raw_share = ((tower_outlet_c - MTW_SUPPLY_NOMINAL_C) / span).clamp(0.0, 1.0);
        // Discrete staging: once a chiller engages it carries at least its
        // minimum part-load.
        let mut share_target = if raw_share > 0.03 {
            raw_share.max(cfg.chiller_min_share)
        } else {
            0.0
        };
        if self.in_maintenance(t) {
            share_target = 1.0;
        }
        // Staging lag (asymmetric).
        let tau_share = if share_target > self.chiller_share {
            cfg.stage_up_tau_s
        } else {
            cfg.stage_down_tau_s
        };
        let a_share = 1.0 - (-dt / tau_share).exp();
        self.chiller_share += a_share * (share_target - self.chiller_share);

        // Total cooling duty follows the (lagged) return temperature.
        let cooling_target = (self.return_c - MTW_SUPPLY_NOMINAL_C) * cfg.mtw_flow_kg_s * WATER_CP;
        let tau_cool = if cooling_target > self.cooling_w {
            cfg.stage_up_tau_s
        } else {
            cfg.stage_down_tau_s
        };
        let a_cool = 1.0 - (-dt / tau_cool).exp();
        self.cooling_w += a_cool * (cooling_target - self.cooling_w);

        let chiller_heat_w = self.cooling_w * self.chiller_share;
        let tower_heat_w = self.cooling_w - chiller_heat_w;

        // Electrical overheads.
        let pump_w = cfg.pump_base_w + cfg.pump_fraction * self.cooling_w;
        let fan_w = cfg.tower_fan_fraction * tower_heat_w;
        let chiller_w = chiller_heat_w / cfg.chiller_cop;
        let losses_w = cfg.distribution_loss_fraction * it_power_w;
        let facility_power_w = it_power_w + pump_w + fan_w + chiller_w + losses_w;

        // Supply temperature: nominal, drifting up slightly when cooling
        // lags the heat load (bounded by the paper's 64-71 °F band).
        let deficit = (heat_w - self.cooling_w).max(0.0);
        let supply_c = (MTW_SUPPLY_NOMINAL_C + deficit / (cfg.mtw_flow_kg_s * WATER_CP)).clamp(
            crate::spec::MTW_SUPPLY_MIN_C,
            crate::spec::MTW_SUPPLY_MAX_C + 1.0,
        );

        CepRecord {
            time: t,
            mtw_supply_c: supply_c,
            mtw_return_c: self.return_c,
            tower_tons: tower_heat_w / WATTS_PER_TON,
            chiller_tons: chiller_heat_w / WATTS_PER_TON,
            wet_bulb_c,
            facility_power_w,
            it_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn settle(fac: &mut Facility, t0: f64, it_w: f64, wb: f64, steps: usize) -> CepRecord {
        let mut last = fac.step(t0, it_w, wb, 10.0);
        for i in 1..steps {
            last = fac.step(t0 + 10.0 * i as f64, it_w, wb, 10.0);
        }
        last
    }

    #[test]
    fn winter_pue_near_paper_average() {
        let mut fac = Facility::new(FacilityConfig::default(), 6e6);
        // Cold wet-bulb: towers only.
        let rec = settle(&mut fac, 0.0, 6e6, 5.0, 500);
        assert!(rec.chiller_tons < 10.0, "no chillers in winter");
        assert!(
            (1.05..1.13).contains(&rec.pue()),
            "winter PUE {} should sit below the 1.11 annual mean",
            rec.pue()
        );
    }

    #[test]
    fn summer_pue_matches_paper() {
        let mut fac = Facility::new(FacilityConfig::default(), 6e6);
        // Humid summer afternoon: wet-bulb above supply target.
        let rec = settle(&mut fac, 0.0, 6e6, 22.0, 500);
        assert!(rec.chiller_tons > 100.0, "chillers must engage in summer");
        assert!(
            (1.15..1.30).contains(&rec.pue()),
            "summer PUE {} should be near the paper's 1.22",
            rec.pue()
        );
    }

    #[test]
    fn maintenance_forces_full_chiller_duty() {
        let cfg = FacilityConfig {
            maintenance: Some((0.0, 1e6)),
            ..Default::default()
        };
        let mut fac = Facility::new(cfg, 6e6);
        let rec = settle(&mut fac, 0.0, 6e6, 2.0, 500);
        assert!(rec.tower_tons < 10.0, "towers offline during maintenance");
        assert!(
            (1.25..1.35).contains(&rec.pue()),
            "maintenance PUE {} should approach the paper's 1.3",
            rec.pue()
        );
    }

    #[test]
    fn return_temp_in_paper_band_at_load() {
        let mut fac = Facility::new(FacilityConfig::default(), 5e6);
        let rec = settle(&mut fac, 0.0, 10e6, 10.0, 1000);
        assert!(
            (crate::spec::MTW_RETURN_MIN_C..=crate::spec::MTW_RETURN_MAX_C)
                .contains(&rec.mtw_return_c),
            "return temp {} outside the 80-100 F band",
            rec.mtw_return_c
        );
        assert!(rec.mtw_supply_c >= crate::spec::MTW_SUPPLY_MIN_C);
    }

    #[test]
    fn cooling_response_lags_by_about_a_minute() {
        let mut fac = Facility::new(FacilityConfig::default(), 4e6);
        settle(&mut fac, 0.0, 4e6, 10.0, 500);
        let before = fac.step(5000.0, 4e6, 10.0, 10.0);
        // Step the load up 4 MW; tonnage must NOT jump immediately.
        let just_after = fac.step(5010.0, 8e6, 10.0, 10.0);
        let total_before = before.tower_tons + before.chiller_tons;
        let total_after = just_after.tower_tons + just_after.chiller_tons;
        let needed = 8e6 / WATTS_PER_TON;
        assert!(
            total_after < total_before + 0.5 * (needed - total_before),
            "cooling must lag the load step"
        );
        // After ~5 minutes it should have mostly caught up.
        let caught_up = settle(&mut fac, 5020.0, 8e6, 10.0, 30);
        let total_late = caught_up.tower_tons + caught_up.chiller_tons;
        assert!(
            total_late > 0.9 * needed,
            "cooling catches up: {total_late} vs {needed}"
        );
    }

    #[test]
    fn destaging_is_slower_than_staging() {
        let mut fac_up = Facility::new(FacilityConfig::default(), 4e6);
        settle(&mut fac_up, 0.0, 4e6, 10.0, 500);
        let mut fac_down = fac_up.clone();

        // Rising edge: 4 -> 8 MW, measure progress after 60 s.
        let mut up_rec = None;
        for i in 0..6 {
            up_rec = Some(fac_up.step(6000.0 + i as f64 * 10.0, 8e6, 10.0, 10.0));
        }
        let up_tons = up_rec.unwrap().tower_tons + up_rec.unwrap().chiller_tons;
        let up_progress = (up_tons - 4e6 / WATTS_PER_TON) / (4e6 / WATTS_PER_TON);

        // Falling edge would need to settle at 8 MW first.
        settle(&mut fac_down, 7000.0, 8e6, 10.0, 500);
        let mut down_rec = None;
        for i in 0..6 {
            down_rec = Some(fac_down.step(20_000.0 + i as f64 * 10.0, 4e6, 10.0, 10.0));
        }
        let down_tons = down_rec.unwrap().tower_tons + down_rec.unwrap().chiller_tons;
        let down_progress = (8e6 / WATTS_PER_TON - down_tons) / (4e6 / WATTS_PER_TON);

        assert!(
            up_progress > down_progress + 0.1,
            "staging up ({up_progress:.2}) must outpace destaging ({down_progress:.2})"
        );
    }

    #[test]
    fn pue_inversely_tracks_load() {
        // Paper Fig 11: PUE is "noticeably symmetric and inversely
        // proportional" to power — higher load => better PUE.
        let mut fac_lo = Facility::new(FacilityConfig::default(), 3e6);
        let mut fac_hi = Facility::new(FacilityConfig::default(), 10e6);
        let lo = settle(&mut fac_lo, 0.0, 3e6, 10.0, 500);
        let hi = settle(&mut fac_hi, 0.0, 10e6, 10.0, 500);
        assert!(
            hi.pue() < lo.pue(),
            "PUE at 10 MW ({}) must beat PUE at 3 MW ({})",
            hi.pue(),
            lo.pue()
        );
    }

    #[test]
    #[should_panic(expected = "IT power cannot be negative")]
    fn rejects_negative_power() {
        let mut fac = Facility::new(FacilityConfig::default(), 1e6);
        fac.step(0.0, -1.0, 10.0, 1.0);
    }
}
