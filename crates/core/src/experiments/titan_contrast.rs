//! Extension experiment: Summit vs Titan thermal-failure regimes.
//!
//! The paper's Section 6 summary: "Compared to the prior generation
//! system Titan, the GPUs are not the same. Different architecture and
//! cooling mechanisms introduce different outcomes. While
//! high-temperature was a reason for the major errors in the case of
//! Titan, its direct effect on GPU failures in the current system is not
//! significant." This experiment runs the same workload through both
//! thermal regimes and contrasts the Figure-15 skew statistics, showing
//! the analysis toolkit *would have detected* Titan-style overheating had
//! it been present.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{clamp_scale, Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{pct, Table};
use summit_analysis::zscore::ExtremitySummary;
use summit_sim::failures::ThermalRegime;
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Seed.
    pub seed: u64,
}

/// Skew/temperature profile of one kind under one regime.
#[derive(Debug, Clone, Copy)]
pub struct RegimeKind {
    /// Event/error kind.
    pub kind: XidErrorKind,
    /// Number of events.
    pub events: usize,
    /// Fisher-Pearson skewness.
    pub skewness: f64,
    /// Median z-score.
    pub median_z: f64,
    /// Fraction of events with z > 1.
    pub frac_hot_z: f64,
    /// Maximum observed temperature (C).
    pub max_temp_c: f64,
    /// Fraction of events at or above 60 C.
    pub frac_over_60c: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct TitanContrastResult {
    /// Profiles under the Summit liquid-cooled regime.
    pub summit: Vec<RegimeKind>,
    /// Profiles under the Titan-like air-cooled regime.
    pub titan: Vec<RegimeKind>,
}

/// The hardware kinds the contrast focuses on (Titan's thermal victims).
pub const CONTRAST_KINDS: [XidErrorKind; 3] = [
    XidErrorKind::DoubleBitError,
    XidErrorKind::FallenOffTheBus,
    XidErrorKind::PageRetirementFailure,
];

/// Profiles one regime's failure year. The artifact is generated here
/// and dropped on return, never cached: the study runs last in the
/// suite, where holding both regimes' logs would set the peak memory.
fn profile(config: &Config, regime: ThermalRegime) -> Vec<RegimeKind> {
    let scenario = FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    };
    let events = scenario.generate(regime).events;
    CONTRAST_KINDS
        .iter()
        .filter_map(|&kind| {
            let sel: Vec<_> = events.iter().filter(|e| e.kind == kind).collect();
            if sel.len() < 10 {
                return None;
            }
            let zs: Vec<f64> = sel.iter().map(|e| e.temp_zscore).collect();
            let temps: Vec<f64> = sel
                .iter()
                .map(|e| e.gpu_core_temp)
                .filter(|t| t.is_finite())
                .collect();
            let summary = ExtremitySummary::compute(&zs)?;
            Some(RegimeKind {
                kind,
                events: sel.len(),
                skewness: summary.skewness,
                median_z: summary.median_z,
                frac_hot_z: summary.frac_above_1,
                max_temp_c: temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                frac_over_60c: temps.iter().filter(|&&t| t >= 60.0).count() as f64
                    / temps.len().max(1) as f64,
            })
        })
        .collect()
}

/// Runs both regimes over the identical job population.
pub fn run(config: &Config) -> Result<TitanContrastResult, ExperimentError> {
    table4::ensure_weeks("titan_contrast", config.weeks)?;
    let _obs = summit_obs::span("summit_core_titan_contrast");
    Ok(TitanContrastResult {
        summit: profile(config, ThermalRegime::SummitLiquidCooled),
        titan: profile(config, ThermalRegime::TitanAirCooled),
    })
}

/// Registry adapter for the Summit-vs-Titan contrast study. Both
/// regimes generate their own failure year, so this study neither reads
/// nor fills the scenario cache.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "titan_contrast"
    }

    fn summary(&self) -> &'static str {
        "Extension: liquid-cooled Summit vs air-cooled Titan failure thermals"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("weeks", Json::Num((26.0 * s).max(6.0))),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, _cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("titan_contrast", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(&config)?.render())
    }
}

impl TitanContrastResult {
    /// Renders the side-by-side contrast.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Summit (liquid) vs Titan-like (air) failure thermal signatures",
            &["kind", "regime", "skew", "median z", "max temp C", ">=60C"],
        );
        for (regime, rows) in [("Summit", &self.summit), ("Titan", &self.titan)] {
            for r in rows {
                t.row(vec![
                    r.kind.name().into(),
                    regime.into(),
                    format!("{:+.2}", r.skewness),
                    format!("{:+.2}", r.median_z),
                    format!("{:.1}", r.max_temp_c),
                    pct(r.frac_over_60c),
                ]);
            }
        }
        let mut s = t.render();
        s.push_str(
            "\npaper Section 6: on Titan high temperature drove the major errors; on\n\
             Summit's direct liquid cooling its direct effect is not significant —\n\
             the same analysis separates the two regimes cleanly\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> TitanContrastResult {
        run(&Config {
            weeks: 26.0,
            seed: 23,
        })
        .unwrap()
    }

    #[test]
    fn regimes_are_distinguishable() {
        let r = result();
        assert!(!r.summit.is_empty() && !r.titan.is_empty());
        for (s, t) in r.summit.iter().zip(&r.titan) {
            assert_eq!(s.kind, t.kind);
            // Summit: cold-start (right) skew. Titan: hot (left) skew.
            assert!(
                s.skewness > 0.0,
                "{}: Summit skew {} should be right",
                s.kind.name(),
                s.skewness
            );
            assert!(
                t.skewness < 0.0,
                "{}: Titan skew {} should be left",
                t.kind.name(),
                t.skewness
            );
            // Titan's bulk sits above the in-job mean, Summit's below.
            assert!(
                t.median_z > s.median_z + 0.3,
                "{}: median z {} vs {}",
                s.kind.name(),
                t.median_z,
                s.median_z
            );
        }
    }

    #[test]
    fn titan_double_bit_runs_hot() {
        let r = result();
        let s_dbe = r
            .summit
            .iter()
            .find(|k| k.kind == XidErrorKind::DoubleBitError)
            .unwrap();
        let t_dbe = r
            .titan
            .iter()
            .find(|k| k.kind == XidErrorKind::DoubleBitError)
            .unwrap();
        assert!(s_dbe.max_temp_c <= 46.5, "Summit caps at 46.1 C");
        assert!(
            t_dbe.max_temp_c > 60.0,
            "Titan-like double-bit errors run hot, got {}",
            t_dbe.max_temp_c
        );
        assert!(t_dbe.frac_over_60c > 0.5);
        assert_eq!(s_dbe.frac_over_60c, 0.0);
    }
}
