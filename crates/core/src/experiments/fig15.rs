//! Figure 15: thermal extremity of GPU failures — z-score and absolute
//! temperature distributions per failure type.
//!
//! Paper anchors: after removing the NVLINK super-offender, no failure
//! type is left-skewed (overheating is not a significant factor, unlike
//! Titan); double-bit, off-the-bus, µC-warning and page-retirement-failure
//! distributions are right-skewed (errors favour GPUs "that did not yet
//! warm up"); the only 60 °C+ failures were 1.4 % of NVLINK and 5.2 % of
//! off-the-bus errors; the hottest double-bit error was 46.1 °C.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{pct, Table};
use summit_analysis::zscore::ExtremitySummary;
use summit_sim::failures::FailureModel;
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Seed.
    pub seed: u64,
}

/// One failure kind's thermal profile.
#[derive(Debug, Clone)]
pub struct KindThermal {
    /// Event/error kind.
    pub kind: XidErrorKind,
    /// Number of events.
    pub events: usize,
    /// Thermal-extremity z-score summary.
    pub z: ExtremitySummary,
    /// Maximum observed temperature (C).
    pub max_temp_c: f64,
    /// Fraction of events at or above 60 °C.
    pub frac_over_60c: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    /// Per-kind results.
    pub kinds: Vec<KindThermal>,
    /// Events removed as super-offender NVLINK noise.
    pub removed_super_offender: usize,
}

/// Runs the Figure 15 analysis, acquiring the failure log through
/// `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig15Result, ExperimentError> {
    table4::ensure_weeks("fig15", config.weeks)?;
    let _obs = summit_obs::span("summit_core_fig15");
    let art = cache.failures(&FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    });
    // "We removed the data for a super-offender node accounting for 97 %
    // of all the NVLink errors."
    let offender = FailureModel::paper().super_offender();
    let removed = art.events.iter().filter(|e| e.node == offender).count();
    let kept: Vec<_> = art.events.iter().filter(|e| e.node != offender).collect();

    let mut kinds = Vec::new();
    for kind in XidErrorKind::ALL {
        let sel: Vec<_> = kept.iter().filter(|e| e.kind == kind).collect();
        if sel.len() < 5 {
            continue;
        }
        let zs: Vec<f64> = sel.iter().map(|e| e.temp_zscore).collect();
        let temps: Vec<f64> = sel
            .iter()
            .map(|e| e.gpu_core_temp)
            .filter(|t| t.is_finite())
            .collect();
        let Some(z) = ExtremitySummary::compute(&zs) else {
            continue;
        };
        let max_temp = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let over60 =
            temps.iter().filter(|&&t| t >= 60.0).count() as f64 / temps.len().max(1) as f64;
        kinds.push(KindThermal {
            kind,
            events: sel.len(),
            z,
            max_temp_c: max_temp,
            frac_over_60c: over60,
        });
    }

    Ok(Fig15Result {
        kinds,
        removed_super_offender: removed,
    })
}

/// Registry adapter for the Figure 15 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig15"
    }

    fn summary(&self) -> &'static str {
        "Thermal extremity (z-scores) of GPU failures per kind"
    }

    fn default_config(&self, scale: f64) -> Json {
        Json::obj([
            ("weeks", Json::Num(table4::default_weeks(scale))),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig15", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig15Result {
    /// Thermal profile of a kind, if observed.
    pub fn kind(&self, kind: XidErrorKind) -> Option<&KindThermal> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// Renders the per-kind thermal extremity table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 15: thermal extremity of GPU failures",
            &[
                "kind",
                "events",
                "mean z",
                "skew",
                "label",
                "max temp C",
                ">=60C",
            ],
        );
        for k in &self.kinds {
            t.row(vec![
                k.kind.name().into(),
                k.events.to_string(),
                format!("{:.2}", k.z.mean_z),
                format!("{:.2}", k.z.skewness),
                k.z.skew_label().into(),
                format!("{:.1}", k.max_temp_c),
                pct(k.frac_over_60c),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nsuper-offender events removed: {}\n\
             paper: no left-skewed types; double-bit/off-bus/uC-warning/page-retirement-failure \
             right-skewed; hottest double-bit 46.1 C; 60 C+ only for NVLINK (1.4%) and \
             off-bus (5.2%)\n",
            self.removed_super_offender
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use XidErrorKind::*;

    fn result() -> Fig15Result {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 26.0,
                seed: 5,
            },
        )
        .unwrap()
    }

    #[test]
    fn no_kind_left_skewed_except_graphics_fault() {
        let r = result();
        for k in &r.kinds {
            if k.kind == GraphicsEngineFault {
                continue; // the paper's one potentially-left-skewed type
            }
            if k.events < 30 {
                continue; // skewness is meaningless on tiny samples
            }
            assert!(
                k.z.skewness > -0.25,
                "{}: left skew {} contradicts the paper",
                k.kind.name(),
                k.z.skewness
            );
        }
    }

    #[test]
    fn cold_start_kinds_right_skewed() {
        let r = result();
        for kind in [
            DoubleBitError,
            FallenOffTheBus,
            InternalMicrocontrollerWarning,
        ] {
            if let Some(k) = r.kind(kind) {
                assert!(
                    k.z.skewness > 0.2,
                    "{} should be right-skewed, got {}",
                    kind.name(),
                    k.z.skewness
                );
            }
        }
    }

    #[test]
    fn double_bit_max_temp_low() {
        let r = result();
        let dbe = r.kind(DoubleBitError).expect("double-bit events present");
        assert!(
            dbe.max_temp_c <= 46.5,
            "paper: hottest double-bit was 46.1 C, got {}",
            dbe.max_temp_c
        );
        assert_eq!(dbe.frac_over_60c, 0.0);
    }

    #[test]
    fn super_offender_removed() {
        let r = result();
        assert!(
            r.removed_super_offender > 100,
            "the NVLINK super-offender stream must be excised"
        );
    }

    #[test]
    fn page_faults_symmetric() {
        let r = result();
        let mpf = r.kind(MemoryPageFault).expect("page faults present");
        assert!(
            mpf.z.skewness.abs() < 0.3,
            "page faults stay symmetric, got {}",
            mpf.z.skewness
        );
    }
}
