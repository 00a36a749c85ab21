//! Figure 13: GPU failure co-occurrence — Pearson correlation between
//! per-node count vectors of every failure-type pair, Bonferroni-corrected
//! at 0.05.
//!
//! Paper anchors: expected co-occurrence between double-bit errors,
//! preemptive cleanups and page-retirement events; an extremely strong
//! correlation between internal micro-controller warnings and driver
//! error handling exceptions (soft errors as early diagnostics).

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::Table;
use summit_analysis::correlation::CorrelationMatrix;
use summit_sim::failures::node_count_matrix;
use summit_sim::spec::TOTAL_NODES;
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Significance level before Bonferroni correction.
    pub alpha: f64,
    /// Seed.
    pub seed: u64,
}

/// One significant pair.
#[derive(Debug, Clone)]
pub struct SignificantPair {
    /// First kind of the pair.
    pub a: XidErrorKind,
    /// Second kind of the pair.
    pub b: XidErrorKind,
    /// Pearson correlation coefficient.
    pub r: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Significant correlation pairs.
    pub pairs: Vec<SignificantPair>,
    /// Bonferroni-corrected significance threshold.
    pub corrected_alpha: f64,
    /// Total pairs tested.
    pub total_pairs: usize,
}

/// Runs the Figure 13 analysis, acquiring the failure log through
/// `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig13Result, ExperimentError> {
    table4::ensure_weeks("fig13", config.weeks)?;
    if !(config.alpha.is_finite() && config.alpha > 0.0 && config.alpha < 1.0) {
        return Err(ExperimentError::invalid(
            "fig13",
            format!(
                "alpha must be a significance level in (0, 1), got {}",
                config.alpha
            ),
        ));
    }
    let _obs = summit_obs::span("summit_core_fig13");
    let art = cache.failures(&FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    });
    let matrix = node_count_matrix(&art.events, TOTAL_NODES);
    let corr = CorrelationMatrix::compute(&matrix, config.alpha);
    let pairs = corr
        .significant_pairs()
        .into_iter()
        .map(|p| SignificantPair {
            a: XidErrorKind::ALL[p.i],
            b: XidErrorKind::ALL[p.j],
            r: p.r,
            p_value: p.p_value,
        })
        .collect();
    Ok(Fig13Result {
        pairs,
        corrected_alpha: corr.corrected_alpha,
        total_pairs: corr.pairs.len(),
    })
}

/// Registry adapter for the Figure 13 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn summary(&self) -> &'static str {
        "Failure co-occurrence correlations (Bonferroni-corrected)"
    }

    fn default_config(&self, scale: f64) -> Json {
        Json::obj([
            ("weeks", Json::Num(table4::default_weeks(scale))),
            ("alpha", Json::Num(0.05)),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig13", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            alpha: cfg.f64("alpha")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig13Result {
    /// Finds a specific pair's r, if significant.
    pub fn r_of(&self, a: XidErrorKind, b: XidErrorKind) -> Option<f64> {
        self.pairs
            .iter()
            .find(|p| (p.a == a && p.b == b) || (p.a == b && p.b == a))
            .map(|p| p.r)
    }

    /// Renders the significant-pair list (the non-empty matrix cells).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 13: significant failure co-occurrences (Bonferroni 0.05)",
            &["pair", "r", "p"],
        );
        for p in &self.pairs {
            t.row(vec![
                format!("{} x {}", p.a.name(), p.b.name()),
                format!("{:.2}", p.r),
                format!("{:.1e}", p.p_value),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\n{} of {} pairs significant at corrected alpha {:.1e}\n\
             paper: uC warning x driver error extremely strong; double-bit x preemptive \
             cleanup x page retirement cluster\n",
            self.pairs.len(),
            self.total_pairs,
            self.corrected_alpha
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use XidErrorKind::*;

    fn result() -> Fig13Result {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 16.0,
                alpha: 0.05,
                seed: 11,
            },
        )
        .unwrap()
    }

    #[test]
    fn uc_warning_driver_error_strongest() {
        let r = result();
        let v = r
            .r_of(InternalMicrocontrollerWarning, DriverErrorHandlingException)
            .expect("pair must be significant");
        assert!(v > 0.8, "paper: extremely strong correlation, got {v}");
    }

    #[test]
    fn memory_cluster_significant() {
        let r = result();
        assert!(
            r.r_of(DoubleBitError, PageRetirementEvent).unwrap_or(0.0) > 0.3,
            "double-bit x page-retirement must co-occur"
        );
        assert!(
            r.r_of(DoubleBitError, PreemptiveCleanup).unwrap_or(0.0) > 0.3,
            "double-bit x preemptive-cleanup must co-occur"
        );
    }

    #[test]
    fn bonferroni_applied() {
        let r = result();
        assert_eq!(r.total_pairs, 16 * 15 / 2);
        assert!((r.corrected_alpha - 0.05 / r.total_pairs as f64).abs() < 1e-12);
        for p in &r.pairs {
            assert!(p.p_value <= r.corrected_alpha);
        }
    }

    #[test]
    fn unrelated_pairs_absent() {
        let r = result();
        // Page faults spread everywhere; driver errors on one defect node.
        if let Some(v) = r.r_of(MemoryPageFault, DriverErrorHandlingException) {
            assert!(v.abs() < 0.5, "spurious correlation {v}");
        }
    }
}
