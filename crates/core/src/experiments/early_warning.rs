//! Extension experiment: micro-controller warnings as early diagnostics
//! for fatal driver errors.
//!
//! The paper's Figure 13 discussion: "the analysis shows an extremely
//! strong correlation between internal micro-controller warnings and
//! driver errors handling GPU exception. The latter suggests that soft
//! errors such as micro-controller warnings can be efficient for early
//! diagnostics and ultimately prevention of fatal driver errors." This
//! experiment quantifies that claim on the synthetic XID stream:
//! alert on every µC warning and score how well the alerts anticipate
//! driver error-handling exceptions on the same node within a horizon.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{pct, Table};
use summit_telemetry::records::{XidErrorKind, XidEvent};

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Prediction horizon after a warning (s).
    pub horizon_s: f64,
    /// Seed.
    pub seed: u64,
}

/// Evaluation result.
#[derive(Debug, Clone)]
pub struct EarlyWarningResult {
    /// Micro-controller warnings observed.
    pub warnings: usize,
    /// Driver error-handling exceptions observed.
    pub driver_errors: usize,
    /// Warnings followed by a driver error on the same node within the
    /// horizon.
    pub true_positives: usize,
    /// Warnings with no driver error in the horizon.
    pub false_positives: usize,
    /// Driver errors preceded by at least one warning.
    pub anticipated_errors: usize,
    /// Precision of the warning alert.
    pub precision: f64,
    /// Recall over driver errors.
    pub recall: f64,
    /// Median lead time from warning to driver error (s).
    pub median_lead_s: f64,
}

/// Runs the early-warning evaluation, acquiring the failure log through
/// `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<EarlyWarningResult, ExperimentError> {
    table4::ensure_weeks("early_warning", config.weeks)?;
    if !(config.horizon_s.is_finite() && config.horizon_s > 0.0) {
        return Err(ExperimentError::invalid(
            "early_warning",
            format!(
                "horizon_s must be a positive horizon, got {}",
                config.horizon_s
            ),
        ));
    }
    let _obs = summit_obs::span("summit_core_early_warning");
    let art = cache.failures(&FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    });
    let warnings: Vec<&XidEvent> = art
        .events
        .iter()
        .filter(|e| e.kind == XidErrorKind::InternalMicrocontrollerWarning)
        .collect();
    let errors: Vec<&XidEvent> = art
        .events
        .iter()
        .filter(|e| e.kind == XidErrorKind::DriverErrorHandlingException)
        .collect();

    let mut true_pos = 0usize;
    let mut leads = Vec::new();
    for w in &warnings {
        let hit = errors
            .iter()
            .find(|e| e.node == w.node && e.time >= w.time && e.time <= w.time + config.horizon_s);
        if let Some(e) = hit {
            true_pos += 1;
            leads.push(e.time - w.time);
        }
    }
    let anticipated = errors
        .iter()
        .filter(|e| {
            warnings.iter().any(|w| {
                w.node == e.node && w.time <= e.time && e.time <= w.time + config.horizon_s
            })
        })
        .count();

    let precision = if warnings.is_empty() {
        f64::NAN
    } else {
        true_pos as f64 / warnings.len() as f64
    };
    let recall = if errors.is_empty() {
        f64::NAN
    } else {
        anticipated as f64 / errors.len() as f64
    };

    Ok(EarlyWarningResult {
        warnings: warnings.len(),
        driver_errors: errors.len(),
        true_positives: true_pos,
        false_positives: warnings.len() - true_pos,
        anticipated_errors: anticipated,
        precision,
        recall,
        median_lead_s: summit_analysis::stats::median(&leads),
    })
}

/// Registry adapter for the early-warning extension study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "early_warning"
    }

    fn summary(&self) -> &'static str {
        "Extension: uC warnings as early diagnostics for driver errors"
    }

    fn default_config(&self, scale: f64) -> Json {
        Json::obj([
            ("weeks", Json::Num(table4::default_weeks(scale))),
            ("horizon_s", Json::Num(3600.0)),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("early_warning", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            horizon_s: cfg.f64("horizon_s")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl EarlyWarningResult {
    /// Renders the evaluation.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Early diagnostics: uC warnings -> driver error handling exceptions",
            &["quantity", "value"],
        );
        t.row(vec!["uC warnings".into(), self.warnings.to_string()]);
        t.row(vec!["driver errors".into(), self.driver_errors.to_string()]);
        t.row(vec![
            "warnings confirmed (TP)".into(),
            self.true_positives.to_string(),
        ]);
        t.row(vec!["alert precision".into(), pct(self.precision)]);
        t.row(vec!["error recall".into(), pct(self.recall)]);
        t.row(vec![
            "median lead time".into(),
            format!("{:.0} s", self.median_lead_s),
        ]);
        let mut s = t.render();
        s.push_str(
            "\npaper: soft uC warnings \"can be efficient for early diagnostics and\n\
             ultimately prevention of fatal driver errors\"\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> EarlyWarningResult {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 26.0,
                horizon_s: 3600.0,
                seed: 21,
            },
        )
        .unwrap()
    }

    #[test]
    fn warnings_anticipate_most_driver_errors() {
        let r = result();
        assert!(r.warnings > 10);
        assert!(r.driver_errors > 3);
        assert!(
            r.recall > 0.8,
            "most driver errors follow a warning, recall {}",
            r.recall
        );
    }

    #[test]
    fn precision_reflects_escalation_rate() {
        let r = result();
        // The defect node escalates ~62 % of warnings; background
        // warnings never escalate, so precision sits below that.
        assert!(
            (0.1..0.8).contains(&r.precision),
            "precision {}",
            r.precision
        );
        assert_eq!(r.true_positives + r.false_positives, r.warnings);
    }

    #[test]
    fn lead_time_is_positive_and_short() {
        let r = result();
        assert!(
            r.median_lead_s >= 0.0 && r.median_lead_s <= 60.0,
            "escalations are near-immediate in the generator, got {}",
            r.median_lead_s
        );
    }
}
