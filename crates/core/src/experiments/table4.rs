//! Table 4: GPU failure composition and per-node concentration.
//!
//! Paper anchors: 251,859 XID events in 2020; memory page faults dominate
//! (186,496), followed by graphics engine exceptions (32,339) and stopped
//! processing (22,649); 96.9 % of the 8,736 NVLINK errors came from one
//! node; driver error handling exceptions were 100 % on one node.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{pct, Table};
use summit_sim::failures::{
    count_by_kind, max_node_share, paper_annual_count, paper_node_concentration,
};
use summit_sim::spec::{TOTAL_NODES, YEAR_S};
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span in weeks (52+ = paper year).
    pub weeks: f64,
    /// Seed.
    pub seed: u64,
}

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct KindRow {
    /// Event/error kind.
    pub kind: XidErrorKind,
    /// Measured count, extrapolated to a full year.
    pub annual_count: f64,
    /// Measured max-per-node share.
    pub max_node_share: f64,
    /// Paper's annual count.
    pub paper_count: u64,
    /// Paper's concentration.
    pub paper_share: f64,
    /// True for user-associated kinds (Table 4 top block).
    pub user_associated: bool,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// Result rows.
    pub rows: Vec<KindRow>,
    /// Total annualized events.
    pub total_annual: f64,
    /// The paper's total (251,859).
    pub paper_total: u64,
}

/// The cacheable failure scenario behind a Table 4 config (also shared
/// by Figures 13-16 and the early-warning study).
pub fn scenario(config: &Config) -> FailureScenario {
    FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    }
}

/// Runs the Table 4 reproduction, acquiring the failure log through
/// `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Table4Result, ExperimentError> {
    ensure_weeks("table4", config.weeks)?;
    let _obs = summit_obs::span("summit_core_table4");
    let art = cache.failures(&scenario(config));
    let events = &art.events;
    let counts = count_by_kind(events);
    let shares = max_node_share(events, TOTAL_NODES);
    let inflate = YEAR_S / (config.weeks * 7.0 * 86_400.0);
    let rows: Vec<KindRow> = XidErrorKind::ALL
        .iter()
        .map(|&kind| KindRow {
            kind,
            annual_count: counts[kind.index()] as f64 * inflate,
            max_node_share: shares[kind.index()],
            paper_count: paper_annual_count(kind),
            paper_share: paper_node_concentration(kind),
            user_associated: kind.user_associated(),
        })
        .collect();
    let total_annual = rows.iter().map(|r| r.annual_count).sum();
    Ok(Table4Result {
        rows,
        total_annual,
        paper_total: 251_859,
    })
}

/// The failure family's default observation span at `scale` (weeks).
/// Every failure study (Table 4, Figures 13-16, early warning) uses the
/// same span and the paper seed, so a suite run generates one failure
/// log and shares it through the cache.
pub(crate) fn default_weeks(scale: f64) -> f64 {
    (52.3 * crate::experiments::registry::clamp_scale(scale)).max(8.0)
}

/// Validates a failure study's observation span (weeks).
pub(crate) fn ensure_weeks(experiment: &'static str, weeks: f64) -> Result<(), ExperimentError> {
    if weeks.is_finite() && weeks > 0.0 && weeks <= 520.0 {
        Ok(())
    } else {
        Err(ExperimentError::invalid(
            experiment,
            format!("weeks must be a span in (0, 520], got {weeks}"),
        ))
    }
}

/// Registry adapter for the Table 4 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn summary(&self) -> &'static str {
        "GPU failure composition and per-node concentration (annualized)"
    }

    fn default_config(&self, scale: f64) -> Json {
        Json::obj([
            ("weeks", Json::Num(default_weeks(scale))),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("table4", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Table4Result {
    /// Renders the paper-vs-measured composition table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 4: GPU failure composition (annualized)",
            &["GPU error", "count", "paper", "max/node", "paper max/node"],
        );
        for r in &self.rows {
            t.row(vec![
                r.kind.name().into(),
                format!("{:.0}", r.annual_count),
                r.paper_count.to_string(),
                pct(r.max_node_share),
                pct(r.paper_share),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\ntotal: {:.0} annualized (paper: {})\n",
            self.total_annual, self.paper_total
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Table4Result {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 8.0,
                seed: 7,
            },
        )
        .unwrap()
    }

    #[test]
    fn totals_within_factor_of_paper() {
        let r = result();
        assert!(
            (r.total_annual / r.paper_total as f64 - 1.0).abs() < 0.35,
            "annualized total {} vs paper {}",
            r.total_annual,
            r.paper_total
        );
    }

    #[test]
    fn rank_order_matches_table() {
        let r = result();
        // Table 4's top three kinds, in order.
        let count = |k: XidErrorKind| {
            r.rows
                .iter()
                .find(|row| row.kind == k)
                .unwrap()
                .annual_count
        };
        use XidErrorKind::*;
        assert!(count(MemoryPageFault) > count(GraphicsEngineException));
        assert!(count(GraphicsEngineException) > count(StoppedProcessing));
        assert!(count(StoppedProcessing) > count(NvlinkError));
        assert!(count(NvlinkError) > count(PageRetirementEvent));
    }

    #[test]
    fn concentration_pattern_matches() {
        let r = result();
        let share = |k: XidErrorKind| {
            r.rows
                .iter()
                .find(|row| row.kind == k)
                .unwrap()
                .max_node_share
        };
        use XidErrorKind::*;
        assert!(share(NvlinkError) > 0.85, "super-offender");
        assert!(share(MemoryPageFault) < 0.05, "spread kind");
        assert!(share(DriverErrorHandlingException) > 0.9, "single node");
        assert!(
            share(PageRetirementFailure) > share(PageRetirementEvent),
            "failures concentrate more than events (paper 42.4% vs 4.3%)"
        );
    }

    #[test]
    fn user_associated_kinds_dominate() {
        let r = result();
        let user: f64 = r
            .rows
            .iter()
            .filter(|row| row.user_associated)
            .map(|row| row.annual_count)
            .sum();
        assert!(
            user / r.total_annual > 0.9,
            "paper: the vast majority is user-associated"
        );
    }
}
