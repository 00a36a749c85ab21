//! Figure 14: GPU failures per node-hour by project — all failures (a)
//! and hardware-only failures (b), top-15 projects.
//!
//! Paper anchor: "GPU failure frequency per node-hour of computation in a
//! job depends significantly on the application domain and project it
//! belongs to" — the top projects reach ~0.2 failures/node-hour while the
//! long tail sits orders of magnitude lower.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{bar, Table};
use std::collections::HashMap;
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Projects listed (paper: top-15).
    pub top: usize,
    /// Minimum node-hours for a project to be ranked (noise floor).
    pub min_node_hours: f64,
    /// Seed.
    pub seed: u64,
}

/// One project row.
#[derive(Debug, Clone)]
pub struct ProjectRow {
    /// Project identifier (e.g. `MAT003`).
    pub project: String,
    /// Node-hours.
    pub node_hours: f64,
    /// Failure count.
    pub failures: u64,
    /// Failure rate per node-hour.
    pub failures_per_node_hour: f64,
    /// Breakdown by kind index (16 entries).
    pub by_kind: Vec<u64>,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// Panel (a): all failure types.
    pub all_failures: Vec<ProjectRow>,
    /// Panel (b): hardware (non-user-associated) failures only.
    pub hardware_failures: Vec<ProjectRow>,
    /// Ratio between the top-ranked and median project rates.
    pub top_to_median_ratio: f64,
}

/// Runs the Figure 14 analysis, acquiring the failure log (jobs plus
/// events) through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig14Result, ExperimentError> {
    table4::ensure_weeks("fig14", config.weeks)?;
    if !(config.min_node_hours.is_finite() && config.min_node_hours >= 0.0) {
        return Err(ExperimentError::invalid(
            "fig14",
            format!(
                "min_node_hours must be a non-negative floor, got {}",
                config.min_node_hours
            ),
        ));
    }
    let _obs = summit_obs::span("summit_core_fig14");
    let art = cache.failures(&FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    });

    // Project node-hours and allocation -> project lookup.
    let mut node_hours: HashMap<String, f64> = HashMap::new();
    let mut by_alloc: HashMap<u64, String> = HashMap::new();
    for j in &art.jobs {
        *node_hours.entry(j.record.project.clone()).or_default() += j.record.node_hours();
        by_alloc.insert(j.record.allocation_id.0, j.record.project.clone());
    }

    let mut all_counts: HashMap<String, Vec<u64>> = HashMap::new();
    for e in &art.events {
        let Some(alloc) = e.allocation_id else {
            continue;
        };
        let Some(project) = by_alloc.get(&alloc.0) else {
            continue;
        };
        all_counts
            .entry(project.clone())
            .or_insert_with(|| vec![0u64; 16])[e.kind.index()] += 1;
    }

    let build = |hardware_only: bool| -> Vec<ProjectRow> {
        let mut rows: Vec<ProjectRow> = all_counts
            .iter()
            .filter_map(|(project, by_kind)| {
                let nh = node_hours.get(project).copied().unwrap_or(0.0);
                if nh < config.min_node_hours {
                    return None;
                }
                let kinds: Vec<u64> = XidErrorKind::ALL
                    .iter()
                    .map(|k| {
                        if hardware_only && k.user_associated() {
                            0
                        } else {
                            by_kind[k.index()]
                        }
                    })
                    .collect();
                let failures: u64 = kinds.iter().sum();
                if failures == 0 {
                    return None;
                }
                Some(ProjectRow {
                    project: project.clone(),
                    node_hours: nh,
                    failures,
                    failures_per_node_hour: failures as f64 / nh,
                    by_kind: kinds,
                })
            })
            .collect();
        rows.sort_by(|a, b| {
            b.failures_per_node_hour
                .total_cmp(&a.failures_per_node_hour)
        });
        rows.truncate(config.top);
        rows
    };

    let all_failures = build(false);
    let hardware_failures = build(true);

    // Rate dispersion over all qualifying projects.
    let mut rates: Vec<f64> = all_counts
        .iter()
        .filter_map(|(p, ks)| {
            let nh = node_hours.get(p).copied().unwrap_or(0.0);
            (nh >= config.min_node_hours).then(|| ks.iter().sum::<u64>() as f64 / nh)
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    let top_to_median_ratio = if rates.len() >= 3 {
        rates[rates.len() - 1] / summit_analysis::stats::median(&rates).max(1e-12)
    } else {
        f64::NAN
    };

    Ok(Fig14Result {
        all_failures,
        hardware_failures,
        top_to_median_ratio,
    })
}

/// Registry adapter for the Figure 14 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig14"
    }

    fn summary(&self) -> &'static str {
        "GPU failures per node-hour by project (all vs hardware-only)"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = crate::experiments::registry::clamp_scale(scale);
        Json::obj([
            ("weeks", Json::Num(table4::default_weeks(scale))),
            ("top", Json::Num(15.0)),
            (
                "min_node_hours",
                Json::Num(if s < 0.5 { 500.0 } else { 2000.0 }),
            ),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig14", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            top: cfg.usize("top")?,
            min_node_hours: cfg.f64("min_node_hours")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig14Result {
    /// Renders both panels.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (title, rows) in [
            (
                "Figure 14a: all failures per node-hour, top projects",
                &self.all_failures,
            ),
            (
                "Figure 14b: hardware failures per node-hour, top projects",
                &self.hardware_failures,
            ),
        ] {
            let max_rate = rows
                .first()
                .map(|r| r.failures_per_node_hour)
                .unwrap_or(1.0);
            let mut t = Table::new(title, &["project", "node-hours", "failures", "rate", ""]);
            for r in rows {
                t.row(vec![
                    r.project.clone(),
                    format!("{:.0}", r.node_hours),
                    r.failures.to_string(),
                    format!("{:.2e}", r.failures_per_node_hour),
                    bar(r.failures_per_node_hour, max_rate, 30),
                ]);
            }
            s.push_str(&t.render());
            s.push('\n');
        }
        s.push_str(&format!(
            "top-project rate is {:.0}x the median project\n\
             paper: rates vary by orders of magnitude across projects; distinct workload \
             patterns are a major reliability factor\n",
            self.top_to_median_ratio
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig14Result {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 6.0,
                top: 15,
                min_node_hours: 1000.0,
                seed: 3,
            },
        )
        .unwrap()
    }

    #[test]
    fn top_lists_populated_and_sorted() {
        let r = result();
        assert!(r.all_failures.len() >= 10);
        for w in r.all_failures.windows(2) {
            assert!(w[0].failures_per_node_hour >= w[1].failures_per_node_hour);
        }
        assert!(!r.hardware_failures.is_empty());
    }

    #[test]
    fn rates_vary_widely() {
        let r = result();
        assert!(
            r.top_to_median_ratio > 3.0,
            "project rates must vary widely, ratio {}",
            r.top_to_median_ratio
        );
    }

    #[test]
    fn hardware_panel_excludes_user_kinds() {
        let r = result();
        for row in &r.hardware_failures {
            for k in XidErrorKind::ALL {
                if k.user_associated() {
                    assert_eq!(row.by_kind[k.index()], 0);
                }
            }
        }
    }

    #[test]
    fn hardware_rates_much_lower() {
        let r = result();
        let top_all = r.all_failures[0].failures_per_node_hour;
        let top_hw = r.hardware_failures[0].failures_per_node_hour;
        assert!(
            top_hw < top_all * 0.3,
            "hardware failures are orders rarer: {top_hw} vs {top_all}"
        );
    }
}
