//! Figure 9: joint distribution of per-node CPU vs GPU power (mean and
//! maximum) across the job population.
//!
//! The paper's reading: density concentrates near the axes — jobs are
//! either CPU-intensive (x-axis) or GPU-focused (y-axis); few jobs
//! heavily use both at once (empty upper-right corner); the maximum plots
//! spread further along the GPU axis.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{pct, watts, Table};
use summit_analysis::kde::{Bandwidth, Kde2d};

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fraction of the paper's 840k jobs.
    pub population_scale: f64,
    /// Max samples fed to each KDE.
    pub max_samples: usize,
}

/// Characterization of one (statistic, class-group) panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// "mean" or "max".
    pub statistic: String,
    /// "leadership" (classes 1-2) or "small" (classes 3-5).
    pub group: String,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Density peak (cpu W, gpu W).
    pub peak_cpu_w: f64,
    /// Density-peak GPU power (W).
    pub peak_gpu_w: f64,
    /// Fraction of jobs that are GPU-focused (gpu > 2x cpu).
    pub gpu_focused: f64,
    /// Fraction CPU-intensive (cpu-side dominance given the 6:2 ratio of
    /// GPUs to CPUs: gpu < cpu).
    pub cpu_intensive: f64,
    /// Fraction using both heavily (cpu > 400 W and gpu > 1,200 W) — the
    /// paper's empty upper-right corner.
    pub both_heavy: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig09Result {
    /// Per-panel results.
    pub panels: Vec<Panel>,
}

fn build_panel(
    rows: &[&summit_sim::jobstats::JobStatsRow],
    statistic: &str,
    group: &str,
    max_samples: usize,
) -> Option<Panel> {
    if rows.len() < 10 {
        return None;
    }
    let step = (rows.len() / max_samples).max(1);
    let pick = |r: &summit_sim::jobstats::JobStatsRow| -> (f64, f64) {
        match statistic {
            "mean" => (r.stats.mean_node_cpu_w, r.stats.mean_node_gpu_w),
            _ => (r.stats.max_node_cpu_w, r.stats.max_node_gpu_w),
        }
    };
    let pts: Vec<(f64, f64)> = rows.iter().step_by(step).map(|r| pick(r)).collect();
    let cpu: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let gpu: Vec<f64> = pts.iter().map(|p| p.1).collect();
    let kde = Kde2d::fit(&cpu, &gpu, Bandwidth::Scott)?;
    let grid = kde.grid(56, 56);
    let (px, py, _) = grid.peak();
    let n = pts.len() as f64;
    let gpu_focused = pts.iter().filter(|(c, g)| *g > 2.0 * c).count() as f64 / n;
    let cpu_intensive = pts.iter().filter(|(c, g)| *g < *c).count() as f64 / n;
    let both_heavy = pts
        .iter()
        .filter(|(c, g)| *c > 400.0 && *g > 1200.0)
        .count() as f64
        / n;
    Some(Panel {
        statistic: statistic.into(),
        group: group.into(),
        jobs: pts.len(),
        peak_cpu_w: px,
        peak_gpu_w: py,
        gpu_focused,
        cpu_intensive,
        both_heavy,
    })
}

/// Runs the Figure 9 study, acquiring the population through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig09Result, ExperimentError> {
    ensure_population_scale("fig09", config.population_scale)?;
    if config.max_samples == 0 {
        return Err(ExperimentError::invalid(
            "fig09",
            "max_samples must be positive",
        ));
    }
    let _obs = summit_obs::span("summit_core_fig09");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    let rows = &pop.rows;
    let leadership: Vec<_> = rows.iter().filter(|r| r.job.class() <= 2).collect();
    let small: Vec<_> = rows.iter().filter(|r| r.job.class() >= 3).collect();
    let mut panels = Vec::new();
    for stat in ["mean", "max"] {
        if let Some(p) = build_panel(&leadership, stat, "leadership", config.max_samples) {
            panels.push(p);
        }
        if let Some(p) = build_panel(&small, stat, "small", config.max_samples) {
            panels.push(p);
        }
    }
    Ok(Fig09Result { panels })
}

/// Registry adapter for the Figure 9 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig09"
    }

    fn summary(&self) -> &'static str {
        "Per-node CPU vs GPU power density by class group"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("population_scale", Json::Num(s.max(0.002))),
            (
                "max_samples",
                Json::Num(if s < 0.5 { 800.0 } else { 4000.0 }),
            ),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig09", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
            max_samples: cfg.usize("max_samples")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig09Result {
    /// Renders the four panels.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 9: per-node CPU vs GPU power density",
            &[
                "stat",
                "classes",
                "jobs",
                "peak CPU",
                "peak GPU",
                "GPU-focused",
                "CPU-intensive",
                "both heavy",
            ],
        );
        for p in &self.panels {
            t.row(vec![
                p.statistic.clone(),
                p.group.clone(),
                p.jobs.to_string(),
                watts(p.peak_cpu_w),
                watts(p.peak_gpu_w),
                pct(p.gpu_focused),
                pct(p.cpu_intensive),
                pct(p.both_heavy),
            ]);
        }
        let mut s = t.render();
        s.push_str(
            "\npaper: density hugs the axes (CPU-intensive vs GPU-focused jobs); \
             few jobs use both heavily; max panels spread farther up the GPU axis\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig09Result {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.005,
                max_samples: 2000,
            },
        )
        .unwrap()
    }

    #[test]
    fn four_panels() {
        let r = result();
        assert_eq!(r.panels.len(), 4);
    }

    #[test]
    fn density_hugs_the_axes() {
        let r = result();
        for p in &r.panels {
            // Most jobs are one-sided; the upper-right corner stays thin.
            assert!(
                p.gpu_focused + p.cpu_intensive > 0.5,
                "panel {}-{}: {} + {}",
                p.statistic,
                p.group,
                p.gpu_focused,
                p.cpu_intensive
            );
            assert!(
                p.both_heavy < 0.25,
                "panel {}-{}: both-heavy {} should be rare",
                p.statistic,
                p.group,
                p.both_heavy
            );
        }
    }

    #[test]
    fn max_spreads_gpu_axis() {
        let r = result();
        let find = |stat: &str, group: &str| {
            r.panels
                .iter()
                .find(|p| p.statistic == stat && p.group == group)
                .unwrap()
        };
        for group in ["leadership", "small"] {
            let mean = find("mean", group);
            let max = find("max", group);
            assert!(
                max.gpu_focused >= mean.gpu_focused * 0.8,
                "{group}: GPU focus persists in the max panel"
            );
        }
    }
}
