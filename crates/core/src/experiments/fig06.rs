//! Figure 6: joint distribution of total job energy vs maximum input
//! power per scheduling class (Gaussian KDE).
//!
//! The paper's findings: classes 1-2 concentrate into few density peaks;
//! classes 3-5 are multi-modal with several high-density regions; the
//! maximum-power ranges barely overlap across classes (max power is
//! strongly correlated with class) while the energy ranges overlap
//! broadly.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{joules, watts, Table};
use summit_analysis::kde::{Bandwidth, Kde2d};

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fraction of the paper's 840k jobs.
    pub population_scale: f64,
    /// KDE evaluation grid per axis.
    pub grid: usize,
    /// Max sample per class fed to the KDE (subsampled above).
    pub max_samples: usize,
}

/// Per-class KDE characterization.
#[derive(Debug, Clone)]
pub struct ClassDensity {
    /// The evaluated density grid (log-energy x log-power), for rendering.
    pub grid: summit_analysis::kde::DensityGrid,
    /// Scheduling class 1..=5 (paper Table 3).
    pub class: u8,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Density peak in (energy J, max power W) space.
    pub peak_energy_j: f64,
    /// Density-peak power (W).
    pub peak_power_w: f64,
    /// Local maxima above 10 % of the peak — multi-modality measure.
    pub mode_count: usize,
    /// Observed ranges.
    pub energy_range_j: (f64, f64),
    /// Observed power range (W).
    pub power_range_w: (f64, f64),
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig06Result {
    /// Per-class results.
    pub classes: Vec<ClassDensity>,
    /// Fraction of pairwise class power-range overlap (paper: minimal).
    pub mean_power_overlap: f64,
    /// Fraction of pairwise class energy-range overlap (paper: extended).
    pub mean_energy_overlap: f64,
}

fn overlap(a: (f64, f64), b: (f64, f64)) -> f64 {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if hi <= lo {
        return 0.0;
    }
    let span = (a.1 - a.0).min(b.1 - b.0).max(f64::MIN_POSITIVE);
    (hi - lo) / span
}

/// Runs the Figure 6 study, acquiring the population through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig06Result, ExperimentError> {
    ensure_population_scale("fig06", config.population_scale)?;
    // A density grid needs both ends of the data range on each axis.
    if config.grid < 2 || config.max_samples == 0 {
        return Err(ExperimentError::invalid(
            "fig06",
            "`grid` must be at least 2 and `max_samples` positive",
        ));
    }
    let _obs = summit_obs::span("summit_core_fig06");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    let rows = &pop.rows;
    let mut classes = Vec::new();
    for class in 1..=5u8 {
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.job.class() == class)
            .map(|r| (r.stats.energy_j, r.stats.max_power_w))
            .collect();
        if pts.len() < 5 {
            continue;
        }
        let step = (pts.len() / config.max_samples).max(1);
        let log_e: Vec<f64> = pts.iter().step_by(step).map(|p| p.0.log10()).collect();
        let log_p: Vec<f64> = pts.iter().step_by(step).map(|p| p.1.log10()).collect();
        let Some(kde) = Kde2d::fit(&log_e, &log_p, Bandwidth::Scott) else {
            continue;
        };
        let grid = kde.grid(config.grid, config.grid);
        let (pe, pp, _) = grid.peak();
        let mode_count = grid.count_modes(0.1);
        let e_range = (
            pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min),
            pts.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max),
        );
        let p_range = (
            pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
            pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max),
        );
        classes.push(ClassDensity {
            grid,
            class,
            jobs: pts.len(),
            peak_energy_j: 10f64.powf(pe),
            peak_power_w: 10f64.powf(pp),
            mode_count,
            energy_range_j: e_range,
            power_range_w: p_range,
        });
    }

    // Pairwise overlaps of adjacent classes in log space.
    let mut p_overlaps = Vec::new();
    let mut e_overlaps = Vec::new();
    for w in classes.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let log = |r: (f64, f64)| (r.0.log10(), r.1.log10());
        p_overlaps.push(overlap(log(a.power_range_w), log(b.power_range_w)));
        e_overlaps.push(overlap(log(a.energy_range_j), log(b.energy_range_j)));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    Ok(Fig06Result {
        mean_power_overlap: mean(&p_overlaps),
        mean_energy_overlap: mean(&e_overlaps),
        classes,
    })
}

/// Registry adapter for the Figure 6 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig06"
    }

    fn summary(&self) -> &'static str {
        "Energy vs max-power KDE density per scheduling class"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("population_scale", Json::Num(s.max(0.002))),
            ("grid", Json::Num(if s < 0.5 { 32.0 } else { 64.0 })),
            (
                "max_samples",
                Json::Num(if s < 0.5 { 1000.0 } else { 4000.0 }),
            ),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig06", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
            grid: cfg.usize("grid")?,
            max_samples: cfg.usize("max_samples")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig06Result {
    /// Renders the per-class density table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 6: energy vs max input power density per class",
            &[
                "class",
                "jobs",
                "peak energy",
                "peak power",
                "modes",
                "power range",
                "energy range",
            ],
        );
        for c in &self.classes {
            t.row(vec![
                c.class.to_string(),
                c.jobs.to_string(),
                joules(c.peak_energy_j),
                watts(c.peak_power_w),
                c.mode_count.to_string(),
                format!(
                    "{} - {}",
                    watts(c.power_range_w.0),
                    watts(c.power_range_w.1)
                ),
                format!(
                    "{} - {}",
                    joules(c.energy_range_j.0),
                    joules(c.energy_range_j.1)
                ),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nadjacent-class range overlap: power {:.2}, energy {:.2}\n\
             paper: classes 1-2 few peaks, classes 3-5 multi-modal; power overlap minimal, \
             energy overlap extended\n",
            self.mean_power_overlap, self.mean_energy_overlap
        ));
        // Render the extreme panels as density heatmaps (x: log10 energy,
        // y: log10 max power) — the textual cousins of the contour plots.
        for c in [self.classes.first(), self.classes.last()]
            .into_iter()
            .flatten()
        {
            s.push_str(&format!(
                "\nclass {} density (x: log10 J {:.1}-{:.1}, y: log10 W {:.1}-{:.1}):\n",
                c.class,
                c.grid.x_axis.first().copied().unwrap_or(f64::NAN),
                c.grid.x_axis.last().copied().unwrap_or(f64::NAN),
                c.grid.y_axis.first().copied().unwrap_or(f64::NAN),
                c.grid.y_axis.last().copied().unwrap_or(f64::NAN),
            ));
            // Downsample the grid to ~24x48 characters, y flipped so high
            // power sits at the top.
            let nx = c.grid.x_axis.len();
            let ny = c.grid.y_axis.len();
            let step_x = (nx / 48).max(1);
            let step_y = (ny / 20).max(1);
            let rows: Vec<Vec<f64>> = (0..ny)
                .step_by(step_y)
                .rev()
                .map(|yi| {
                    (0..nx)
                        .step_by(step_x)
                        .map(|xi| c.grid.at(xi, yi))
                        .collect()
                })
                .collect();
            s.push_str(&crate::report::heatmap(&rows));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig06Result {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.004,
                grid: 48,
                max_samples: 2000,
            },
        )
        .unwrap()
    }

    #[test]
    fn all_classes_present_and_ordered() {
        let r = result();
        assert_eq!(r.classes.len(), 5);
        // Peak power strictly falls with class number.
        for w in r.classes.windows(2) {
            assert!(
                w[0].peak_power_w > w[1].peak_power_w,
                "class {} peak {} <= class {} peak {}",
                w[0].class,
                w[0].peak_power_w,
                w[1].class,
                w[1].peak_power_w
            );
        }
    }

    #[test]
    fn small_classes_more_multimodal() {
        let r = result();
        let big: usize = r.classes[..2].iter().map(|c| c.mode_count).sum();
        let small: usize = r.classes[3..].iter().map(|c| c.mode_count).sum();
        assert!(
            small >= big,
            "classes 4-5 should show at least as many modes ({small}) as classes 1-2 ({big})"
        );
    }

    #[test]
    fn energy_overlap_exceeds_power_overlap() {
        let r = result();
        assert!(
            r.mean_energy_overlap > r.mean_power_overlap,
            "paper: energy ranges overlap more ({} vs {})",
            r.mean_energy_overlap,
            r.mean_power_overlap
        );
    }

    #[test]
    fn class1_peak_in_megawatt_range() {
        let r = result();
        let c1 = &r.classes[0];
        assert!(c1.peak_power_w > 2.0e6, "class-1 peak {}", c1.peak_power_w);
        let c5 = r.classes.last().unwrap();
        assert!(c5.peak_power_w < 2.0e5, "class-5 peak {}", c5.peak_power_w);
    }
}
