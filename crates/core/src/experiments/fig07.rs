//! Figure 7: cumulative distribution functions of leadership-job features.
//!
//! For classes 1 and 2 the paper reports CDFs of node count, walltime,
//! mean input power, max input power, and the max-mean power difference,
//! with the 80 % red line at: class 1 — >60 % of jobs above 4,000 nodes
//! (mode at 4,096), P80 walltime ~43 min, P80 max power 6.6 MW (max
//! 10.7 MW); class 2 — 80 % under 1,500 nodes (modes at 1,000/1,024),
//! P80 walltime ~3 h, P80 max power 1.6 MW (max 5.6 MW); class 1 shows
//! much larger max-mean variation.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{watts, Table};
use summit_analysis::cdf::Ecdf;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fraction of the paper's 840k jobs (leadership classes are rare, so
    /// this should not be too small).
    pub population_scale: f64,
}

/// CDF summary of one feature.
#[derive(Debug, Clone, Copy)]
pub struct FeatureCdf {
    /// 20th percentile.
    pub p20: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 80th percentile (the paper's red line).
    pub p80: f64,
    /// Maximum.
    pub max: f64,
}

impl FeatureCdf {
    /// All-NaN placeholder used when a class selects no jobs.
    const EMPTY: Self = Self {
        p20: f64::NAN,
        p50: f64::NAN,
        p80: f64::NAN,
        max: f64::NAN,
    };

    fn from(values: &[f64]) -> Self {
        let Some(e) = Ecdf::new(values) else {
            return Self::EMPTY;
        };
        Self {
            p20: e.percentile(0.2),
            p50: e.percentile(0.5),
            p80: e.percentile(0.8),
            max: e.max(),
        }
    }
}

/// Per-class feature CDFs.
#[derive(Debug, Clone, Copy)]
pub struct ClassCdfs {
    /// Scheduling class 1..=5 (paper Table 3).
    pub class: u8,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Node-count feature CDF.
    pub nodes: FeatureCdf,
    /// Walltime feature CDF (s).
    pub walltime_s: FeatureCdf,
    /// Mean power (W).
    pub mean_power_w: FeatureCdf,
    /// Maximum power (W).
    pub max_power_w: FeatureCdf,
    /// Max-mean power difference CDF (W).
    pub power_diff_w: FeatureCdf,
    /// Fraction of jobs above 4,000 nodes (class-1 anchor).
    pub frac_over_4000_nodes: f64,
    /// Fraction of jobs below 1,500 nodes (class-2 anchor).
    pub frac_under_1500_nodes: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig07Result {
    /// Class-1 feature CDFs.
    pub class1: ClassCdfs,
    /// Class-2 feature CDFs.
    pub class2: ClassCdfs,
}

fn class_cdfs(rows: &[summit_sim::jobstats::JobStatsRow], class: u8) -> ClassCdfs {
    let sel: Vec<&summit_sim::jobstats::JobStatsRow> =
        rows.iter().filter(|r| r.job.class() == class).collect();
    let nodes: Vec<f64> = sel.iter().map(|r| r.job.record.node_count as f64).collect();
    let wall: Vec<f64> = sel.iter().map(|r| r.job.record.walltime_s()).collect();
    let mean_p: Vec<f64> = sel.iter().map(|r| r.stats.mean_power_w).collect();
    let max_p: Vec<f64> = sel.iter().map(|r| r.stats.max_power_w).collect();
    let diff: Vec<f64> = sel
        .iter()
        .map(|r| r.stats.max_power_w - r.stats.mean_power_w)
        .collect();
    let over4000 = nodes.iter().filter(|&&n| n > 4000.0).count() as f64 / nodes.len() as f64;
    let under1500 = nodes.iter().filter(|&&n| n < 1500.0).count() as f64 / nodes.len() as f64;
    ClassCdfs {
        class,
        jobs: sel.len(),
        nodes: FeatureCdf::from(&nodes),
        walltime_s: FeatureCdf::from(&wall),
        mean_power_w: FeatureCdf::from(&mean_p),
        max_power_w: FeatureCdf::from(&max_p),
        power_diff_w: FeatureCdf::from(&diff),
        frac_over_4000_nodes: over4000,
        frac_under_1500_nodes: under1500,
    }
}

/// Runs the Figure 7 study, acquiring the population through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig07Result, ExperimentError> {
    ensure_population_scale("fig07", config.population_scale)?;
    let _obs = summit_obs::span("summit_core_fig07");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    Ok(Fig07Result {
        class1: class_cdfs(&pop.rows, 1),
        class2: class_cdfs(&pop.rows, 2),
    })
}

/// Registry adapter for the Figure 7 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig07"
    }

    fn summary(&self) -> &'static str {
        "Leadership-job CDFs: node count, duration, mean/max power"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([("population_scale", Json::Num(s.max(0.01)))])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig07", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig07Result {
    /// Renders both class rows.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 7: leadership job feature CDFs (P80 red line)",
            &["class", "feature", "P20", "P50", "P80", "max", "paper P80"],
        );
        let mut add = |c: &ClassCdfs, paper: [&str; 5]| {
            let f = |v: f64| format!("{v:.0}");
            let h = |v: f64| format!("{:.2}", v / 3600.0);
            t.row(vec![
                c.class.to_string(),
                "nodes".into(),
                f(c.nodes.p20),
                f(c.nodes.p50),
                f(c.nodes.p80),
                f(c.nodes.max),
                paper[0].into(),
            ]);
            t.row(vec![
                c.class.to_string(),
                "walltime (h)".into(),
                h(c.walltime_s.p20),
                h(c.walltime_s.p50),
                h(c.walltime_s.p80),
                h(c.walltime_s.max),
                paper[1].into(),
            ]);
            t.row(vec![
                c.class.to_string(),
                "mean power".into(),
                watts(c.mean_power_w.p20),
                watts(c.mean_power_w.p50),
                watts(c.mean_power_w.p80),
                watts(c.mean_power_w.max),
                paper[2].into(),
            ]);
            t.row(vec![
                c.class.to_string(),
                "max power".into(),
                watts(c.max_power_w.p20),
                watts(c.max_power_w.p50),
                watts(c.max_power_w.p80),
                watts(c.max_power_w.max),
                paper[3].into(),
            ]);
            t.row(vec![
                c.class.to_string(),
                "max-mean diff".into(),
                watts(c.power_diff_w.p20),
                watts(c.power_diff_w.p50),
                watts(c.power_diff_w.p80),
                watts(c.power_diff_w.max),
                paper[4].into(),
            ]);
        };
        add(
            &self.class1,
            [
                ">60% over 4000",
                "~0.72 h",
                "-",
                "6.6 MW (max 10.7)",
                "large variation",
            ],
        );
        add(
            &self.class2,
            [
                "80% under 1500",
                "~3 h",
                "-",
                "1.6 MW (max 5.6)",
                "smaller variation",
            ],
        );
        let mut s = t.render();
        s.push_str(&format!(
            "\nclass 1: {:.0}% of jobs above 4,000 nodes (paper >60%)\n\
             class 2: {:.0}% of jobs below 1,500 nodes (paper ~80%)\n",
            self.class1.frac_over_4000_nodes * 100.0,
            self.class2.frac_under_1500_nodes * 100.0
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig07Result {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.02,
            },
        )
        .unwrap()
    }

    #[test]
    fn class1_anchors() {
        let r = result();
        assert!(r.class1.jobs > 10);
        assert!(
            r.class1.frac_over_4000_nodes > 0.6,
            "paper: >60 % of class-1 jobs above 4,000 nodes, got {}",
            r.class1.frac_over_4000_nodes
        );
        let p80_min = r.class1.walltime_s.p80 / 60.0;
        assert!(
            (25.0..70.0).contains(&p80_min),
            "class-1 P80 walltime {p80_min} min vs paper ~43"
        );
        assert!(
            r.class1.max_power_w.max > 8.0e6,
            "class-1 peak should approach 10.7 MW"
        );
    }

    #[test]
    fn class2_anchors() {
        let r = result();
        assert!(
            r.class2.frac_under_1500_nodes > 0.7,
            "paper: ~80 % of class-2 jobs under 1,500 nodes"
        );
        let p80_h = r.class2.walltime_s.p80 / 3600.0;
        assert!(
            (1.5..4.5).contains(&p80_h),
            "class-2 P80 walltime {p80_h} h vs paper ~3"
        );
        assert!(
            r.class2.max_power_w.p80 < r.class1.max_power_w.p80,
            "class-2 power sits below class 1"
        );
    }

    #[test]
    fn class1_variation_exceeds_class2() {
        let r = result();
        // Normalize the max-mean diff by class scale to compare shapes.
        assert!(
            r.class1.power_diff_w.p80 > r.class2.power_diff_w.p80,
            "paper: significantly more variation in class 1"
        );
    }

    #[test]
    fn cdf_percentiles_ordered() {
        let r = result();
        for c in [&r.class1, &r.class2] {
            for f in [&c.nodes, &c.walltime_s, &c.mean_power_w, &c.max_power_w] {
                assert!(f.p20 <= f.p50 && f.p50 <= f.p80 && f.p80 <= f.max);
            }
        }
    }
}
