//! Figure 8: job-level max power and energy by science domain
//! (leadership classes 1 and 2, boxplot distributions).
//!
//! The paper reads off high variation in peak power across disciplines
//! (different codes/kernels), domain-dominating applications, ~10 MW
//! class-1 peaks, and wide energy variation driven by run time.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{joules, watts, Table};
use summit_analysis::stats::BoxStats;
use summit_telemetry::records::ScienceDomain;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fraction of the paper's 840k jobs.
    pub population_scale: f64,
    /// Scheduling class analyzed (1 or 2, as in the paper's two panels).
    pub class: u8,
}

/// One domain's distributions.
#[derive(Debug, Clone)]
pub struct DomainRow {
    /// Science domain of the project.
    pub domain: ScienceDomain,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Max power.
    pub max_power: BoxStats,
    /// Energy.
    pub energy: BoxStats,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig08Result {
    /// Scheduling class 1..=5 (paper Table 3).
    pub class: u8,
    /// Result rows.
    pub rows: Vec<DomainRow>,
}

/// Runs the Figure 8 study, acquiring the population through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig08Result, ExperimentError> {
    if config.class != 1 && config.class != 2 {
        return Err(ExperimentError::invalid(
            "fig08",
            format!(
                "the paper's Figure 8 shows classes 1 and 2, got class {}",
                config.class
            ),
        ));
    }
    ensure_population_scale("fig08", config.population_scale)?;
    let _obs = summit_obs::span("summit_core_fig08");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    let rows = &pop.rows;
    let mut out = Vec::new();
    for domain in ScienceDomain::ALL {
        let sel: Vec<_> = rows
            .iter()
            .filter(|r| r.job.class() == config.class && r.job.record.domain == domain)
            .collect();
        if sel.len() < 3 {
            continue;
        }
        let power: Vec<f64> = sel.iter().map(|r| r.stats.max_power_w).collect();
        let energy: Vec<f64> = sel.iter().map(|r| r.stats.energy_j).collect();
        let (Some(max_power), Some(energy)) =
            (BoxStats::compute(&power), BoxStats::compute(&energy))
        else {
            continue;
        };
        out.push(DomainRow {
            domain,
            jobs: sel.len(),
            max_power,
            energy,
        });
    }
    // Sort by job count descending (the paper orders axes by traffic).
    out.sort_by_key(|d| std::cmp::Reverse(d.jobs));
    Ok(Fig08Result {
        class: config.class,
        rows: out,
    })
}

/// Registry adapter for the Figure 8 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig08"
    }

    fn summary(&self) -> &'static str {
        "Job-level max power and energy by science domain (class 1/2 boxplots)"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("population_scale", Json::Num(s.max(0.03))),
            ("class", Json::Num(1.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig08", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
            class: cfg.u8("class")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig08Result {
    /// Renders the per-domain boxplot table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Figure 8: class {} power/energy by science domain",
                self.class
            ),
            &[
                "domain", "jobs", "maxP q1", "maxP med", "maxP q3", "E med", "E q3",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.domain.name().into(),
                r.jobs.to_string(),
                watts(r.max_power.q1),
                watts(r.max_power.median),
                watts(r.max_power.q3),
                joules(r.energy.median),
                joules(r.energy.q3),
            ]);
        }
        let mut s = t.render();
        s.push_str(
            "\npaper: high peak-power variation across disciplines; class-1 peaks near 10 MW; \
             energy spans orders of magnitude with run time\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result(class: u8) -> Fig08Result {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.03,
                class,
            },
        )
        .unwrap()
    }

    #[test]
    fn many_domains_represented() {
        // Class 2 carries 4x the job count of class 1, so the domain mix
        // is visible even at test scale.
        let r = result(2);
        assert!(
            r.rows.len() >= 8,
            "expected a broad domain mix, got {}",
            r.rows.len()
        );
    }

    #[test]
    fn power_varies_across_domains() {
        let r = result(1);
        let medians: Vec<f64> = r.rows.iter().map(|d| d.max_power.median).collect();
        let hi = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            hi / lo > 1.15,
            "domain peak-power medians must vary: {lo} .. {hi}"
        );
    }

    #[test]
    fn class1_peaks_near_10mw() {
        let r = result(1);
        let peak = r
            .rows
            .iter()
            .map(|d| d.max_power.max)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            peak > 8.0e6,
            "class-1 domain peaks should approach 10 MW, got {peak}"
        );
    }

    #[test]
    fn class2_sits_below_class1() {
        let r1 = result(1);
        let r2 = result(2);
        let med = |r: &Fig08Result| {
            let v: Vec<f64> = r.rows.iter().map(|d| d.max_power.median).collect();
            summit_analysis::stats::median(&v)
        };
        assert!(med(&r2) < med(&r1) * 0.7);
    }

    #[test]
    fn rejects_other_classes_with_typed_error() {
        let err = run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.01,
                class: 5,
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ExperimentError::InvalidConfig(m) if m.contains("classes 1 and 2")),
            "unexpected error: {err}"
        );
        let err = run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.0,
                class: 1,
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ExperimentError::InvalidConfig(m) if m.contains("population_scale"))
        );
    }
}
