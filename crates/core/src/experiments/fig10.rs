//! Figure 10: power-consumption dynamics — edge counts, edge durations,
//! and FFT frequency/amplitude distributions per scheduling class.
//!
//! Paper anchors: 96.9 % of jobs experience no rising/falling edge
//! (868 W/node per 10 s interval); class 4 shows the most, shortest
//! edges; class-1 edges are sustained (60 % under 25 min but 20 % over
//! 200 min); the dominant differenced-FFT frequency clusters at 0.005 Hz
//! (200 s) across classes; amplitudes skew low with stair-stepping from
//! popular node counts.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{pct, Table};
use rayon::prelude::*;
use summit_analysis::cdf::Ecdf;
use summit_analysis::edges::{detect_edges_for_job, Edge};
use summit_analysis::fft::dominant_component;
use summit_sim::jobstats::job_power_series;
use summit_sim::power::PowerModel;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Fraction of the paper's 840k jobs to replay as series.
    pub population_scale: f64,
    /// Series resolution (s) — the paper works on 10 s data.
    pub dt_s: f64,
}

/// Per-class dynamics summary.
#[derive(Debug, Clone)]
pub struct ClassDynamics {
    /// Scheduling class 1..=5 (paper Table 3).
    pub class: u8,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Jobs with at least one detected edge.
    pub jobs_with_edges: usize,
    /// Edge-count CDF over jobs that have edges.
    pub edges_p50: f64,
    /// 95th-percentile edge count.
    pub edges_p95: f64,
    /// Edge-duration CDF (minutes) over completed edges.
    pub duration_p50_min: f64,
    /// 95th-percentile edge duration (minutes).
    pub duration_p95_min: f64,
    /// Dominant FFT frequency stats over jobs with edges (Hz).
    pub freq_p50_hz: f64,
    /// Fraction of dominant frequencies within [1/300, 1/150] Hz — the
    /// 200 s mode.
    pub freq_near_200s: f64,
    /// Dominant amplitude median (W).
    pub amp_p50_w: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Per-class results.
    pub classes: Vec<ClassDynamics>,
    /// Overall fraction of jobs with no edges (paper: 96.9 %).
    pub edge_free_fraction: f64,
}

struct JobDyn {
    class: u8,
    edges: Vec<Edge>,
    dominant_freq: Option<f64>,
    dominant_amp: Option<f64>,
}

/// Runs the Figure 10 study, acquiring the population through `cache`.
/// The cached rows carry their jobs and power model, so the replay uses
/// the exact job stream `PopulationScenario::generate` would produce.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig10Result, ExperimentError> {
    ensure_population_scale("fig10", config.population_scale)?;
    // One 1 s engine tick is the finest step.
    if !(config.dt_s.is_finite() && config.dt_s >= 1.0) {
        return Err(ExperimentError::invalid(
            "fig10",
            format!(
                "dt_s must be a finite step of at least 1 s (one tick), got {}",
                config.dt_s
            ),
        ));
    }
    let _obs = summit_obs::span("summit_core_fig10");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    let pm: PowerModel = pop.power_model;

    let per_job: Vec<JobDyn> = pop
        .rows
        .par_iter()
        .map(|row| {
            let job = &row.job;
            let series = job_power_series(job, &pm, config.dt_s);
            let edges = detect_edges_for_job(&series, job.record.node_count as usize);
            let (freq, amp) = if edges.is_empty() {
                (None, None)
            } else {
                // The paper differences the auto-correlated series before
                // the FFT and keeps the maximum amplitude component.
                match dominant_component(series.diff().values(), 1.0 / config.dt_s) {
                    Some(d) => (Some(d.frequency_hz), Some(d.amplitude)),
                    None => (None, None),
                }
            };
            JobDyn {
                class: job.class(),
                edges,
                dominant_freq: freq,
                dominant_amp: amp,
            }
        })
        .collect();

    let edge_free =
        per_job.iter().filter(|j| j.edges.is_empty()).count() as f64 / per_job.len().max(1) as f64;

    let mut classes = Vec::new();
    for class in 1..=5u8 {
        let sel: Vec<&JobDyn> = per_job.iter().filter(|j| j.class == class).collect();
        if sel.is_empty() {
            continue;
        }
        let with_edges: Vec<&&JobDyn> = sel.iter().filter(|j| !j.edges.is_empty()).collect();
        let counts: Vec<f64> = with_edges.iter().map(|j| j.edges.len() as f64).collect();
        let durations: Vec<f64> = with_edges
            .iter()
            .flat_map(|j| j.edges.iter().filter_map(|e| e.duration_s))
            .map(|d| d / 60.0)
            .collect();
        let freqs: Vec<f64> = with_edges.iter().filter_map(|j| j.dominant_freq).collect();
        let amps: Vec<f64> = with_edges.iter().filter_map(|j| j.dominant_amp).collect();
        let p = |v: &[f64], q: f64| Ecdf::new(v).map_or(f64::NAN, |e| e.percentile(q));
        let near_200 = if freqs.is_empty() {
            f64::NAN
        } else {
            freqs
                .iter()
                .filter(|&&f| (1.0 / 300.0..=1.0 / 150.0).contains(&f))
                .count() as f64
                / freqs.len() as f64
        };
        classes.push(ClassDynamics {
            class,
            jobs: sel.len(),
            jobs_with_edges: with_edges.len(),
            edges_p50: p(&counts, 0.5),
            edges_p95: p(&counts, 0.95),
            duration_p50_min: p(&durations, 0.5),
            duration_p95_min: p(&durations, 0.95),
            freq_p50_hz: p(&freqs, 0.5),
            freq_near_200s: near_200,
            amp_p50_w: p(&amps, 0.5),
        });
    }

    Ok(Fig10Result {
        classes,
        edge_free_fraction: edge_free,
    })
}

/// Registry adapter for the Figure 10 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn summary(&self) -> &'static str {
        "Intra-job power dynamics: edges, durations, dominant frequencies"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("population_scale", Json::Num((0.03 * s).clamp(0.001, 0.03))),
            ("dt_s", Json::Num(10.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig10", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
            dt_s: cfg.f64("dt_s")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig10Result {
    /// Renders the per-class dynamics table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 10: power dynamics per class",
            &[
                "class",
                "jobs",
                "w/ edges",
                "edges p50",
                "edges p95",
                "dur p50 (min)",
                "dur p95 (min)",
                "freq p50 (Hz)",
                "near 200 s",
            ],
        );
        for c in &self.classes {
            t.row(vec![
                c.class.to_string(),
                c.jobs.to_string(),
                c.jobs_with_edges.to_string(),
                format!("{:.0}", c.edges_p50),
                format!("{:.0}", c.edges_p95),
                format!("{:.1}", c.duration_p50_min),
                format!("{:.1}", c.duration_p95_min),
                format!("{:.4}", c.freq_p50_hz),
                pct(c.freq_near_200s),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nedge-free jobs: {} (paper: 96.9%)\n\
             paper: class 4 most/shortest edges; class 1 sustained edges; dominant \
             frequency 0.005 Hz (200 s) across classes\n",
            pct(self.edge_free_fraction)
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig10Result {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.003,
                dt_s: 10.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn most_jobs_edge_free() {
        let r = result();
        assert!(
            (0.88..0.995).contains(&r.edge_free_fraction),
            "paper: 96.9 % edge-free, got {}",
            r.edge_free_fraction
        );
    }

    #[test]
    fn some_edges_exist() {
        let r = result();
        let total: usize = r.classes.iter().map(|c| c.jobs_with_edges).sum();
        assert!(total > 0, "the population must produce some edges");
    }

    #[test]
    fn dominant_frequency_near_200s_where_defined() {
        let r = result();
        // Pool classes with enough edge jobs for a stable statistic.
        for c in r.classes.iter().filter(|c| c.jobs_with_edges >= 10) {
            assert!(
                c.freq_near_200s > 0.2 || c.freq_p50_hz < 0.01,
                "class {}: dominant frequencies should cluster slow/200 s, got p50 {} near200 {}",
                c.class,
                c.freq_p50_hz,
                c.freq_near_200s
            );
        }
    }

    #[test]
    fn class4_edges_short() {
        let r = result();
        let c4 = r.classes.iter().find(|c| c.class == 4);
        let c1 = r.classes.iter().find(|c| c.class == 1);
        if let (Some(c4), Some(c1)) = (c4, c1) {
            if c4.jobs_with_edges >= 5 && c1.jobs_with_edges >= 3 {
                assert!(
                    c4.duration_p50_min <= c1.duration_p95_min,
                    "class-4 edges should be short relative to class-1 tails"
                );
            }
        }
    }
}
