//! Extension experiment: power-aware job scheduling.
//!
//! The paper's conclusion: "aggressive power and energy aware application
//! optimizations and scheduling policies can have impact even on HPC
//! deployments like Summit that impose no power constraints on its jobs"
//! — because the cooling plant must be provisioned for the rare peaks
//! (overcooling). This experiment runs the year's job stream through a
//! power-capped admission policy and measures the trade: peak/p99 cluster
//! power shed vs added queue wait, at several cap levels.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_population_scale, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::PopulationScenario;
use crate::report::{pct, watts, Table};
use summit_sim::jobstats::JobStatsRow;
use summit_sim::spec;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fraction of the paper's 840k jobs.
    pub population_scale: f64,
    /// Cluster-power caps to evaluate (W); `f64::INFINITY` = no cap
    /// (Summit's actual policy).
    pub caps_w: Vec<f64>,
    /// Scheduler tick (s).
    pub dt_s: f64,
}

/// Outcome of one cap level.
#[derive(Debug, Clone, Copy)]
pub struct CapOutcome {
    /// Cluster power cap (W).
    pub cap_w: f64,
    /// Peak cluster power over the year (W).
    pub peak_power_w: f64,
    /// 99th percentile of the power series (W).
    pub p99_power_w: f64,
    /// Mean cluster power (W).
    pub mean_power_w: f64,
    /// Jobs completed within the horizon.
    pub completed: usize,
    /// Jobs still queued at the end (starved by the cap).
    pub unfinished: usize,
    /// Mean queue wait (s). Jobs never admitted within the horizon are
    /// censored at the horizon, so starvation under tight caps shows up
    /// here instead of silently dropping out of the average.
    pub mean_wait_s: f64,
    /// 95th percentile queue wait (s), censored like `mean_wait_s`.
    pub p95_wait_s: f64,
    /// Node-hours delivered.
    pub node_hours: f64,
}

struct Running {
    end_time: f64,
    nodes: u32,
    above_idle_w: f64,
}

/// Simulates the year under one cap with a FIFO + backfill admission
/// policy: a job starts when (a) enough nodes are free and (b) projected
/// cluster power (idle floor + running above-idle + the job's mean
/// above-idle) stays under the cap.
fn simulate_cap(rows: &[JobStatsRow], cap_w: f64, dt: f64, horizon_s: f64) -> CapOutcome {
    let idle_w = spec::SYSTEM_IDLE_POWER_W;
    let total_nodes = spec::TOTAL_NODES as u32;

    // Arrival-ordered queue of (arrival, nodes, duration, above_idle, started?).
    #[derive(Clone)]
    struct Pending {
        arrival: f64,
        nodes: u32,
        duration: f64,
        above_idle_w: f64,
    }
    let mut queue: Vec<Pending> = rows
        .iter()
        .map(|r| Pending {
            arrival: r.job.record.begin_time,
            nodes: r.job.record.node_count,
            duration: r.job.record.walltime_s(),
            above_idle_w: (r.stats.mean_power_w
                - r.job.record.node_count as f64 * spec::NODE_IDLE_POWER_W)
                .max(0.0),
        })
        .collect();
    queue.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));

    let mut running: Vec<Running> = Vec::new();
    let mut free_nodes = total_nodes;
    let mut power_above_idle = 0.0f64;
    let mut next = 0usize;
    let mut waits: Vec<f64> = Vec::new();
    let mut completed = 0usize;
    let mut node_seconds = 0.0f64;
    let mut peak = idle_w;
    let mut p_sum = 0.0;
    let mut powers: Vec<f64> = Vec::new();
    let mut waiting: Vec<Pending> = Vec::new();

    let steps = (horizon_s / dt).ceil() as usize;
    for step in 0..steps {
        let t = step as f64 * dt;
        // Complete.
        let mut i = 0;
        while i < running.len() {
            if running[i].end_time <= t {
                let r = running.swap_remove(i);
                free_nodes += r.nodes;
                power_above_idle -= r.above_idle_w;
                completed += 1;
            } else {
                i += 1;
            }
        }
        // Move newly-arrived jobs into the waiting pool.
        while next < queue.len() && queue[next].arrival <= t {
            waiting.push(queue[next].clone());
            next += 1;
        }
        // Admit (FIFO with backfill).
        let mut k = 0;
        while k < waiting.len() {
            let p = &waiting[k];
            let fits_nodes = p.nodes <= free_nodes;
            let fits_power = idle_w + power_above_idle + p.above_idle_w <= cap_w;
            if fits_nodes && fits_power {
                let p = waiting.remove(k);
                waits.push(t - p.arrival);
                free_nodes -= p.nodes;
                power_above_idle += p.above_idle_w;
                node_seconds += p.nodes as f64 * p.duration;
                running.push(Running {
                    end_time: t + p.duration,
                    nodes: p.nodes,
                    above_idle_w: p.above_idle_w,
                });
            } else {
                k += 1;
            }
        }
        let power = idle_w + power_above_idle;
        peak = peak.max(power);
        p_sum += power;
        powers.push(power);
    }

    // Censor jobs that never started: their wait is at least the time
    // from arrival to the end of the horizon. Without this, a tight cap
    // that starves its most power-hungry jobs would *lower* the mean
    // wait by excluding them.
    for p in &waiting {
        waits.push((horizon_s - p.arrival).max(0.0));
    }

    powers.sort_by(|a, b| a.total_cmp(b));
    let p99 = powers[(powers.len() as f64 * 0.99) as usize - 1];
    let mut sorted_waits = waits.clone();
    sorted_waits.sort_by(|a, b| a.total_cmp(b));
    let mean_wait = if waits.is_empty() {
        f64::NAN
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    let p95_wait = if sorted_waits.is_empty() {
        f64::NAN
    } else {
        sorted_waits[((sorted_waits.len() as f64 * 0.95) as usize).min(sorted_waits.len() - 1)]
    };

    CapOutcome {
        cap_w,
        peak_power_w: peak,
        p99_power_w: p99,
        mean_power_w: p_sum / steps as f64,
        completed,
        unfinished: waiting.len() + (queue.len() - next) + running.len(),
        mean_wait_s: mean_wait,
        p95_wait_s: p95_wait,
        node_hours: node_seconds / 3600.0,
    }
}

/// Full result.
#[derive(Debug, Clone)]
pub struct PowerAwareResult {
    /// Per-cap outcomes.
    pub outcomes: Vec<CapOutcome>,
}

/// Runs the power-aware scheduling sweep, acquiring the population
/// through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<PowerAwareResult, ExperimentError> {
    ensure_population_scale("power_aware", config.population_scale)?;
    if !(config.dt_s.is_finite() && config.dt_s > 0.0) {
        return Err(ExperimentError::invalid(
            "power_aware",
            format!("dt_s must be a positive tick, got {}", config.dt_s),
        ));
    }
    let _obs = summit_obs::span("summit_core_power_aware");
    let pop = cache.population(&PopulationScenario::paper_year(config.population_scale));
    // Sub-scaled populations under-fill the machine; horizon covers the
    // arrival span plus drain time.
    let horizon = spec::YEAR_S + 48.0 * 3600.0;
    let outcomes = config
        .caps_w
        .iter()
        .map(|&cap| simulate_cap(&pop.rows, cap, config.dt_s, horizon))
        .collect();
    Ok(PowerAwareResult { outcomes })
}

/// Registry adapter for the power-aware scheduling study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "power_aware"
    }

    fn summary(&self) -> &'static str {
        "Extension: power-capped admission — peak shed vs queue wait"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        // `null` encodes "no cap" (infinity) — JSON has no infinity
        // literal.
        let caps: Vec<Json> = if s < 0.5 {
            vec![Json::Null, Json::from(8.0e6)]
        } else {
            vec![
                Json::Null,
                Json::from(10.0e6),
                Json::from(9.0e6),
                Json::from(8.0e6),
                Json::from(7.0e6),
                Json::from(6.0e6),
            ]
        };
        Json::obj([
            ("population_scale", Json::Num(s.max(0.005))),
            ("caps_w", Json::Arr(caps)),
            ("dt_s", Json::Num(if s < 0.5 { 3600.0 } else { 600.0 })),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("power_aware", config)?;
        let config = Config {
            population_scale: cfg.f64("population_scale")?,
            caps_w: cfg.f64_list("caps_w")?,
            dt_s: cfg.f64("dt_s")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl PowerAwareResult {
    /// Renders the cap-sweep table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Power-aware admission: peak shed vs queue wait",
            &[
                "cap",
                "peak",
                "p99",
                "mean",
                "completed",
                "starved",
                "mean wait",
                "p95 wait",
            ],
        );
        let uncapped = self.outcomes.first();
        for o in &self.outcomes {
            t.row(vec![
                if o.cap_w.is_finite() {
                    watts(o.cap_w)
                } else {
                    "none".into()
                },
                watts(o.peak_power_w),
                watts(o.p99_power_w),
                watts(o.mean_power_w),
                o.completed.to_string(),
                o.unfinished.to_string(),
                format!("{:.1} min", o.mean_wait_s / 60.0),
                format!("{:.1} min", o.p95_wait_s / 60.0),
            ]);
        }
        let mut s = t.render();
        if let Some(base) = uncapped {
            // The tightest cap that costs under ten minutes of mean wait.
            if let Some(knee) = self
                .outcomes
                .iter()
                .rfind(|o| o.cap_w.is_finite() && o.mean_wait_s < base.mean_wait_s + 600.0)
            {
                s.push_str(&format!(
                    "\nknee: capping at {} sheds {} of peak for <10 min extra mean wait\n",
                    watts(knee.cap_w),
                    pct(1.0 - knee.peak_power_w / base.peak_power_w),
                ));
            }
        }
        s.push_str(
            "paper conclusion: power-aware scheduling can shrink the peak the cooling\n\
             plant must stand ready for, cutting the overcooling margin\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> PowerAwareResult {
        run(
            &ScenarioCache::new(),
            &Config {
                population_scale: 0.01,
                caps_w: vec![f64::INFINITY, 8.0e6, 5.0e6],
                dt_s: 1800.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn caps_bind_peak_power() {
        let r = result();
        let base = &r.outcomes[0];
        for o in &r.outcomes[1..] {
            assert!(
                o.peak_power_w <= o.cap_w * 1.001,
                "cap {} violated: peak {}",
                o.cap_w,
                o.peak_power_w
            );
            assert!(o.peak_power_w <= base.peak_power_w + 1.0);
        }
    }

    #[test]
    fn tighter_caps_increase_waits() {
        let r = result();
        let wait = |i: usize| r.outcomes[i].mean_wait_s;
        assert!(
            wait(2) >= wait(1) && wait(1) >= wait(0) - 1.0,
            "waits must not shrink as caps tighten: {} {} {}",
            wait(0),
            wait(1),
            wait(2)
        );
    }

    #[test]
    fn throughput_preserved_at_loose_caps() {
        let r = result();
        let base = &r.outcomes[0];
        let loose = &r.outcomes[1];
        assert!(
            loose.completed as f64 >= base.completed as f64 * 0.95,
            "an 8 MW cap should barely cost throughput: {} vs {}",
            loose.completed,
            base.completed
        );
    }

    #[test]
    fn node_hours_accounted() {
        let r = result();
        for o in &r.outcomes {
            assert!(o.node_hours > 0.0);
            assert!(o.completed + o.unfinished > 0);
        }
    }
}
