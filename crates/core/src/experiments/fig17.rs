//! Figure 17: GPU power/temperature variability during a full-machine
//! compute-intense job (the BerkeleyGW-like exemplar), with floor
//! heatmaps.
//!
//! Paper anchors: a 4,608-node, ~21.5-minute job at near-full GPU
//! utilization; the system transitions between near-idle and maximum
//! capacity in under half a minute; temperature follows power within
//! seconds; GPU core temperature depends on power monotonically and
//! near-linearly, but at near-identical power the non-outlier temperature
//! spread is 15.8 °C against a 62 W power spread (manufacturing +
//! cooling-position variation); the vast majority of GPUs stay under
//! 60 °C; heat spreads evenly across the floor with slight spatial
//! locality; one cabinet has no telemetry (bright green).

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_cabinets, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::report::{heatmap, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use summit_analysis::correlation::pearson;
use summit_analysis::stats::BoxStats;
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_sim::failures::CabinetOutage;
use summit_sim::jobs::JobGenerator;
use summit_sim::topology::CABINETS_PER_ROW;
use summit_sim::workload::AppProfile;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::catalog;
use summit_telemetry::ids::{CabinetId, GpuSlot};

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cabinets simulated (257 = full floor, 4,608-node job).
    pub cabinets: usize,
    /// Job duration (s); the paper's exemplar ran ~21.5 minutes.
    pub job_duration_s: f64,
    /// Sampling stride for GPU state (s).
    pub stride_s: f64,
    /// Cabinet with missing telemetry (the bright-green cell), if any.
    pub missing_cabinet: Option<u16>,
    /// Seed.
    pub seed: u64,
}

/// One 10-second sample of the job's GPU population.
#[derive(Debug, Clone)]
pub struct GpuSample {
    /// T.
    pub t: f64,
    /// Power distribution statistics.
    pub power: BoxStats,
    /// Temp.
    pub temp: BoxStats,
    /// Pearson r between per-GPU power and temperature.
    pub power_temp_r: f64,
}

/// Cabinet heatmap at one instant.
#[derive(Debug, Clone)]
pub struct FloorSnapshot {
    /// T.
    pub t: f64,
    /// Per-cabinet mean GPU temperature (NaN = missing/not involved).
    pub mean_grid: Vec<Vec<f64>>,
    /// Per-cabinet max GPU temperature.
    pub max_grid: Vec<Vec<f64>>,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Per-GPU (power W, core temp C) pairs at the peak-load instant —
    /// the figure's second-row scatter.
    pub peak_scatter: Vec<(f32, f32)>,
    /// Nodes the exemplar job ran on.
    pub job_nodes: u32,
    /// Per-sample results.
    pub samples: Vec<GpuSample>,
    /// Floor snapshots at the selected instants.
    pub snapshots: Vec<FloorSnapshot>,
    /// Non-outlier spreads at the peak-load instant.
    pub peak_power_spread_w: f64,
    /// Non-outlier per-GPU temperature spread at peak (C).
    pub peak_temp_spread_c: f64,
    /// Fraction of GPUs over 60 °C at peak.
    pub frac_over_60c: f64,
    /// Seconds from job start until cluster power reached 90 % of its
    /// plateau (paper: "less than half a minute").
    pub transition_s: f64,
    /// Count of cabinets with no telemetry during the job.
    pub missing_cabinets: usize,
}

/// Runs the Figure 17 study.
pub fn run(config: &Config) -> Result<Fig17Result, ExperimentError> {
    ensure_cabinets("fig17", config.cabinets)?;
    for (key, v) in [
        ("job_duration_s", config.job_duration_s),
        ("stride_s", config.stride_s),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(ExperimentError::invalid(
                "fig17",
                format!("`{key}` must be a positive duration, got {v}"),
            ));
        }
    }
    // GPU state is sampled every whole number of 1 s ticks.
    if config.stride_s < 1.0 {
        return Err(ExperimentError::invalid(
            "fig17",
            format!("`stride_s` must be at least 1 s, got {}", config.stride_s),
        ));
    }
    let _obs = summit_obs::span("summit_core_fig17");
    let mut engine_cfg = EngineConfig::small(config.cabinets);
    engine_cfg.seed = config.seed;
    engine_cfg
        .cabinet_outages
        .extend(config.missing_cabinet.map(|c| CabinetOutage {
            cabinet: CabinetId(c),
            start_s: f64::NEG_INFINITY,
            end_s: f64::INFINITY,
        }));
    let mut engine = Engine::new(engine_cfg, 0.0);
    let node_count = engine.topology().node_count();
    let job_nodes = (node_count as u32).min(summit_sim::spec::MAX_JOB_NODES);

    // The exemplar job: near-full GPU utilization, tiny variability.
    let job_start = 120.0;
    {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut gen = JobGenerator::new();
        let mut job = gen.generate_with_class(&mut rng, job_start, 5);
        job.record.node_count = job_nodes;
        job.record.class = summit_sim::spec::class_of_node_count(job_nodes);
        job.record.end_time = job_start + config.job_duration_s;
        job.profile = AppProfile::gpu_steady();
        engine.scheduler().submit(job);
    }

    let run_s = job_start + config.job_duration_s + 180.0;
    let n_ticks = run_s as usize;
    let stride = config.stride_s as usize;
    let topo = engine.topology().clone();

    let mut samples = Vec::new();
    let mut raw_samples: Vec<(f64, Vec<f32>, Vec<f32>)> = Vec::new();
    let mut power_series = Vec::with_capacity(n_ticks);
    let mut batch = FrameBatch::new();
    for tick in 0..n_ticks {
        let want_gpu = tick % stride == 0;
        let out = engine.step_batch(&StepOptions { frames: want_gpu }, &mut batch);
        power_series.push(out.true_compute_power_w);
        if want_gpu {
            // Restrict to the job's nodes (the first `job_nodes` ids are
            // allocated first by the free-list scheduler), node-major.
            let (pw, tc) = job_gpu_state(&batch, job_nodes as usize);
            let p: Vec<f64> = pw.iter().map(|&v| v as f64).collect();
            let t: Vec<f64> = tc.iter().map(|&v| v as f64).collect();
            if let (Some(pb), Some(tb)) = (BoxStats::compute(&p), BoxStats::compute(&t)) {
                let pairs: Vec<(f64, f64)> = p
                    .iter()
                    .zip(&t)
                    .filter(|(a, b)| a.is_finite() && b.is_finite())
                    .map(|(&a, &b)| (a, b))
                    .collect();
                let r = pearson(
                    &pairs.iter().map(|v| v.0).collect::<Vec<_>>(),
                    &pairs.iter().map(|v| v.1).collect::<Vec<_>>(),
                );
                samples.push(GpuSample {
                    t: out.t,
                    power: pb,
                    temp: tb,
                    power_temp_r: r,
                });
                raw_samples.push((out.t, pw, tc));
            }
        }
    }

    // Six representative instants across idle -> ramp -> plateau -> end.
    let plateau_t = job_start + config.job_duration_s * 0.5;
    let instants = [
        60.0,
        job_start + 15.0,
        job_start + 60.0,
        plateau_t,
        job_start + config.job_duration_s - 30.0,
        job_start + config.job_duration_s + 120.0,
    ];
    let (rows, cols) = topo.grid_dims();
    let mut snapshots = Vec::new();
    for &ti in &instants {
        let Some((_, pw, tc)) = raw_samples
            .iter()
            .min_by(|a, b| (a.0 - ti).abs().total_cmp(&(b.0 - ti).abs()))
            .cloned()
        else {
            continue;
        };
        let _ = pw;
        let mut mean_grid = vec![vec![f64::NAN; cols]; rows];
        let mut max_grid = vec![vec![f64::NAN; cols]; rows];
        for cab in 0..topo.cabinet_count() {
            let row = cab / CABINETS_PER_ROW;
            let col = cab % CABINETS_PER_ROW;
            let mut w = summit_analysis::stats::Welford::new();
            for node in topo.nodes_in_cabinet(CabinetId(cab as u16)) {
                if node.index() >= job_nodes as usize {
                    continue; // not part of the job: grey cell
                }
                for s in 0..6 {
                    w.push(tc[node.index() * 6 + s] as f64);
                }
            }
            if w.count() > 0 {
                mean_grid[row][col] = w.mean();
                max_grid[row][col] = w.max();
            }
        }
        snapshots.push(FloorSnapshot {
            t: ti,
            mean_grid,
            max_grid,
        });
    }

    // Peak-instant spreads (NaN/empty if no samples were collected).
    let (peak_power_spread, peak_temp_spread) = samples
        .iter()
        .min_by(|a, b| (a.t - plateau_t).abs().total_cmp(&(b.t - plateau_t).abs()))
        .map_or((f64::NAN, f64::NAN), |s| {
            (s.power.non_outlier_spread(), s.temp.non_outlier_spread())
        });
    let peak_raw = raw_samples
        .iter()
        .min_by(|a, b| (a.0 - plateau_t).abs().total_cmp(&(b.0 - plateau_t).abs()));
    let temps: Vec<f64> = peak_raw
        .map(|raw| {
            raw.2
                .iter()
                .map(|&v| v as f64)
                .filter(|v| v.is_finite())
                .collect()
        })
        .unwrap_or_default();
    let frac_over_60 =
        temps.iter().filter(|&&t| t > 60.0).count() as f64 / temps.len().max(1) as f64;

    // Transition time: from job start to 90 % of the plateau power.
    let idle_p = power_series[60];
    let plateau_p = power_series[plateau_t as usize];
    let target = idle_p + 0.9 * (plateau_p - idle_p);
    let mut transition_s = f64::NAN;
    for (i, &p) in power_series.iter().enumerate().skip(job_start as usize) {
        if p >= target {
            transition_s = i as f64 - job_start;
            break;
        }
    }

    // Missing-cabinet accounting (within the job's floor span).
    let missing = match config.missing_cabinet {
        Some(c) if (c as usize) < topo.cabinet_count() => {
            let first_node = c as usize * 18;
            usize::from(first_node < job_nodes as usize)
        }
        _ => 0,
    };

    let peak_scatter: Vec<(f32, f32)> = peak_raw
        .map(|raw| {
            raw.1
                .iter()
                .zip(&raw.2)
                .filter(|(p, t)| p.is_finite() && t.is_finite())
                .map(|(&p, &t)| (p, t))
                .collect()
        })
        .unwrap_or_default();

    Ok(Fig17Result {
        peak_scatter,
        job_nodes,
        samples,
        snapshots,
        peak_power_spread_w: peak_power_spread,
        peak_temp_spread_c: peak_temp_spread,
        frac_over_60c: frac_over_60,
        transition_s,
        missing_cabinets: missing,
    })
}

/// Per-GPU power and core temperature of the first `nodes` rows of a
/// tick batch, node-major (`node * 6 + slot`).
fn job_gpu_state(batch: &FrameBatch, nodes: usize) -> (Vec<f32>, Vec<f32>) {
    let power = GpuSlot::ALL.map(|g| batch.column(catalog::gpu_power(g)));
    let temp = GpuSlot::ALL.map(|g| batch.column(catalog::gpu_core_temp(g)));
    let mut pw = Vec::with_capacity(nodes * 6);
    let mut tc = Vec::with_capacity(nodes * 6);
    for node in 0..nodes {
        for (p, t) in power.iter().zip(&temp) {
            pw.push(p[node]);
            tc.push(t[node]);
        }
    }
    (pw, tc)
}

/// Registry adapter for the Figure 17 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig17"
    }

    fn summary(&self) -> &'static str {
        "GPU power/thermal variability during one large compute-intense job"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        if s < 0.5 {
            Json::obj([
                ("cabinets", Json::Num(12.0)),
                ("job_duration_s", Json::Num(300.0)),
                ("stride_s", Json::Num(10.0)),
                ("missing_cabinet", Json::Num(5.0)),
                ("seed", Json::Num(2020.0)),
            ])
        } else {
            // Paper scale: the full floor and a ~21.5-minute job.
            Json::obj([
                ("cabinets", Json::Num(257.0)),
                ("job_duration_s", Json::Num(21.5 * 60.0)),
                ("stride_s", Json::Num(10.0)),
                ("missing_cabinet", Json::Num(140.0)),
                ("seed", Json::Num(2020.0)),
            ])
        }
    }

    fn run(&self, _cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig17", config)?;
        let config = Config {
            cabinets: cfg.usize("cabinets")?,
            job_duration_s: cfg.f64("job_duration_s")?,
            stride_s: cfg.f64("stride_s")?,
            missing_cabinet: cfg.opt_u16("missing_cabinet")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(&config)?.render())
    }
}

impl Fig17Result {
    /// Renders the boxplot play-by-play plus the floor heatmaps.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Figure 17: GPU variability during a {}-node compute-intense job",
                self.job_nodes
            ),
            &[
                "t (s)",
                "P med (W)",
                "P q1-q3",
                "T med (C)",
                "T q1-q3",
                "P-T r",
            ],
        );
        // Thin the play-by-play to ~12 rows.
        let step = (self.samples.len() / 12).max(1);
        for s in self.samples.iter().step_by(step) {
            t.row(vec![
                format!("{:.0}", s.t),
                format!("{:.0}", s.power.median),
                format!("{:.0}-{:.0}", s.power.q1, s.power.q3),
                format!("{:.1}", s.temp.median),
                format!("{:.1}-{:.1}", s.temp.q1, s.temp.q3),
                format!("{:.3}", s.power_temp_r),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\npeak non-outlier spreads: power {:.1} W (paper 62 W), temp {:.1} C (paper 15.8 C)\n\
             GPUs over 60 C at peak: {:.2}% (paper: vast majority below 60 C)\n\
             idle->plateau transition: {:.0} s (paper: under half a minute)\n\
             cabinets missing telemetry: {}\n",
            self.peak_power_spread_w,
            self.peak_temp_spread_c,
            self.frac_over_60c * 100.0,
            self.transition_s,
            self.missing_cabinets
        ));
        // Power-temp relation at the peak instant (figure row 2): a 2-D
        // histogram rendered as a density map.
        if self.peak_scatter.len() > 10 {
            let px: Vec<f64> = self.peak_scatter.iter().map(|p| p.0 as f64).collect();
            let py: Vec<f64> = self.peak_scatter.iter().map(|p| p.1 as f64).collect();
            let (x_lo, x_hi) = (
                px.iter().cloned().fold(f64::INFINITY, f64::min),
                px.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1e-6,
            );
            let (y_lo, y_hi) = (
                py.iter().cloned().fold(f64::INFINITY, f64::min),
                py.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1e-6,
            );
            let mut h2 =
                summit_analysis::histogram::Histogram2d::new((x_lo, x_hi), (y_lo, y_hi), 40, 16);
            for (&x, &y) in px.iter().zip(&py) {
                h2.push(x, y);
            }
            out.push_str(&format!(
                "
per-GPU power ({x_lo:.0}-{x_hi:.0} W) vs core temp ({y_lo:.1}-{y_hi:.1} C) at peak:
"
            ));
            let rows: Vec<Vec<f64>> = (0..16)
                .rev()
                .map(|yi| (0..40).map(|xi| h2.cell(xi, yi) as f64).collect())
                .collect();
            out.push_str(&crate::report::heatmap(&rows));
        }
        if let Some(snap) = self.snapshots.iter().find(|s| {
            s.mean_grid
                .iter()
                .flatten()
                .any(|v| v.is_finite() && *v > 30.0)
        }) {
            out.push_str(&format!(
                "\nfloor mean-GPU-temp heatmap at t={:.0}s ('·' = no data):\n",
                snap.t
            ));
            out.push_str(&heatmap(&snap.mean_grid));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig17Result {
        run(&Config {
            cabinets: 20,
            job_duration_s: 420.0,
            stride_s: 10.0,
            missing_cabinet: Some(7),
            seed: 9,
        })
        .unwrap()
    }

    #[test]
    fn power_temp_relation_near_linear() {
        // The paper's own nuance: the relation is monotonic/near-linear
        // across load levels, but at a single peak instant the power
        // spread is only ~62 W while temperature spreads 15.8 C from
        // manufacturing variation — so the instantaneous correlation is
        // positive yet modest.
        let r = result();
        let plateau: Vec<&GpuSample> = r
            .samples
            .iter()
            .filter(|s| s.power.median > 150.0 && s.t > 240.0)
            .collect();
        assert!(!plateau.is_empty());
        for s in &plateau {
            assert!(
                s.power_temp_r > 0.05,
                "power-temp r {} at t={} should stay positive",
                s.power_temp_r,
                s.t
            );
        }
        let mean_r: f64 =
            plateau.iter().map(|s| s.power_temp_r).sum::<f64>() / plateau.len() as f64;
        assert!(mean_r > 0.15, "mean plateau r {mean_r}");
    }

    #[test]
    fn spreads_match_paper_scale() {
        let r = result();
        assert!(
            (20.0..120.0).contains(&r.peak_power_spread_w),
            "power spread {} vs paper 62 W",
            r.peak_power_spread_w
        );
        assert!(
            (5.0..25.0).contains(&r.peak_temp_spread_c),
            "temp spread {} vs paper 15.8 C",
            r.peak_temp_spread_c
        );
    }

    #[test]
    fn fast_transition_and_cool_gpus() {
        let r = result();
        assert!(
            r.transition_s < 45.0,
            "idle->plateau in under half a minute, got {}",
            r.transition_s
        );
        assert!(
            r.frac_over_60c < 0.05,
            "vast majority under 60 C, got {}",
            r.frac_over_60c
        );
    }

    #[test]
    fn heatmaps_have_missing_cell() {
        let r = result();
        assert_eq!(r.missing_cabinets, 1);
        let snap = r.snapshots.iter().find(|s| s.t > 200.0).unwrap();
        let nan_cells = snap
            .mean_grid
            .iter()
            .flatten()
            .filter(|v| !v.is_finite())
            .count();
        assert!(nan_cells >= 1, "the missing cabinet must render as no-data");
        let finite_cells = snap
            .mean_grid
            .iter()
            .flatten()
            .filter(|v| v.is_finite())
            .count();
        assert!(finite_cells >= 10, "most cabinets report");
    }

    #[test]
    fn temperature_follows_power_in_time() {
        let r = result();
        let med_p: Vec<f64> = r.samples.iter().map(|s| s.power.median).collect();
        let med_t: Vec<f64> = r.samples.iter().map(|s| s.temp.median).collect();
        let rr = pearson(&med_p, &med_t);
        assert!(
            rr > 0.8,
            "median temp must track median power over time, r={rr}"
        );
    }
}
