//! Figure 4: power meter vs per-node sensor summation at scale.
//!
//! The paper compares the summation of per-node 10-second mean input
//! power under each main switchboard against the MSB's own meter:
//! the summation sits ~11 % below the meter (mean difference -128.83 kW
//! across MSBs), oscillations are in phase and of the same magnitude,
//! and the per-MSB difference distributions are tight with subtly
//! different means.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_cabinets, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::report::{pct, watts, Table};
use summit_analysis::correlation::pearson;
use summit_analysis::stats::Summary;
use summit_sim::engine::{Engine, EngineConfig};
use summit_telemetry::ids::Msb;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cabinets simulated (257 = full floor).
    pub cabinets: usize,
    /// Duration of the comparison (s).
    pub duration_s: usize,
    /// Workload: fraction of the floor kept busy to create load swings.
    pub busy_fraction: f64,
}

/// Per-MSB comparison row.
#[derive(Debug, Clone, Copy)]
pub struct MsbRow {
    /// The switchboard.
    pub msb: Msb,
    /// Mean of the 10 s meter readings (W).
    pub mean_meter_w: f64,
    /// Mean of the 10 s sensor summations (W).
    pub mean_summation_w: f64,
    /// Mean difference meter - summation (W).
    pub mean_diff_w: f64,
    /// Std of the difference (W) — tightness of the distribution.
    pub std_diff_w: f64,
    /// Pearson correlation between the two 10 s series — phase agreement.
    pub oscillation_r: f64,
    /// Relative gap (meter - summation) / meter.
    pub relative_gap: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig04Result {
    /// Result rows.
    pub rows: Vec<MsbRow>,
    /// Mean difference across all MSBs (W) — the paper's -128.83 kW
    /// (sign flipped: we report meter - summation).
    pub overall_mean_diff_w: f64,
    /// Overall relative gap — the paper's ~11 %.
    pub overall_gap: f64,
    /// Spread of the per-MSB mean gaps — the "external factor" signal.
    pub gap_spread: f64,
}

/// Runs the Figure 4 validation study.
pub fn run(config: &Config) -> Result<Fig04Result, ExperimentError> {
    ensure_cabinets("fig04", config.cabinets)?;
    if config.duration_s < 10 {
        return Err(ExperimentError::invalid(
            "fig04",
            "duration_s must be at least one 10 s window",
        ));
    }
    if !(0.0..=1.0).contains(&config.busy_fraction) {
        return Err(ExperimentError::invalid(
            "fig04",
            format!(
                "busy_fraction must be in [0, 1], got {}",
                config.busy_fraction
            ),
        ));
    }
    let _obs = summit_obs::span("summit_core_fig04");
    let mut engine = Engine::new(EngineConfig::small(config.cabinets), 0.0);
    let node_count = engine.topology().node_count();

    // A busy background workload so the series oscillates.
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut gen = summit_sim::jobs::JobGenerator::new();
        let busy_nodes = (node_count as f64 * config.busy_fraction) as u32;
        let mut placed = 0u32;
        while placed < busy_nodes {
            let mut job = gen.generate_with_class(&mut rng, 0.0, 5);
            job.record.node_count = job.record.node_count.min(busy_nodes - placed).max(1);
            job.record.end_time = job.record.begin_time + config.duration_s as f64 + 100.0;
            job.profile.oscillation_depth = 0.5;
            job.profile.gpu_intensity = 0.9;
            placed += job.record.node_count;
            engine.scheduler().submit(job);
        }
    }

    // Collect 10 s means of meter and summation per MSB.
    let windows = config.duration_s / 10;
    let mut meter_series: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(windows)).collect();
    let mut sum_series: Vec<Vec<f64>> = (0..5).map(|_| Vec::with_capacity(windows)).collect();
    for _ in 0..windows {
        let mut meter_acc = [0.0f64; 5];
        let mut sum_acc = [0.0f64; 5];
        for out in engine.run(10) {
            for (acc, w) in meter_acc.iter_mut().zip(out.msb_meter_w) {
                *acc += w;
            }
            for (acc, w) in sum_acc.iter_mut().zip(out.msb_sensor_w) {
                *acc += w;
            }
        }
        for m in 0..5 {
            meter_series[m].push(meter_acc[m] / 10.0);
            sum_series[m].push(sum_acc[m] / 10.0);
        }
    }

    let mut rows = Vec::with_capacity(5);
    for (m, msb) in Msb::ALL.into_iter().enumerate() {
        let diffs: Vec<f64> = meter_series[m]
            .iter()
            .zip(&sum_series[m])
            .map(|(a, b)| a - b)
            .collect();
        let Some(s) = Summary::compute(&diffs) else {
            continue;
        };
        let mean_meter = summit_analysis::stats::nanmean(&meter_series[m]);
        let mean_sum = summit_analysis::stats::nanmean(&sum_series[m]);
        rows.push(MsbRow {
            msb,
            mean_meter_w: mean_meter,
            mean_summation_w: mean_sum,
            mean_diff_w: s.mean,
            std_diff_w: s.std,
            oscillation_r: pearson(&meter_series[m], &sum_series[m]),
            relative_gap: (mean_meter - mean_sum) / mean_meter,
        });
    }
    let overall_mean_diff_w = rows.iter().map(|r| r.mean_diff_w).sum::<f64>() / rows.len() as f64;
    let overall_gap = rows.iter().map(|r| r.relative_gap).sum::<f64>() / rows.len() as f64;
    let gaps: Vec<f64> = rows.iter().map(|r| r.relative_gap).collect();
    let gap_spread = summit_analysis::stats::nanmax(&gaps) - summit_analysis::stats::nanmin(&gaps);

    Ok(Fig04Result {
        rows,
        overall_mean_diff_w,
        overall_gap,
        gap_spread,
    })
}

/// Registry adapter for the Figure 4 validation study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig04"
    }

    fn summary(&self) -> &'static str {
        "Validation: MSB power meters vs per-node sensor summation"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("cabinets", Json::Num(((257.0 * s) as usize).max(5) as f64)),
            (
                "duration_s",
                Json::Num(((1800.0 * s) as usize).max(120) as f64),
            ),
            ("busy_fraction", Json::Num(1.0)),
        ])
    }

    fn run(&self, _cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig04", config)?;
        let config = Config {
            cabinets: cfg.usize("cabinets")?,
            duration_s: cfg.usize("duration_s")?,
            busy_fraction: cfg.f64("busy_fraction")?,
        };
        Ok(run(&config)?.render())
    }
}

impl Fig04Result {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 4: power meter vs per-node sensor summation",
            &[
                "MSB",
                "meter mean",
                "summation mean",
                "mean diff",
                "std diff",
                "phase r",
                "gap",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.msb.name().into(),
                watts(r.mean_meter_w),
                watts(r.mean_summation_w),
                watts(r.mean_diff_w),
                watts(r.std_diff_w),
                format!("{:.4}", r.oscillation_r),
                pct(r.relative_gap),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\noverall: mean diff {} ({} of meter); per-MSB gap spread {}\n\
             paper:   summation ~11% under meter; mean diff 128.83 kW; \
             oscillations in phase, same magnitude, tight distributions\n",
            watts(self.overall_mean_diff_w),
            pct(self.overall_gap),
            pct(self.gap_spread),
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn summation_tracks_meter_like_paper() {
        let r = run(&Config {
            cabinets: 10,
            duration_s: 300,
            busy_fraction: 1.0,
        })
        .unwrap();
        assert_eq!(r.rows.len(), 5);
        // ~11 % gap.
        assert!(
            (0.07..0.15).contains(&r.overall_gap),
            "gap {} should be near the paper's 11 %",
            r.overall_gap
        );
        // Meter above summation everywhere.
        for row in &r.rows {
            assert!(row.mean_diff_w > 0.0);
            // Tight distribution: std well under the mean gap.
            assert!(row.std_diff_w < row.mean_diff_w);
            // In-phase oscillation.
            assert!(
                row.oscillation_r > 0.95,
                "phase r {} too low for {:?}",
                row.oscillation_r,
                row.msb
            );
        }
        // Per-MSB means differ subtly (the external factor).
        assert!(r.gap_spread > 0.003, "gap spread {}", r.gap_spread);
    }
}
