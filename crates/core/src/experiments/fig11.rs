//! Figure 11: superimposed time-series snapshots of rising power edges
//! per 1 MW amplitude class, with the PUE response.
//!
//! Paper anchors: edges from 1 to 7 MW detected over the summer; power
//! and PUE are "noticeably symmetric and inversely proportional"; optimal
//! PUE coincides with the largest swings; transitions complete within
//! tens of seconds; behaviour is similar across magnitudes.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_cabinets, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::{run_burst_schedule, summer_t0, Burst, DynamicsRun};
use crate::report::{pct, watts, Table};
use std::sync::Arc;
use summit_analysis::correlation::pearson;
use summit_analysis::edges::{detect_edges, Edge, EdgeKind};
use summit_analysis::snapshot::{superimpose, Superposition};
use summit_sim::engine::EngineConfig;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cabinets simulated (257 = full floor, needed for 7 MW swings).
    pub cabinets: usize,
    /// Target edge amplitudes (MW).
    pub amplitudes_mw: Vec<f64>,
    /// Snapshots (bursts) per amplitude class.
    pub repeats: usize,
    /// Burst plateau duration (s).
    pub burst_duration_s: f64,
    /// Spacing between burst starts (s).
    pub spacing_s: f64,
}

/// Effective above-idle power a burst node contributes (W) — used to size
/// bursts for a target amplitude.
pub const BURST_W_PER_NODE: f64 = 1500.0;

/// Builds the burst schedule and acquires the engine run through
/// `cache`, so Figures 11 and 12 with the same burst config share one
/// engine sweep. Edge detection is cheap and re-derived from the cached
/// run. `config` must have passed [`ensure_bursts`].
pub(crate) fn burst_run(cache: &ScenarioCache, config: &Config) -> (Arc<DynamicsRun>, Vec<Edge>) {
    let run = cache.dynamics(&format!("fig11 bursts {config:?}"), || engine_run(config));
    // Detect edges on the 10 s sensor power series, as the paper does.
    let power10 = run.power_series().downsample_mean(10);
    let min_mw = config
        .amplitudes_mw
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let threshold = (0.45 * min_mw * 1e6).max(1e4);
    let edges = detect_edges(&power10, threshold);
    (run, edges)
}

/// The raw engine sweep behind [`burst_run`].
fn engine_run(config: &Config) -> DynamicsRun {
    let nodes_avail = (config.cabinets * 18) as u32;
    let mut bursts = Vec::new();
    let mut at = 120.0;
    for _ in 0..config.repeats {
        for &mw in &config.amplitudes_mw {
            let nodes = ((mw * 1e6 / BURST_W_PER_NODE) as u32).clamp(1, nodes_avail);
            bursts.push(Burst {
                at_s: at,
                nodes,
                duration_s: config.burst_duration_s,
                gpu_intensity: 0.95,
            });
            at += config.spacing_s;
        }
    }
    let duration = at + 300.0;
    run_burst_schedule(
        EngineConfig::small(config.cabinets),
        summer_t0(),
        duration,
        &bursts,
    )
}

/// One amplitude class summary.
#[derive(Debug, Clone)]
pub struct AmplitudeClass {
    /// Target amplitude (MW).
    pub amplitude_mw: f64,
    /// Rising-edge snapshots superimposed.
    pub snapshot_count: usize,
    /// Power superposition around the edges.
    pub power: Superposition,
    /// PUE superposition around the edges.
    pub pue: Superposition,
    /// Pearson correlation between the mean power and mean PUE envelopes
    /// (paper: strongly negative — inversely proportional).
    pub power_pue_r: f64,
    /// Power rise achieved within 60 s of the edge (W).
    pub rise_in_60s_w: f64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Per-class results.
    pub classes: Vec<AmplitudeClass>,
    /// PUE at the highest load vs at the baseline (paper: best PUE at
    /// the largest swings).
    pub pue_at_peak: f64,
    /// PUE at the pre-edge baseline.
    pub pue_at_baseline: f64,
}

/// Runs the Figure 11 study, acquiring the engine run through `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig11Result, ExperimentError> {
    ensure_bursts("fig11", config)?;
    let _obs = summit_obs::span("summit_core_fig11");
    let (run, edges) = burst_run(cache, config);
    let power10 = run.power_series().downsample_mean(10);
    let pue10 = run.pue_series().downsample_mean(10);

    let rising: Vec<&Edge> = edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Rising)
        .collect();

    let mut classes = Vec::new();
    for &mw in &config.amplitudes_mw {
        // Edges whose amplitude is closest to this class.
        let in_class: Vec<f64> = rising
            .iter()
            .filter(|e| {
                let best = config
                    .amplitudes_mw
                    .iter()
                    .min_by(|a, b| {
                        (*a * 1e6 - e.amplitude())
                            .abs()
                            .total_cmp(&(*b * 1e6 - e.amplitude()).abs())
                    })
                    .copied()
                    .unwrap_or(mw);
                (best - mw).abs() < 1e-9
            })
            .map(|e| e.start_time)
            .collect();
        if in_class.is_empty() {
            continue;
        }
        let power = superimpose(&power10, &in_class, 60.0, 240.0, 0.95);
        let pue = superimpose(&pue10, &in_class, 60.0, 240.0, 0.95);
        let valid: Vec<(f64, f64)> = power
            .mean
            .iter()
            .zip(&pue.mean)
            .filter(|(p, q)| p.is_finite() && q.is_finite())
            .map(|(&p, &q)| (p, q))
            .collect();
        let r = pearson(
            &valid.iter().map(|v| v.0).collect::<Vec<_>>(),
            &valid.iter().map(|v| v.1).collect::<Vec<_>>(),
        );
        let rise = power.mean_at(60.0) - power.mean_at(-30.0);
        classes.push(AmplitudeClass {
            amplitude_mw: mw,
            snapshot_count: in_class.len(),
            power,
            pue,
            power_pue_r: r,
            rise_in_60s_w: rise,
        });
    }

    // PUE vs load anchors from the largest class.
    let (pue_at_peak, pue_at_baseline) = classes
        .last()
        .map(|c| (c.pue.mean_at(120.0), c.pue.mean_at(-40.0)))
        .unwrap_or((f64::NAN, f64::NAN));

    Ok(Fig11Result {
        classes,
        pue_at_peak,
        pue_at_baseline,
    })
}

/// The default burst schedule at `scale`, as JSON (shared with the
/// Figure 12 registry adapter so the two studies hit the same cached
/// engine run).
pub(crate) fn default_burst_json(scale: f64) -> Json {
    let s = clamp_scale(scale);
    if s < 0.5 {
        // 12 cabinets = 216 nodes, enough for ~0.3 MW swings in seconds.
        Json::obj([
            ("cabinets", Json::Num(((257.0 * s) as usize).max(12) as f64)),
            (
                "amplitudes_mw",
                Json::Arr(vec![Json::from(0.15), Json::from(0.3)]),
            ),
            ("repeats", Json::Num(2.0)),
            ("burst_duration_s", Json::Num(120.0)),
            ("spacing_s", Json::Num(420.0)),
        ])
    } else {
        // Paper scale: the full floor, 1-7 MW edges.
        Json::obj([
            ("cabinets", Json::Num(257.0)),
            (
                "amplitudes_mw",
                Json::nums([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            ),
            ("repeats", Json::Num(3.0)),
            ("burst_duration_s", Json::Num(180.0)),
            ("spacing_s", Json::Num(600.0)),
        ])
    }
}

/// Decodes a burst [`Config`] from a JSON config object (shared with
/// the Figure 12 registry adapter).
pub(crate) fn burst_config_from(cfg: &Cfg<'_>) -> Result<Config, ExperimentError> {
    Ok(Config {
        cabinets: cfg.usize("cabinets")?,
        amplitudes_mw: cfg.f64_list("amplitudes_mw")?,
        repeats: cfg.usize("repeats")?,
        burst_duration_s: cfg.f64("burst_duration_s")?,
        spacing_s: cfg.f64("spacing_s")?,
    })
}

/// Validates a burst [`Config`] (shared with Figure 12).
pub(crate) fn ensure_bursts(name: &'static str, config: &Config) -> Result<(), ExperimentError> {
    ensure_cabinets(name, config.cabinets)?;
    if config.repeats == 0 {
        return Err(ExperimentError::invalid(name, "repeats must be positive"));
    }
    if config.amplitudes_mw.is_empty()
        || config
            .amplitudes_mw
            .iter()
            .any(|&m| !(m.is_finite() && m > 0.0))
    {
        return Err(ExperimentError::invalid(
            name,
            "amplitudes_mw must be a non-empty list of positive MW values",
        ));
    }
    for (key, v) in [
        ("burst_duration_s", config.burst_duration_s),
        ("spacing_s", config.spacing_s),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(ExperimentError::invalid(
                name,
                format!("`{key}` must be a positive duration, got {v}"),
            ));
        }
    }
    // A burst lasts at least one 1 s tick; a shorter one rounds away
    // against the burst's start time.
    if config.burst_duration_s < 1.0 {
        return Err(ExperimentError::invalid(
            name,
            format!(
                "`burst_duration_s` must be at least 1 s, got {}",
                config.burst_duration_s
            ),
        ));
    }
    Ok(())
}

/// Registry adapter for the Figure 11 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn summary(&self) -> &'static str {
        "Superimposed rising power edges per amplitude class with PUE response"
    }

    fn default_config(&self, scale: f64) -> Json {
        default_burst_json(scale)
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let config = burst_config_from(&Cfg::new("fig11", config)?)?;
        Ok(run(cache, &config)?.render())
    }
}

impl Fig11Result {
    /// Renders the per-amplitude summary (the "NMW - count" panels).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 11: rising-edge snapshots per amplitude class",
            &[
                "class",
                "snapshots",
                "rise in 60 s",
                "power-PUE r",
                "PUE dip",
            ],
        );
        for c in &self.classes {
            let dip = c.pue.mean_at(-40.0) - c.pue.mean_at(120.0);
            t.row(vec![
                format!("{:.0} MW", c.amplitude_mw),
                c.snapshot_count.to_string(),
                watts(c.rise_in_60s_w),
                format!("{:.3}", c.power_pue_r),
                format!("{:.3}", dip),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "\nPUE at peak load {:.3} vs baseline {:.3} ({} better)\n\
             paper: PUE symmetric & inversely proportional to power; optimal PUE at the \
             largest (7 MW) swings; similar patterns across magnitudes\n",
            self.pue_at_peak,
            self.pue_at_baseline,
            pct((self.pue_at_baseline - self.pue_at_peak) / self.pue_at_baseline.max(1e-9)),
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig11Result {
        run(
            &ScenarioCache::new(),
            &Config {
                cabinets: 24, // 432 nodes -> up to ~0.6 MW swings
                amplitudes_mw: vec![0.2, 0.4, 0.6],
                repeats: 2,
                burst_duration_s: 120.0,
                spacing_s: 420.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn detects_all_amplitude_classes() {
        let r = result();
        assert!(
            r.classes.len() >= 2,
            "expected at least two amplitude classes, got {}",
            r.classes.len()
        );
        for c in &r.classes {
            assert!(c.snapshot_count >= 1);
            assert!(c.rise_in_60s_w > 0.0, "power must rise after a rising edge");
        }
    }

    #[test]
    fn pue_inversely_proportional_to_power() {
        let r = result();
        for c in &r.classes {
            assert!(
                c.power_pue_r < -0.5,
                "amplitude {} MW: power-PUE correlation {} should be strongly negative",
                c.amplitude_mw,
                c.power_pue_r
            );
        }
        assert!(
            r.pue_at_peak < r.pue_at_baseline,
            "PUE at peak ({}) must beat baseline ({})",
            r.pue_at_peak,
            r.pue_at_baseline
        );
    }

    #[test]
    fn larger_amplitudes_rise_more() {
        let r = result();
        if r.classes.len() >= 2 {
            let first = r.classes.first().unwrap();
            let last = r.classes.last().unwrap();
            assert!(
                last.rise_in_60s_w > first.rise_in_60s_w,
                "bigger class should swing harder: {} vs {}",
                last.rise_in_60s_w,
                first.rise_in_60s_w
            );
        }
    }
}
