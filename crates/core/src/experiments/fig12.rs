//! Figure 12: component temperatures and cooling-system response around
//! rising and falling power edges.
//!
//! Paper anchors: GPU temperatures tightly follow the power envelope
//! (maximums keep rising after a large edge); CPU temperatures stay
//! comparatively fixed; the MTW return temperature and tons of
//! refrigeration respond with a ~1 minute delay; attenuation after a
//! falling edge is much slower than the ramp after a rising edge; PUE
//! stays inversely proportional with oscillations after large falls.

use crate::cache::ScenarioCache;
use crate::experiments::fig11::{self, burst_run, Config as BurstConfig};
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::json::Json;
use crate::report::Table;
use summit_analysis::edges::EdgeKind;
use summit_analysis::snapshot::{superimpose_paper_window, Superposition};

/// Experiment configuration (delegates burst staging to Figure 11's).
#[derive(Debug, Clone)]
pub struct Config {
    /// Burst staging configuration (shared with Figure 11).
    pub burst: BurstConfig,
}

/// Superpositions of every observable around one edge kind.
#[derive(Debug, Clone)]
pub struct ResponsePanel {
    /// Event/error kind.
    pub kind: EdgeKind,
    /// Snapshots superimposed.
    pub snapshot_count: usize,
    /// Power distribution statistics.
    pub power: Superposition,
    /// PUE distribution statistics.
    pub pue: Superposition,
    /// Cluster mean GPU temperature superposition.
    pub gpu_temp_mean: Superposition,
    /// Cluster max GPU temperature superposition.
    pub gpu_temp_max: Superposition,
    /// Cluster mean CPU temperature superposition.
    pub cpu_temp_mean: Superposition,
    /// MTW return temperature superposition.
    pub mtw_return: Superposition,
    /// MTW supply temperature superposition.
    pub mtw_supply: Superposition,
    /// Total cooling superposition (tons).
    pub cooling_tons: Superposition,
    /// Chiller cooling superposition (tons).
    pub chiller_tons: Superposition,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Superpositions around rising edges.
    pub rising: ResponsePanel,
    /// Superpositions around falling edges.
    pub falling: ResponsePanel,
    /// Seconds until the cooling tonnage reached half its eventual
    /// increase after a rising edge (paper: "roughly one minute delay").
    pub cooling_half_response_s: f64,
    /// GPU mean-temp swing vs CPU mean-temp swing over the rising window
    /// (paper: GPUs respond tightly, CPUs stay relatively fixed).
    pub gpu_swing_c: f64,
    /// CPU mean-temperature swing over the rising window (C).
    pub cpu_swing_c: f64,
}

fn panel(run: &crate::pipeline::DynamicsRun, times: &[f64], kind: EdgeKind) -> ResponsePanel {
    let sup = |series: summit_analysis::series::Series| {
        superimpose_paper_window(&series.downsample_mean(10), times)
    };
    ResponsePanel {
        kind,
        snapshot_count: times.len(),
        power: sup(run.power_series()),
        pue: sup(run.pue_series()),
        gpu_temp_mean: sup(run.gpu_temp_mean_series()),
        gpu_temp_max: sup(run.gpu_temp_max_series()),
        cpu_temp_mean: sup(run.cpu_temp_mean_series()),
        mtw_return: sup(run.mtw_return_series()),
        mtw_supply: sup(run.mtw_supply_series()),
        cooling_tons: sup(run.tower_tons_series().add(&run.chiller_tons_series())),
        chiller_tons: sup(run.chiller_tons_series()),
    }
}

/// Runs the Figure 12 study, acquiring the engine run through `cache`
/// (the same cached run Figure 11 uses for an identical burst config).
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig12Result, ExperimentError> {
    fig11::ensure_bursts("fig12", &config.burst)?;
    let _obs = summit_obs::span("summit_core_fig12");
    let (run, edges) = burst_run(cache, &config.burst);
    let rising_times: Vec<f64> = edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Rising)
        .map(|e| e.start_time)
        .collect();
    let falling_times: Vec<f64> = edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Falling)
        .map(|e| e.start_time)
        .collect();

    let rising = panel(&run, &rising_times, EdgeKind::Rising);
    let falling = panel(&run, &falling_times, EdgeKind::Falling);

    // Cooling half-response time after rising edges.
    let base = rising.cooling_tons.mean_at(-30.0);
    let final_level = rising.cooling_tons.mean_at(230.0);
    let half = base + 0.5 * (final_level - base);
    let mut half_t = f64::NAN;
    for (i, &t) in rising.cooling_tons.offsets_s.iter().enumerate() {
        if t >= 0.0 && rising.cooling_tons.mean[i] >= half && (final_level > base) {
            half_t = t;
            break;
        }
    }

    // Swing measured at the in-burst peak: the paper notes GPU maximums
    // keep rising after the edge while the burst holds.
    let gpu_swing = rising.gpu_temp_mean.peak_in(0.0, 235.0) - rising.gpu_temp_mean.mean_at(-30.0);
    let cpu_swing = rising.cpu_temp_mean.peak_in(0.0, 235.0) - rising.cpu_temp_mean.mean_at(-30.0);

    Ok(Fig12Result {
        rising,
        falling,
        cooling_half_response_s: half_t,
        gpu_swing_c: gpu_swing,
        cpu_swing_c: cpu_swing,
    })
}

/// Registry adapter for the Figure 12 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn summary(&self) -> &'static str {
        "Thermal and cooling response around rising/falling power edges"
    }

    fn default_config(&self, scale: f64) -> Json {
        // Reuses Figure 11's burst schedule so a suite run shares one
        // cached engine sweep between the two studies.
        Json::obj([("burst", fig11::default_burst_json(scale))])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        Cfg::new("fig12", config)?;
        let burst_json = config
            .get("burst")
            .ok_or_else(|| ExperimentError::invalid("fig12", "missing `burst` config object"))?;
        let config = Config {
            burst: fig11::burst_config_from(&Cfg::new("fig12", burst_json)?)?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig12Result {
    /// Renders the thermal-response summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 12: thermal response around rising/falling edges",
            &[
                "observable",
                "rising: -30s",
                "rising: +180s",
                "falling: -30s",
                "falling: +180s",
            ],
        );
        let mut row = |name: &str, r: &Superposition, f: &Superposition, unit: &str| {
            t.row(vec![
                name.into(),
                format!("{:.2}{unit}", r.mean_at(-30.0)),
                format!("{:.2}{unit}", r.mean_at(180.0)),
                format!("{:.2}{unit}", f.mean_at(-30.0)),
                format!("{:.2}{unit}", f.mean_at(180.0)),
            ]);
        };
        row(
            "power (MW)",
            &scale(&self.rising.power, 1e-6),
            &scale(&self.falling.power, 1e-6),
            "",
        );
        row("PUE", &self.rising.pue, &self.falling.pue, "");
        row(
            "GPU temp mean (C)",
            &self.rising.gpu_temp_mean,
            &self.falling.gpu_temp_mean,
            "",
        );
        row(
            "GPU temp max (C)",
            &self.rising.gpu_temp_max,
            &self.falling.gpu_temp_max,
            "",
        );
        row(
            "CPU temp mean (C)",
            &self.rising.cpu_temp_mean,
            &self.falling.cpu_temp_mean,
            "",
        );
        row(
            "MTW return (C)",
            &self.rising.mtw_return,
            &self.falling.mtw_return,
            "",
        );
        row(
            "cooling (tons)",
            &self.rising.cooling_tons,
            &self.falling.cooling_tons,
            "",
        );
        row(
            "chiller (tons)",
            &self.rising.chiller_tons,
            &self.falling.chiller_tons,
            "",
        );
        let mut s = t.render();
        s.push_str(&format!(
            "\nsnapshots: {} rising, {} falling\n\
             cooling half-response after rising edge: {:.0} s (paper: ~1 minute)\n\
             GPU mean-temp swing {:.2} C vs CPU {:.2} C (paper: GPUs tight, CPUs fixed)\n",
            self.rising.snapshot_count,
            self.falling.snapshot_count,
            self.cooling_half_response_s,
            self.gpu_swing_c,
            self.cpu_swing_c
        ));
        s
    }
}

fn scale(sp: &Superposition, k: f64) -> Superposition {
    Superposition {
        offsets_s: sp.offsets_s.clone(),
        mean: sp.mean.iter().map(|v| v * k).collect(),
        ci_lo: sp.ci_lo.iter().map(|v| v * k).collect(),
        ci_hi: sp.ci_hi.iter().map(|v| v * k).collect(),
        support: sp.support.clone(),
        snapshot_count: sp.snapshot_count,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn result() -> Fig12Result {
        run(
            &ScenarioCache::new(),
            &Config {
                burst: BurstConfig {
                    cabinets: 24,
                    amplitudes_mw: vec![0.3, 0.55],
                    repeats: 2,
                    burst_duration_s: 150.0,
                    spacing_s: 480.0,
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn gpu_responds_cpu_stays_fixed() {
        let r = result();
        assert!(
            r.gpu_swing_c > 2.0,
            "GPU mean temp must follow the power envelope, swing {}",
            r.gpu_swing_c
        );
        assert!(
            r.gpu_swing_c > 2.0 * r.cpu_swing_c.abs(),
            "paper: CPU temps comparatively fixed (gpu {} vs cpu {})",
            r.gpu_swing_c,
            r.cpu_swing_c
        );
    }

    #[test]
    fn cooling_lags_about_a_minute() {
        let r = result();
        assert!(
            r.cooling_half_response_s.is_finite(),
            "cooling must respond after rising edges"
        );
        assert!(
            (20.0..240.0).contains(&r.cooling_half_response_s),
            "half response {} s should be near the paper's ~1 minute",
            r.cooling_half_response_s
        );
    }

    #[test]
    fn mtw_return_rises_with_load() {
        let r = result();
        let rise = r.rising.mtw_return.mean_at(200.0) - r.rising.mtw_return.mean_at(-30.0);
        assert!(
            rise > 0.0,
            "return water must warm after a rising edge: {rise}"
        );
    }

    #[test]
    fn falling_attenuation_slower_than_rise() {
        let r = result();
        // Progress of cooling tonnage 120 s after the edge, normalized by
        // the eventual change, rising vs falling.
        let prog = |p: &Superposition| {
            let a = p.mean_at(-30.0);
            let b = p.mean_at(230.0);
            if (b - a).abs() < 1e-9 {
                return f64::NAN;
            }
            (p.mean_at(120.0) - a) / (b - a)
        };
        let up = prog(&r.rising.cooling_tons);
        let down = prog(&r.falling.cooling_tons);
        if up.is_finite() && down.is_finite() {
            assert!(
                up >= down - 0.1,
                "staging up ({up}) should not lag destaging ({down})"
            );
        }
    }

    #[test]
    fn both_edge_kinds_captured() {
        let r = result();
        assert!(r.rising.snapshot_count >= 2);
        assert!(r.falling.snapshot_count >= 2);
    }
}
