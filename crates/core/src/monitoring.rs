//! Near-real-time operations console.
//!
//! The paper's telemetry system exists to support MTW operations: data is
//! "processed, summarized, and rendered to engineers in near real-time",
//! cross-checking MTW supply/return and flow against component-wise
//! temperature histograms (Section 2). This module is that product for
//! the digital twin: feed it engine ticks, get a live dashboard and an
//! alert stream.

use crate::report::{pct, sparkline, watts, Table};
use std::collections::{BTreeMap, VecDeque};
use summit_analysis::edges::{OnlineEdgeDetector, EDGE_THRESHOLD_W_PER_NODE};
use summit_analysis::rolling::{RollingSketch, RollingStats};
use summit_analysis::stats::Welford;
use summit_sim::engine::TickOutput;
use summit_telemetry::stream::IngestStats;
use summit_telemetry::window::{NodeWindow, PAPER_WINDOW_S};

/// Alert kinds the console raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A GPU crossed the hot threshold.
    GpuOverTemp,
    /// PUE exceeded the alarm level.
    PueHigh,
    /// Cluster power ramped faster than the swing threshold (the violent
    /// MW-scale transitions of Section 4.2).
    PowerSwing,
    /// Sensor summation diverged from true power beyond tolerance
    /// (telemetry path degradation).
    TelemetryDivergence,
    /// MTW return temperature left the design band.
    MtwReturnOutOfBand,
    /// The ingest path dropped more than the allowed fraction of frames
    /// (late arrivals, wrong-node routing, invalid timestamps).
    IngestDegraded,
}

/// One raised alert. Consecutive alerts of the same kind within the
/// cool-down window coalesce into a single entry with a repeat count,
/// so a sustained condition (a GPU hot for ten minutes at 1 Hz) shows
/// as one alert x600 instead of flooding the console.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Event/error kind.
    pub kind: AlertKind,
    /// Simulation time of the most recent coalesced occurrence (s).
    pub t: f64,
    /// Human-readable detail (of the most recent occurrence).
    pub detail: String,
    /// Occurrences coalesced into this alert (1 = no repeats).
    pub repeat: u32,
}

/// Alert thresholds.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Hot-GPU threshold (°C).
    pub gpu_hot_c: f64,
    /// PUE alarm level.
    pub pue_alarm: f64,
    /// Power swing alarm (W per minute).
    pub swing_w_per_min: f64,
    /// Allowed relative gap between sensor summation and expectation.
    pub telemetry_gap: f64,
    /// MTW return band (°C).
    pub mtw_return_band_c: (f64, f64),
    /// Allowed fraction of offered frames the ingest path may drop
    /// before the console flags telemetry degradation.
    pub ingest_fault_fraction: f64,
    /// Cool-down window (s): a new alert of the same kind arriving
    /// within this long of the previous one coalesces into it instead
    /// of appending a fresh entry.
    pub alert_cooldown_s: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            gpu_hot_c: 63.0,
            pue_alarm: 1.35,
            swing_w_per_min: 2.0e6,
            telemetry_gap: 0.08,
            mtw_return_band_c: (
                summit_sim::spec::MTW_RETURN_MIN_C - 4.0,
                summit_sim::spec::MTW_RETURN_MAX_C,
            ),
            ingest_fault_fraction: 0.05,
            alert_cooldown_s: 60.0,
        }
    }
}

/// The console state.
pub struct OpsConsole {
    thresholds: Thresholds,
    power: VecDeque<f64>,
    pue: VecDeque<f64>,
    gpu_max: VecDeque<f64>,
    mtw_return: VecDeque<f64>,
    last: Option<TickOutput>,
    last_minute_power: VecDeque<(f64, f64)>,
    alerts: Vec<Alert>,
    ticks_seen: u64,
    // Live view over the closed-window stream (streaming pipeline).
    win_open: BTreeMap<i64, Welford>,
    win_watermark: f64,
    win_folded_through: Option<i64>,
    win_next_start: f64,
    win_edges: Option<OnlineEdgeDetector>,
    win_power: RollingStats,
    win_sketch: RollingSketch,
    win_spark: VecDeque<f64>,
    win_last: Option<(f64, f64)>,
    windows_seen: u64,
    win_late_folds: u64,
}

/// Samples of each signal the console keeps: five minutes at 1 Hz.
const HISTORY: usize = 300;

impl OpsConsole {
    /// Creates a console with the given alert thresholds, keeping five
    /// minutes of 1 Hz samples of each signal.
    pub fn new(thresholds: Thresholds) -> Self {
        Self {
            thresholds,
            power: VecDeque::with_capacity(HISTORY),
            pue: VecDeque::with_capacity(HISTORY),
            gpu_max: VecDeque::with_capacity(HISTORY),
            mtw_return: VecDeque::with_capacity(HISTORY),
            last: None,
            last_minute_power: VecDeque::new(),
            alerts: Vec::new(),
            ticks_seen: 0,
            win_open: BTreeMap::new(),
            win_watermark: f64::NEG_INFINITY,
            win_folded_through: None,
            win_next_start: 0.0,
            win_edges: None,
            win_power: RollingStats::new(HISTORY),
            win_sketch: RollingSketch::new(HISTORY),
            win_spark: VecDeque::new(),
            win_last: None,
            windows_seen: 0,
            win_late_folds: 0,
        }
    }

    /// Creates a console with default thresholds.
    pub fn with_defaults() -> Self {
        Self::new(Thresholds::default())
    }

    fn push_capped(dq: &mut VecDeque<f64>, v: f64) {
        dq.push_back(v);
        if dq.len() > HISTORY {
            dq.pop_front();
        }
    }

    /// Raises an alert, coalescing with the previous one when it has
    /// the same kind and falls within the cool-down window. The window
    /// slides: each coalesced occurrence refreshes the alert's time, so
    /// a sustained condition stays a single entry however long it lasts.
    fn raise(&mut self, kind: AlertKind, t: f64, detail: String) {
        summit_obs::counter("summit_core_alerts_total").inc();
        if let Some(last) = self.alerts.last_mut() {
            if last.kind == kind && (t - last.t).abs() <= self.thresholds.alert_cooldown_s {
                last.repeat += 1;
                last.t = t;
                last.detail = detail;
                summit_obs::counter("summit_core_alerts_coalesced_total").inc();
                return;
            }
        }
        self.alerts.push(Alert {
            kind,
            t,
            detail,
            repeat: 1,
        });
    }

    /// Feeds one engine tick; raises any alerts it implies.
    pub fn observe(&mut self, tick: &TickOutput) {
        self.ticks_seen += 1;
        let th = self.thresholds;
        Self::push_capped(&mut self.power, tick.true_compute_power_w);
        Self::push_capped(&mut self.pue, tick.cep.pue());
        Self::push_capped(&mut self.gpu_max, tick.gpu_temp_max_c);
        Self::push_capped(&mut self.mtw_return, tick.cep.mtw_return_c);

        if tick.gpu_temp_max_c.is_finite() && tick.gpu_temp_max_c > th.gpu_hot_c {
            self.raise(
                AlertKind::GpuOverTemp,
                tick.t,
                format!(
                    "max GPU core {:.1} C > {:.1} C",
                    tick.gpu_temp_max_c, th.gpu_hot_c
                ),
            );
        }
        let pue = tick.cep.pue();
        if pue.is_finite() && pue > th.pue_alarm {
            self.raise(
                AlertKind::PueHigh,
                tick.t,
                format!("PUE {pue:.3} > {:.2}", th.pue_alarm),
            );
        }
        // Swing detection over a one-minute window.
        self.last_minute_power
            .push_back((tick.t, tick.true_compute_power_w));
        while let Some(&(t0, _)) = self.last_minute_power.front() {
            if tick.t - t0 > 60.0 {
                self.last_minute_power.pop_front();
            } else {
                break;
            }
        }
        if let (Some(&(t0, p0)), Some(&(t1, p1))) = (
            self.last_minute_power.front(),
            self.last_minute_power.back(),
        ) {
            if t1 > t0 {
                let rate = (p1 - p0).abs() / (t1 - t0) * 60.0;
                if rate > th.swing_w_per_min {
                    self.raise(
                        AlertKind::PowerSwing,
                        tick.t,
                        format!("{} per minute", watts(rate)),
                    );
                    self.last_minute_power.clear(); // one alert per swing
                }
            }
        }
        // Telemetry divergence: sensors read low by design (~2.7 %); a
        // larger gap means dropped cabinets or path failures.
        if tick.true_compute_power_w > 0.0 {
            let gap = (tick.true_compute_power_w - tick.sensor_compute_power_w)
                / tick.true_compute_power_w;
            if gap.abs() > th.telemetry_gap {
                self.raise(
                    AlertKind::TelemetryDivergence,
                    tick.t,
                    format!("sensor summation {} off truth", pct(gap)),
                );
            }
        }
        let ret = tick.cep.mtw_return_c;
        if ret < th.mtw_return_band_c.0 || ret > th.mtw_return_band_c.1 {
            self.raise(
                AlertKind::MtwReturnOutOfBand,
                tick.t,
                format!("MTW return {ret:.1} C outside band"),
            );
        }
        self.last = Some(tick.clone());
    }

    /// Feeds an end-of-run ingest report; raises [`AlertKind::IngestDegraded`]
    /// when the drop fraction exceeds the threshold.
    pub fn observe_ingest(&mut self, stats: &IngestStats) {
        let frac = stats.health.drop_fraction();
        if frac.is_finite() && frac > self.thresholds.ingest_fault_fraction {
            self.raise(
                AlertKind::IngestDegraded,
                stats.t_last,
                format!(
                    "ingest dropped {} of {} frames ({})",
                    stats.health.dropped(),
                    stats.health.offered(),
                    pct(frac)
                ),
            );
        }
    }

    /// Finalizes one cluster window row into the live rolling view:
    /// rolling stats, distribution sketch, sparkline and the online
    /// power-edge detector (NaN-padded over window gaps so edge times
    /// stay aligned).
    fn fold_row(&mut self, key: i64, acc: &Welford) {
        let sum = acc.sum();
        if self.win_edges.is_none() {
            // Paper threshold scaled by the nodes reporting in the
            // first folded window (868 W per node per interval).
            let threshold = (EDGE_THRESHOLD_W_PER_NODE * acc.count() as f64).max(1.0);
            self.win_edges = Some(OnlineEdgeDetector::new(
                key as f64,
                PAPER_WINDOW_S,
                threshold,
            ));
            self.win_next_start = key as f64;
        }
        if let Some(det) = &mut self.win_edges {
            while self.win_next_start + PAPER_WINDOW_S / 2.0 < key as f64 {
                det.push(f64::NAN);
                self.win_next_start += PAPER_WINDOW_S;
            }
            det.push(sum);
            self.win_next_start += PAPER_WINDOW_S;
        }
        self.win_folded_through = Some(key);
        self.win_power.push(sum);
        self.win_sketch.push(sum);
        Self::push_capped(&mut self.win_spark, sum);
        self.win_last = Some((key as f64, sum));
    }

    fn publish_window_gauges(&self) {
        if self.win_watermark.is_finite() {
            summit_obs::gauge("summit_core_live_window_watermark_s").set(self.win_watermark);
        }
        if let Some((_, p)) = self.win_last {
            summit_obs::gauge("summit_core_live_cluster_power_w").set(p);
        }
        if !self.win_sketch.is_empty() {
            summit_obs::gauge("summit_core_live_cluster_power_p99_w")
                .set(self.win_sketch.percentile(0.99));
        }
        if let Some(det) = &self.win_edges {
            summit_obs::gauge("summit_core_live_power_edges").set(det.detected() as f64);
        }
    }

    /// Feeds a batch of closed coarsened windows (the streaming
    /// pipeline's per-drain output). Rows collapse per window start
    /// across nodes; a row folds into the rolling view once the
    /// observed watermark is two windows past it, so slow nodes still
    /// land in the right row. Stragglers arriving after their row
    /// folded are counted, not retrofitted — the authoritative datasets
    /// come from the pipeline output, this view is the live console.
    pub fn observe_windows(&mut self, windows: &[NodeWindow]) {
        for w in windows {
            self.windows_seen += 1;
            summit_obs::counter("summit_core_live_windows_total").inc();
            let start = w.window_start;
            if start > self.win_watermark {
                self.win_watermark = start;
            }
            let s = w.metric(summit_telemetry::catalog::input_power());
            if s.count == 0 {
                continue;
            }
            let key = start.round() as i64;
            if self.win_folded_through.is_some_and(|b| key <= b) {
                self.win_late_folds += 1;
                summit_obs::counter("summit_core_live_window_late_folds_total").inc();
                continue;
            }
            self.win_open.entry(key).or_default().push(s.mean);
        }
        let cutoff = self.win_watermark - 2.0 * PAPER_WINDOW_S;
        while let Some((&key, _)) = self.win_open.first_key_value() {
            if key as f64 > cutoff {
                break;
            }
            if let Some(acc) = self.win_open.remove(&key) {
                self.fold_row(key, &acc);
            }
        }
        self.publish_window_gauges();
    }

    /// Folds every still-open cluster row at end of stream, exactly as
    /// the batch view would close its trailing windows.
    pub fn finish_windows(&mut self) {
        let open = std::mem::take(&mut self.win_open);
        for (key, acc) in open {
            self.fold_row(key, &acc);
        }
        self.publish_window_gauges();
    }

    /// Closed coarsened windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Latest closed-window start observed, if any.
    pub fn window_watermark(&self) -> Option<f64> {
        self.win_watermark.is_finite().then_some(self.win_watermark)
    }

    /// Cluster-power edges detected by the live view so far.
    pub fn live_edges(&self) -> usize {
        self.win_edges.as_ref().map_or(0, |d| d.detected())
    }

    /// Windows that arrived after their cluster row had already folded.
    pub fn window_late_folds(&self) -> u64 {
        self.win_late_folds
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Drains the alert queue.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Ticks observed.
    pub fn ticks_seen(&self) -> u64 {
        self.ticks_seen
    }

    /// Renders the dashboard.
    pub fn render(&self) -> String {
        let Some(last) = &self.last else {
            return "no telemetry yet".into();
        };
        let mut t = Table::new(
            format!("operations console @ t={:.0}s", last.t),
            &["signal", "now", "trend"],
        );
        let spark = |dq: &VecDeque<f64>| {
            let v: Vec<f64> = dq.iter().copied().collect();
            // Thin to at most 40 chars.
            let step = (v.len() / 40).max(1);
            sparkline(&v.iter().step_by(step).copied().collect::<Vec<_>>())
        };
        t.row(vec![
            "compute power".into(),
            watts(last.true_compute_power_w),
            spark(&self.power),
        ]);
        t.row(vec![
            "PUE".into(),
            format!("{:.3}", last.cep.pue()),
            spark(&self.pue),
        ]);
        t.row(vec![
            "max GPU temp".into(),
            format!("{:.1} C", last.gpu_temp_max_c),
            spark(&self.gpu_max),
        ]);
        t.row(vec![
            "MTW return".into(),
            format!("{:.1} C", last.cep.mtw_return_c),
            spark(&self.mtw_return),
        ]);
        t.row(vec![
            "cooling".into(),
            format!(
                "{:.0} tons tower / {:.0} tons chiller",
                last.cep.tower_tons, last.cep.chiller_tons
            ),
            String::new(),
        ]);
        t.row(vec![
            "jobs".into(),
            format!(
                "{} running / {} busy nodes",
                last.running_jobs, last.busy_nodes
            ),
            String::new(),
        ]);
        if self.windows_seen > 0 {
            let now = self.win_last.map_or_else(|| "-".into(), |(_, p)| watts(p));
            t.row(vec!["cluster power (10 s windows)".into(), now, {
                let v: Vec<f64> = self.win_spark.iter().copied().collect();
                let step = (v.len() / 40).max(1);
                sparkline(&v.iter().step_by(step).copied().collect::<Vec<_>>())
            }]);
            let roll = self.win_power.stats();
            t.row(vec![
                "window power (rolling)".into(),
                format!(
                    "mean {} / p99 {}",
                    watts(roll.mean),
                    watts(self.win_sketch.percentile(0.99))
                ),
                String::new(),
            ]);
            let wm = if self.win_watermark.is_finite() {
                format!("watermark t={:.0}s", self.win_watermark)
            } else {
                "no watermark".into()
            };
            t.row(vec![
                "windows".into(),
                format!("{} closed / {wm}", self.windows_seen),
                String::new(),
            ]);
            if let Some(det) = &self.win_edges {
                t.row(vec![
                    "power edges".into(),
                    format!("{} detected / {} tracking", det.detected(), det.tracking()),
                    String::new(),
                ]);
            }
        }
        let mut s = t.render();
        if self.alerts.is_empty() {
            s.push_str("\nno active alerts\n");
        } else {
            s.push_str(&format!("\n{} alerts (latest 5):\n", self.alerts.len()));
            for a in self.alerts.iter().rev().take(5) {
                let rep = if a.repeat > 1 {
                    format!(" (x{})", a.repeat)
                } else {
                    String::new()
                };
                s.push_str(&format!(
                    "  [{:?}] t={:.0}s {}{}\n",
                    a.kind, a.t, a.detail, rep
                ));
            }
        }
        s
    }
}

/// Formats a duration in seconds with an auto-scaled unit.
fn dur(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else {
        format!("{:.1} us", v * 1e6)
    }
}

/// Renders the per-stage timing table (every `<stage>_seconds` span
/// histogram in the snapshot: calls, p50/p99/max, cumulative total)
/// followed by the hot-path throughput gauges when present.
pub fn render_stage_timings(snap: &summit_obs::Snapshot) -> String {
    let mut t = Table::new(
        "pipeline stage timings",
        &["stage", "calls", "p50", "p99", "max", "total"],
    );
    let mut rows = 0;
    for (name, h) in &snap.histograms {
        let Some(stage) = name.strip_suffix("_seconds") else {
            continue;
        };
        let calls = snap
            .counter(&format!("{stage}_calls_total"))
            .unwrap_or(h.count);
        t.row(vec![
            stage.to_string(),
            calls.to_string(),
            dur(h.p50),
            dur(h.p99),
            dur(h.max),
            dur(h.sum),
        ]);
        rows += 1;
    }
    if rows == 0 {
        return "no stage timings recorded\n".into();
    }
    let mut s = t.render();
    for (gauge, label) in [
        ("summit_core_frames_per_wall_second", "frames/s"),
        ("summit_core_windows_per_wall_second", "windows/s"),
        (
            "summit_telemetry_ingest_metrics_per_second",
            "metrics/s (sample time)",
        ),
    ] {
        if let Some(v) = snap.gauge(gauge) {
            if v.is_finite() {
                s.push_str(&format!("  throughput: {v:.0} {label}\n"));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use summit_sim::engine::{Engine, EngineConfig};

    fn tick_with(t: f64, power: f64, sensor: f64, gpu_max: f64, pue_fac: f64) -> TickOutput {
        let mut engine = Engine::new(EngineConfig::small(1), t);
        let mut tick = engine.step();
        tick.t = t;
        tick.true_compute_power_w = power;
        tick.sensor_compute_power_w = sensor;
        tick.gpu_temp_max_c = gpu_max;
        tick.cep.facility_power_w = power * pue_fac;
        tick.cep.it_power_w = power;
        tick
    }

    #[test]
    fn quiet_stream_raises_nothing() {
        let mut console = OpsConsole::with_defaults();
        for i in 0..30 {
            console.observe(&tick_with(i as f64, 1.0e5, 0.973e5, 45.0, 1.1));
        }
        assert!(console.alerts().is_empty(), "{:?}", console.alerts());
        assert_eq!(console.ticks_seen(), 30);
        assert!(console.render().contains("operations console"));
    }

    #[test]
    fn hot_gpu_alert() {
        let mut console = OpsConsole::with_defaults();
        console.observe(&tick_with(0.0, 1e5, 0.97e5, 70.0, 1.1));
        assert!(console
            .alerts()
            .iter()
            .any(|a| a.kind == AlertKind::GpuOverTemp));
    }

    #[test]
    fn pue_alert() {
        let mut console = OpsConsole::with_defaults();
        console.observe(&tick_with(0.0, 1e5, 0.97e5, 40.0, 1.5));
        assert!(console
            .alerts()
            .iter()
            .any(|a| a.kind == AlertKind::PueHigh));
    }

    #[test]
    fn swing_alert_fires_on_fast_ramp() {
        let mut console = OpsConsole::with_defaults();
        for i in 0..10 {
            console.observe(&tick_with(i as f64, 1.0e6, 0.97e6, 40.0, 1.1));
        }
        // +3 MW in ten seconds => 18 MW/min rate.
        for i in 10..20 {
            console.observe(&tick_with(i as f64, 4.0e6, 3.88e6, 40.0, 1.1));
        }
        assert!(console
            .alerts()
            .iter()
            .any(|a| a.kind == AlertKind::PowerSwing));
    }

    #[test]
    fn telemetry_divergence_alert() {
        let mut console = OpsConsole::with_defaults();
        // Sensor reads 20 % low: a dark cabinet.
        console.observe(&tick_with(0.0, 1.0e6, 0.8e6, 40.0, 1.1));
        assert!(console
            .alerts()
            .iter()
            .any(|a| a.kind == AlertKind::TelemetryDivergence));
    }

    #[test]
    fn degraded_ingest_raises_alert() {
        use summit_telemetry::ingest::IngestHealth;
        let mut console = OpsConsole::with_defaults();
        let healthy = IngestStats {
            frames: 100,
            health: IngestHealth {
                accepted: 99,
                late_dropped: 1,
                ..IngestHealth::default()
            },
            ..IngestStats::default()
        };
        console.observe_ingest(&healthy);
        assert!(console.alerts().is_empty(), "{:?}", console.alerts());
        let degraded = IngestStats {
            frames: 100,
            t_last: 600.0,
            health: IngestHealth {
                accepted: 80,
                late_dropped: 15,
                wrong_node: 5,
                ..IngestHealth::default()
            },
            ..IngestStats::default()
        };
        console.observe_ingest(&degraded);
        let alert = console
            .alerts()
            .iter()
            .find(|a| a.kind == AlertKind::IngestDegraded)
            .expect("degraded ingest must alert");
        assert_eq!(alert.t, 600.0);
        assert!(alert.detail.contains("20 of 100"), "{}", alert.detail);
    }

    #[test]
    fn repeated_alerts_coalesce_within_cooldown() {
        let mut console = OpsConsole::with_defaults();
        // A GPU hot for 30 consecutive seconds: one alert, not 30.
        for i in 0..30 {
            console.observe(&tick_with(i as f64, 1.0e5, 0.973e5, 70.0, 1.1));
        }
        let hot: Vec<&Alert> = console
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::GpuOverTemp)
            .collect();
        assert_eq!(hot.len(), 1, "{:?}", console.alerts());
        assert_eq!(hot[0].repeat, 30);
        assert_eq!(hot[0].t, 29.0, "time tracks the latest occurrence");
        assert!(console.render().contains("(x30)"), "{}", console.render());
    }

    #[test]
    fn alerts_past_cooldown_start_fresh() {
        let mut console = OpsConsole::with_defaults();
        console.observe(&tick_with(0.0, 1.0e5, 0.973e5, 70.0, 1.1));
        // Default cool-down is 60 s; 300 s later is a new incident.
        console.observe(&tick_with(300.0, 1.0e5, 0.973e5, 70.0, 1.1));
        let hot: Vec<&Alert> = console
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::GpuOverTemp)
            .collect();
        assert_eq!(hot.len(), 2, "{:?}", console.alerts());
        assert!(hot.iter().all(|a| a.repeat == 1));
    }

    #[test]
    fn stage_timing_table_renders_spans() {
        let r = summit_obs::registry::Registry::new();
        let _scope = r.install();
        drop(summit_obs::span("summit_core_demo_stage"));
        let s = render_stage_timings(&r.snapshot());
        assert!(s.contains("pipeline stage timings"), "{s}");
        assert!(s.contains("summit_core_demo_stage"), "{s}");
        let empty = render_stage_timings(&summit_obs::Snapshot::default());
        assert!(empty.contains("no stage timings"));
    }

    fn power_window(node: u32, start: f64, mean_w: f64) -> NodeWindow {
        use summit_analysis::stats::WindowStats;
        use summit_telemetry::catalog::{input_power, METRIC_COUNT};
        use summit_telemetry::ids::NodeId;
        let mut stats = vec![WindowStats::empty(); METRIC_COUNT];
        stats[input_power().index()] = WindowStats {
            count: 10,
            min: mean_w,
            max: mean_w,
            mean: mean_w,
            std: 0.0,
        };
        NodeWindow {
            node: NodeId(node),
            window_start: start,
            stats,
        }
    }

    #[test]
    fn window_stream_view_folds_and_renders() {
        let mut console = OpsConsole::with_defaults();
        assert_eq!(console.windows_seen(), 0);
        assert!(console.window_watermark().is_none());
        // Two nodes, ten windows each, arriving per window start.
        for k in 0..10 {
            let start = k as f64 * 10.0;
            console
                .observe_windows(&[power_window(0, start, 300.0), power_window(1, start, 320.0)]);
        }
        console.finish_windows();
        assert_eq!(console.windows_seen(), 20);
        assert_eq!(console.window_watermark(), Some(90.0));
        assert_eq!(console.window_late_folds(), 0);
        // Ten folded cluster rows of 620 W each.
        let roll = console.win_power.stats();
        assert_eq!(roll.count, 10);
        assert!((roll.mean - 620.0).abs() < 1e-9, "mean {}", roll.mean);
        // Render needs at least one tick for the header.
        console.observe(&tick_with(95.0, 1.0e5, 0.973e5, 45.0, 1.1));
        let s = console.render();
        assert!(s.contains("windows"), "{s}");
        assert!(s.contains("watermark t=90s"), "{s}");
    }

    #[test]
    fn window_stream_view_detects_cluster_power_edges() {
        let mut console = OpsConsole::with_defaults();
        // 2 nodes -> edge threshold 2 x 868 W. Step the cluster from
        // 600 W to 20 kW and back: a rise and a fall.
        for k in 0..20 {
            let start = k as f64 * 10.0;
            let mean = if (8..12).contains(&k) {
                10_000.0
            } else {
                300.0
            };
            console.observe_windows(&[power_window(0, start, mean), power_window(1, start, mean)]);
        }
        console.finish_windows();
        assert!(console.live_edges() >= 2, "edges {}", console.live_edges());
    }

    #[test]
    fn straggler_after_fold_is_counted_not_retrofitted() {
        let mut console = OpsConsole::with_defaults();
        for k in 0..6 {
            console.observe_windows(&[power_window(0, k as f64 * 10.0, 300.0)]);
        }
        // Watermark 50: rows through start 30 have folded.
        assert!(console.window_late_folds() == 0);
        console.observe_windows(&[power_window(1, 0.0, 900.0)]);
        assert_eq!(console.window_late_folds(), 1);
        console.finish_windows();
        // The straggler did not distort the folded history.
        let roll = console.win_power.stats();
        assert!((roll.max - 300.0).abs() < 1e-9, "max {}", roll.max);
    }

    #[test]
    fn live_engine_stream_renders() {
        let mut engine = Engine::new(EngineConfig::small(2), 0.0);
        let mut console = OpsConsole::with_defaults();
        for _ in 0..60 {
            let tick = engine.step();
            console.observe(&tick);
        }
        let s = console.render();
        assert!(s.contains("compute power"));
        assert!(s.contains("MTW return"));
    }
}
