//! Table 2: data specification — rows, footprints and ingest rates of the
//! telemetry streams.
//!
//! The paper's anchors: the per-node OpenBMC stream carries 134 G rows
//! per year in 8.5 TB compressed (about 1 MB/s sustained), ingested at
//! 460 k metrics/s with a 2.5 s average propagation delay. This
//! experiment runs the real pipeline (frame generation -> fan-in ->
//! lossless archive -> 10 s coarsening) over a measured window on a
//! configurable floor and extrapolates to the full machine-year.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{clamp_scale, Cfg, Experiment, ExperimentError};
use crate::json::Json;
use crate::pipeline::stream_batches;
use crate::report::{eng, Table};
use serde::{Deserialize, Serialize};
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_telemetry::catalog::METRIC_COUNT;
use summit_telemetry::ids::NodeId;
use summit_telemetry::ingest::IngestHealth;
use summit_telemetry::records::NodeFrame;
use summit_telemetry::store::TelemetryStore;
use summit_telemetry::stream::{fan_in_batches, IngestStats};

/// Experiment configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Config {
    /// Cabinets simulated (257 = full floor).
    pub cabinets: usize,
    /// Measured window (s); must be a multiple of 60.
    pub duration_s: usize,
    /// Fan-in producer threads.
    pub producers: usize,
    /// Run online: generate minutes on a producer thread and process
    /// them as they arrive over a bounded channel (backpressured).
    pub stream: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cabinets: 40,
            duration_s: 120,
            producers: 8,
            stream: false,
        }
    }
}

/// Measured and extrapolated results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// Node-count feature CDF.
    pub nodes: usize,
    /// Window s.
    pub window_s: usize,
    /// Frames ingested in the window.
    pub frames: u64,
    /// Metric readings ingested in the window.
    pub metrics: u64,
    /// Measured mean/max propagation delay (s).
    pub mean_delay_s: f64,
    /// Maximum observed delay (s).
    pub max_delay_s: f64,
    /// Measured ingest rate (metrics/s).
    pub metrics_per_s: f64,
    /// Archive bytes for the window.
    pub archive_bytes: u64,
    /// Compression ratio (raw 8 B readings vs encoded).
    pub compression_ratio: f64,
    /// Extrapolations to 4,626 nodes x 366 days.
    pub year_rows: f64,
    /// Year bytes.
    pub year_bytes: f64,
    /// Full floor metrics per s.
    pub full_floor_metrics_per_s: f64,
    /// Coarsened (10 s) windows produced.
    pub coarsened_windows: usize,
    /// Fault-tolerance counters from the coarsening path.
    pub ingest_health: IngestHealth,
    /// Hot-path throughput: frames processed per wall-clock second.
    pub frames_per_wall_s: f64,
    /// Hot-path throughput: coarsened windows per wall-clock second.
    pub windows_per_wall_s: f64,
    /// Per-run observability snapshot (stage timings and counters).
    pub obs: summit_obs::Snapshot,
    /// True when the run executed in streaming (online) mode.
    pub streamed: bool,
}

/// Steps the engine through one minute of simulated time and shards the
/// emitted frames by node. Shared by the batch loop and the streaming
/// producer thread so both modes generate identical frames.
fn generate_minute(engine: &mut Engine, nodes: usize) -> Vec<Vec<NodeFrame>> {
    let mut frames_by_node: Vec<Vec<NodeFrame>> =
        (0..nodes).map(|_| Vec::with_capacity(60)).collect();
    {
        let _obs = summit_obs::span("summit_core_frame_generation");
        for _ in 0..60 {
            let out = engine.step_opts(&StepOptions {
                frames: true,
                ..Default::default()
            });
            for f in out.frames.unwrap_or_default() {
                frames_by_node[f.node.index()].push(f);
            }
        }
    }
    summit_obs::counter("summit_core_engine_ticks_total").inc_by(60);
    let offered: usize = frames_by_node.iter().map(Vec::len).sum();
    summit_obs::counter("summit_core_frames_offered_total").inc_by(offered as u64);
    frames_by_node
}

/// Fans one minute of frames through the collector, archives and
/// coarsens it, and folds its accounting into `all_stats`; returns the
/// windows closed. Both execution modes call this exact function, so
/// streaming output is bit-identical to batch by construction.
fn process_minute(
    frames_by_node: Vec<Vec<NodeFrame>>,
    producers: usize,
    nodes: usize,
    store: &TelemetryStore,
    all_stats: &mut IngestStats,
) -> usize {
    // Fan-in through the collector (delay model + rate accounting).
    let (collected, stats) = {
        let _obs = summit_obs::span("summit_telemetry_fan_in");
        fan_in_batches(frames_by_node, producers)
    };
    all_stats.merge(&stats);
    // Re-shard by node for archival + coarsening.
    let _obs = summit_obs::span("summit_core_archive_coarsen");
    let mut by_node: Vec<Vec<NodeFrame>> = (0..nodes).map(|_| Vec::with_capacity(60)).collect();
    for f in collected {
        by_node[f.node.index()].push(f);
    }
    let mut minute_windows = 0usize;
    for (n, frames) in by_node.into_iter().enumerate() {
        // The store sorts internally and the aggregator reorders
        // within its lateness horizon, so no pre-sort is needed.
        store.archive_partition(NodeId(n as u32), &frames);
        let mut agg = summit_telemetry::window::WindowAggregator::paper(NodeId(n as u32));
        for f in &frames {
            let _ = agg.push(f);
        }
        let (windows, health) = agg.finish_with_health();
        minute_windows += windows.len();
        all_stats.health.merge(&health);
    }
    summit_obs::counter("summit_telemetry_windows_total").inc_by(minute_windows as u64);
    minute_windows
}

/// Runs the Table 2 pipeline measurement. Installs a private
/// [`summit_obs`] registry for the duration so [`Table2Result::obs`]
/// holds this run's stage timings in isolation; the snapshot is also
/// absorbed into the caller's current registry.
///
/// Table 2 is a *measurement* of the live pipeline (throughput, wall
/// time), so unlike the scenario-backed studies its acquisition is
/// never cached — re-running it is the point.
pub fn run(config: &Config) -> Result<Table2Result, ExperimentError> {
    if config.duration_s < 60 || !config.duration_s.is_multiple_of(60) {
        return Err(ExperimentError::invalid(
            "table2",
            format!(
                "duration_s must be a multiple of 60 and at least 60, got {}",
                config.duration_s
            ),
        ));
    }
    let parent = summit_obs::current();
    let registry = summit_obs::registry::Registry::new();
    let mut result = {
        let _scope = registry.install();
        let run_span = summit_obs::span("summit_core_table2");
        let mut engine = Engine::new(EngineConfig::small(config.cabinets), 0.0);
        let nodes = engine.topology().node_count();
        let store = TelemetryStore::new();
        let mut total_windows = 0usize;
        let mut all_stats = IngestStats::default();

        // Stream minute-by-minute: generate frames, fan them in, archive and
        // coarsen, then drop — bounding memory like the real pipeline.
        let minutes = config.duration_s / 60;
        if config.stream {
            // Online mode: a producer thread generates minutes and ships
            // them over a bounded channel while the consumer runs the
            // same per-minute processing inline — blocking backpressure
            // keeps at most two minutes of frames in flight.
            let producers = config.producers;
            stream_batches(
                2,
                move |send: &dyn Fn(Vec<Vec<NodeFrame>>) -> bool| {
                    for _ in 0..minutes {
                        if !send(generate_minute(&mut engine, nodes)) {
                            break;
                        }
                    }
                },
                |frames_by_node, _depth| {
                    total_windows +=
                        process_minute(frames_by_node, producers, nodes, &store, &mut all_stats);
                },
            );
        } else {
            for _ in 0..minutes {
                let frames_by_node = generate_minute(&mut engine, nodes);
                total_windows += process_minute(
                    frames_by_node,
                    config.producers,
                    nodes,
                    &store,
                    &mut all_stats,
                );
            }
        }
        all_stats.publish_obs();

        let comp = store.compression_stats();
        let window_s = config.duration_s;
        let bytes = store.archive_bytes();
        let bytes_per_node_s = bytes as f64 / (nodes as f64 * window_s as f64);
        let full_nodes = summit_sim::spec::TOTAL_NODES as f64;
        let year_s = 366.0 * 86_400.0;

        let wall_s = run_span.elapsed_s();
        let frames_per_wall_s = if wall_s > 0.0 {
            all_stats.frames as f64 / wall_s
        } else {
            f64::NAN
        };
        let windows_per_wall_s = if wall_s > 0.0 {
            total_windows as f64 / wall_s
        } else {
            f64::NAN
        };
        summit_obs::gauge("summit_core_frames_per_wall_second").set(frames_per_wall_s);
        summit_obs::gauge("summit_core_windows_per_wall_second").set(windows_per_wall_s);

        Table2Result {
            nodes,
            window_s,
            frames: all_stats.frames,
            metrics: all_stats.metrics,
            mean_delay_s: all_stats.mean_delay_s(),
            max_delay_s: all_stats.max_delay_s,
            metrics_per_s: all_stats.metrics_per_second(),
            archive_bytes: bytes,
            compression_ratio: comp.ratio(),
            year_rows: full_nodes * year_s,
            year_bytes: bytes_per_node_s * full_nodes * year_s,
            full_floor_metrics_per_s: full_nodes * METRIC_COUNT as f64,
            coarsened_windows: total_windows,
            ingest_health: all_stats.health,
            frames_per_wall_s,
            windows_per_wall_s,
            obs: summit_obs::Snapshot::default(),
            streamed: config.stream,
        }
    };
    result.obs = registry.snapshot();
    parent.absorb(&result.obs);
    Ok(result)
}

/// Registry adapter for the Table 2 measurement.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn summary(&self) -> &'static str {
        "Telemetry data specification: rows, footprint and ingest rates"
    }

    fn default_config(&self, scale: f64) -> Json {
        let s = clamp_scale(scale);
        Json::obj([
            ("cabinets", Json::from(((257.0 * s) as usize).max(2))),
            ("duration_s", Json::from(60 * ((5.0 * s) as usize).max(1))),
            ("producers", Json::from(((16.0 * s) as usize).clamp(2, 16))),
            ("stream", Json::Bool(false)),
        ])
    }

    fn run(&self, _cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("table2", config)?;
        let config = Config {
            cabinets: cfg.usize("cabinets")?,
            duration_s: cfg.usize("duration_s")?,
            producers: cfg.usize("producers")?,
            stream: cfg.bool("stream")?,
        };
        Ok(run(&config)?.render())
    }
}

impl Table2Result {
    /// Renders the paper-vs-measured table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 2 (stream a): per-node OpenBMC telemetry",
            &["quantity", "measured", "paper"],
        );
        t.row(vec!["sample interval".into(), "1 s".into(), "1 s".into()]);
        t.row(vec![
            format!("window frames ({} nodes, {} s)", self.nodes, self.window_s),
            eng(self.frames as f64),
            "-".into(),
        ]);
        t.row(vec![
            "mean ingest delay".into(),
            format!("{:.2} s", self.mean_delay_s),
            "2.5 s".into(),
        ]);
        t.row(vec![
            "max ingest delay".into(),
            format!("{:.2} s", self.max_delay_s),
            "5 s".into(),
        ]);
        t.row(vec![
            "full-floor ingest rate".into(),
            format!("{}/s", eng(self.full_floor_metrics_per_s)),
            "460k metrics/s".into(),
        ]);
        t.row(vec![
            "rows per year (1 Hz frames x nodes)".into(),
            eng(self.year_rows),
            "134B samples".into(),
        ]);
        t.row(vec![
            "compression ratio".into(),
            format!("{:.1}x", self.compression_ratio),
            "-".into(),
        ]);
        t.row(vec![
            "archive footprint per year".into(),
            format!("{:.2} TB", self.year_bytes / 1e12),
            "8.5 TB".into(),
        ]);
        t.row(vec![
            "coarsened 10 s windows in window".into(),
            eng(self.coarsened_windows as f64),
            "-".into(),
        ]);
        let h = &self.ingest_health;
        t.row(vec![
            "frames accepted / reordered".into(),
            format!("{} / {}", h.accepted, h.reordered),
            "-".into(),
        ]);
        t.row(vec![
            "frames dropped (late / dup / other)".into(),
            format!(
                "{} / {} / {}",
                h.late_dropped,
                h.duplicates,
                h.wrong_node + h.invalid
            ),
            "-".into(),
        ]);
        t.row(vec![
            "pipeline throughput (wall clock)".into(),
            format!(
                "{}/s frames, {}/s windows",
                eng(self.frames_per_wall_s),
                eng(self.windows_per_wall_s)
            ),
            "-".into(),
        ]);
        if self.streamed {
            t.row(vec![
                "execution mode".into(),
                "streaming (bounded channel, online coarsening)".into(),
                "-".into(),
            ]);
        }
        let mut s = t.render();
        s.push('\n');
        s.push_str(&crate::monitoring::render_stage_timings(&self.obs));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn pipeline_measures_and_extrapolates() {
        let cfg = Config {
            cabinets: 3,
            duration_s: 60,
            producers: 4,
            stream: false,
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.nodes, 54);
        assert_eq!(r.frames, 54 * 60);
        assert_eq!(r.metrics, r.frames * METRIC_COUNT as u64);
        // Delay model honored.
        assert!(r.mean_delay_s > 1.5 && r.mean_delay_s < 3.5);
        assert!(r.max_delay_s < 5.0);
        // Compression beats raw storage comfortably.
        assert!(r.compression_ratio > 4.0, "ratio {}", r.compression_ratio);
        // Year extrapolation is in the paper's order of magnitude:
        // 4,626 nodes x 31.6M s = 1.46e11 frame-rows.
        assert!((r.year_rows - 1.46e11).abs() / 1.46e11 < 0.02);
        // Footprint within a factor of a few of the paper's 8.5 TB.
        assert!(
            r.year_bytes > 0.5e12 && r.year_bytes < 40e12,
            "year bytes {}",
            r.year_bytes
        );
        // 6 windows per node-minute.
        assert_eq!(r.coarsened_windows, 54 * 6);
        // Clean fabric: every frame accepted, nothing dropped.
        assert_eq!(r.ingest_health.accepted, r.frames);
        assert_eq!(r.ingest_health.dropped(), 0);
        let render = r.render();
        assert!(render.contains("8.5 TB"));
        assert!(render.contains("frames accepted"));
        // Observability: the run carries its own stage timings.
        assert!(r.frames_per_wall_s > 0.0);
        assert!(r.windows_per_wall_s > 0.0);
        assert_eq!(
            r.obs.counter("summit_core_frames_offered_total"),
            Some(54 * 60)
        );
        assert_eq!(r.obs.counter("summit_core_table2_calls_total"), Some(1));
        assert!(render.contains("pipeline stage timings"), "{render}");
        assert!(render.contains("summit_core_frame_generation"), "{render}");
    }

    #[test]
    fn streaming_mode_is_bit_identical_to_batch() {
        let cfg = Config {
            cabinets: 2,
            duration_s: 120,
            producers: 2,
            stream: false,
        };
        let batch = run(&cfg).unwrap();
        let streamed = run(&Config {
            stream: true,
            ..cfg
        })
        .unwrap();
        assert!(streamed.streamed && !batch.streamed);
        assert_eq!(streamed.nodes, batch.nodes);
        assert_eq!(streamed.frames, batch.frames);
        assert_eq!(streamed.metrics, batch.metrics);
        assert_eq!(
            streamed.mean_delay_s.to_bits(),
            batch.mean_delay_s.to_bits()
        );
        assert_eq!(streamed.max_delay_s.to_bits(), batch.max_delay_s.to_bits());
        assert_eq!(
            streamed.metrics_per_s.to_bits(),
            batch.metrics_per_s.to_bits()
        );
        assert_eq!(streamed.archive_bytes, batch.archive_bytes);
        assert_eq!(
            streamed.compression_ratio.to_bits(),
            batch.compression_ratio.to_bits()
        );
        assert_eq!(streamed.coarsened_windows, batch.coarsened_windows);
        assert_eq!(streamed.ingest_health, batch.ingest_health);
        // Obs totals agree even though the producer side runs on its
        // own thread (the registry is shared).
        assert_eq!(
            streamed.obs.counter("summit_core_frames_offered_total"),
            batch.obs.counter("summit_core_frames_offered_total")
        );
        // The streaming row only appears in streaming mode.
        assert!(streamed.render().contains("execution mode"));
        assert!(!batch.render().contains("execution mode"));
    }

    #[test]
    fn rejects_non_minute_window() {
        let err = run(&Config {
            cabinets: 1,
            duration_s: 90,
            producers: 1,
            stream: false,
        })
        .unwrap_err();
        assert!(
            matches!(&err, ExperimentError::InvalidConfig(m) if m.contains("duration_s")),
            "unexpected error: {err}"
        );
    }
}
