//! Table 2: data specification — rows, footprints and ingest rates of the
//! telemetry streams.
//!
//! The paper's anchors: the per-node OpenBMC stream carries 134 G rows
//! per year in 8.5 TB compressed (about 1 MB/s sustained), ingested at
//! 460 k metrics/s with a 2.5 s average propagation delay. This
//! experiment measures the live telemetry pipeline ([`run_telemetry`],
//! or [`run_streaming`] online) over a window on a configurable floor,
//! archives the same frames losslessly, and extrapolates to the full
//! machine-year. The twin's frames carry the catalog's 25 metrics, not
//! the paper's 100+, so the ingest rate and the footprint describe that
//! stream; the `metrics per node frame` row states the gap.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{
    clamp_scale, ensure_cabinets, Cfg, Experiment, ExperimentError,
};
use crate::json::Json;
use crate::pipeline::{archive_replay, run_streaming, run_telemetry, StreamConfig};
use crate::report::{eng, Table};
use summit_telemetry::catalog::METRIC_COUNT;
use summit_telemetry::ingest::IngestHealth;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cabinets simulated (257 = full floor).
    pub cabinets: usize,
    /// Measured window (s); must be a multiple of 60.
    pub duration_s: usize,
    /// Run online: [`run_streaming`] steps the engine on a producer
    /// thread behind a bounded channel (backpressured) instead of
    /// [`run_telemetry`]'s inline producer.
    pub stream: bool,
}

/// Measured and extrapolated results.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Node-count feature CDF.
    pub nodes: usize,
    /// Window s.
    pub window_s: usize,
    /// Frames ingested in the window.
    pub frames: u64,
    /// Measured mean/max propagation delay (s).
    pub mean_delay_s: f64,
    /// Maximum observed delay (s).
    pub max_delay_s: f64,
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

/// Runs the Table 2 pipeline measurement. Installs a private
/// [`summit_obs`] registry for the duration so [`Table2Result::obs`]
/// holds this run's stage timings in isolation; the snapshot is also
/// absorbed into the caller's current registry.
///
/// Frames, delays, windows and ingest health are the executor's run,
/// unchanged; only the archive comes from [`archive_replay`].
///
/// Table 2 is a *measurement* of the live pipeline (throughput, wall
/// time), so unlike the scenario-backed studies its acquisition is
/// never cached — re-running it is the point.
pub fn run(config: &Config) -> Result<Table2Result, ExperimentError> {
    ensure_cabinets("table2", config.cabinets)?;
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
        let duration_s = config.duration_s as f64;
        let (windows_by_node, stats) = if config.stream {
            let run = run_streaming(StreamConfig::new(config.cabinets, duration_s, None));
            (run.windows_by_node, run.stats)
        } else {
            let run = run_telemetry(config.cabinets, duration_s, None);
            (run.windows_by_node, run.stats)
        };
        let nodes = windows_by_node.len();
        let coarsened_windows: usize = windows_by_node.iter().map(Vec::len).sum();
        drop(windows_by_node); // only counted: free them before the replay
        let store = archive_replay(config.cabinets, config.duration_s / 60);

        let comp = store.compression_stats();
        let window_s = config.duration_s;
        let bytes = store.archive_bytes();
        let bytes_per_node_s = bytes as f64 / (nodes as f64 * window_s as f64);
        let full_nodes = summit_sim::spec::TOTAL_NODES as f64;
        let year_s = 366.0 * 86_400.0;

        let wall_s = run_span.elapsed_s();
        let per_wall_s = |n: f64| if wall_s > 0.0 { n / wall_s } else { f64::NAN };
        let frames_per_wall_s = per_wall_s(stats.frames as f64);
        let windows_per_wall_s = per_wall_s(coarsened_windows as f64);
        summit_obs::gauge("summit_core_frames_per_wall_second").set(frames_per_wall_s);
        summit_obs::gauge("summit_core_windows_per_wall_second").set(windows_per_wall_s);

        Table2Result {
            nodes,
            window_s,
            frames: stats.frames,
            mean_delay_s: stats.mean_delay_s(),
            max_delay_s: stats.max_delay_s,
            archive_bytes: bytes,
            compression_ratio: comp.ratio(),
            year_rows: full_nodes * year_s,
            year_bytes: bytes_per_node_s * full_nodes * year_s,
            full_floor_metrics_per_s: full_nodes * METRIC_COUNT as f64,
            coarsened_windows,
            ingest_health: stats.health,
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
            ("stream", Json::Bool(false)),
        ])
    }

    fn run(&self, _cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("table2", config)?;
        let config = Config {
            cabinets: cfg.usize("cabinets")?,
            duration_s: cfg.usize("duration_s")?,
            stream: cfg.bool("stream")?,
        };
        Ok(run(&config)?.render())
    }
}

impl Table2Result {
    /// Renders the paper-vs-measured table, then the wall-clock
    /// throughput line and the stage timings. Everything before the
    /// `(wall clock)` line is a function of the run's config alone.
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
            "metrics per node frame".into(),
            METRIC_COUNT.to_string(),
            "over 100".into(),
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
        if self.streamed {
            t.row(vec![
                "execution mode".into(),
                "streaming (bounded channel, online coarsening)".into(),
                "-".into(),
            ]);
        }
        let mut s = t.render();
        s.push_str(&format!(
            "pipeline throughput (wall clock): {}/s frames, {}/s windows\n\n",
            eng(self.frames_per_wall_s),
            eng(self.windows_per_wall_s)
        ));
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
            stream: false,
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.nodes, 54);
        assert_eq!(r.frames, 54 * 60);
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
        assert_eq!(
            streamed.mean_delay_s.to_bits(),
            batch.mean_delay_s.to_bits()
        );
        assert_eq!(streamed.max_delay_s.to_bits(), batch.max_delay_s.to_bits());
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

    /// Table 2 reports the executor's run itself. 120 s crosses a
    /// minute boundary, where frames are in flight across it.
    #[test]
    fn reports_the_executor_run() {
        let exec = run_telemetry(2, 120.0, None);
        let windows: usize = exec.windows_by_node.iter().map(Vec::len).sum();
        for stream in [false, true] {
            let r = run(&Config {
                cabinets: 2,
                duration_s: 120,
                stream,
            })
            .unwrap();
            let s = &exec.stats;
            assert_eq!(r.frames, s.frames, "stream={stream}");
            assert_eq!(r.mean_delay_s.to_bits(), s.mean_delay_s().to_bits());
            assert_eq!(r.max_delay_s.to_bits(), s.max_delay_s.to_bits());
            assert_eq!(r.ingest_health, s.health, "stream={stream}");
            assert_eq!(r.coarsened_windows, windows, "stream={stream}");
            // The run is counted once: the archive replay adds nothing.
            let counter = |name: &str| r.obs.counter(name);
            assert_eq!(counter("summit_core_frames_offered_total"), Some(36 * 120));
            assert_eq!(counter("summit_core_engine_ticks_total"), Some(120));
        }
    }

    /// A result whose every field but the wall-clock rates is fixed.
    fn rendered(frames_per_wall_s: f64, windows_per_wall_s: f64, streamed: bool) -> String {
        Table2Result {
            nodes: 18,
            window_s: 60,
            frames: 1080,
            mean_delay_s: 2.5,
            max_delay_s: 4.9,
            archive_bytes: 4096,
            compression_ratio: 14.9,
            year_rows: 1.46e11,
            year_bytes: 2.05e12,
            full_floor_metrics_per_s: 115_650.0,
            coarsened_windows: 108,
            ingest_health: IngestHealth::default(),
            frames_per_wall_s,
            windows_per_wall_s,
            obs: summit_obs::Snapshot::default(),
            streamed,
        }
        .render()
    }

    /// Everything up to the `(wall clock)` line, which must be there.
    fn seeded_part(report: &str) -> &str {
        let at = report.find("(wall clock)").expect("a wall-clock line");
        let line_start = report[..at].rfind('\n').map_or(0, |i| i + 1);
        &report[..line_start]
    }

    /// The wall-clock rates cross the `eng` k/M boundaries (999.99k
    /// against 1.00M frames/s, 99.99k against 123.00 windows/s), which
    /// change their printed width; the table above them must not move.
    #[test]
    fn the_table_does_not_depend_on_the_wall_clock_rates() {
        for streamed in [false, true] {
            let slow = rendered(999_990.0, 99_990.0, streamed);
            let fast = rendered(1.0e6, 123.0, streamed);
            assert_ne!(slow, fast);
            assert_eq!(seeded_part(&slow), seeded_part(&fast), "{slow}\n{fast}");
            assert!(seeded_part(&slow).contains("metrics per node frame"));
        }
    }

    #[test]
    fn rejects_non_minute_window() {
        let err = run(&Config {
            cabinets: 1,
            duration_s: 90,
            stream: false,
        })
        .unwrap_err();
        assert!(
            matches!(&err, ExperimentError::InvalidConfig(m) if m.contains("duration_s")),
            "unexpected error: {err}"
        );
    }
}
