//! The out-of-band telemetry pipeline end to end: 1 Hz frame generation,
//! multi-producer fan-in with the propagation-delay model, lossless
//! archival compression, and 10-second window coarsening.
//!
//! ```sh
//! cargo run --release --example telemetry_pipeline
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::report::eng;
use summit_repro::sim::engine::{Engine, EngineConfig, StepOptions};
use summit_repro::sim::spec;
use summit_repro::telemetry::catalog::METRIC_COUNT;
use summit_repro::telemetry::ids::NodeId;
use summit_repro::telemetry::store::TelemetryStore;
use summit_repro::telemetry::stream::fan_in_batches;
use summit_repro::telemetry::window::WindowAggregator;

fn main() {
    let cabinets = 8;
    let minutes = 3;
    let mut engine = Engine::new(EngineConfig::small(cabinets), 0.0);
    let nodes = engine.topology().node_count();
    let store = TelemetryStore::new();
    println!(
        "streaming {} nodes x {} metrics at 1 Hz for {} minutes ...",
        nodes, METRIC_COUNT, minutes
    );

    let mut windows_total = 0usize;
    for minute in 0..minutes {
        // Generate one minute of frames per node.
        let mut frames_by_node: Vec<Vec<_>> = (0..nodes).map(|_| Vec::with_capacity(60)).collect();
        for _ in 0..60 {
            let out = engine.step_opts(&StepOptions {
                frames: true,
                ..Default::default()
            });
            for f in out.frames.unwrap() {
                frames_by_node[f.node.index()].push(f);
            }
        }
        // Fan them in through the 288:1-style collector.
        let (collected, stats) = fan_in_batches(frames_by_node, 8);
        // Archive + coarsen per node.
        let mut by_node: Vec<Vec<_>> = (0..nodes).map(|_| Vec::with_capacity(60)).collect();
        for f in collected {
            by_node[f.node.index()].push(f);
        }
        for (n, frames) in by_node.into_iter().enumerate() {
            // The store sorts internally; the aggregator reorders within
            // its lateness horizon.
            store.archive_partition(NodeId(n as u32), &frames);
            let mut agg = WindowAggregator::paper(NodeId(n as u32));
            for f in &frames {
                let _ = agg.push(f);
            }
            windows_total += agg.finish().len();
        }
        println!(
            "minute {}: {} frames in, mean delay {:.2} s (max {:.2}), {}/s metrics",
            minute,
            stats.frames,
            stats.mean_delay_s(),
            stats.max_delay_s,
            eng(stats.metrics_per_second()),
        );
    }

    let comp = store.compression_stats();
    println!(
        "\narchive: {} partitions, {} encoded ({}x compression, {:.3} B/reading)",
        store.partition_count(),
        eng(store.archive_bytes() as f64),
        comp.ratio().round(),
        comp.bytes_per_reading(),
    );
    println!("coarsened windows: {windows_total}");

    // Prove the archive is lossless: reload one partition and compare.
    let restored = store
        .load_partition(NodeId(0), 0.0)
        .expect("partition exists");
    println!(
        "lossless check: node0 partition restored with {} frames, first input_power = {:.0} W",
        restored.len(),
        restored[0].get(summit_repro::telemetry::catalog::input_power())
    );

    // Full-floor extrapolation (the paper's Table 2 anchors).
    let bytes_per_node_s = store.archive_bytes() as f64 / (nodes as f64 * minutes as f64 * 60.0);
    let full_floor = spec::TOTAL_NODES as f64;
    println!(
        "\nextrapolated to 4,626 nodes x 1 year: {:.2} TB (paper: 8.5 TB), {}/s ingest (paper: 460k)",
        bytes_per_node_s * full_floor * spec::YEAR_S / 1e12,
        eng(full_floor * METRIC_COUNT as f64),
    );
}
