//! The out-of-band telemetry pipeline end to end: 1 Hz frames delivered
//! per node with the propagation-delay model and coarsened into
//! 10-second windows, plus the lossless archive of the same frames.
//!
//! ```sh
//! cargo run --release --example telemetry_pipeline
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::pipeline::{archive_replay, run_telemetry};
use summit_repro::core::report::eng;
use summit_repro::sim::spec;
use summit_repro::telemetry::catalog::{self, METRIC_COUNT};
use summit_repro::telemetry::ids::NodeId;

fn main() {
    let cabinets = 8;
    let minutes = 3;
    let nodes = cabinets * spec::NODES_PER_CABINET;
    println!("streaming {nodes} nodes x {METRIC_COUNT} metrics at 1 Hz for {minutes} minutes ...");

    // Delivery through the fabric, then fault-tolerant 10 s coarsening.
    let run = run_telemetry(cabinets, minutes as f64 * 60.0, None);
    let stats = run.stats;
    println!(
        "{} frames in, mean delay {:.2} s (max {:.2}), {}/s metrics, {} reordered in flight",
        stats.frames,
        stats.mean_delay_s(),
        stats.max_delay_s,
        eng(stats.metrics_per_second()),
        stats.health.reordered,
    );
    let windows: usize = run.windows_by_node.iter().map(Vec::len).sum();
    println!("coarsened windows: {windows}\n{}", run.summary);

    // Archive the same frames: a replay of the run's seeded engine,
    // compressed per node-minute.
    let store = archive_replay(cabinets, minutes);
    let comp = store.compression_stats();
    println!(
        "\narchive: {} partitions, {} encoded ({}x compression, {:.3} B/reading)",
        store.partition_count(),
        eng(store.archive_bytes() as f64),
        comp.ratio().round(),
        comp.bytes_per_reading(),
    );

    // Prove the archive is lossless: reload one partition and compare.
    let restored = store
        .load_partition(NodeId(0), 0.0)
        .expect("partition exists");
    assert_eq!(restored.len(), 60, "one frame per second of the minute");
    println!(
        "lossless check: node0 partition restored with {} frames, first input_power = {:.0} W",
        restored.len(),
        restored[0].get(catalog::input_power())
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
