//! Cross-layer bit-identity for the telemetry hot path.
//!
//! The columnar coarsener's memory layout and instruction scheduling
//! must never change results: it must match a scalar per-metric
//! [`Welford`] fold to the bit, on the same frames, for every thread
//! count, in both the batch replay and the streaming pipeline. These
//! tests drive the full pipeline (engine → delivery → coarsening)
//! rather than unit inputs, so a divergence anywhere along the hot path
//! fails here even if each layer's own tests still pass.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_analysis::stats::Welford;
use summit_core::pipeline::{run_streaming, run_telemetry, StreamConfig};
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::records::NodeFrame;
use summit_telemetry::stream::FaultConfig;
use summit_telemetry::window::{coarsen_parallel_with_health, NodeWindow, PAPER_WINDOW_S};

fn assert_windows_bitwise_eq(a: &[Vec<NodeWindow>], b: &[Vec<NodeWindow>], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: node count differs");
    for (node, (wa, wb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            wa.len(),
            wb.len(),
            "{context}: window count differs at node {node}"
        );
        for (x, y) in wa.iter().zip(wb) {
            assert_eq!(x.node, y.node, "{context}");
            assert_eq!(
                x.window_start.to_bits(),
                y.window_start.to_bits(),
                "{context}: window start diverged at node {node}"
            );
            assert_eq!(x.stats.len(), y.stats.len(), "{context}");
            for (m, (sx, sy)) in x.stats.iter().zip(&y.stats).enumerate() {
                assert_eq!(sx.count, sy.count, "{context}: node {node} metric {m}");
                for (fx, fy) in [
                    (sx.min, sy.min),
                    (sx.max, sy.max),
                    (sx.mean, sy.mean),
                    (sx.std, sy.std),
                ] {
                    assert_eq!(
                        fx.to_bits(),
                        fy.to_bits(),
                        "{context}: node {node} metric {m}: {fx} != {fy}"
                    );
                }
            }
        }
    }
}

/// A fault-free capture generated through the engine's tick
/// batches, grouped per node — the same shape the pipeline feeds the
/// coarsener.
fn engine_frames(cabinets: usize, duration_s: f64) -> Vec<Vec<NodeFrame>> {
    let config = EngineConfig::small(cabinets);
    let dt = config.dt_s;
    let mut engine = Engine::new(config, 0.0);
    let node_count = engine.topology().node_count();
    let n_ticks = (duration_s / dt).ceil() as usize;
    let mut frames_by_node: Vec<Vec<NodeFrame>> = (0..node_count)
        .map(|_| Vec::with_capacity(n_ticks))
        .collect();
    let opts = StepOptions { frames: true };
    let mut tick = FrameBatch::with_capacity(node_count);
    for _ in 0..n_ticks {
        let _ = engine.step_batch(&opts, &mut tick);
        for row in 0..tick.len() {
            let f = tick.read_frame(row);
            frames_by_node[f.node.index()].push(f);
        }
    }
    frames_by_node
}

/// Scalar reference for a fault-free, in-order capture: each node's
/// frames cut into 10 s windows and folded metric by metric with
/// [`Welford::push`].
fn scalar_oracle(frames_by_node: &[Vec<NodeFrame>]) -> Vec<Vec<NodeWindow>> {
    let window_start = |f: &NodeFrame| (f.t_sample / PAPER_WINDOW_S).floor() * PAPER_WINDOW_S;
    frames_by_node
        .iter()
        .map(|frames| {
            frames
                .chunk_by(|a, b| window_start(a) == window_start(b))
                .map(|window| {
                    let mut acc = vec![Welford::new(); window[0].values.len()];
                    for f in window {
                        for (w, &v) in acc.iter_mut().zip(&f.values) {
                            w.push(f64::from(v));
                        }
                    }
                    NodeWindow {
                        node: window[0].node,
                        window_start: window_start(&window[0]),
                        stats: acc.iter().map(Welford::finish).collect(),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn columnar_coarsening_matches_scalar_oracle_across_thread_counts() {
    let frames = engine_frames(2, 120.0);
    let oracle = scalar_oracle(&frames);
    let frame_count: usize = frames.iter().map(Vec::len).sum();
    for threads in [1usize, 2, 4] {
        let (cols, health) = rayon::with_thread_count(threads, || {
            coarsen_parallel_with_health(&frames, PAPER_WINDOW_S)
        });
        assert_eq!(health.accepted, frame_count as u64, "threads={threads}");
        assert_eq!(health.dropped(), 0, "threads={threads}");
        assert_windows_bitwise_eq(
            &oracle,
            &cols,
            &format!("columns vs oracle, threads={threads}"),
        );
    }
}

#[test]
fn faulty_telemetry_run_is_thread_count_invariant_to_the_bit() {
    // The full batch pipeline — tick batches, fault injection, SoA
    // coarsening, health merge — must not see the thread count at all.
    let faults = Some(FaultConfig::light(7));
    let base = run_telemetry(2, 120.0, faults);
    for threads in [1usize, 2] {
        let got = rayon::with_thread_count(threads, || run_telemetry(2, 120.0, faults));
        assert_eq!(got.stats.frames, base.stats.frames, "threads={threads}");
        assert_eq!(
            got.stats.total_delay_s.to_bits(),
            base.stats.total_delay_s.to_bits(),
            "threads={threads}"
        );
        assert_eq!(got.stats.health, base.stats.health, "threads={threads}");
        assert_windows_bitwise_eq(
            &base.windows_by_node,
            &got.windows_by_node,
            &format!("batch run, threads={threads}"),
        );
    }
}

#[test]
fn streaming_windows_match_batch_to_the_bit() {
    // Same capture online (producer thread, bounded channel,
    // tick batches crossing it) and as a batch replay.
    let faults = Some(FaultConfig::light(7));
    let stream = run_streaming(StreamConfig::new(2, 120.0, faults));
    let batch = run_telemetry(2, 120.0, faults);
    assert_eq!(stream.stats.health, batch.stats.health);
    assert_windows_bitwise_eq(
        &batch.windows_by_node,
        &stream.windows_by_node,
        "streaming vs batch",
    );
}
