//! Layer replays: the telemetry path re-driven through its public layer
//! functions, with a bench-side timer around the calls into each layer.
//!
//! A replay performs the same calls on the same data in the same
//! per-node order as its pipeline entry point, so its output digest must
//! equal the pipeline's; the traced run fails otherwise. The timers
//! wrap groups of calls (one tick's rows, one node's batch) rather than
//! single calls, which keeps timer overhead far below the layers'
//! cost.

use crate::digest;
use std::time::Instant;
use summit_core::pipeline::StreamConfig;
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::delivery::NodeDelivery;
use summit_telemetry::records::NodeFrame;
use summit_telemetry::stream::{FaultConfig, FaultInjector, IngestStats, InjectedFaults};
use summit_telemetry::window::{
    coarsen_parallel_with_health, NodeWindow, StreamingCoarsener, PAPER_WINDOW_S,
};

/// Seconds spent in each layer during one replay, plus its work count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `Engine::new`.
    pub engine_new_s: f64,
    /// `Engine::step_batch`.
    pub step_batch_s: f64,
    /// `FrameBatch::read_frame`, routing each row to its node.
    pub read_frame_s: f64,
    /// `FaultInjector::deliver` (batch replay).
    pub deliver_s: f64,
    /// `NodeDelivery::offer` and `finish` (stream replay).
    pub offer_s: f64,
    /// `IngestStats::observe`.
    pub observe_s: f64,
    /// `coarsen_parallel_with_health` (batch), or
    /// `StreamingCoarsener::push`, `drain_completed` and
    /// `finish_with_health` (stream).
    pub coarsen_s: f64,
    /// Rows materialized by `read_frame`.
    pub frames: u64,
}

impl LayerTimes {
    /// Sum of the layers the pipeline's consumer runs: everything
    /// but the engine (for the streaming pipeline, the engine runs on
    /// the producer thread).
    pub fn consumer_s(&self) -> f64 {
        self.read_frame_s + self.deliver_s + self.offer_s + self.observe_s + self.coarsen_s
    }

    /// Sum of every replayed layer.
    pub fn total_s(&self) -> f64 {
        self.engine_new_s + self.step_batch_s + self.consumer_s()
    }
}

/// Adds the seconds `f` takes to `slot` and returns its result.
fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot += start.elapsed().as_secs_f64();
    r
}

fn frame_options() -> StepOptions {
    StepOptions {
        frames: true,
        ..StepOptions::default()
    }
}

/// Replays `run_telemetry(cabinets, duration_s, Some(faults))` and
/// returns the layer times and the output digest.
pub fn batch(cabinets: usize, duration_s: f64, faults: FaultConfig) -> (LayerTimes, u64) {
    // The layers' own spans go to a private registry, not the caller's.
    let registry = summit_obs::registry::Registry::new();
    let _scope = registry.install();
    let mut t = LayerTimes::default();
    let config = EngineConfig::small(cabinets);
    let n_ticks = (duration_s / config.dt_s).ceil() as usize;
    let mut engine = timed(&mut t.engine_new_s, || Engine::new(config, 0.0));
    let node_count = engine.topology().node_count();
    let opts = frame_options();
    let mut tick_batch = FrameBatch::with_capacity(node_count);
    let mut frames_by_node: Vec<Vec<NodeFrame>> = vec![Vec::with_capacity(n_ticks); node_count];
    for _ in 0..n_ticks {
        timed(&mut t.step_batch_s, || {
            engine.step_batch(&opts, &mut tick_batch)
        });
        timed(&mut t.read_frame_s, || {
            for row in 0..tick_batch.len() {
                let f = tick_batch.read_frame(row);
                if let Some(node) = frames_by_node.get_mut(f.node.index()) {
                    node.push(f);
                }
            }
        });
        t.frames += tick_batch.len() as u64;
    }

    let mut injector = FaultInjector::new(faults);
    let delivered: Vec<Vec<NodeFrame>> = frames_by_node
        .into_iter()
        .map(|frames| timed(&mut t.deliver_s, || injector.deliver(frames)))
        .collect();
    let mut stats = IngestStats::default();
    for frames in &delivered {
        let node_stats = timed(&mut t.observe_s, || {
            let mut node_stats = IngestStats::default();
            for f in frames {
                node_stats.observe(f);
            }
            node_stats
        });
        stats.merge(&node_stats);
    }
    let (windows, health) = timed(&mut t.coarsen_s, || {
        coarsen_parallel_with_health(&delivered, PAPER_WINDOW_S)
    });
    (
        t,
        digest::telemetry(&windows, &health, &injector.injected()),
    )
}

/// The window list of node `idx`, growing the table on demand exactly
/// as the streaming consumer does.
fn node_windows(
    windows_by_node: &mut Vec<Vec<NodeWindow>>,
    idx: usize,
) -> Option<&mut Vec<NodeWindow>> {
    if windows_by_node.len() <= idx {
        windows_by_node.resize_with(idx + 1, Vec::new);
    }
    windows_by_node.get_mut(idx)
}

/// Replays `run_streaming(StreamConfig::new(cabinets, duration_s,
/// Some(faults)))` on one thread — the producer's calls, then the
/// consumer's calls per tick batch — and returns the layer times and
/// the output digest.
pub fn stream(cabinets: usize, duration_s: f64, faults: FaultConfig) -> (LayerTimes, u64) {
    let registry = summit_obs::registry::Registry::new();
    let _scope = registry.install();
    let mut t = LayerTimes::default();
    let shape = StreamConfig::new(cabinets, duration_s, Some(faults));
    let config = EngineConfig::small(cabinets);
    let n_ticks = (duration_s / config.dt_s).ceil() as usize;
    let ticks_per_batch = shape.ticks_per_batch.max(1);
    let mut engine = timed(&mut t.engine_new_s, || Engine::new(config, 0.0));
    let node_count = engine.topology().node_count();
    let opts = frame_options();

    let mut deliveries: Vec<NodeDelivery> =
        (0..node_count).map(|_| NodeDelivery::new(faults)).collect();
    let mut node_stats = vec![IngestStats::default(); node_count];
    let mut coarsener = StreamingCoarsener::new(0, PAPER_WINDOW_S);
    let mut windows_by_node: Vec<Vec<NodeWindow>> = Vec::new();
    let mut rows: Vec<NodeFrame> = Vec::with_capacity(node_count);
    let mut delivered: Vec<NodeFrame> = Vec::new();

    let mut sent = 0usize;
    while sent < n_ticks {
        let n = ticks_per_batch.min(n_ticks - sent);
        for _ in 0..n {
            // A fresh buffer per tick, as the producer ships each tick's
            // columns across the channel.
            let mut frames = FrameBatch::with_capacity(node_count);
            timed(&mut t.step_batch_s, || {
                engine.step_batch(&opts, &mut frames)
            });
            timed(&mut t.read_frame_s, || {
                rows.clear();
                rows.extend((0..frames.len()).map(|row| frames.read_frame(row)));
            });
            t.frames += frames.len() as u64;
            timed(&mut t.offer_s, || {
                for f in rows.drain(..) {
                    if let Some(d) = deliveries.get_mut(f.node.index()) {
                        d.offer(f, &mut delivered);
                    }
                }
            });
            timed(&mut t.observe_s, || {
                for f in &delivered {
                    if let Some(s) = node_stats.get_mut(f.node.index()) {
                        s.observe(f);
                    }
                }
            });
            timed(&mut t.coarsen_s, || {
                for f in &delivered {
                    let _ = coarsener.push(f.node.index(), f);
                }
            });
            delivered.clear();
        }
        sent += n;
        let closed = timed(&mut t.coarsen_s, || coarsener.drain_completed());
        for w in closed {
            if let Some(node) = node_windows(&mut windows_by_node, w.node.index()) {
                node.push(w);
            }
        }
    }

    // Tail: drain each node's reorder heap and swap hold in node order.
    let mut injected = InjectedFaults::default();
    let mut stats = IngestStats::default();
    for (idx, (delivery, mut nstats)) in deliveries.into_iter().zip(node_stats).enumerate() {
        let counts = timed(&mut t.offer_s, || delivery.finish(&mut delivered));
        injected.merge(&counts);
        timed(&mut t.observe_s, || {
            for f in &delivered {
                nstats.observe(f);
            }
        });
        timed(&mut t.coarsen_s, || {
            for f in &delivered {
                let _ = coarsener.push(idx, f);
            }
        });
        delivered.clear();
        stats.merge(&nstats);
    }
    let (tail, health) = timed(&mut t.coarsen_s, || coarsener.finish_with_health());
    for (idx, ws) in tail.into_iter().enumerate() {
        if ws.is_empty() {
            continue;
        }
        if let Some(node) = node_windows(&mut windows_by_node, idx) {
            node.extend(ws);
        }
    }
    (t, digest::telemetry(&windows_by_node, &health, &injected))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::workload::{run_executor, Executor};

    #[test]
    fn replays_match_their_pipelines_bit_for_bit() {
        let faults = FaultConfig {
            drop_p: 0.03,
            duplicate_p: 0.05,
            delay_p: 0.05,
            reorder_p: 0.10,
            seed: 7,
            ..FaultConfig::default()
        };
        let batch_run = run_executor(Executor::Batch, 2, 60.0, faults);
        let stream_run = run_executor(Executor::Stream, 2, 60.0, faults);
        let (bt, batch_digest) = batch(2, 60.0, faults);
        let (st, stream_digest) = stream(2, 60.0, faults);
        assert_eq!(batch_digest, batch_run.out.digest);
        assert_eq!(stream_digest, stream_run.out.digest);
        assert_eq!(batch_digest, stream_digest);
        assert_eq!(bt.frames, 36 * 60);
        assert_eq!(st.frames, 36 * 60);
        assert!(bt.deliver_s > 0.0 && bt.offer_s == 0.0);
        assert!(st.offer_s > 0.0 && st.deliver_s == 0.0);
        assert!(bt.total_s() > bt.consumer_s() && st.coarsen_s > 0.0);
    }
}
