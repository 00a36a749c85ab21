//! Acceptance test for the fault-tolerant ingestion path: a shuffled,
//! duplicated, lossy frame stream must coarsen to exactly the windows
//! the surviving in-horizon frames would produce in clean time order,
//! with every injected fault accounted for in the health counters and
//! zero panics anywhere in the telemetry crate.
//!
//! The expected counters are derived by replaying the delivered stream
//! through the documented admission rule (watermark, strict lateness
//! horizon, key-level dedup) independently of the aggregator.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use summit_repro::core::pipeline::{run_streaming, StreamConfig};
use summit_repro::sim::engine::{Engine, EngineConfig, StepOptions};
use summit_repro::sim::failures::CabinetOutage;
use summit_repro::telemetry::batch::FrameBatch;
use summit_repro::telemetry::catalog;
use summit_repro::telemetry::ids::{CabinetId, NodeId};
use summit_repro::telemetry::ingest::IngestError;
use summit_repro::telemetry::records::NodeFrame;
use summit_repro::telemetry::stream::{FaultConfig, FaultInjector, IngestStats};
use summit_repro::telemetry::window::{
    coarsen_parallel_with_health, NodeWindow, WindowAggregator, PAPER_WINDOW_S,
};

const HORIZON_S: f64 = 5.0; // ingest::LATENESS_HORIZON_S

fn frames_for(node: NodeId, seconds: usize) -> Vec<NodeFrame> {
    (0..seconds)
        .map(|i| {
            let mut f = NodeFrame::empty(node, i as f64);
            f.set(catalog::input_power(), 1500.0 + (i % 37) as f64);
            f.set(
                catalog::gpu_core_temp(summit_repro::telemetry::ids::GpuSlot(0)),
                40.0 + (i % 11) as f64,
            );
            f
        })
        .collect()
}

/// Replays the delivered stream through the admission rule the
/// aggregator documents, returning (accepted frames, dup count,
/// late count, reorder count).
fn classify(delivered: &[NodeFrame]) -> (Vec<NodeFrame>, u64, u64, u64) {
    let mut watermark = f64::NEG_INFINITY;
    let mut seen: BTreeSet<i64> = BTreeSet::new();
    let mut accepted = Vec::new();
    let (mut dups, mut late, mut reordered) = (0u64, 0u64, 0u64);
    for f in delivered {
        let t = f.t_sample;
        let wm = if watermark.is_finite() { watermark } else { t };
        if t < wm - HORIZON_S {
            late += 1;
        } else if !seen.insert((t * 1000.0).round() as i64) {
            dups += 1;
        } else {
            if t < wm {
                reordered += 1;
            }
            accepted.push(f.clone());
            watermark = wm.max(t);
        }
    }
    (accepted, dups, late, reordered)
}

/// Bitwise window equality: derived `PartialEq` is useless here because
/// empty metrics and gap windows carry NaN stats, and `NaN != NaN`.
fn windows_bitwise_eq(a: &[NodeWindow], b: &[NodeWindow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node
                && x.window_start.to_bits() == y.window_start.to_bits()
                && x.stats.len() == y.stats.len()
                && x.stats.iter().zip(&y.stats).all(|(s, t)| {
                    s.count == t.count
                        && s.min.to_bits() == t.min.to_bits()
                        && s.max.to_bits() == t.max.to_bits()
                        && s.mean.to_bits() == t.mean.to_bits()
                        && s.std.to_bits() == t.std.to_bits()
                })
        })
}

fn coarsen(node: NodeId, frames: &[NodeFrame]) -> (Vec<NodeWindow>, u64) {
    let mut agg = WindowAggregator::paper(node);
    for f in frames {
        let _ = agg.push(f);
    }
    let (windows, health) = agg.finish_with_health();
    (windows, health.accepted)
}

#[test]
fn faulty_stream_matches_clean_reference_exactly() {
    let node = NodeId(0);
    let base = frames_for(node, 600);
    for (case, config) in [
        FaultConfig::light(1),
        FaultConfig::light(0xFEE1),
        FaultConfig {
            drop_p: 0.10,
            duplicate_p: 0.10,
            delay_p: 0.15,
            reorder_p: 0.05,
            seed: 42,
        },
        FaultConfig {
            drop_p: 0.0,
            duplicate_p: 0.30,
            delay_p: 0.0,
            reorder_p: 0.25,
            seed: 7,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let mut injector = FaultInjector::new(config);
        let delivered = injector.deliver(base.clone());
        let injected = injector.injected();

        // Delivery conservation: every generated frame is delivered,
        // dropped, or delivered twice.
        assert_eq!(
            delivered.len() as u64,
            base.len() as u64 - injected.dropped + injected.duplicated,
            "case {case}: delivery conservation"
        );

        // The aggregator must agree with the documented admission rule
        // frame for frame.
        let (accepted, dups, late, reordered) = classify(&delivered);
        let mut agg = WindowAggregator::paper(node);
        for f in &delivered {
            let _ = agg.push(f);
        }
        let (faulty_windows, health) = agg.finish_with_health();
        assert_eq!(health.accepted, accepted.len() as u64, "case {case}");
        assert_eq!(health.duplicates, dups, "case {case}");
        assert_eq!(health.late_dropped, late, "case {case}");
        assert_eq!(health.reordered, reordered, "case {case}");
        assert_eq!(health.wrong_node + health.invalid, 0, "case {case}");
        assert_eq!(
            health.offered(),
            delivered.len() as u64,
            "case {case}: every delivered frame is counted exactly once"
        );

        // Every injected fault lands in a counter: drops never reach the
        // aggregator, duplicates dedup unless their copy outran the
        // horizon (then it is late), extra delays are late only if the
        // watermark moved past them.
        assert!(health.duplicates <= injected.duplicated, "case {case}");
        assert!(
            injected.duplicated - health.duplicates <= health.late_dropped,
            "case {case}"
        );

        // Identical windows to the clean, ordered replay of exactly the
        // accepted frames — including any NaN gap windows.
        let mut ordered = accepted;
        ordered.sort_by(|a, b| a.t_sample.total_cmp(&b.t_sample));
        let (clean_windows, clean_accepted) = coarsen(node, &ordered);
        assert_eq!(clean_accepted, health.accepted, "case {case}");
        assert!(
            windows_bitwise_eq(&faulty_windows, &clean_windows),
            "case {case}: faulty and clean coarsenings diverge"
        );
    }
}

#[test]
fn clean_stream_is_untouched_by_zero_probability_injector() {
    let node = NodeId(3);
    let base = frames_for(node, 120);
    let mut injector = FaultInjector::new(FaultConfig::default());
    let delivered = injector.deliver(base.clone());
    assert_eq!(injector.injected().total(), 0);
    assert_eq!(delivered.len(), base.len());
    let (windows, accepted) = coarsen(node, &delivered);
    assert_eq!(accepted, 120);
    assert_eq!(windows.len(), 12);
    assert!(windows
        .iter()
        .all(|w| w.metric(catalog::input_power()).count == 10));
}

/// The streaming pipeline under whole-cabinet outage bursts must match
/// a batch reference built from the same public primitives: generate
/// the tick stream once ([`Engine::step_batch`]), inject the same fault
/// profile per node, coarsen in parallel — windows, ingest statistics
/// and injected-fault counts all agree to the bit.
#[test]
fn streaming_with_cabinet_outage_bursts_matches_batch_reference() {
    let outages = vec![
        CabinetOutage {
            cabinet: CabinetId(0),
            start_s: 30.0,
            end_s: 70.0,
        },
        CabinetOutage {
            cabinet: CabinetId(1),
            start_s: 100.0,
            end_s: 140.0,
        },
    ];
    let faults = FaultConfig::light(11);
    let duration_s = 240.0;

    // Batch reference, mirroring run_telemetry's association exactly.
    let mut config = EngineConfig::small(2);
    config.cabinet_outages = outages.clone();
    let dt = config.dt_s;
    let n_ticks = (duration_s / dt).ceil() as usize;
    let mut engine = Engine::new(config, 0.0);
    let mut batch = FrameBatch::new();
    let mut frames_by_node: Vec<Vec<NodeFrame>> = Vec::new();
    for _ in 0..n_ticks {
        engine.step_batch(&StepOptions { frames: true }, &mut batch);
        for row in 0..batch.len() {
            let f = batch.read_frame(row);
            let idx = f.node.index();
            if frames_by_node.len() <= idx {
                frames_by_node.resize_with(idx + 1, Vec::new);
            }
            frames_by_node[idx].push(f);
        }
    }
    // The bursts took effect: a cabinet-0 node reports NaN during its
    // outage window and real power outside it.
    let in_outage = |f: &&NodeFrame| f.t_sample >= 30.0 && f.t_sample < 70.0;
    assert!(frames_by_node[0]
        .iter()
        .filter(in_outage)
        .all(|f| f.get(catalog::input_power()).is_nan()));
    assert!(frames_by_node[0]
        .iter()
        .filter(|f| !in_outage(f))
        .all(|f| !f.get(catalog::input_power()).is_nan()));

    let mut injector = FaultInjector::new(faults);
    let delivered: Vec<Vec<NodeFrame>> = frames_by_node
        .into_iter()
        .map(|batch| injector.deliver(batch))
        .collect();
    let mut ref_stats = IngestStats::default();
    for batch in &delivered {
        let mut node_stats = IngestStats::default();
        for f in batch {
            node_stats.observe(f);
        }
        ref_stats.merge(&node_stats);
    }
    let (ref_windows, ref_health) = coarsen_parallel_with_health(&delivered, PAPER_WINDOW_S);

    // The online pipeline over the same outage schedule.
    let mut cfg = StreamConfig::new(2, duration_s, Some(faults));
    cfg.cabinet_outages = outages;
    let run = run_streaming(cfg);

    // Exact fault accounting: injected counts and the coarsener's
    // health ledger agree with the reference integer for integer.
    assert_eq!(run.injected, injector.injected());
    assert_eq!(run.stats.health, ref_health);
    assert_eq!(run.stats.frames, ref_stats.frames);
    assert_eq!(run.stats.metrics, ref_stats.metrics);
    assert_eq!(
        run.stats.total_delay_s.to_bits(),
        ref_stats.total_delay_s.to_bits()
    );
    assert_eq!(
        run.stats.max_delay_s.to_bits(),
        ref_stats.max_delay_s.to_bits()
    );

    // Bit-identical coarsening, node by node (either side may omit
    // trailing all-silent nodes; absent means no windows).
    let nodes = run.windows_by_node.len().max(ref_windows.len());
    for i in 0..nodes {
        let stream_windows = run.windows_by_node.get(i).map_or(&[][..], Vec::as_slice);
        let batch_windows = ref_windows.get(i).map_or(&[][..], Vec::as_slice);
        assert!(
            windows_bitwise_eq(stream_windows, batch_windows),
            "node {i}: streaming and batch coarsenings diverge under outage bursts"
        );
    }
}

/// A duplicate arriving after its window has already closed (watermark
/// beyond the lateness horizon) must classify as `Late` — the pending
/// dedup set no longer remembers the key, and re-admitting the frame
/// would corrupt an already-emitted window.
#[test]
fn duplicate_after_window_close_is_late_never_a_wrong_window() {
    let node = NodeId(5);
    let mut agg = WindowAggregator::paper(node);
    let base = frames_for(node, 30);
    for f in &base {
        agg.push(f).unwrap();
    }
    // t=2 s: its 0-10 s window closed when the watermark hit 29 s.
    let err = agg.push(&base[2]).unwrap_err();
    assert!(matches!(err, IngestError::Late { .. }), "got {err}");
    let (windows, health) = agg.finish_with_health();
    assert_eq!(health.accepted, 30);
    assert_eq!(health.late_dropped, 1);
    assert_eq!(health.duplicates, 0);
    assert_eq!(windows.len(), 3);
    // The closed window the duplicate aimed at is untouched.
    assert!(windows
        .iter()
        .all(|w| w.metric(catalog::input_power()).count == 10));
}

/// A rogue first frame far in the future seeds the watermark; every
/// honest frame afterwards is beyond the horizon and must drop as
/// `Late` with exact accounting — never panic, never a wrong window.
#[test]
fn all_late_node_after_rogue_watermark_seed_accounts_exactly() {
    let node = NodeId(6);
    let mut agg = WindowAggregator::paper(node);
    let mut rogue = NodeFrame::empty(node, 1e6);
    rogue.set(catalog::input_power(), 1500.0);
    agg.push(&rogue).unwrap();
    for f in &frames_for(node, 50) {
        assert!(
            matches!(agg.push(f), Err(IngestError::Late { .. })),
            "frame at t={} admitted past a 1e6 s watermark",
            f.t_sample
        );
    }
    let (windows, health) = agg.finish_with_health();
    assert_eq!(health.accepted, 1);
    assert_eq!(health.late_dropped, 50);
    assert_eq!(health.duplicates + health.reordered, 0);
    assert_eq!(windows.len(), 1);
    assert_eq!(windows[0].window_start, 1e6);
}

/// The lateness boundary is inclusive: a frame at exactly
/// `watermark - horizon` is admitted (and counted reordered), one
/// strictly below it drops as late.
#[test]
fn frame_exactly_at_horizon_boundary_is_admitted() {
    let node = NodeId(7);
    let mut agg = WindowAggregator::paper(node);
    let at = |t: f64| {
        let mut f = NodeFrame::empty(node, t);
        f.set(catalog::input_power(), 1500.0);
        f
    };
    agg.push(&at(10.0)).unwrap();
    // Exactly watermark - horizon: inclusive accept, counted reordered.
    agg.push(&at(10.0 - HORIZON_S)).unwrap();
    // Strictly beyond the horizon: late.
    assert!(matches!(
        agg.push(&at(10.0 - HORIZON_S - 1.0)),
        Err(IngestError::Late { .. })
    ));
    let (_, health) = agg.finish_with_health();
    assert_eq!(health.accepted, 2);
    assert_eq!(health.reordered, 1);
    assert_eq!(health.late_dropped, 1);
}

#[test]
fn hostile_stream_never_panics() {
    // Wrong nodes, NaN timestamps, deep reversals, duplicates of
    // duplicates: the aggregator must classify everything and survive.
    let node = NodeId(1);
    let mut agg = WindowAggregator::paper(node);
    let mut frames = frames_for(node, 100);
    frames.reverse();
    let mut offered = 0u64;
    for f in &frames {
        let _ = agg.push(f);
        let _ = agg.push(f); // immediate duplicate
        offered += 2;
    }
    let _ = agg.push(&NodeFrame::empty(NodeId(99), 5.0));
    let _ = agg.push(&NodeFrame::empty(node, f64::NAN));
    let _ = agg.push(&NodeFrame::empty(node, f64::INFINITY));
    let _ = agg.push(&NodeFrame::empty(node, -1e12));
    offered += 4;
    let (windows, health) = agg.finish_with_health();
    assert_eq!(health.offered(), offered);
    assert_eq!(health.wrong_node, 1);
    assert_eq!(health.invalid, 2);
    // A fully reversed 1 Hz stream admits only the 5 s horizon's worth.
    assert!(health.accepted >= 6 && health.late_dropped > 0);
    assert!(!windows.is_empty());
}
