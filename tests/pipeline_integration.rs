//! End-to-end pipeline integration: engine -> frames -> archive
//! -> coarsening -> cluster/job aggregation, mirroring the paper's Figure 3
//! data path.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::sim::engine::{Engine, EngineConfig, StepOptions};
use summit_repro::sim::failures::CabinetOutage;
use summit_repro::sim::jobs::JobGenerator;
use summit_repro::telemetry::batch::FrameBatch;
use summit_repro::telemetry::catalog;
use summit_repro::telemetry::cluster::{cluster_power, cluster_power_series};
use summit_repro::telemetry::ids::{CabinetId, NodeId};
use summit_repro::telemetry::jobjoin::{job_level_power, join_jobs, AllocationIndex};
use summit_repro::telemetry::store::TelemetryStore;
use summit_repro::telemetry::window::WindowAggregator;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs a small engine with one job and returns (frames per node, job
/// allocations, true power per tick).
fn simulate(
    cabinets: usize,
    seconds: usize,
) -> (
    Vec<Vec<summit_repro::telemetry::records::NodeFrame>>,
    Vec<summit_repro::telemetry::records::NodeAllocation>,
    Vec<f64>,
) {
    let mut engine = Engine::new(EngineConfig::small(cabinets), 0.0);
    let mut rng = StdRng::seed_from_u64(42);
    let mut gen = JobGenerator::new();
    let mut job = gen.generate_with_class(&mut rng, 10.0, 5);
    job.record.node_count = (cabinets as u32 * 18) / 2;
    job.record.end_time = job.record.begin_time + seconds as f64;
    job.profile.gpu_intensity = 0.85;
    job.profile.checkpoint_interval_s = 0.0;
    engine.scheduler().submit(job);

    let nodes = engine.topology().node_count();
    let mut frames_by_node: Vec<Vec<_>> = (0..nodes).map(|_| Vec::with_capacity(seconds)).collect();
    let mut true_power = Vec::with_capacity(seconds);
    let mut batch = FrameBatch::new();
    for _ in 0..seconds {
        let out = engine.step_batch(&StepOptions { frames: true }, &mut batch);
        true_power.push(out.true_compute_power_w);
        for row in 0..batch.len() {
            let f = batch.read_frame(row);
            frames_by_node[f.node.index()].push(f);
        }
    }
    let allocs = engine.scheduler_ref().all_node_allocations();
    (frames_by_node, allocs, true_power)
}

#[test]
fn cluster_aggregation_matches_truth_within_sensor_error() {
    let (frames, _, true_power) = simulate(4, 60);
    let windows: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(n, fs)| {
            let mut agg = WindowAggregator::paper(NodeId(n as u32));
            for f in fs {
                agg.push(f).unwrap();
            }
            agg.finish()
        })
        .collect();
    let rows = cluster_power(&windows);
    assert_eq!(rows.len(), 6, "60 s at 10 s windows");
    // Every node reports in every window.
    for r in &rows {
        assert_eq!(r.count_inp as usize, frames.len());
    }
    // Cluster sums should track the true power within the ~1-2 % sensor
    // bias + noise.
    let true_mean: f64 = true_power.iter().sum::<f64>() / true_power.len() as f64;
    let est_mean: f64 = rows.iter().map(|r| r.sum_inp).sum::<f64>() / rows.len() as f64;
    let rel = (est_mean - true_mean).abs() / true_mean;
    assert!(rel < 0.03, "cluster estimate off by {rel}");
    // And the series fills without gaps.
    let series = cluster_power_series(&rows, 10.0).unwrap();
    assert_eq!(series.missing_fraction(), 0.0);
}

#[test]
fn job_join_attributes_only_job_windows() {
    let (frames, allocs, _) = simulate(4, 60);
    let windows: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(n, fs)| {
            let mut agg = WindowAggregator::paper(NodeId(n as u32));
            for f in fs {
                agg.push(f).unwrap();
            }
            agg.finish()
        })
        .collect();
    let index = AllocationIndex::build(&allocs);
    let (rows, comp) = join_jobs(&windows, &index);
    assert!(!rows.is_empty(), "the job must appear in the join");
    let job_nodes = allocs.len();
    for r in &rows {
        assert!(r.count_hostname as usize <= job_nodes);
        assert!(r.sum_inp > 0.0);
    }
    // Job-level collapse is consistent with its windows.
    let jobs = job_level_power(&rows, 10.0);
    assert_eq!(jobs.len(), 1);
    let j = &jobs[0];
    let max_row = rows.iter().map(|r| r.sum_inp).fold(f64::MIN, f64::max);
    assert!((j.max_sum_inp - max_row).abs() < 1e-9);
    assert!(j.mean_sum_inp <= j.max_sum_inp);
    assert!(j.energy_j > 0.0);
    // Component rows align with power rows.
    assert_eq!(comp.len(), rows.len());
    for c in &comp {
        assert!(c.mean_gpu_power > 0.0, "GPU-heavy job must show GPU power");
    }
}

#[test]
fn archive_roundtrip_through_store() {
    let (frames, _, _) = simulate(2, 60);
    let store = TelemetryStore::new();
    for (n, fs) in frames.iter().enumerate() {
        store.archive_partition(NodeId(n as u32), fs);
    }
    assert_eq!(store.partition_count(), 36);
    let restored = store.load_partition(NodeId(0), 0.0).unwrap();
    assert_eq!(restored.len(), 60);
    for (orig, rest) in frames[0].iter().zip(&restored) {
        let a = orig.get(catalog::input_power());
        let b = rest.get(catalog::input_power());
        assert!(
            (a - b).abs() <= 0.5,
            "lossless to integer watts: {a} vs {b}"
        );
    }
    let stats = store.compression_stats();
    assert!(stats.ratio() > 2.0, "compression ratio {}", stats.ratio());
}

#[test]
fn deterministic_under_fixed_seed() {
    let (f1, _, p1) = simulate(2, 30);
    let (f2, _, p2) = simulate(2, 30);
    assert_eq!(p1, p2, "true power must be reproducible");
    for (a, b) in f1.iter().flatten().zip(f2.iter().flatten()) {
        // Compare bit patterns: unset metrics are NaN, and NaN != NaN.
        let bits = |f: &summit_repro::telemetry::records::NodeFrame| -> Vec<u32> {
            f.values.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "frames must be bit-identical");
    }
}

#[test]
fn missing_cabinet_flows_through_aggregation() {
    let mut cfg = EngineConfig::small(3);
    cfg.cabinet_outages.push(CabinetOutage {
        cabinet: CabinetId(1),
        start_s: f64::NEG_INFINITY,
        end_s: f64::INFINITY,
    });
    let mut engine = Engine::new(cfg, 0.0);
    let nodes = engine.topology().node_count();
    let mut frames_by_node = vec![Vec::new(); nodes];
    let mut batch = FrameBatch::new();
    for _ in 0..20 {
        engine.step_batch(&StepOptions { frames: true }, &mut batch);
        for row in 0..batch.len() {
            let f = batch.read_frame(row);
            frames_by_node[f.node.index()].push(f);
        }
    }
    let windows: Vec<_> = frames_by_node
        .iter()
        .enumerate()
        .map(|(n, fs)| {
            let mut agg = WindowAggregator::paper(NodeId(n as u32));
            for f in fs {
                agg.push(f).unwrap();
            }
            agg.finish()
        })
        .collect();
    let rows = cluster_power(&windows);
    // 18 of 54 nodes are dark: counts reflect only reporting nodes.
    for r in &rows {
        assert_eq!(r.count_inp, 36, "only two cabinets report");
    }
}
