//! Scenario presets and shared experiment plumbing.
//!
//! Three reusable paths feed the experiments, mirroring how the paper's
//! analyses divide:
//!
//! 1. **Population path** — the scaled 840k-job statistical year plus
//!    closed-form job statistics (Figures 5-10, 14; Table 4).
//! 2. **Dynamics path** — full time-domain engine runs at 1 Hz/10 s for
//!    edge, snapshot and thermal-response studies (Figures 4, 11, 12, 17).
//! 3. **Telemetry path** — engine frames through the per-node fault
//!    fabric into 10 s coarsening, run by two executors that share one
//!    node-lane consumer: batch ([`run_telemetry`]) and online
//!    ([`run_streaming`]). Table 2 reports their runs, with the same
//!    frames archived losslessly by [`archive_replay`].

use crate::monitoring::{Alert, OpsConsole};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use summit_analysis::series::Series;
use summit_sim::engine::{Engine, EngineConfig, StepOptions, TickOutput, TICKS_PER_GROUP};
use summit_sim::failures::{FailureModel, ThermalRegime};
use summit_sim::jobs::{JobGenerator, SyntheticJob};
use summit_sim::jobstats::{population_stats, JobStatsRow};
use summit_sim::power::PowerModel;
use summit_sim::spec;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::catalog::METRIC_COUNT;
use summit_telemetry::delivery::{Delivered, NodeDelivery};
use summit_telemetry::ids::NodeId;
use summit_telemetry::ingest::{IngestHealth, LATENESS_HORIZON_S};
use summit_telemetry::records::{NodeFrame, XidEvent};
use summit_telemetry::store::TelemetryStore;
use summit_telemetry::stream::{FaultConfig, IngestStats, InjectedFaults};
use summit_telemetry::window::{NodeWindow, WindowAggregator, PAPER_WINDOW_S};

/// Seed of the statistical-year population and of the power model its
/// closed-form stats are computed with.
pub const POPULATION_SEED: u64 = 2020;

/// The scaled statistical-year scenario: `job_count` arrivals spread
/// over the full paper year, drawn from [`POPULATION_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct PopulationScenario {
    /// Number of jobs to draw (paper year = 840,000).
    pub job_count: usize,
}

impl PopulationScenario {
    /// The paper year scaled by `scale` (job count scales, span stays a
    /// full year so seasonal structure is preserved).
    pub fn paper_year(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self {
            job_count: (840_000.0 * scale) as usize,
        }
    }

    /// Generates the population.
    pub fn generate(&self) -> Vec<SyntheticJob> {
        let _obs = summit_obs::span("summit_core_population_generate");
        let mut rng = StdRng::seed_from_u64(POPULATION_SEED);
        let mut g = JobGenerator::new();
        let jobs = g.generate_population(&mut rng, self.job_count, 0.0, spec::YEAR_S);
        summit_obs::counter("summit_core_jobs_generated_total").inc_by(jobs.len() as u64);
        jobs
    }

    /// Generates the population with its closed-form stats: the
    /// artifact the scenario cache memoizes.
    pub fn artifact(&self) -> PopulationArtifact {
        let _obs = summit_obs::span("summit_core_population_stats");
        let power_model = PowerModel::new(POPULATION_SEED);
        let jobs = self.generate();
        PopulationArtifact {
            rows: population_stats(&jobs, &power_model),
            power_model,
        }
    }
}

/// The cached form of a generated population: per-job stats rows (each
/// row carries its [`SyntheticJob`]) plus the power model they were
/// derived with.
#[derive(Debug, Clone)]
pub struct PopulationArtifact {
    /// Per-job statistics in generation order.
    pub rows: Vec<JobStatsRow>,
    /// The (seeded) power model the stats were computed with.
    pub power_model: PowerModel,
}

/// The scaled failure-year scenario: paper-rate job traffic plus the
/// paper's XID failure model over `weeks` of observation. Shared by
/// Table 4, Figures 13-16 and the early-warning study, which is why the
/// scenario cache treats it as a first-class artifact.
#[derive(Debug, Clone, Copy)]
pub struct FailureScenario {
    /// Observation span (weeks); 52+ reproduces the paper year.
    pub weeks: f64,
    /// Seed for both the job population and the failure draws.
    pub seed: u64,
}

impl FailureScenario {
    /// Generates the job population and its failure log under
    /// `regime`: one seeded stream draws the jobs first, then the
    /// failures. Every failure year the studies, bins and examples use
    /// comes from here, so two callers with the same scenario and
    /// regime see bit-identical logs.
    pub fn generate(&self, regime: ThermalRegime) -> FailureArtifact {
        let _obs = summit_obs::span("summit_core_failure_scenario");
        let span = self.weeks * 7.0 * 86_400.0;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut gen = JobGenerator::new();
        let n_jobs = (840_000.0 * span / spec::YEAR_S) as usize;
        let jobs = gen.generate_population(&mut rng, n_jobs, 0.0, span);
        summit_obs::counter("summit_core_jobs_generated_total").inc_by(jobs.len() as u64);
        let model = FailureModel::new(regime, spec::TOTAL_NODES);
        let events = model.generate(&mut rng, &jobs, spec::TOTAL_NODES, 0.0, span);
        FailureArtifact { jobs, events }
    }
}

/// The cached form of a generated failure year.
#[derive(Debug, Clone)]
pub struct FailureArtifact {
    /// The job population the failures were drawn over.
    pub jobs: Vec<SyntheticJob>,
    /// XID events in generation order.
    pub events: Vec<XidEvent>,
}

/// Builds the cluster power series over a window from a job population by
/// event sweep: each active job contributes its mean power above idle;
/// the total is floored at system idle and capped at compute capacity.
/// This is the coarse path behind the Figure 5 yearly trend.
pub fn cluster_power_sweep(rows: &[JobStatsRow], t0: f64, t1: f64, dt: f64) -> Series {
    assert!(t1 > t0 && dt > 0.0);
    let _obs = summit_obs::span("summit_core_cluster_power_sweep");
    let idle_w = spec::SYSTEM_IDLE_POWER_W;
    let cap_w = spec::TOTAL_NODES as f64 * spec::NODE_MAX_POWER_W;
    let n = ((t1 - t0) / dt).ceil() as usize;

    // Event sweep: delta at job begin/end.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(rows.len() * 2);
    for r in rows {
        let above_idle = (r.stats.mean_power_w
            - r.job.record.node_count as f64 * spec::NODE_IDLE_POWER_W)
            .max(0.0);
        events.push((r.job.record.begin_time, above_idle));
        events.push((r.job.record.end_time, -above_idle));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut values = vec![0.0f64; n];
    let mut level = 0.0;
    let mut e = 0;
    for (i, v) in values.iter_mut().enumerate() {
        let t = t0 + i as f64 * dt;
        while e < events.len() && events[e].0 <= t {
            level += events[e].1;
            e += 1;
        }
        *v = (idle_w + level).min(cap_w);
    }
    Series::new(t0, dt, values)
}

/// A completed time-domain engine run.
#[derive(Debug, Clone)]
pub struct DynamicsRun {
    /// Per-tick outputs (summary level).
    pub ticks: Vec<TickOutput>,
    /// Tick interval (s).
    pub dt_s: f64,
}

impl DynamicsRun {
    fn series_of(&self, f: impl Fn(&TickOutput) -> f64) -> Series {
        let t0 = self.ticks.first().map_or(0.0, |o| o.t);
        Series::new(t0, self.dt_s, self.ticks.iter().map(f).collect())
    }

    /// Sensor-summed compute power series (W) — what the telemetry sees.
    pub fn power_series(&self) -> Series {
        self.series_of(|o| o.sensor_compute_power_w)
    }

    /// True compute power series (W).
    pub fn true_power_series(&self) -> Series {
        self.series_of(|o| o.true_compute_power_w)
    }

    /// PUE series.
    pub fn pue_series(&self) -> Series {
        self.series_of(|o| o.cep.pue())
    }

    /// Cluster GPU mean/max temperature series (°C).
    pub fn gpu_temp_mean_series(&self) -> Series {
        self.series_of(|o| o.gpu_temp_mean_c)
    }

    /// Max-GPU temperature series (°C).
    pub fn gpu_temp_max_series(&self) -> Series {
        self.series_of(|o| o.gpu_temp_max_c)
    }

    /// Cluster CPU mean temperature series (°C).
    pub fn cpu_temp_mean_series(&self) -> Series {
        self.series_of(|o| o.cpu_temp_mean_c)
    }

    /// MTW return temperature series (°C).
    pub fn mtw_return_series(&self) -> Series {
        self.series_of(|o| o.cep.mtw_return_c)
    }

    /// MTW supply temperature series (°C).
    pub fn mtw_supply_series(&self) -> Series {
        self.series_of(|o| o.cep.mtw_supply_c)
    }

    /// Tower cooling series (tons of refrigeration).
    pub fn tower_tons_series(&self) -> Series {
        self.series_of(|o| o.cep.tower_tons)
    }

    /// Chiller cooling series (tons of refrigeration).
    pub fn chiller_tons_series(&self) -> Series {
        self.series_of(|o| o.cep.chiller_tons)
    }
}

/// A staged burst: one job sized to produce a clean power edge.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Start offset from the run start (s).
    pub at_s: f64,
    /// Node count of the burst job.
    pub nodes: u32,
    /// Duration (s).
    pub duration_s: f64,
    /// Peak GPU utilization of the burst job.
    pub gpu_intensity: f64,
}

/// Runs the engine over `duration_s` with a staged burst schedule —
/// the controlled-workload path behind the Figure 11/12 edge snapshots.
/// `t0` positions the run in the year (e.g. summer for chiller activity).
pub fn run_burst_schedule(
    config: EngineConfig,
    t0: f64,
    duration_s: f64,
    bursts: &[Burst],
) -> DynamicsRun {
    let _obs = summit_obs::span("summit_core_run_burst_schedule");
    let dt = config.dt_s;
    let seed = config.seed;
    let mut engine = Engine::new(config, t0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0057);
    let mut gen = JobGenerator::new();
    // Jobs cannot exceed the largest schedulable size (Table 3).
    let max_nodes = (engine.topology().node_count() as u32).min(spec::MAX_JOB_NODES);
    for b in bursts {
        let mut job = gen.generate_with_class(&mut rng, t0 + b.at_s, 5);
        job.record.node_count = b.nodes.min(max_nodes);
        // Re-derive class from the actual node count for consistency.
        job.record.class = spec::class_of_node_count(job.record.node_count);
        job.record.end_time = job.record.begin_time + b.duration_s;
        job.profile.gpu_intensity = b.gpu_intensity;
        job.profile.cpu_intensity = 0.35;
        job.profile.oscillation_depth = 0.05;
        job.profile.ramp_s = 15.0;
        job.profile.checkpoint_interval_s = 0.0;
        engine.scheduler().submit(job);
    }
    summit_obs::counter("summit_core_jobs_generated_total").inc_by(bursts.len() as u64);
    let n_ticks = (duration_s / dt).ceil() as usize;
    let ticks = engine.run(n_ticks);
    summit_obs::counter("summit_core_engine_ticks_total").inc_by(ticks.len() as u64);
    DynamicsRun { ticks, dt_s: dt }
}

/// Mid-summer timestamp (Jul 24, the start of the paper's summer
/// snapshot window).
pub fn summer_t0() -> f64 {
    // Jul 24 2020 = day-of-year 205 (leap year).
    205.0 * 86_400.0
}

/// Runs a small standard dynamics scenario (used by tests and the
/// quickstart example): a few bursts on a scaled floor at 1 Hz.
pub fn quick_dynamics(cabinets: usize, duration_s: f64) -> DynamicsRun {
    let _obs = summit_obs::span("summit_core_quick_dynamics");
    let config = EngineConfig::small(cabinets);
    let nodes = (cabinets * 18) as u32;
    let bursts = vec![
        Burst {
            at_s: 120.0,
            nodes: nodes / 2,
            duration_s: 300.0,
            gpu_intensity: 0.95,
        },
        Burst {
            at_s: 600.0,
            nodes,
            duration_s: 300.0,
            gpu_intensity: 0.95,
        },
    ];
    run_burst_schedule(config, summer_t0(), duration_s, &bursts)
}

/// A completed telemetry-path run: frames generated by the engine,
/// delivered per node through the (optionally faulty) simulated fabric
/// in arrival order, and coarsened fault-tolerantly.
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// Coarsened 10 s windows per node.
    pub windows_by_node: Vec<Vec<NodeWindow>>,
    /// Ingest statistics, including the fault-tolerance health counters.
    pub stats: IngestStats,
    /// Faults the injector introduced (all zero for a clean run).
    pub injected: InjectedFaults,
    /// Per-run observability snapshot: every counter, gauge and stage
    /// timing the run recorded, isolated from other concurrent runs.
    pub obs: summit_obs::Snapshot,
    /// One-line run summary built from the registry.
    pub summary: String,
}

/// Builds the end-of-run summary line of the executor `entry` from
/// registry counters; `extra` is appended before the wall time. All
/// values except wall time are deterministic for a fixed seed.
fn run_summary(entry: &str, snap: &summit_obs::Snapshot, extra: &str, wall_s: f64) -> String {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    format!(
        "[obs] {entry}: frames offered={} admitted={} dropped={} windows={}{extra} wall={:.3}s",
        c("summit_core_frames_offered_total"),
        c("summit_telemetry_frames_accepted_total"),
        c("summit_telemetry_frames_dropped_total"),
        c("summit_telemetry_windows_total"),
        wall_s,
    )
}

/// Incremental per-node frame→window→alert latency accounting (seconds),
/// fed one delivered frame at a time.
///
/// An alert can fire no earlier than the moment its 10 s window closes,
/// and the coarsener closes a window once the per-node watermark (max
/// `t_sample` seen) has advanced [`LATENESS_HORIZON_S`] past the
/// window's end. For every window this records `t_close -
/// window_start`, where `t_close` is the ingest time of the frame whose
/// arrival closed the window (windows still open at end of stream close
/// at the node's last ingest time). Deterministic for a fixed seed: only
/// simulated timestamps enter the computation.
struct AlertLatencyTracker {
    open: std::collections::BTreeSet<i64>,
    wm: f64,
    last_ingest: f64,
    closed: Vec<f64>,
}

impl AlertLatencyTracker {
    fn new() -> Self {
        Self {
            open: std::collections::BTreeSet::new(),
            wm: f64::NEG_INFINITY,
            last_ingest: f64::NEG_INFINITY,
            closed: Vec::new(),
        }
    }

    /// Latencies closed so far (delivery order within the node).
    fn closed(&self) -> &[f64] {
        &self.closed
    }

    /// Accounts one delivered frame by its sample and ingest times.
    fn observe(&mut self, t_sample: f64, t_ingest: f64) {
        self.wm = self.wm.max(t_sample);
        self.last_ingest = self.last_ingest.max(t_ingest);
        let cutoff = self.wm - LATENESS_HORIZON_S;
        while let Some(&k) = self.open.first() {
            let start = k as f64 * PAPER_WINDOW_S;
            if start + PAPER_WINDOW_S <= cutoff {
                self.open.remove(&k);
                self.closed.push((t_ingest - start).max(0.0));
            } else {
                break;
            }
        }
        let key = (t_sample / PAPER_WINDOW_S).floor() as i64;
        // A frame past the horizon would be dropped as late by the
        // ingester; don't let it re-open a closed window.
        if key as f64 * PAPER_WINDOW_S + PAPER_WINDOW_S > cutoff {
            self.open.insert(key);
        }
    }

    /// Closes every still-open window at the node's last ingest time.
    fn finish(mut self) -> Vec<f64> {
        if self.last_ingest.is_finite() {
            let open = std::mem::take(&mut self.open);
            for k in open {
                let start = k as f64 * PAPER_WINDOW_S;
                self.closed.push((self.last_ingest - start).max(0.0));
            }
        }
        self.closed
    }
}

/// Bounded channel capacity (tick batches) between the streaming
/// producer and its consumer; the producer blocks when the consumer
/// lags.
const CHANNEL_CAPACITY: usize = 8;

/// The frame→alert latency histogram both executors record.
const LATENCY_HISTOGRAM: &str = "summit_core_frame_to_alert_latency_seconds";

/// Engine options that fill the tick's frame batch.
fn frame_options() -> StepOptions {
    StepOptions { frames: true }
}

/// One node's consumer state: its delivery through the fabric, the
/// stages behind it and the buffer between them. Lane `i` is node `i`
/// and consumes row `i` of every tick batch, so a pool worker keeps
/// one node's state cache-hot across a whole group of ticks. Each
/// frame's row is copied once, from the batch into the delivery's
/// slab; from there only its key moves, and the stages read the row in
/// place.
struct NodeLane {
    delivery: NodeDelivery,
    /// Frames the fabric released, on their way to the stages (reused).
    released: Vec<Delivered>,
    stages: NodeStages,
}

/// The per-node stages behind the fabric. Every delivered frame passes
/// them in this order: latency tracker, ingest stats, coarsener.
struct NodeStages {
    tracker: AlertLatencyTracker,
    stats: IngestStats,
    /// Keyed to the lane's node: a frame of any other node counts as
    /// `wrong_node` in its health.
    coarsener: WindowAggregator,
    /// Closed latencies the calling thread has already recorded.
    latencies_seen: usize,
}

impl NodeStages {
    fn ingest(&mut self, f: &Delivered, values: &[f32; METRIC_COUNT]) {
        self.tracker.observe(f.t_sample, f.t_ingest);
        self.stats.observe_arrival(f.t_sample, f.t_ingest);
        // Faults are counted in its health.
        let _ = self.coarsener.push_values(f.node, f.t_sample, values);
    }
}

impl NodeLane {
    fn new(node: NodeId, faults: FaultConfig) -> Self {
        Self {
            delivery: NodeDelivery::new(faults),
            released: Vec::new(),
            stages: NodeStages {
                tracker: AlertLatencyTracker::new(),
                stats: IngestStats::default(),
                coarsener: WindowAggregator::new(node, PAPER_WINDOW_S),
                latencies_seen: 0,
            },
        }
    }

    /// Offers this lane's row of each tick batch, in tick order, and
    /// runs every frame the fabric releases through the stages.
    fn consume(&mut self, row: usize, group: &[FrameBatch]) {
        for batch in group {
            self.delivery.offer_row(
                batch.node(row),
                batch.t_sample(row),
                |dst| *dst = *batch.row(row),
                &mut self.released,
            );
            self.ingest_released();
        }
    }

    /// Runs the released frames through the stages, each read from the
    /// delivery slab, and frees their slots.
    fn ingest_released(&mut self) {
        for f in self.released.drain(..) {
            self.stages.ingest(&f, self.delivery.row(f.slot));
            self.delivery.free(f.slot);
        }
    }

    /// Frames held between the fabric and closed windows.
    fn resident(&self) -> usize {
        self.delivery.resident() + self.stages.coarsener.pending_len()
    }

    /// Windows closed since the last drain.
    fn drain_windows(&mut self) -> Vec<NodeWindow> {
        self.stages.coarsener.drain_completed()
    }
}

/// Consumes one group of tick batches and returns the frames offered.
/// Lane `i` reads row `i` of each batch on the pool; then the calling
/// thread records the newly closed alert latencies in node-index order.
/// Lanes share no state and the chunk grid depends only on the lane
/// count, so no thread count or schedule can change a bit.
fn consume_group(lanes: &mut [NodeLane], group: &[FrameBatch]) -> u64 {
    debug_assert!(group.iter().all(|b| b.len() == lanes.len()));
    {
        let _obs = summit_obs::span("summit_telemetry_coarsen");
        let _: Vec<()> = lanes
            .iter_mut()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(row, lane)| lane.consume(row, group))
            .collect();
    }
    let histogram = summit_obs::histogram(LATENCY_HISTOGRAM);
    for lane in lanes.iter_mut() {
        let stages = &mut lane.stages;
        for &lat in &stages.tracker.closed()[stages.latencies_seen..] {
            histogram.observe(lat);
        }
        stages.latencies_seen = stages.tracker.closed().len();
    }
    group.iter().map(|b| b.len() as u64).sum()
}

/// What a finished run's lanes add up to.
struct LaneTotals {
    windows_by_node: Vec<Vec<NodeWindow>>,
    stats: IngestStats,
    injected: InjectedFaults,
    /// Every closed window's frame→alert latency.
    latencies: Vec<f64>,
}

/// The tail both executors share, run on the calling thread in
/// node-index order. Each lane drains its fabric (reorder heap and
/// swap hold) through its stages and closes its coarsener; the node's
/// tail windows go to `on_tail`, when there are any, and then onto its
/// entry of `windows_by_node` (one entry per lane). Stats, health and
/// injected faults merge in node order, so the float delay sum always
/// has the same association, and the run's ingest counters are
/// published.
fn finish_lanes(
    lanes: Vec<NodeLane>,
    mut windows_by_node: Vec<Vec<NodeWindow>>,
    mut on_tail: impl FnMut(&[NodeWindow]),
) -> LaneTotals {
    windows_by_node.resize_with(lanes.len(), Vec::new);
    let histogram = summit_obs::histogram(LATENCY_HISTOGRAM);
    let mut stats = IngestStats::default();
    let mut health = IngestHealth::default();
    let mut injected = InjectedFaults::default();
    let mut latencies = Vec::new();
    for (mut lane, windows) in lanes.into_iter().zip(&mut windows_by_node) {
        lane.delivery.drain_rows(&mut lane.released);
        lane.ingest_released();
        injected.merge(&lane.delivery.injected());
        let stages = lane.stages;
        let node_latencies = stages.tracker.finish();
        for &lat in &node_latencies[stages.latencies_seen..] {
            histogram.observe(lat);
        }
        latencies.extend(node_latencies);
        stats.merge(&stages.stats);
        let (tail, node_health) = stages.coarsener.finish_with_health();
        health.merge(&node_health);
        if !tail.is_empty() {
            on_tail(&tail);
            windows.extend(tail);
        }
    }
    stats.health = health;
    stats.publish_obs();
    let windows: usize = windows_by_node.iter().map(Vec::len).sum();
    summit_obs::counter("summit_telemetry_windows_total").inc_by(windows as u64);
    summit_obs::counter("summit_telemetry_frames_accepted_total").inc_by(health.accepted);
    summit_obs::counter("summit_telemetry_frames_dropped_total").inc_by(health.dropped());
    LaneTotals {
        windows_by_node,
        stats,
        injected,
        latencies,
    }
}

/// Publishes the frame→alert SLO gauges, p50 and p99 of the run's
/// closed-window latencies, plus their trace counter tracks when a
/// trace is live. Sorting first makes the percentiles independent of
/// the order the latencies were collected in.
fn publish_alert_latency(latencies: &mut [f64], stats: &IngestStats) {
    let _obs = summit_obs::span("summit_core_alert_latency");
    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        if latencies.is_empty() {
            f64::NAN
        } else {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies.get(idx).copied().unwrap_or(f64::NAN)
        }
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    summit_obs::gauge("summit_core_frame_to_alert_p50_seconds").set(p50);
    summit_obs::gauge("summit_core_frame_to_alert_p99_seconds").set(p99);
    if let Some(tc) = summit_obs::trace::current() {
        // Simulated-time values: deterministic under any clock.
        tc.counter("summit_core_frame_to_alert_p50_seconds", p50);
        tc.counter("summit_core_frame_to_alert_p99_seconds", p99);
        tc.counter(
            "summit_telemetry_ingest_mean_delay_seconds",
            stats.mean_delay_s(),
        );
    }
}

/// Publishes the run's frames and windows per wall second.
fn publish_wall_rates(offered: u64, windows_by_node: &[Vec<NodeWindow>], wall_s: f64) {
    if wall_s <= 0.0 {
        return;
    }
    let windows: usize = windows_by_node.iter().map(Vec::len).sum();
    summit_obs::gauge("summit_core_frames_per_wall_second").set(offered as f64 / wall_s);
    summit_obs::gauge("summit_core_windows_per_wall_second").set(windows as f64 / wall_s);
    if let Some(tc) = summit_obs::trace::current() {
        // Wall-derived rate: only meaningful (and only allowed —
        // byte-identity would break) under the wall clock.
        if tc.clock() == summit_obs::trace::TraceClock::Wall {
            tc.counter(
                "summit_core_frames_per_wall_second",
                offered as f64 / wall_s,
            );
        }
    }
}

/// Runs the telemetry path end to end on a scaled floor: engine frames
/// at 1 Hz, per-node delivery through the propagation-delay model (plus
/// the given fault profile, if any), then fault-tolerant 10 s
/// coarsening. Even a clean run delivers frames in arrival order, so
/// the coarsener's reorder buffer is always exercised.
///
/// The engine steps each 16-tick group in one call, with one pool
/// dispatch, into a reused set of frame batches, and one lane per
/// node consumes each group on the pool (see
/// [`run_streaming`], which shares the consumer): no frame outlives
/// its group, so memory is bounded by the reorder buffers and the
/// windows, not by the frame count.
///
/// The run installs a private [`summit_obs`] registry so its metrics
/// are isolated per run; the resulting [`TelemetryRun::obs`] snapshot
/// is also absorbed into whatever registry was current at the call
/// site (the process-global one by default), and a one-line summary is
/// returned in [`TelemetryRun::summary`].
pub fn run_telemetry(
    cabinets: usize,
    duration_s: f64,
    faults: Option<FaultConfig>,
) -> TelemetryRun {
    let parent = summit_obs::current();
    let registry = summit_obs::registry::Registry::new();
    let (totals, wall_s) = {
        let _scope = registry.install();
        let run_span = summit_obs::span("summit_core_run_telemetry");

        let config = EngineConfig::small(cabinets);
        let n_ticks = (duration_s / config.dt_s).ceil() as usize;
        let mut engine = Engine::new(config, 0.0);
        let node_count = engine.topology().node_count();
        let faults = faults.unwrap_or_default();
        let mut lanes: Vec<NodeLane> = engine
            .topology()
            .nodes()
            .map(|node| NodeLane::new(node, faults))
            .collect();
        let mut offered = 0u64;
        {
            let _obs = summit_obs::span("summit_core_frame_generation");
            let opts = frame_options();
            // One group of tick batches, laid out again (never
            // reallocated) every group: the engine's cabinet items write
            // the rows in place and the lanes copy them straight out.
            let mut group: Vec<FrameBatch> = (0..TICKS_PER_GROUP.min(n_ticks))
                .map(|_| FrameBatch::with_capacity(node_count))
                .collect();
            for start in (0..n_ticks).step_by(TICKS_PER_GROUP) {
                let group = &mut group[..TICKS_PER_GROUP.min(n_ticks - start)];
                {
                    let _tick_obs = summit_obs::span("summit_core_engine_tick");
                    let _ = engine.step_group(&opts, group);
                }
                offered += consume_group(&mut lanes, group);
            }
        }
        summit_obs::counter("summit_core_engine_ticks_total").inc_by(n_ticks as u64);
        summit_obs::counter("summit_core_frames_offered_total").inc_by(offered);

        let mut totals = {
            let _obs = summit_obs::span("summit_core_fault_injection");
            finish_lanes(lanes, Vec::new(), |_| {})
        };
        publish_alert_latency(&mut totals.latencies, &totals.stats);
        let wall_s = run_span.elapsed_s();
        publish_wall_rates(offered, &totals.windows_by_node, wall_s);
        (totals, wall_s)
    };
    let obs = registry.snapshot();
    parent.absorb(&obs);
    let summary = run_summary("run_telemetry", &obs, "", wall_s);
    TelemetryRun {
        windows_by_node: totals.windows_by_node,
        stats: totals.stats,
        injected: totals.injected,
        obs,
        summary,
    }
}

/// Archives losslessly, per node-minute, the frames a clean
/// [`run_telemetry`] run of `cabinets` over `minutes` ingests. The
/// archive is a function of the engine's frames alone (the store sorts
/// and partitions them), not of the order the fabric delivers them in,
/// so a replay of the run's seeded engine archives exactly those
/// frames. The engine steps [`TICKS_PER_GROUP`]-tick groups into reused
/// batches, and each node's minute is archived once it holds 60
/// frames, so one minute of rows is resident at a time.
pub fn archive_replay(cabinets: usize, minutes: usize) -> TelemetryStore {
    let _obs = summit_obs::span("summit_core_archive");
    let mut engine = Engine::new(EngineConfig::small(cabinets), 0.0);
    let node_count = engine.topology().node_count();
    let opts = frame_options();
    let n_ticks = minutes * 60;
    let mut group: Vec<FrameBatch> = (0..TICKS_PER_GROUP.min(n_ticks))
        .map(|_| FrameBatch::with_capacity(node_count))
        .collect();
    let mut minute: Vec<Vec<NodeFrame>> = (0..node_count).map(|_| Vec::with_capacity(60)).collect();
    let store = TelemetryStore::new();
    for start in (0..n_ticks).step_by(TICKS_PER_GROUP) {
        let group = &mut group[..TICKS_PER_GROUP.min(n_ticks - start)];
        let _ = engine.step_group(&opts, group);
        for batch in group.iter() {
            for row in 0..batch.len() {
                let f = batch.read_frame(row);
                let node = f.node;
                let frames = &mut minute[node.index()];
                frames.push(f);
                if frames.len() == 60 {
                    store.archive_partition(node, frames);
                    frames.clear();
                }
            }
        }
    }
    store
}

/// Configuration of the streaming telemetry pipeline.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Scaled floor size (18 nodes per cabinet).
    pub cabinets: usize,
    /// Simulated run length (s).
    pub duration_s: f64,
    /// Fault profile for the simulated fabric (`None` = clean).
    pub faults: Option<FaultConfig>,
    /// Engine ticks per channel batch: the group of ticks the node
    /// lanes consume in one pool dispatch.
    pub ticks_per_batch: usize,
}

impl StreamConfig {
    /// Streaming run with the default channel shape (8 batches of 16
    /// ticks in flight at most).
    pub fn new(cabinets: usize, duration_s: f64, faults: Option<FaultConfig>) -> Self {
        Self {
            cabinets,
            duration_s,
            faults,
            ticks_per_batch: TICKS_PER_GROUP,
        }
    }
}

/// A completed streaming telemetry run. The data outputs
/// (`windows_by_node`, `stats`, `injected`) are bit-identical to the
/// [`run_telemetry`] batch replay at the same seed; the streaming-only
/// fields report live behaviour (alerts as they fired, backpressure,
/// peak residency).
#[derive(Debug, Clone)]
pub struct StreamingRun {
    /// Coarsened 10 s windows per node (bit-identical to batch).
    pub windows_by_node: Vec<Vec<NodeWindow>>,
    /// Ingest statistics (bit-identical to batch).
    pub stats: IngestStats,
    /// Faults injected by the simulated fabric (identical to batch).
    pub injected: InjectedFaults,
    /// Operations-console alerts in the order they fired.
    pub alerts: Vec<Alert>,
    /// Closed windows the live console view observed.
    pub live_windows: u64,
    /// Peak frames resident in the pipeline (reorder heaps, swap holds
    /// and coarsener buffers) — bounded by the fabric delay and the
    /// lateness horizon, not the run length.
    pub peak_resident_frames: usize,
    /// Peak tick batches in the channel (≤ capacity).
    pub peak_channel_depth: usize,
    /// Producer stalls on a full channel (blocking backpressure).
    pub backpressure_stalls: u64,
    /// Per-run observability snapshot.
    pub obs: summit_obs::Snapshot,
    /// One-line run summary built from the registry.
    pub summary: String,
}

/// Runs `produce` on a dedicated producer thread shipping batches over
/// a bounded channel to the inline `consume` closure. The producer's
/// `send` callback returns `false` once the consumer is gone; a full
/// channel counts a `summit_core_stream_backpressure_stalls_total`
/// stall, then blocks until a slot frees — backpressure, never loss.
/// `consume` receives each batch with the channel depth observed right
/// after the receive; a panic on the producer thread resumes on the
/// caller once the channel is drained. The producer thread inherits
/// the caller's observability registry; under a wall-clock trace it
/// also joins the trace as a worker (virtual-clock traces decline
/// workers so traces stay byte-stable).
fn stream_batches<T, R, P, C>(capacity: usize, produce: P, mut consume: C) -> R
where
    T: Send,
    R: Send,
    P: FnOnce(&dyn Fn(T) -> bool) -> R + Send,
    C: FnMut(T, usize),
{
    let registry = summit_obs::current();
    let trace = summit_obs::trace::current();
    let (tx, rx) = crossbeam::channel::bounded::<T>(capacity);
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let _install = registry.install();
            let _worker = trace.as_ref().and_then(|t| t.install_worker());
            let send = |batch: T| -> bool {
                match tx.try_send(batch) {
                    Ok(()) => true,
                    Err(crossbeam::channel::TrySendError::Full(batch)) => {
                        summit_obs::counter("summit_core_stream_backpressure_stalls_total").inc();
                        tx.send(batch).is_ok()
                    }
                    Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
                }
            };
            produce(&send)
        });
        while let Ok(batch) = rx.recv() {
            let depth = rx.len();
            consume(batch, depth);
        }
        // A panicking producer closes the channel like a finished one;
        // re-raise its panic so the caller never mistakes the windows
        // received so far for the whole run.
        match producer.join() {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Runs the telemetry path as a long-running online pipeline: a
/// producer thread steps the engine and ships tick batches over a
/// bounded channel (blocking when the consumer lags — backpressure,
/// not loss), while the consumer hands each channel batch to the same
/// node lanes [`run_telemetry`] uses — incremental fault fabric
/// ([`NodeDelivery`]), live frame→alert latency accounting, ingest
/// stats and the incremental coarsener — on the pool, then shows the
/// windows that closed to the continuously-updating [`OpsConsole`].
///
/// **Determinism:** every data output is computed from simulated
/// timestamps in a fixed per-node order, so the run is bit-identical
/// to [`run_telemetry`] at the same seed — windows, ingest stats,
/// injected-fault counts and the p50/p99 alert-latency gauges all
/// match to the bit (asserted in tests). Under a virtual-clock trace
/// the producer records no trace events (worker installation is
/// declined), keeping traces byte-stable; under a wall clock the
/// producer joins the trace and wall-rate counters appear.
///
/// **Bounded memory:** resident state is the reorder heaps and their
/// value slabs (bounded by the fabric's maximum delay), one held frame
/// per node, the coarsener's in-horizon pending buffers and the tick
/// batches of at most [`CHANNEL_CAPACITY`] groups in the channel plus
/// the two in hand, recycled from group to group — independent of
/// `duration_s`.
pub fn run_streaming(config: StreamConfig) -> StreamingRun {
    let parent = summit_obs::current();
    let registry = summit_obs::registry::Registry::new();
    let (mut run, stalls, wall_s) = {
        let _scope = registry.install();
        let run_span = summit_obs::span("summit_core_run_streaming");

        let engine_config = EngineConfig::small(config.cabinets);
        let n_ticks = (config.duration_s / engine_config.dt_s).ceil() as usize;
        let ticks_per_batch = config.ticks_per_batch.max(1);
        let mut engine = Engine::new(engine_config, 0.0);
        let node_count = engine.topology().node_count();

        let faults = config.faults.unwrap_or_default();
        let mut lanes: Vec<NodeLane> = engine
            .topology()
            .nodes()
            .map(|node| NodeLane::new(node, faults))
            .collect();
        let mut console = OpsConsole::with_defaults();
        let mut windows_by_node: Vec<Vec<NodeWindow>> = Vec::new();
        windows_by_node.resize_with(node_count, Vec::new);
        let mut offered = 0u64;
        let mut live_windows = 0u64;
        let mut peak_resident = 0usize;
        let mut peak_depth = 0usize;

        // The consumer hands each group's batches back once the lanes
        // have read them, and the producer refills them: a batch's
        // rows are allocated once, not every tick. At most the
        // channel's groups plus the two in hand exist, so the return
        // channel never fills.
        let (recycle, recycled) = crossbeam::channel::bounded(CHANNEL_CAPACITY + 2);
        stream_batches(
            CHANNEL_CAPACITY,
            move |send: &dyn Fn((Vec<TickOutput>, Vec<FrameBatch>)) -> bool| {
                let _gen = summit_obs::span("summit_core_frame_generation");
                let opts = frame_options();
                for start in (0..n_ticks).step_by(ticks_per_batch) {
                    let mut frames: Vec<FrameBatch> = recycled.try_recv().unwrap_or_default();
                    frames.resize_with(ticks_per_batch.min(n_ticks - start), FrameBatch::new);
                    let ticks = {
                        let _tick_obs = summit_obs::span("summit_core_engine_tick");
                        engine.step_group(&opts, &mut frames)
                    };
                    if !send((ticks, frames)) {
                        break;
                    }
                }
            },
            |(ticks, frames), depth| {
                // `depth + 1` counts the just-received batch back in,
                // but the producer may already have refilled its slot
                // by the time `depth` was read; the channel itself
                // never holds more than its capacity, so clamp.
                peak_depth = peak_depth.max((depth + 1).min(CHANNEL_CAPACITY));
                summit_obs::gauge("summit_core_stream_channel_depth").set(depth as f64);
                let _obs = summit_obs::span("summit_core_stream_consume");
                for tick in &ticks {
                    console.observe(tick);
                }
                offered += consume_group(&mut lanes, &frames);
                let _ = recycle.try_send(frames);
                let closed: Vec<NodeWindow> =
                    lanes.iter_mut().flat_map(NodeLane::drain_windows).collect();
                if !closed.is_empty() {
                    live_windows += closed.len() as u64;
                    console.observe_windows(&closed);
                    for w in closed {
                        if let Some(windows) = windows_by_node.get_mut(w.node.index()) {
                            windows.push(w);
                        }
                    }
                }
                let resident: usize = lanes.iter().map(NodeLane::resident).sum();
                peak_resident = peak_resident.max(resident);
            },
        );
        summit_obs::counter("summit_core_engine_ticks_total").inc_by(n_ticks as u64);
        summit_obs::counter("summit_core_frames_offered_total").inc_by(offered);

        let mut totals = {
            let _obs = summit_obs::span("summit_core_stream_finish");
            let totals = finish_lanes(lanes, windows_by_node, |tail| {
                live_windows += tail.len() as u64;
                console.observe_windows(tail);
            });
            console.finish_windows();
            totals
        };
        console.observe_ingest(&totals.stats);
        publish_alert_latency(&mut totals.latencies, &totals.stats);
        summit_obs::gauge("summit_core_stream_peak_channel_depth").set(peak_depth as f64);
        summit_obs::gauge("summit_core_stream_peak_resident_frames").set(peak_resident as f64);
        let wall_s = run_span.elapsed_s();
        publish_wall_rates(offered, &totals.windows_by_node, wall_s);
        let stalls = registry
            .snapshot()
            .counter("summit_core_stream_backpressure_stalls_total")
            .unwrap_or(0);
        let run = StreamingRun {
            windows_by_node: totals.windows_by_node,
            stats: totals.stats,
            injected: totals.injected,
            alerts: console.drain_alerts(),
            live_windows,
            peak_resident_frames: peak_resident,
            peak_channel_depth: peak_depth,
            backpressure_stalls: stalls,
            obs: summit_obs::Snapshot::default(),
            summary: String::new(),
        };
        (run, stalls, wall_s)
    };
    let obs = registry.snapshot();
    parent.absorb(&obs);
    let summary = run_summary("run_streaming", &obs, &format!(" stalls={stalls}"), wall_s);
    run.obs = obs;
    run.summary = summary;
    run
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn population_scenario_scales() {
        let s = PopulationScenario::paper_year(0.001);
        assert_eq!(s.job_count, 840);
        let jobs = s.generate();
        assert_eq!(jobs.len(), 840);
        assert!(jobs.iter().all(|j| j.record.begin_time < spec::YEAR_S));
    }

    #[test]
    fn sweep_power_within_physical_bounds() {
        let s = PopulationScenario::paper_year(0.002);
        let rows = s.artifact().rows;
        let series = cluster_power_sweep(&rows, 0.0, 30.0 * 86400.0, 3600.0);
        for &v in series.values() {
            assert!(v >= spec::SYSTEM_IDLE_POWER_W - 1.0);
            assert!(v <= spec::TOTAL_NODES as f64 * spec::NODE_MAX_POWER_W + 1.0);
        }
        // With jobs running, power must exceed idle somewhere.
        assert!(series
            .values()
            .iter()
            .any(|&v| v > spec::SYSTEM_IDLE_POWER_W * 1.05));
    }

    #[test]
    fn burst_schedule_creates_power_swing() {
        let run = quick_dynamics(6, 1000.0);
        let p = run.power_series();
        let lo = p.values()[..100]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = p.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // 108 nodes swinging to near-peak: amplitude should exceed 80 kW.
        assert!(
            hi - lo > 80_000.0,
            "burst amplitude too small: {} -> {}",
            lo,
            hi
        );
        // Thermal and facility series come along.
        assert_eq!(run.pue_series().len(), p.len());
        assert!(run
            .gpu_temp_max_series()
            .values()
            .iter()
            .any(|v| v.is_finite()));
    }

    #[test]
    fn telemetry_run_clean_path_reorders_without_loss() {
        let run = run_telemetry(2, 60.0, None);
        assert_eq!(run.injected, InjectedFaults::default());
        let h = run.stats.health;
        assert_eq!(h.dropped(), 0, "clean fabric loses nothing");
        assert!(
            h.reordered > 0,
            "propagation delay must reorder some frames"
        );
        assert_eq!(h.offered(), run.stats.frames);
        assert_eq!(run.windows_by_node.len(), 36);
        assert!(run.windows_by_node.iter().all(|w| !w.is_empty()));
        assert!(run.stats.mean_delay_s() > 0.0 && run.stats.max_delay_s < 5.0);
    }

    #[test]
    fn each_group_is_one_engine_dispatch_and_one_lane_dispatch() {
        // 160 ticks are 10 groups of 16. Four cabinets are one engine
        // pool item, and 72 lanes make 5 chunks of at most 16.
        let run = run_telemetry(4, 160.0, None);
        let tasks = run.obs.counter("summit_par_tasks_total");
        assert_eq!(tasks, Some(10 * (1 + 5)));
    }

    #[test]
    fn telemetry_run_surfaces_injected_faults() {
        let faults = FaultConfig {
            drop_p: 0.05,
            duplicate_p: 0.05,
            delay_p: 0.10,
            reorder_p: 0.02,
            ..FaultConfig::default()
        };
        let run = run_telemetry(2, 120.0, Some(faults));
        let h = run.stats.health;
        // A duplicated delivery is deduped on arrival unless its copy
        // lands past the lateness horizon, in which case it is counted
        // late instead — either way every injected duplicate is accounted.
        assert!(h.duplicates > 0 && h.duplicates <= run.injected.duplicated);
        assert!(run.injected.duplicated - h.duplicates <= h.late_dropped);
        assert!(run.injected.dropped > 0);
        assert!(h.late_dropped > 0, "10 s extra delays exceed the horizon");
        assert_eq!(h.offered(), run.stats.frames);
        assert_eq!(h.wrong_node, 0);
        // The pipeline still produces a full window grid per node.
        assert!(run.windows_by_node.iter().all(|w| !w.is_empty()));
    }

    /// Frame→alert latencies of delivered per-node frame streams,
    /// replayed node by node in delivery order: the oracle for the
    /// latencies the node lanes record live.
    fn frame_to_alert_latencies(delivered: &[Vec<NodeFrame>]) -> Vec<f64> {
        let mut out = Vec::new();
        for batch in delivered {
            let mut tracker = AlertLatencyTracker::new();
            for f in batch {
                tracker.observe(f.t_sample, f.t_ingest);
            }
            out.extend(tracker.finish());
        }
        out
    }

    #[test]
    fn frame_to_alert_latency_closes_windows_at_the_horizon() {
        use summit_telemetry::ids::NodeId;
        // One node, 1 Hz frames with a constant 1 s propagation delay.
        let frames: Vec<NodeFrame> = (0..40)
            .map(|i| {
                let mut f = NodeFrame::empty(NodeId(0), i as f64);
                f.t_ingest = i as f64 + 1.0;
                f
            })
            .collect();
        let lat = frame_to_alert_latencies(&[frames]);
        // Windows [0,10), [10,20), [20,30) close when the watermark
        // clears start + window + horizon: at t_sample = start + 15,
        // ingested one second later => latency = 16 s each. The last
        // window is still open at end of stream and closes at the final
        // ingest time (40 s) => latency = 10 s.
        assert_eq!(lat, vec![16.0, 16.0, 16.0, 10.0]);
    }

    #[test]
    fn frame_to_alert_gauges_are_recorded() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let run = run_telemetry(2, 120.0, None);
        let h = run
            .obs
            .histogram("summit_core_frame_to_alert_latency_seconds")
            .expect("latency histogram present");
        assert!(h.count > 0);
        let p50 = run
            .obs
            .gauge("summit_core_frame_to_alert_p50_seconds")
            .expect("p50 gauge present");
        let p99 = run
            .obs
            .gauge("summit_core_frame_to_alert_p99_seconds")
            .expect("p99 gauge present");
        // The alert path cannot beat the window length, and the p-order
        // must hold.
        assert!(p50 >= PAPER_WINDOW_S, "p50 {p50} below window length");
        assert!(p99 >= p50);
        assert!(p99.is_finite());
    }

    fn assert_windows_bitwise_eq(a: &[Vec<NodeWindow>], b: &[Vec<NodeWindow>]) {
        assert_eq!(a.len(), b.len(), "node count");
        for (node, (wa, wb)) in a.iter().zip(b).enumerate() {
            assert_eq!(wa.len(), wb.len(), "window count for node {node}");
            for (x, y) in wa.iter().zip(wb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.window_start.to_bits(), y.window_start.to_bits());
                assert_eq!(x.stats.len(), y.stats.len());
                for (s, t) in x.stats.iter().zip(&y.stats) {
                    assert_eq!(s.count, t.count);
                    if s.count > 0 {
                        assert_eq!(s.min.to_bits(), t.min.to_bits());
                        assert_eq!(s.max.to_bits(), t.max.to_bits());
                        assert_eq!(s.mean.to_bits(), t.mean.to_bits());
                        assert_eq!(s.std.to_bits(), t.std.to_bits());
                    }
                }
            }
        }
    }

    fn assert_stream_matches_batch(cabinets: usize, duration_s: f64, faults: Option<FaultConfig>) {
        let batch = run_telemetry(cabinets, duration_s, faults);
        let stream = run_streaming(StreamConfig::new(cabinets, duration_s, faults));
        assert_windows_bitwise_eq(&stream.windows_by_node, &batch.windows_by_node);
        assert_eq!(stream.injected, batch.injected, "fault accounting");
        let (s, b) = (&stream.stats, &batch.stats);
        assert_eq!(s.frames, b.frames);
        assert_eq!(s.t_first.to_bits(), b.t_first.to_bits());
        assert_eq!(s.t_last.to_bits(), b.t_last.to_bits());
        assert_eq!(s.total_delay_s.to_bits(), b.total_delay_s.to_bits());
        assert_eq!(s.max_delay_s.to_bits(), b.max_delay_s.to_bits());
        assert_eq!(s.health, b.health);
        for gauge in [
            "summit_core_frame_to_alert_p50_seconds",
            "summit_core_frame_to_alert_p99_seconds",
        ] {
            let sv = stream.obs.gauge(gauge).expect("stream gauge");
            let bv = batch.obs.gauge(gauge).expect("batch gauge");
            assert_eq!(sv.to_bits(), bv.to_bits(), "{gauge}");
        }
        // Deterministic counters agree too.
        for counter in [
            "summit_core_frames_offered_total",
            "summit_telemetry_windows_total",
            "summit_telemetry_frames_accepted_total",
            "summit_telemetry_frames_dropped_total",
        ] {
            assert_eq!(
                stream.obs.counter(counter),
                batch.obs.counter(counter),
                "{counter}"
            );
        }
    }

    #[test]
    fn streaming_clean_run_is_bit_identical_to_batch() {
        assert_stream_matches_batch(2, 120.0, None);
    }

    #[test]
    fn streaming_faulty_run_is_bit_identical_to_batch() {
        let faults = FaultConfig {
            drop_p: 0.05,
            duplicate_p: 0.05,
            delay_p: 0.10,
            reorder_p: 0.02,
            ..FaultConfig::default()
        };
        assert_stream_matches_batch(2, 120.0, Some(faults));
    }

    /// One run's outputs as the layer APIs compute them when composed
    /// the way the batch executor once did: every node's full row
    /// sequence, `FaultInjector::deliver`, a node-ordered stats merge,
    /// `coarsen_parallel_with_health` and the latency replay. The frames
    /// cross the fabric and the coarsener as whole `NodeFrame`s from
    /// `FrameBatch::read_frame`, not as the executors' slab rows, so a
    /// bug in either path cannot hide in both.
    struct Reference {
        windows: Vec<Vec<NodeWindow>>,
        stats: IngestStats,
        injected: InjectedFaults,
        p50: f64,
        p99: f64,
    }

    fn reference(cabinets: usize, duration_s: f64, faults: FaultConfig) -> Reference {
        use summit_telemetry::stream::FaultInjector;
        use summit_telemetry::window::coarsen_parallel_with_health;
        let config = EngineConfig::small(cabinets);
        let n_ticks = (duration_s / config.dt_s).ceil() as usize;
        let mut engine = Engine::new(config, 0.0);
        let node_count = engine.topology().node_count();
        let mut rows: Vec<Vec<NodeFrame>> = (0..node_count).map(|_| Vec::new()).collect();
        let mut batch = FrameBatch::with_capacity(node_count);
        for _ in 0..n_ticks {
            let _ = engine.step_batch(&frame_options(), &mut batch);
            for row in 0..batch.len() {
                let f = batch.read_frame(row);
                rows[f.node.index()].push(f);
            }
        }
        let mut injector = FaultInjector::new(faults);
        let delivered: Vec<Vec<NodeFrame>> =
            rows.into_iter().map(|r| injector.deliver(r)).collect();
        let mut stats = IngestStats::default();
        for frames in &delivered {
            let mut node_stats = IngestStats::default();
            for f in frames {
                node_stats.observe(f);
            }
            stats.merge(&node_stats);
        }
        let (windows, health) = coarsen_parallel_with_health(&delivered, PAPER_WINDOW_S);
        stats.health = health;
        let mut latencies = frame_to_alert_latencies(&delivered);
        latencies.sort_by(f64::total_cmp);
        let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
        Reference {
            windows,
            stats,
            injected: injector.injected(),
            p50: pct(0.50),
            p99: pct(0.99),
        }
    }

    fn assert_matches_reference(
        label: &str,
        windows: &[Vec<NodeWindow>],
        stats: &IngestStats,
        injected: InjectedFaults,
        obs: &summit_obs::Snapshot,
        r: &Reference,
    ) {
        assert_windows_bitwise_eq(windows, &r.windows);
        assert_eq!(injected, r.injected, "{label}: fault accounting");
        let s = &r.stats;
        assert_eq!(stats.frames, s.frames, "{label}: frames");
        for (got, want) in [
            (stats.total_delay_s, s.total_delay_s),
            (stats.max_delay_s, s.max_delay_s),
            (stats.t_first, s.t_first),
            (stats.t_last, s.t_last),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: stats float");
        }
        assert_eq!(stats.health, s.health, "{label}: health");
        for (gauge, want) in [
            ("summit_core_frame_to_alert_p50_seconds", r.p50),
            ("summit_core_frame_to_alert_p99_seconds", r.p99),
        ] {
            let got = obs.gauge(gauge).expect("latency gauge");
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: {gauge}");
        }
    }

    /// Both executors against the layer composition, not just each
    /// other. 54 lanes make 4 pool chunks, so lanes straddle chunk
    /// boundaries; the hostile profile drives every fault path.
    #[test]
    fn both_executors_match_the_layer_composition_bit_for_bit() {
        let faults = FaultConfig {
            drop_p: 0.02,
            duplicate_p: 0.05,
            delay_p: 0.05,
            reorder_p: 0.10,
            seed: 2020,
        };
        let r = reference(3, 120.0, faults);
        assert!(r.injected.dropped > 0 && r.injected.reordered > 0);
        for threads in [1, 2] {
            rayon::with_thread_count(threads, || {
                let b = run_telemetry(3, 120.0, Some(faults));
                assert_matches_reference(
                    "batch",
                    &b.windows_by_node,
                    &b.stats,
                    b.injected,
                    &b.obs,
                    &r,
                );
                let s = run_streaming(StreamConfig::new(3, 120.0, Some(faults)));
                assert_matches_reference(
                    "stream",
                    &s.windows_by_node,
                    &s.stats,
                    s.injected,
                    &s.obs,
                    &r,
                );
            });
        }
    }

    #[test]
    fn streaming_memory_is_bounded_by_horizon_not_run_length() {
        let short = run_streaming(StreamConfig::new(1, 120.0, None));
        let long = run_streaming(StreamConfig::new(1, 480.0, None));
        assert!(short.peak_resident_frames > 0);
        // Peak residency is set by the fabric delay + lateness horizon,
        // so a 4x longer replay must not grow it meaningfully.
        assert!(
            long.peak_resident_frames <= short.peak_resident_frames + 64,
            "resident grew with run length: {} -> {}",
            short.peak_resident_frames,
            long.peak_resident_frames
        );
        assert!(long.peak_channel_depth <= CHANNEL_CAPACITY);
        // The live console saw every closed window.
        let total: usize = long.windows_by_node.iter().map(Vec::len).sum();
        assert_eq!(long.live_windows, total as u64);
    }

    #[test]
    fn streaming_run_records_live_console_and_channel_metrics() {
        let run = run_streaming(StreamConfig::new(2, 120.0, None));
        assert!(run
            .obs
            .gauge("summit_core_stream_peak_channel_depth")
            .is_some());
        assert!(run
            .obs
            .gauge("summit_core_stream_peak_resident_frames")
            .is_some());
        assert!(
            run.obs
                .counter("summit_core_live_windows_total")
                .unwrap_or(0)
                > 0
        );
        assert!(run.summary.contains("run_streaming"), "{}", run.summary);
    }

    #[test]
    fn panicking_producer_is_not_silently_truncated() {
        let mut received = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_batches(
                4,
                |send: &dyn Fn(u32) -> bool| -> usize {
                    send(1);
                    send(2);
                    panic!("producer failed mid-run");
                },
                |batch, _depth| received.push(batch),
            )
        }));
        assert!(
            outcome.is_err(),
            "the producer's panic must reach the caller"
        );
        assert_eq!(
            received,
            vec![1, 2],
            "batches sent before the panic are consumed"
        );
    }

    #[test]
    fn dynamics_series_share_time_axis() {
        let run = quick_dynamics(3, 200.0);
        let p = run.power_series();
        let q = run.mtw_return_series();
        assert_eq!(p.t0(), q.t0());
        assert_eq!(p.dt(), q.dt());
        assert_eq!(p.len(), q.len());
        assert_eq!(p.t0(), summer_t0());
    }
}
