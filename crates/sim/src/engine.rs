//! The time-domain simulation driver.
//!
//! Advances the whole data center one tick (default 1 Hz, the paper's
//! native telemetry rate) at a time: scheduler state, per-node workload
//! utilization, component power, component thermals, facility cooling,
//! and the measurement layer (BMC sensors, MSB meters).
//!
//! Ticks are stepped in groups (see [`Engine::step_group`]). A node's
//! tick reads only its own thermal state, its chip constants (fixed by
//! the seed and computed once, in [`Engine::new`]), its job assignment
//! at that tick and `(node, tick)`: the supply water is a constant and the
//! facility never feeds back into the nodes. So one pool dispatch runs
//! every cabinet's nodes through the whole group, writing each node's
//! frame row as it goes, and the calling thread then reduces each tick
//! in node order and steps the facility.

use rayon::prelude::*;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::catalog::{self, MetricId, METRIC_COUNT};
use summit_telemetry::ids::{CabinetId, GpuSlot, Msb, NodeId, Socket};
use summit_telemetry::records::{frame_value, CepRecord};

use crate::facility::{Facility, FacilityConfig};
use crate::failures::CabinetOutage;
use crate::msb::MsbMeterModel;
use crate::power::{ChipVariation, NodePower, NodeUtilization, PowerModel};
use crate::scheduler::Scheduler;
use crate::spec::{NODES_PER_CABINET, TOTAL_CABINETS};
use crate::thermal::{ChipResistance, NodeThermals, ThermalModel, ThermalResponse};
use crate::topology::Topology;
use crate::weather::Weather;
use crate::workload::WorkloadSignal;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of cabinets on the floor (257 = full Summit); the plant
    /// and the non-compute IT load scale with it (see [`Engine::new`]).
    pub cabinets: usize,
    /// Tick length in seconds (1.0 = the paper's native rate).
    pub dt_s: f64,
    /// Master seed for all stochastic submodels.
    pub seed: u64,
    /// Whole-cabinet telemetry outages, the only source of dark
    /// cabinets: a cabinet's nodes emit all-NaN frames while one of its
    /// outages is active. One from `-inf` to `+inf` darkens a cabinet
    /// for the whole run (the Figure 17 bright-green cabinet).
    pub cabinet_outages: Vec<CabinetOutage>,
}

impl EngineConfig {
    /// A floor of `cabinets` cabinets at 1 Hz with the master seed and
    /// no outages.
    pub fn small(cabinets: usize) -> Self {
        Self {
            cabinets,
            dt_s: 1.0,
            seed: 2020,
            cabinet_outages: Vec::new(),
        }
    }
}

/// Non-compute IT power of the full floor (storage, network, service
/// nodes; W), included in the PUE's IT denominator.
const INFRASTRUCTURE_IT_W: f64 = 0.6e6;

/// Ticks per group: [`Engine::run`] and the telemetry executors step
/// this many ticks per pool dispatch.
pub const TICKS_PER_GROUP: usize = 16;

/// What [`Engine::step_batch`] collects beyond the always-on summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepOptions {
    /// Fill the tick's frame batch (one row per node, every catalog
    /// metric).
    pub frames: bool,
}

/// Output of one tick.
#[derive(Debug, Clone)]
pub struct TickOutput {
    /// Tick start time (s).
    pub t: f64,
    /// True total compute power (W).
    pub true_compute_power_w: f64,
    /// Sensor-summed compute power over the reporting nodes (what the
    /// telemetry path reports, W).
    pub sensor_compute_power_w: f64,
    /// Facility record for this tick (`cep.it_power_w` is the compute
    /// power plus the infrastructure load).
    pub cep: CepRecord,
    /// Per-MSB physical meter readings: each board's summed true node
    /// power plus its distribution overhead (W).
    pub msb_meter_w: [f64; 5],
    /// Per-MSB summation of the node sensor readings the frames carry
    /// (f32-quantized, dark cabinets skipped; W) — what Figure 4
    /// compares with the meter.
    pub msb_sensor_w: [f64; 5],
    /// Mean GPU core temperature over the reporting nodes (°C; NaN
    /// only when every cabinet is dark).
    pub gpu_temp_mean_c: f64,
    /// Max GPU core temperature over the reporting nodes (°C; NaN only
    /// when every cabinet is dark).
    pub gpu_temp_max_c: f64,
    /// Mean CPU temperature over the reporting nodes (°C; NaN only when
    /// every cabinet is dark).
    pub cpu_temp_mean_c: f64,
    /// Running job count and busy-node count.
    pub running_jobs: usize,
    /// Busy nodes.
    pub busy_nodes: usize,
}

/// The simulation engine.
///
/// ```
/// use summit_sim::engine::{Engine, EngineConfig};
/// // Two cabinets (36 nodes) at 1 Hz.
/// let mut engine = Engine::new(EngineConfig::small(2), 0.0);
/// let tick = engine.step();
/// assert_eq!(tick.t, 0.0);
/// assert!(tick.true_compute_power_w > 36.0 * 400.0);
/// assert!(tick.cep.pue() > 1.0);
/// ```
pub struct Engine {
    config: EngineConfig,
    topology: Topology,
    /// Each node's chip constants, `[node]`, built once from the seed.
    chips: Vec<NodeChips>,
    /// The thermal response to one tick of `config.dt_s`.
    response: ThermalResponse,
    weather: Weather,
    facility: Facility,
    /// Non-compute IT load of this floor (W).
    infrastructure_it_w: f64,
    msb_model: MsbMeterModel,
    scheduler: Scheduler,
    thermals: Vec<NodeThermals>,
    group: GroupScratch,
    t: f64,
    tick: u64,
}

/// One node's chip constants: the manufacturing variation of the power
/// of its 2 CPUs and 6 GPUs and their 8 cold-plate resistances (16 f64,
/// 128 B).
#[derive(Debug, Clone, Copy)]
struct NodeChips {
    variation: ChipVariation,
    resistance: ChipResistance,
}

/// A node's job at one tick: the index of the job's `(signal, t_rel)`
/// entry in [`GroupScratch::jobs`] and the node's rank in the job.
#[derive(Debug, Clone, Copy)]
struct Slot {
    job: u32,
    rank: u32,
}

impl Slot {
    /// No job: the node idles.
    const IDLE: Self = Self {
        job: u32::MAX,
        rank: 0,
    };

    fn is_busy(self) -> bool {
        self.job != Self::IDLE.job
    }
}

/// The arenas of one group step, kept from one group to the next, so a
/// group allocates only the pool's item list, the list of frame rows
/// (with frames) and its own outputs.
#[derive(Debug, Default)]
struct GroupScratch {
    /// Start time and running-job count of each tick.
    ticks: Vec<(f64, usize)>,
    /// `(signal, t_rel)` of every job running at each tick, tick by tick.
    jobs: Vec<(WorkloadSignal, f64)>,
    /// `[k * node_count + i]`: node `i`'s job at tick `k`.
    slots: Vec<Slot>,
    /// `[k * cabinet_count + c]`: whether an outage darkens cabinet `c`
    /// at tick `k`, decided once for the frames and the sums.
    dark: Vec<bool>,
    /// The node results: one run of `NODES_PER_CABINET * n` per cabinet,
    /// `[k * NODES_PER_CABINET + j]` within it, so each tick's results
    /// for a cabinet are contiguous.
    nodes: Vec<NodeTick>,
}

/// What the reduction reads of one node's tick: the inputs of the sums.
#[derive(Debug, Clone, Copy, Default)]
struct NodeTick {
    true_power: f64,
    sensor_power: f64,
    gpu_core_c: [f64; 6],
    cpu_c: [f64; 2],
}

impl Engine {
    /// Builds an engine from config, starting at `t0` seconds. The MTW
    /// flow, the base pump load and the non-compute IT load are the full
    /// floor's times `cabinets / 257`, so PUE stays representative on
    /// any slice. Each node's chip constants and the tick's thermal
    /// response are computed here, once.
    ///
    /// # Panics
    ///
    /// If `config.dt_s` is not positive (zero, negative or NaN).
    pub fn new(config: EngineConfig, t0: f64) -> Self {
        let response = ThermalResponse::new(config.dt_s);
        let topology = Topology::scaled(config.cabinets);
        let node_count = topology.node_count();
        let power_model = PowerModel::new(config.seed);
        let thermal_model = ThermalModel::new(config.seed);
        let chips = (0..node_count as u32)
            .map(|n| NodeChips {
                variation: power_model.variation(NodeId(n)),
                resistance: thermal_model.resistances(NodeId(n)),
            })
            .collect();
        let weather = Weather::oak_ridge(config.seed);
        let frac = config.cabinets as f64 / TOTAL_CABINETS as f64;
        let mut plant = FacilityConfig::default();
        plant.mtw_flow_kg_s *= frac;
        plant.pump_base_w *= frac;
        let infrastructure_it_w = INFRASTRUCTURE_IT_W * frac;
        let idle_estimate =
            node_count as f64 * crate::spec::NODE_IDLE_POWER_W + infrastructure_it_w;
        let facility = Facility::new(plant, idle_estimate);
        let supply = crate::spec::MTW_SUPPLY_NOMINAL_C;
        Self {
            config,
            chips,
            response,
            weather,
            facility,
            infrastructure_it_w,
            msb_model: MsbMeterModel::default(),
            scheduler: Scheduler::new(node_count),
            thermals: vec![NodeThermals::at_water(supply + 8.0); node_count],
            group: GroupScratch::default(),
            topology,
            t: t0,
            tick: 0,
        }
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The floor topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Scheduler access (submit jobs, inspect allocations).
    pub fn scheduler(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Immutable scheduler access.
    pub fn scheduler_ref(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Advances one tick and returns its summary.
    pub fn step(&mut self) -> TickOutput {
        self.step_batch(&StepOptions::default(), &mut FrameBatch::new())
    }

    /// Advances one tick like [`Engine::step`]. With `opts.frames` set
    /// it also writes the tick's telemetry frames into the caller's
    /// [`FrameBatch`], laid out as the floor (row `i` is node `i`, every
    /// row written); otherwise it leaves the batch empty. The one-tick
    /// group of [`Engine::step_group`].
    pub fn step_batch(&mut self, opts: &StepOptions, batch: &mut FrameBatch) -> TickOutput {
        self.step_nodes(opts, std::slice::from_mut(batch));
        self.reduce_tick(0)
    }

    /// Advances `batches.len()` ticks in one group and returns their
    /// summaries, bit-identical to as many [`Engine::step_batch`] calls:
    /// tick `k` writes its frames into `batches[k]` as `step_batch`
    /// does. Jobs submitted to the scheduler take effect from the next
    /// group on, so callers that submit between ticks step one tick at a
    /// time.
    pub fn step_group(
        &mut self,
        opts: &StepOptions,
        batches: &mut [FrameBatch],
    ) -> Vec<TickOutput> {
        self.step_nodes(opts, batches);
        (0..batches.len()).map(|k| self.reduce_tick(k)).collect()
    }

    /// Runs `n` ticks, [`TICKS_PER_GROUP`] per group, returning their
    /// outputs (summary level).
    pub fn run(&mut self, n: usize) -> Vec<TickOutput> {
        let mut empty: [FrameBatch; TICKS_PER_GROUP] = Default::default();
        let opts = StepOptions::default();
        let mut ticks = Vec::with_capacity(n);
        while ticks.len() < n {
            let group = TICKS_PER_GROUP.min(n - ticks.len());
            ticks.extend(self.step_group(&opts, &mut empty[..group]));
        }
        ticks
    }

    /// Group phases 1 and 2 for the next `batches.len()` ticks. The
    /// calling thread advances the scheduler to each tick, records every
    /// node's job, decides each cabinet's darkness and lays out the
    /// tick's batch (or empties it without `opts.frames`). Then one pool
    /// dispatch runs each cabinet's nodes through every tick, advancing
    /// their thermal state in place and writing each node's frame row:
    /// its readings, or all-NaN while its cabinet is dark. A cabinet is
    /// one pool item, so a floor of 16 cabinets or fewer (one chunk) runs
    /// inline without waking the pool, and the item grid depends only on
    /// the cabinet count.
    fn step_nodes(&mut self, opts: &StepOptions, batches: &mut [FrameBatch]) {
        let n = batches.len();
        if n == 0 {
            return;
        }
        let dt = self.config.dt_s;
        let node_count = self.topology.node_count();
        let cabinet_count = self.topology.cabinet_count();
        let g = &mut self.group;
        g.ticks.clear();
        g.jobs.clear();
        g.dark.clear();
        g.slots.clear();
        g.slots.resize(n * node_count, Slot::IDLE);
        for (k, batch) in batches.iter_mut().enumerate() {
            let slots = &mut g.slots[k * node_count..(k + 1) * node_count];
            let t = self.t;
            self.scheduler.advance(t);
            for p in self.scheduler.running() {
                let job = g.jobs.len() as u32;
                g.jobs.push((p.signal(), t - p.start_time));
                for (rank, node) in p.nodes.iter().enumerate() {
                    slots[node.index()] = Slot {
                        job,
                        rank: rank as u32,
                    };
                }
            }
            g.ticks.push((t, self.scheduler.running().len()));
            let outages = &self.config.cabinet_outages;
            g.dark.extend((0..cabinet_count).map(|c| {
                outages
                    .iter()
                    .any(|o| o.cabinet.index() == c && o.is_active(t))
            }));
            if opts.frames {
                batch.lay_out(node_count, t);
            } else {
                batch.clear();
            }
            self.t += dt;
        }

        if g.nodes.len() < node_count * n {
            g.nodes.resize(node_count * n, NodeTick::default());
        }
        let response = self.response;
        let msb = self.msb_model;
        let supply_c = crate::spec::MTW_SUPPLY_NOMINAL_C;
        let (slots, jobs, dark, tick0) = (&g.slots, &g.jobs, &g.dark, self.tick);
        let mut rows = if opts.frames {
            cabinet_rows(batches, cabinet_count)
        } else {
            Vec::new()
        };
        let mut rows = rows.chunks_mut(n);
        let cabinets: Vec<_> = self
            .thermals
            .chunks_mut(NODES_PER_CABINET)
            .zip(self.chips.chunks(NODES_PER_CABINET))
            .zip(g.nodes[..node_count * n].chunks_mut(NODES_PER_CABINET * n))
            .map(|((thermals, chips), results)| {
                (thermals, chips, results, rows.next().unwrap_or_default())
            })
            .enumerate()
            .collect();
        let _: Vec<()> = cabinets
            .into_par_iter()
            .map(|(c, (thermals, chips, results, rows))| {
                let first = c * NODES_PER_CABINET;
                let ticks = slots
                    .chunks(node_count)
                    .zip(results.chunks_mut(NODES_PER_CABINET));
                for (k, (slots, results)) in ticks.enumerate() {
                    let tick = tick0 + k as u64;
                    let dark = dark[k * cabinet_count + c];
                    let mut frames = rows.get_mut(k).map(|rows| rows.iter_mut());
                    let nodes = thermals.iter_mut().zip(chips).zip(results);
                    for (j, (((th, chip), r), slot)) in nodes.zip(&slots[first..]).enumerate() {
                        let node = NodeId((first + j) as u32);
                        let util = match jobs.get(slot.job as usize) {
                            Some((sig, t_rel)) => sig.node_utilization(*t_rel, slot.rank),
                            None => NodeUtilization::idle(),
                        };
                        let power = chip.variation.node_power(&util);
                        chip.resistance.step(th, &power, supply_c, response);
                        let sensor_power = msb.sensor_reading(node, tick, power.input_w);
                        *r = NodeTick {
                            true_power: power.input_w,
                            sensor_power,
                            gpu_core_c: th.gpu_core_c,
                            cpu_c: th.cpu_c,
                        };
                        if let Some(row) = frames.as_mut().and_then(Iterator::next) {
                            // A dark cabinet's rows are all-NaN: the
                            // bright-green cabinet.
                            *row = [f32::NAN; METRIC_COUNT];
                            if !dark {
                                let mut set = |m: MetricId, v| row[m.index()] = frame_value(v);
                                write_frame_metrics(&mut set, sensor_power, &power, th);
                            }
                        }
                    }
                }
            })
            .collect();
        self.tick += n as u64;
    }

    /// Group phase 3 for tick `k` of the group [`Engine::step_nodes`]
    /// ran: sums the tick's node results in node order, cabinet by
    /// cabinet, leaving out the readings of the cabinets phase 1 found
    /// dark, and steps the facility. A board's cabinets are a contiguous
    /// run, so its sums add its nodes in the order
    /// `Topology::nodes_of_msb` lists them; they start at -0.0, where
    /// `Iterator::sum` starts, so an empty board reads -0.0.
    fn reduce_tick(&mut self, k: usize) -> TickOutput {
        let dt = self.config.dt_s;
        let node_count = self.topology.node_count();
        let cabinet_count = self.topology.cabinet_count();
        let (t, running_jobs) = self.group.ticks[k];
        let n = self.group.ticks.len();
        let slots = &self.group.slots[k * node_count..(k + 1) * node_count];
        let dark = &self.group.dark[k * cabinet_count..(k + 1) * cabinet_count];
        let cabinets = self.group.nodes[..node_count * n]
            .chunks(NODES_PER_CABINET * n)
            .map(|results| &results[k * NODES_PER_CABINET..(k + 1) * NODES_PER_CABINET])
            .zip(slots.chunks(NODES_PER_CABINET))
            .zip(dark);
        let mut true_compute = -0.0;
        let mut sensor_compute = 0.0;
        let mut board_true_w = [-0.0f64; 5];
        let mut msb_sensor_w = [-0.0f64; 5];
        let (mut gpu_t_sum, mut gpu_t_max, mut gpu_t_n) = (0.0, f64::NEG_INFINITY, 0usize);
        let (mut cpu_t_sum, mut cpu_t_n) = (0.0, 0usize);
        let mut busy_nodes = 0usize;
        for (c, ((nodes, slots), &dark)) in cabinets.enumerate() {
            let board = self.topology.msb_of(CabinetId(c as u16)).index();
            for (r, slot) in nodes.iter().zip(slots) {
                true_compute += r.true_power;
                board_true_w[board] += r.true_power;
                busy_nodes += usize::from(slot.is_busy());
                if dark {
                    continue;
                }
                sensor_compute += r.sensor_power;
                msb_sensor_w[board] += f64::from(frame_value(r.sensor_power));
                for &g in &r.gpu_core_c {
                    gpu_t_sum += g;
                    gpu_t_max = gpu_t_max.max(g);
                    gpu_t_n += 1;
                }
                for &cpu in &r.cpu_c {
                    cpu_t_sum += cpu;
                    cpu_t_n += 1;
                }
            }
        }

        let it_power = true_compute + self.infrastructure_it_w;
        let wet_bulb = self.weather.wet_bulb_c(t);
        let cep = self.facility.step(t, it_power, wet_bulb, dt);
        let msb_meter_w =
            Msb::ALL.map(|m| self.msb_model.meter_reading(m, board_true_w[m.index()]));

        let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { f64::NAN };
        TickOutput {
            t,
            true_compute_power_w: true_compute,
            sensor_compute_power_w: sensor_compute,
            cep,
            msb_meter_w,
            msb_sensor_w,
            gpu_temp_mean_c: mean(gpu_t_sum, gpu_t_n),
            gpu_temp_max_c: if gpu_t_n > 0 { gpu_t_max } else { f64::NAN },
            cpu_temp_mean_c: mean(cpu_t_sum, cpu_t_n),
            running_jobs,
            busy_nodes,
        }
    }
}

/// The frame rows of a group, listed for the pool items: entry
/// `c * n + k` is cabinet `c`'s run of rows in `batches[k]`, so
/// `chunks_mut(n)` hands each cabinet its rows at every tick. The list
/// is the one allocation: it starts as each batch's whole row slice,
/// and each cabinet's split pushes that batch's remaining rows to the
/// end, where the next cabinet takes them.
fn cabinet_rows(batches: &mut [FrameBatch], cabinets: usize) -> Vec<&mut [[f32; METRIC_COUNT]]> {
    let n = batches.len();
    let mut rows: Vec<&mut [[f32; METRIC_COUNT]]> = Vec::with_capacity((cabinets + 1) * n);
    rows.extend(batches.iter_mut().map(FrameBatch::rows_mut));
    for i in 0..cabinets * n {
        let rest = std::mem::take(&mut rows[i]);
        let (cabinet, rest) = rest.split_at_mut(NODES_PER_CABINET.min(rest.len()));
        rows[i] = cabinet;
        rows.push(rest);
    }
    rows.truncate(cabinets * n);
    rows
}

/// Writes one reporting node's readings through `set`: every catalog
/// metric, ids `0..METRIC_COUNT`, each once.
fn write_frame_metrics(
    set: &mut impl FnMut(MetricId, f64),
    sensor_power: f64,
    power: &NodePower,
    th: &NodeThermals,
) {
    set(catalog::input_power(), sensor_power);
    set(catalog::ps_input_power(0), sensor_power * 0.5);
    set(catalog::ps_input_power(1), sensor_power * 0.5);
    for s in Socket::ALL {
        let i = s.index();
        set(catalog::cpu_power(s), power.cpu_w[i]);
        set(catalog::cpu_pkg_temp(s), th.cpu_c[i]);
    }
    for g in GpuSlot::ALL {
        let i = g.index();
        set(catalog::gpu_power(g), power.gpu_w[i]);
        set(catalog::gpu_core_temp(g), th.gpu_core_c[i]);
        set(catalog::gpu_mem_temp(g), th.gpu_mem_c[i]);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::jobs::JobGenerator;
    use crate::thermal::{CPU_TAU_S, GPU_TAU_S};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig::small(10), 0.0)
    }

    /// One metric's values over a batch's rows, in row order.
    fn column(b: &FrameBatch, metric: MetricId) -> Vec<f32> {
        (0..b.len()).map(|i| b.row(i)[metric.index()]).collect()
    }

    #[test]
    fn idle_cluster_power_scales_with_floor() {
        let mut e = small_engine();
        let out = e.step();
        let per_node = out.true_compute_power_w / 180.0;
        assert!(
            (450.0..650.0).contains(&per_node),
            "idle per-node power {per_node}"
        );
        assert_eq!(out.running_jobs, 0);
        assert_eq!(out.busy_nodes, 0);
    }

    #[test]
    fn job_raises_power_then_completes() {
        let mut e = small_engine();
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = JobGenerator::new();
        let mut job = g.generate_with_class(&mut rng, 5.0, 5);
        job.record.node_count = 40;
        job.record.end_time = job.record.begin_time + 120.0;
        job.profile.gpu_intensity = 0.9;
        job.profile.ramp_s = 10.0;
        e.scheduler().submit(job);

        let idle = e.step().true_compute_power_w;
        let mut peak: f64 = 0.0;
        for _ in 0..80 {
            peak = peak.max(e.step().true_compute_power_w);
        }
        assert!(
            peak > idle + 40.0 * 800.0,
            "40 GPU-heavy nodes must add tens of kW: idle {idle}, peak {peak}"
        );
        // After walltime the job completes and power returns.
        for _ in 0..120 {
            e.step();
        }
        let back = e.step();
        assert_eq!(back.running_jobs, 0);
        assert!(back.true_compute_power_w < idle + 10_000.0);
    }

    #[test]
    fn sensor_power_tracks_true_power() {
        let mut e = small_engine();
        let out = e.step();
        let ratio = out.sensor_compute_power_w / out.true_compute_power_w;
        assert!((0.96..1.0).contains(&ratio), "sensor/true ratio {ratio}");
    }

    #[test]
    fn gpu_temps_warm_up_under_load() {
        let mut e = small_engine();
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = JobGenerator::new();
        let mut job = g.generate_with_class(&mut rng, 5.0, 5);
        job.record.node_count = 45;
        job.record.end_time = job.record.begin_time + 600.0;
        job.profile.gpu_intensity = 0.95;
        job.profile.oscillation_depth = 0.0;
        e.scheduler().submit(job);
        let first = e.step();
        for _ in 0..120 {
            e.step();
        }
        let later = e.step();
        assert!(
            later.gpu_temp_max_c > first.gpu_temp_max_c + 3.0,
            "max GPU temp should rise under load: {} -> {}",
            first.gpu_temp_max_c,
            later.gpu_temp_max_c
        );
        assert!(later.gpu_temp_max_c < 65.0);
    }

    #[test]
    fn missing_cabinet_blanks_telemetry_but_not_truth() {
        let mut cfg = EngineConfig::small(3);
        cfg.cabinet_outages.push(CabinetOutage {
            cabinet: CabinetId(1),
            start_s: f64::NEG_INFINITY,
            end_s: f64::INFINITY,
        });
        let mut e = Engine::new(cfg, 0.0);
        let mut batch = FrameBatch::new();
        let out = e.step_batch(&StepOptions { frames: true }, &mut batch);
        // Nodes 18..36 are in cabinet 1: their frames are all-NaN.
        assert!(batch.read_frame(20).get(catalog::input_power()).is_nan());
        assert!(!batch.read_frame(2).get(catalog::input_power()).is_nan());
        let np = column(&batch, catalog::input_power());
        assert!(np[20].is_nan() && !np[0].is_nan());
        // Sensor sum excludes the cabinet; true power includes it.
        assert!(out.sensor_compute_power_w < out.true_compute_power_w * 0.95);
    }

    #[test]
    fn cabinet_outage_burst_blanks_window_only() {
        let mut cfg = EngineConfig::small(3);
        cfg.cabinet_outages = vec![CabinetOutage {
            cabinet: CabinetId(1),
            start_s: 2.0,
            end_s: 5.0,
        }];
        let mut e = Engine::new(cfg, 0.0);
        let opts = StepOptions { frames: true };
        let mut batch = FrameBatch::new();
        let mut dark_ticks = 0;
        for tick in 0..8 {
            e.step_batch(&opts, &mut batch);
            let dark = batch.read_frame(20).get(catalog::input_power()).is_nan();
            assert_eq!(
                dark,
                (2..5).contains(&tick),
                "tick {tick}: outage window is [2, 5)"
            );
            // Other cabinets keep reporting throughout.
            assert!(!batch.read_frame(2).get(catalog::input_power()).is_nan());
            dark_ticks += dark as u32;
        }
        assert_eq!(dark_ticks, 3);
    }

    #[test]
    fn frames_carry_catalog_metrics() {
        let mut e = Engine::new(EngineConfig::small(1), 0.0);
        let mut batch = FrameBatch::new();
        e.step_batch(&StepOptions { frames: true }, &mut batch);
        assert_eq!(batch.len(), 18);
        let f = batch.read_frame(0);
        assert!(f.get(catalog::input_power()) > 100.0);
        assert!(f.get(catalog::gpu_core_temp(GpuSlot(0))) > 15.0);
        assert!(f.get(catalog::gpu_power(GpuSlot(3))) > 10.0);
    }

    #[test]
    fn frame_metrics_are_exactly_the_catalog() {
        let power = PowerModel::new(1).node_power(NodeId(0), &NodeUtilization::idle());
        let th = NodeThermals::at_water(30.0);
        let mut ids = Vec::new();
        write_frame_metrics(
            &mut |m: MetricId, _| ids.push(m.index()),
            600.0,
            &power,
            &th,
        );
        ids.sort_unstable();
        assert_eq!(ids, (0..METRIC_COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn rows_carry_every_metric_and_a_dark_cabinet_only_inside_its_outage() {
        // Three cabinets stepped as one 8-tick group; cabinet 1 is dark
        // over [2, 5). Every reporting row has all its values, finite; a
        // dark row has none; read_frame copies the row.
        let mut cfg = EngineConfig::small(3);
        cfg.cabinet_outages = vec![CabinetOutage {
            cabinet: CabinetId(1),
            start_s: 2.0,
            end_s: 5.0,
        }];
        let mut e = Engine::new(cfg, 0.0);
        let mut batches = vec![FrameBatch::new(); 8];
        let outs = e.step_group(&StepOptions { frames: true }, &mut batches);
        for (out, batch) in outs.iter().zip(&batches) {
            assert_eq!(batch.len(), 54);
            for i in 0..batch.len() {
                let at = format!("t {} row {i}", out.t);
                let dark = (18..36).contains(&i) && (2.0..5.0).contains(&out.t);
                let row = batch.row(i);
                if dark {
                    assert!(row.iter().all(|v| v.is_nan()), "{at}");
                } else {
                    assert!(row.iter().all(|v| v.is_finite()), "{at}");
                }
                let frame = batch.read_frame(i);
                for (a, b) in frame.values.iter().zip(row) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn msb_sensor_sums_add_up_the_reporting_frames() {
        // Each MSB's sensor summation is the frames' own input power
        // over that board's nodes in topology order, dark cabinets
        // skipped; the meters add up the true power; a cabinet's rows
        // are all-NaN exactly while one of its outages is active; a
        // tick without frames leaves the batch empty. On three cabinets
        // some boards have no nodes; on six, one cabinet is dark all run
        // and another goes dark for [2, 5).
        let whole_run = |c| CabinetOutage {
            cabinet: CabinetId(c),
            start_s: f64::NEG_INFINITY,
            end_s: f64::INFINITY,
        };
        let timed = CabinetOutage {
            cabinet: CabinetId(4),
            start_s: 2.0,
            end_s: 5.0,
        };
        let overhead = MsbMeterModel::default().overhead;
        for (cabinets, outages) in [(3, vec![whole_run(1)]), (6, vec![whole_run(2), timed])] {
            let mut cfg = EngineConfig::small(cabinets);
            cfg.cabinet_outages = outages.clone();
            let mut e = Engine::new(cfg, 0.0);
            let topology = e.topology().clone();
            let mut batch = FrameBatch::new();
            for _ in 0..4 {
                let out = e.step_batch(&StepOptions { frames: true }, &mut batch);
                let at = format!("{cabinets} cabinets, t {}", out.t);
                for c in 0..cabinets {
                    let dark = (c * 18..(c + 1) * 18)
                        .all(|i| batch.read_frame(i).values.iter().all(|v| v.is_nan()));
                    let active = outages
                        .iter()
                        .any(|o| o.cabinet.index() == c && o.is_active(out.t));
                    assert_eq!(dark, active, "{at}: cabinet {c}");
                }
                let power = column(&batch, catalog::input_power());
                for m in Msb::ALL {
                    let nodes = topology.nodes_of_msb(m);
                    let want: f64 = nodes
                        .iter()
                        .map(|n| f64::from(power[n.index()]))
                        .filter(|v| !v.is_nan())
                        .sum();
                    let (got, meter) = (out.msb_sensor_w[m.index()], out.msb_meter_w[m.index()]);
                    assert_eq!(got.to_bits(), want.to_bits(), "{at} {m:?}");
                    // Three cabinets leave some boards without nodes: both
                    // readings are then zero.
                    assert!(
                        got < meter || (nodes.is_empty() && got == 0.0 && meter == 0.0),
                        "{at} {m:?}: summation {got} vs meter {meter}"
                    );
                }
                let total: f64 = out.msb_sensor_w.iter().sum();
                let rel = (total - out.sensor_compute_power_w).abs() / out.sensor_compute_power_w;
                assert!(rel < 1e-6, "{at}: MSB sums {total} off by {rel}");
                let metered: f64 = Msb::ALL
                    .iter()
                    .map(|m| out.msb_meter_w[m.index()] / (1.0 + overhead[m.index()]))
                    .sum();
                let rel = (metered - out.true_compute_power_w).abs() / out.true_compute_power_w;
                assert!(rel < 1e-12, "{at}: meters {metered} off by {rel}");

                e.step_batch(&StepOptions { frames: false }, &mut batch);
                assert!(batch.is_empty(), "{at}");
            }
        }
    }

    #[test]
    fn step_batch_rows_are_indexed_by_node() {
        // Telemetry consumers read row `i` as node `i`: every tick must
        // fill one row per node in node order, including the all-NaN
        // rows of a cabinet inside an outage window.
        let mut cfg = EngineConfig::small(3);
        cfg.cabinet_outages = vec![CabinetOutage {
            cabinet: CabinetId(1),
            start_s: 2.0,
            end_s: 5.0,
        }];
        let mut e = Engine::new(cfg, 0.0);
        let node_count = e.topology().node_count();
        let opts = StepOptions { frames: true };
        let mut batch = FrameBatch::new();
        for tick in 0..8 {
            e.step_batch(&opts, &mut batch);
            assert_eq!(batch.len(), node_count, "tick {tick}");
            for i in 0..node_count {
                assert_eq!(batch.node(i), NodeId(i as u32), "tick {tick} row {i}");
            }
            let dark = (18..36).all(|i| batch.read_frame(i).values.iter().all(|v| v.is_nan()));
            assert_eq!(dark, (2..5).contains(&tick), "tick {tick}");
        }
    }

    #[test]
    fn msb_meters_cover_all_power() {
        let mut e = small_engine();
        let out = e.step();
        let meter_total: f64 = out.msb_meter_w.iter().sum();
        // Meters include overheads: above true compute power.
        assert!(meter_total > out.true_compute_power_w);
        assert!(meter_total < out.true_compute_power_w * 1.2);
    }

    #[test]
    fn pue_reasonable_from_engine() {
        let mut e = small_engine();
        let mut last = e.step();
        for _ in 0..300 {
            last = e.step();
        }
        let pue = last.cep.pue();
        assert!((1.0..1.45).contains(&pue), "engine PUE {pue}");
    }

    /// Every bit of a tick's summary.
    fn tick_bits(o: &TickOutput) -> Vec<u64> {
        let c = &o.cep;
        let floats = [
            o.t,
            o.true_compute_power_w,
            o.sensor_compute_power_w,
            c.time,
            c.mtw_supply_c,
            c.mtw_return_c,
            c.tower_tons,
            c.chiller_tons,
            c.wet_bulb_c,
            c.facility_power_w,
            c.it_power_w,
            o.gpu_temp_mean_c,
            o.gpu_temp_max_c,
            o.cpu_temp_mean_c,
        ];
        let boards = o.msb_meter_w.iter().chain(&o.msb_sensor_w);
        let mut bits: Vec<u64> = floats.iter().chain(boards).map(|v| v.to_bits()).collect();
        bits.extend([o.running_jobs as u64, o.busy_nodes as u64]);
        bits
    }

    /// Every bit of a batch: each row's node, time and metric values.
    fn batch_bits(b: &FrameBatch) -> Vec<u64> {
        let mut bits = vec![b.len() as u64];
        for row in 0..b.len() {
            bits.extend([u64::from(b.node(row).0), b.t_sample(row).to_bits()]);
            bits.extend(b.row(row).iter().map(|v| u64::from(v.to_bits())));
        }
        bits
    }

    /// Every bit of the nodes' thermal state.
    fn thermal_bits(e: &Engine) -> Vec<u64> {
        let temps = e.thermals.iter();
        let temps = temps.flat_map(|t| t.cpu_c.iter().chain(&t.gpu_core_c).chain(&t.gpu_mem_c));
        temps.map(|v| v.to_bits()).collect()
    }

    /// A 40-node job on the GPU-heavy profile over `[begin, end)`.
    fn burst_job(seed: u64, begin: f64, end: f64) -> crate::jobs::SyntheticJob {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut job = JobGenerator::new().generate_with_class(&mut rng, begin, 5);
        job.record.node_count = 40;
        job.record.end_time = end;
        job.profile.gpu_intensity = 0.9;
        job.profile.ramp_s = 4.0;
        job
    }

    #[test]
    fn group_steps_equal_single_steps_bit_for_bit() {
        // 20 cabinets make two pool items (16 + 4), so every thread
        // count but one runs the cabinets on the pool. Groups of 1, 7
        // and 16 ticks and a short final group cover ticks 0-44. One job
        // starts at t = 10 and ends at t = 18, inside the group over
        // ticks 8-23; another is submitted between groups, before tick
        // 24; cabinet 17 is dark over [26, 33), inside the group over
        // ticks 24-39, and cabinet 2 from t = 41 to the end.
        let groups = [1, 7, 16, 16, 5];
        let mut cfg = EngineConfig::small(20);
        cfg.cabinet_outages = vec![
            CabinetOutage {
                cabinet: CabinetId(17),
                start_s: 26.0,
                end_s: 33.0,
            },
            CabinetOutage {
                cabinet: CabinetId(2),
                start_s: 41.0,
                end_s: f64::INFINITY,
            },
        ];
        for threads in [1, 2, 4] {
            rayon::with_thread_count(threads, || {
                let mut grouped = Engine::new(cfg.clone(), 0.0);
                let mut single = Engine::new(cfg.clone(), 0.0);
                for e in [&mut grouped, &mut single] {
                    e.scheduler().submit(burst_job(3, 10.0, 18.0));
                }
                let opts = StepOptions { frames: true };
                let mut batches = vec![FrameBatch::new(); 16];
                let mut batch = FrameBatch::new();
                let mut busy_ticks = 0;
                for (g, &n) in groups.iter().enumerate() {
                    if g == 3 {
                        for e in [&mut grouped, &mut single] {
                            e.scheduler().submit(burst_job(4, 20.0, 1e9));
                        }
                    }
                    let outs = grouped.step_group(&opts, &mut batches[..n]);
                    assert_eq!(outs.len(), n);
                    for (k, out) in outs.iter().enumerate() {
                        let want = single.step_batch(&opts, &mut batch);
                        let at = format!("{threads} threads, group {g}, tick {}", want.t);
                        assert_eq!(tick_bits(out), tick_bits(&want), "{at}");
                        assert_eq!(batch_bits(&batches[k]), batch_bits(&batch), "{at}");
                        busy_ticks += usize::from(out.busy_nodes > 0);
                    }
                    assert_eq!(thermal_bits(&grouped), thermal_bits(&single));
                    assert_eq!(grouped.time().to_bits(), single.time().to_bits());
                }
                // The first job ran over [10, 18), the second from 24 on.
                assert_eq!(busy_ticks, 8 + 21, "{threads} threads");
                // The thermal state carries into the next tick, also
                // through a frameless group.
                let outs = grouped.step_group(&StepOptions::default(), &mut batches[..2]);
                assert!(batches[..2].iter().all(FrameBatch::is_empty));
                for out in outs {
                    assert_eq!(tick_bits(&out), tick_bits(&single.step()));
                }
            });
        }
    }

    #[test]
    fn run_steps_whole_groups_like_single_steps() {
        let mut cfg = EngineConfig::small(3);
        cfg.dt_s = 10.0;
        let mut grouped = Engine::new(cfg.clone(), 5.0);
        let mut single = Engine::new(cfg, 5.0);
        for e in [&mut grouped, &mut single] {
            e.scheduler().submit(burst_job(5, 30.0, 200.0));
        }
        let outs = grouped.run(TICKS_PER_GROUP * 2 + 3);
        assert_eq!(outs.len(), 35);
        for out in &outs {
            assert_eq!(tick_bits(out), tick_bits(&single.step()));
        }
        assert!(outs.iter().any(|o| o.busy_nodes == 40));
        assert!(grouped.run(0).is_empty());
        assert_eq!(grouped.time().to_bits(), single.time().to_bits());
    }

    #[test]
    fn cached_chip_constants_equal_a_per_call_reference_bit_for_bit() {
        // Two cabinets, a 20-node job from tick 3 on, so nodes are busy
        // and idle side by side; 40 ticks at 1 s and again at 10 s. The
        // reference derives each node's power, steady state and thermal
        // response from the models on every tick, as the kernel did
        // before it read the engine's per-node table.
        let supply = crate::spec::MTW_SUPPLY_NOMINAL_C;
        let msb = MsbMeterModel::default();
        let bits = |t: &NodeThermals| {
            let temps = t.cpu_c.iter().chain(&t.gpu_core_c).chain(&t.gpu_mem_c);
            temps.map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for dt in [1.0, 10.0] {
            let mut cfg = EngineConfig::small(2);
            cfg.dt_s = dt;
            let (pm, tm) = (PowerModel::new(cfg.seed), ThermalModel::new(cfg.seed));
            let mut e = Engine::new(cfg, 0.0);
            let mut job = burst_job(6, 3.0 * dt, 1e9);
            job.record.node_count = 20;
            e.scheduler().submit(job);
            let node_count = e.topology().node_count();
            let mut thermals = vec![NodeThermals::at_water(supply + 8.0); node_count];
            let mut batch = FrameBatch::new();
            for tick in 0..40u64 {
                let out = e.step_batch(&StepOptions { frames: true }, &mut batch);
                assert_eq!(out.busy_nodes, if tick < 3 { 0 } else { 20 }, "tick {tick}");
                let mut util = vec![NodeUtilization::idle(); node_count];
                for p in e.scheduler_ref().running() {
                    for (rank, node) in p.nodes.iter().enumerate() {
                        let t_rel = out.t - p.start_time;
                        util[node.index()] = p.signal().node_utilization(t_rel, rank as u32);
                    }
                }
                for (i, th) in thermals.iter_mut().enumerate() {
                    let node = NodeId(i as u32);
                    let power = pm.node_power(node, &util[i]);
                    let target = tm.resistances(node).steady_state(&power, supply);
                    let a_gpu = 1.0 - (-dt / GPU_TAU_S).exp();
                    let a_cpu = 1.0 - (-dt / CPU_TAU_S).exp();
                    for c in 0..2 {
                        th.cpu_c[c] += a_cpu * (target.cpu_c[c] - th.cpu_c[c]);
                    }
                    for g in 0..6 {
                        th.gpu_core_c[g] += a_gpu * (target.gpu_core_c[g] - th.gpu_core_c[g]);
                        th.gpu_mem_c[g] += a_gpu * (target.gpu_mem_c[g] - th.gpu_mem_c[g]);
                    }
                    let sensor_power = msb.sensor_reading(node, tick, power.input_w);
                    let mut row = [f32::NAN; METRIC_COUNT];
                    let mut set = |m: MetricId, v| row[m.index()] = frame_value(v);
                    write_frame_metrics(&mut set, sensor_power, &power, th);
                    let at = format!("dt {dt}, tick {tick}, node {i}");
                    let got = batch.row(i).map(f32::to_bits);
                    assert_eq!(got, row.map(f32::to_bits), "{at}: frame row");
                    assert_eq!(bits(&e.thermals[i]), bits(th), "{at}: thermal state");
                }
            }
        }
    }

    /// An engine on one cabinet with ticks of `dt_s` seconds.
    fn engine_with_tick(dt_s: f64) -> Engine {
        let mut cfg = EngineConfig::small(1);
        cfg.dt_s = dt_s;
        Engine::new(cfg, 0.0)
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn a_zero_tick_is_refused_when_the_engine_is_built() {
        engine_with_tick(0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn a_negative_tick_is_refused_when_the_engine_is_built() {
        engine_with_tick(-1.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn a_nan_tick_is_refused_when_the_engine_is_built() {
        engine_with_tick(f64::NAN);
    }

    #[test]
    fn time_advances_by_dt() {
        let mut cfg = EngineConfig::small(1);
        cfg.dt_s = 10.0;
        let mut e = Engine::new(cfg, 100.0);
        assert_eq!(e.time(), 100.0);
        let o = e.step();
        assert_eq!(o.t, 100.0);
        assert_eq!(e.time(), 110.0);
    }
}
