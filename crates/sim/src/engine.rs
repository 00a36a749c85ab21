//! The time-domain simulation driver.
//!
//! Advances the whole data center one tick (default 1 Hz, the paper's
//! native telemetry rate) at a time: scheduler state, per-node workload
//! utilization, component power, component thermals, facility cooling,
//! and the measurement layer (BMC sensors, MSB meters). Node updates run
//! in parallel with rayon.

use rayon::prelude::*;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::catalog;
use summit_telemetry::ids::{CabinetId, GpuSlot, Msb, NodeId, Socket};
use summit_telemetry::records::{frame_value, CepRecord};

use crate::facility::{Facility, FacilityConfig};
use crate::failures::CabinetOutage;
use crate::msb::MsbMeterModel;
use crate::power::{NodeUtilization, PowerModel};
use crate::scheduler::Scheduler;
use crate::spec::{NODES_PER_CABINET, TOTAL_CABINETS};
use crate::thermal::{NodeThermals, ThermalModel};
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
    /// outages is active. Transient ones are typically sampled via
    /// [`crate::failures::FailureModel::cabinet_outages`]; one from
    /// `-inf` to `+inf` darkens a cabinet for the whole run (the
    /// Figure 17 bright-green cabinet).
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

/// What [`Engine::step_batch`] collects beyond the always-on summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepOptions {
    /// Fill the tick's frame batch (one row per node, ~106 metrics).
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
    power_model: PowerModel,
    thermal_model: ThermalModel,
    weather: Weather,
    facility: Facility,
    /// Non-compute IT load of this floor (W).
    infrastructure_it_w: f64,
    msb_model: MsbMeterModel,
    scheduler: Scheduler,
    thermals: Vec<NodeThermals>,
    /// Tick-loop arenas, reused every tick so the steady-state tick
    /// path performs no per-tick (let alone per-frame) heap allocation.
    assignment_scratch: Vec<Option<(WorkloadSignal, f64, u32)>>,
    t: f64,
    tick: u64,
}

struct NodeTick {
    true_power: f64,
    sensor_power: f64,
    gpu_power: [f64; 6],
    cpu_power: [f64; 2],
    thermals: NodeThermals,
    busy: bool,
}

impl Engine {
    /// Minimum nodes per parallel chunk in the per-node tick map: each
    /// node tick is only a few closed-form model evaluations, so
    /// chunks below this waste more time on task hand-off than they
    /// recover through load balance. With the persistent pool a
    /// hand-off is one atomic claim (no spawn), so smaller chunks pay
    /// off: at sub-full scales the tick map still splits into enough
    /// tasks to keep every worker busy through the tail.
    const TICK_MIN_CHUNK: usize = 32;

    /// Builds an engine from config, starting at `t0` seconds. The MTW
    /// flow, the base pump load and the non-compute IT load are the full
    /// floor's times `cabinets / 257`, so PUE stays representative on
    /// any slice.
    pub fn new(config: EngineConfig, t0: f64) -> Self {
        let topology = Topology::scaled(config.cabinets);
        let node_count = topology.node_count();
        let power_model = PowerModel::new(config.seed);
        let thermal_model = ThermalModel::new(config.seed);
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
            power_model,
            thermal_model,
            weather,
            facility,
            infrastructure_it_w,
            msb_model: MsbMeterModel::default(),
            scheduler: Scheduler::new(node_count),
            thermals: vec![NodeThermals::at_water(supply + 8.0); node_count],
            assignment_scratch: Vec::new(),
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

    /// Power model access.
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// Thermal model access.
    pub fn thermal_model(&self) -> &ThermalModel {
        &self.thermal_model
    }

    /// Advances one tick and returns its summary.
    pub fn step(&mut self) -> TickOutput {
        self.step_impl(None)
    }

    /// Advances one tick like [`Engine::step`]. With `opts.frames` set
    /// it also writes the tick's telemetry frames into the caller's
    /// columnar [`FrameBatch`], reset to the floor's node count (row `i`
    /// is node `i`); otherwise it leaves the batch empty.
    pub fn step_batch(&mut self, opts: &StepOptions, batch: &mut FrameBatch) -> TickOutput {
        if opts.frames {
            self.step_impl(Some(batch))
        } else {
            batch.reset(0);
            self.step_impl(None)
        }
    }

    fn step_impl(&mut self, mut frame_batch: Option<&mut FrameBatch>) -> TickOutput {
        let dt = self.config.dt_s;
        let t = self.t;
        let tick = self.tick;
        self.scheduler.advance(t);

        // node -> (signal, t_rel, rank) assignment table (arena: the
        // table is reused across ticks, refilled in place).
        let node_count = self.topology.node_count();
        let mut assignment = std::mem::take(&mut self.assignment_scratch);
        assignment.clear();
        assignment.resize(node_count, None);
        for p in self.scheduler.running() {
            let sig = p.signal();
            let t_rel = t - p.start_time;
            for (rank, n) in p.nodes.iter().enumerate() {
                assignment[n.index()] = Some((sig, t_rel, rank as u32));
            }
        }

        let pm = self.power_model;
        let tm = self.thermal_model;
        let supply_c = crate::spec::MTW_SUPPLY_NOMINAL_C;
        let msb = self.msb_model;
        let thermals_in = &self.thermals;

        // Per-node tick work is light (a few model evaluations), so
        // keep chunks at >= TICK_MIN_CHUNK nodes to amortize task
        // hand-off; the chunk grid stays thread-count independent.
        // Iterating the index range over the *borrowed* thermal state
        // (instead of taking the vector by value) keeps the identical
        // chunk grid while avoiding the per-tick source binning and
        // thermal-vector rebuild.
        let results: Vec<NodeTick> = (0..node_count)
            .into_par_iter()
            .with_min_len(Self::TICK_MIN_CHUNK)
            .map(|i| {
                let mut th = thermals_in[i];
                let node = NodeId(i as u32);
                let (util, busy) = match &assignment[i] {
                    Some((sig, t_rel, rank)) => (sig.node_utilization(*t_rel, *rank), true),
                    None => (NodeUtilization::idle(), false),
                };
                let power = pm.node_power(node, &util);
                tm.step(node, &mut th, &power, supply_c, dt);
                let sensor = msb.sensor_reading(node, tick, power.input_w);
                NodeTick {
                    true_power: power.input_w,
                    sensor_power: sensor,
                    gpu_power: power.gpu_w,
                    cpu_power: power.cpu_w,
                    thermals: th,
                    busy,
                }
            })
            .collect();
        self.assignment_scratch = assignment;

        // One pass in node order, cabinet by cabinet. A board's cabinets
        // are a contiguous run, so its sums add its nodes in the order
        // `Topology::nodes_of_msb` lists them; they start at -0.0, where
        // `Iterator::sum` starts, so an empty board reads -0.0.
        if let Some(batch) = frame_batch.as_deref_mut() {
            batch.reset(node_count);
        }
        let mut true_compute = -0.0;
        let mut sensor_compute = 0.0;
        let mut board_true_w = [-0.0f64; 5];
        let mut msb_sensor_w = [-0.0f64; 5];
        let (mut gpu_t_sum, mut gpu_t_max, mut gpu_t_n) = (0.0, f64::NEG_INFINITY, 0usize);
        let (mut cpu_t_sum, mut cpu_t_n) = (0.0, 0usize);
        let mut busy_nodes = 0usize;
        let cabinets = results
            .chunks(NODES_PER_CABINET)
            .zip(self.thermals.chunks_mut(NODES_PER_CABINET));
        for (c, (nodes, thermals)) in cabinets.enumerate() {
            let cabinet = CabinetId(c as u16);
            let dark = self
                .config
                .cabinet_outages
                .iter()
                .any(|o| o.cabinet == cabinet && o.is_active(t));
            let board = self.topology.msb_of(cabinet).index();
            for (k, (r, slot)) in nodes.iter().zip(thermals).enumerate() {
                *slot = r.thermals;
                true_compute += r.true_power;
                board_true_w[board] += r.true_power;
                busy_nodes += usize::from(r.busy);
                if let Some(batch) = frame_batch.as_deref_mut() {
                    let row = batch.push_row(NodeId((c * NODES_PER_CABINET + k) as u32), t);
                    if !dark {
                        write_frame_metrics(batch, row, r);
                    }
                }
                // A dark cabinet's rows stay as reset left them, all-NaN:
                // the bright-green cabinet.
                if dark {
                    continue;
                }
                sensor_compute += r.sensor_power;
                msb_sensor_w[board] += f64::from(frame_value(r.sensor_power));
                for &g in &r.thermals.gpu_core_c {
                    gpu_t_sum += g;
                    gpu_t_max = gpu_t_max.max(g);
                    gpu_t_n += 1;
                }
                for &cpu in &r.thermals.cpu_c {
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

        self.t += dt;
        self.tick += 1;

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
            running_jobs: self.scheduler.running().len(),
            busy_nodes,
        }
    }

    /// Runs `n` ticks, returning their outputs (summary level).
    pub fn run(&mut self, n: usize) -> Vec<TickOutput> {
        (0..n).map(|_| self.step()).collect()
    }
}

/// Writes one reporting node's metric readings into its batch row.
fn write_frame_metrics(batch: &mut FrameBatch, row: usize, r: &NodeTick) {
    batch.set(row, catalog::input_power(), r.sensor_power);
    batch.set(row, catalog::ps_input_power(0), r.sensor_power * 0.5);
    batch.set(row, catalog::ps_input_power(1), r.sensor_power * 0.5);
    for s in Socket::ALL {
        batch.set(row, catalog::cpu_power(s), r.cpu_power[s.index()]);
    }
    for g in GpuSlot::ALL {
        batch.set(row, catalog::gpu_power(g), r.gpu_power[g.index()]);
        batch.set(
            row,
            catalog::gpu_core_temp(g),
            r.thermals.gpu_core_c[g.index()],
        );
        batch.set(
            row,
            catalog::gpu_mem_temp(g),
            r.thermals.gpu_mem_c[g.index()],
        );
    }
    for s in Socket::ALL {
        batch.set(row, catalog::cpu_pkg_temp(s), r.thermals.cpu_c[s.index()]);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::jobs::JobGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_engine() -> Engine {
        Engine::new(EngineConfig::small(10), 0.0)
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
        let np = batch.column(catalog::input_power());
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
                let power = batch.column(catalog::input_power());
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
