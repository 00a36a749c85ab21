//! GPU XID failure model (paper Section 6, Table 4, Figures 13-16).
//!
//! Reproduces the generating mechanisms the paper infers from Summit's
//! 251,859 XID events of 2020:
//!
//! - **Workload-driven baseline**: user-associated error rates scale with
//!   node-hours and differ strongly by domain/project ("distinct workload
//!   patterns are a major factor affecting GPU reliability", Fig 14).
//! - **Defective hardware**: "the presence of nodes accounting for a
//!   disproportionate share of non-software errors of each type heavily
//!   suggests the presence of manufacturing defects" — including the
//!   NVLINK "super-offender" node carrying 96.9 % of all NVLINK errors.
//! - **Correlated mechanisms**: internal micro-controller warnings and
//!   driver error-handling exceptions are extremely strongly correlated
//!   (Fig 13); double-bit errors, preemptive cleanups, page-retirement
//!   events and failures co-occur as "bad memory" incidents.
//! - **Placement effects**: slot-0 GPUs see more errors (single-GPU
//!   jobs), slot 4 shows elevated double-bit/page-retirement counts, and
//!   off-the-bus errors cluster on the CPU1-side GPUs (Fig 16).
//! - **Thermal signatures**: no error type is hot-skewed; double-bit,
//!   off-the-bus, µC warnings and page-retirement failures skew toward
//!   GPUs "that did not yet warm up" (Fig 15).

use rand::Rng;
use summit_telemetry::ids::{CabinetId, GpuSlot, NodeId};
use summit_telemetry::records::{XidErrorKind, XidEvent};

use crate::apps::{domain_character, project_failure_multiplier};
use crate::jobs::SyntheticJob;
use crate::rng::{exponential, normal, poisson, weighted_index};
use crate::spec::TOTAL_NODES;

/// Paper Table 4 annual counts per kind (2020).
pub fn paper_annual_count(kind: XidErrorKind) -> u64 {
    use XidErrorKind::*;
    match kind {
        MemoryPageFault => 186_496,
        GraphicsEngineException => 32_339,
        StoppedProcessing => 22_649,
        NvlinkError => 8_736,
        PageRetirementEvent => 851,
        PageRetirementFailure => 210,
        DoubleBitError => 179,
        PreemptiveCleanup => 162,
        InternalMicrocontrollerWarning => 74,
        GraphicsEngineFault => 44,
        FallenOffTheBus => 31,
        InternalMicrocontrollerHalt => 29,
        DriverFirmwareError => 26,
        DriverErrorHandlingException => 21,
        CorruptedPushBufferStream => 11,
        GraphicsEngineClassError => 1,
    }
}

/// Paper Table 4 "max count per node" share per kind.
pub fn paper_node_concentration(kind: XidErrorKind) -> f64 {
    use XidErrorKind::*;
    match kind {
        MemoryPageFault => 0.006,
        GraphicsEngineException => 0.008,
        StoppedProcessing => 0.005,
        NvlinkError => 0.969,
        PageRetirementEvent => 0.043,
        PageRetirementFailure => 0.424,
        DoubleBitError => 0.184,
        PreemptiveCleanup => 0.201,
        InternalMicrocontrollerWarning => 0.446,
        GraphicsEngineFault => 0.114,
        FallenOffTheBus => 0.258,
        InternalMicrocontrollerHalt => 0.138,
        DriverFirmwareError => 0.077,
        DriverErrorHandlingException => 1.0,
        CorruptedPushBufferStream => 0.818,
        GraphicsEngineClassError => 1.0,
    }
}

/// Reference node-hours of the paper year: 4,626 nodes x 366 d x ~85 %
/// allocation.
pub const PAPER_YEAR_NODE_HOURS: f64 = TOTAL_NODES as f64 * 366.0 * 24.0 * 0.85;

/// Slot-preference weights per kind (Figure 16 shapes).
fn slot_weights(kind: XidErrorKind) -> [f64; 6] {
    use XidErrorKind::*;
    match kind {
        // Elevated double-bit / page-retirement counts on GPU 4.
        DoubleBitError | PageRetirementEvent => [1.2, 0.9, 0.8, 0.9, 2.4, 0.8],
        // Off-the-bus clusters on the CPU1-side GPUs.
        FallenOffTheBus => [1.1, 0.7, 0.6, 1.2, 1.4, 1.3],
        // Default: reverse of the water order — GPU 0 leads (single-GPU
        // jobs), counts fall along the slots.
        _ => [1.6, 1.15, 0.95, 0.85, 0.8, 0.75],
    }
}

/// Thermal-extremity z-score generator per kind (Figure 15 shapes).
fn sample_thermal_z<R: Rng + ?Sized>(
    rng: &mut R,
    kind: XidErrorKind,
    regime: ThermalRegime,
) -> f64 {
    use XidErrorKind::*;
    if regime == ThermalRegime::TitanAirCooled {
        // Titan's hardware errors cluster on the hottest chips: mass at
        // high z with a tail to low (left-skewed).
        if matches!(
            kind,
            DoubleBitError | FallenOffTheBus | PageRetirementEvent | PageRetirementFailure
        ) {
            return 1.2 - exponential(rng, 1.0);
        }
        return normal(rng, 0.2, 1.0);
    }
    match kind {
        // Right-skewed: most events on not-yet-warm GPUs, long tail up.
        DoubleBitError
        | FallenOffTheBus
        | InternalMicrocontrollerWarning
        | PageRetirementFailure => -0.9 + exponential(rng, 1.0),
        // Graphics engine faults: the one potentially left-skewed type.
        GraphicsEngineFault => 0.7 - exponential(rng, 1.0),
        // Everything else: symmetric, no overheating signature.
        _ => normal(rng, 0.0, 1.0),
    }
}

/// One whole-cabinet telemetry outage: every node of the cabinet goes
/// dark (all-NaN frames) for `[start_s, end_s)` — the transient version
/// of the paper's Figure 17 "bright green cabinet".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CabinetOutage {
    /// The dark cabinet.
    pub cabinet: CabinetId,
    /// Outage start (s).
    pub start_s: f64,
    /// Outage end (s, exclusive).
    pub end_s: f64,
}

impl CabinetOutage {
    /// True while the outage blanks the cabinet's telemetry.
    pub fn is_active(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// Thermal regime of the failure model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalRegime {
    /// Summit's observed behaviour: direct liquid cooling keeps chips
    /// cool; no failure type is hot-skewed (paper Section 6).
    SummitLiquidCooled,
    /// Titan-like behaviour: air-cooled GPUs where "high-temperature was
    /// a reason for the major errors" — hardware failures concentrate on
    /// hot chips (left-skewed temperature distributions).
    TitanAirCooled,
}

/// The NVLINK super-offender node: one permanently faulty link carrying
/// 96.9 % of the year's NVLINK errors (Table 4), removed before the
/// Figure 15 thermal analysis.
pub const SUPER_OFFENDER: NodeId = NodeId(2077);

/// Seed the defect-node identities derive from.
const DEFECT_SEED: u64 = 0x5EED;

/// The failure generator, calibrated to the paper year.
#[derive(Debug, Clone)]
pub struct FailureModel {
    /// Thermal regime (Summit vs Titan-like).
    regime: ThermalRegime,
    /// Weak-memory nodes hosting "bad memory" incidents, with weights.
    weak_memory_nodes: Vec<(NodeId, f64)>,
    /// The defect node for the µC-warning/driver-error pair.
    uc_defect_node: NodeId,
}

impl FailureModel {
    /// Builds the model for `regime` on a floor of `node_count` nodes;
    /// defect-node identities derive from a fixed seed.
    pub fn new(regime: ThermalRegime, node_count: usize) -> Self {
        assert!(node_count > 2, "need a plausible floor");
        let pick = |salt: u64| {
            NodeId(
                (crate::rng::stable_jitter(DEFECT_SEED ^ salt, 1).abs() * (node_count - 1) as f64)
                    as u32,
            )
        };
        // ~32 weak-memory nodes with geometric weights: the head nodes
        // dominate, which yields the paper's 18-42 % concentrations.
        let mut weak = Vec::new();
        let mut w = 1.0;
        for i in 0..32u64 {
            weak.push((pick(0x33 + i * 7), w));
            w *= 0.88;
        }
        Self {
            regime,
            weak_memory_nodes: weak,
            uc_defect_node: pick(0xAB),
        }
    }

    fn pseudo_block_start(&self, job: &SyntheticJob, node_count: usize) -> u32 {
        let span = node_count as u64;
        let h = job.seed.wrapping_mul(0xD6E8FEB86659FD93);
        let maxstart = span.saturating_sub(job.record.node_count as u64).max(1);
        (h % maxstart) as u32
    }

    /// Samples an in-job GPU core temperature consistent with the job's
    /// workload (used when the engine's thermal state is not available).
    fn sketch_temperature<R: Rng + ?Sized>(&self, rng: &mut R, job: &SyntheticJob, z: f64) -> f64 {
        // Mean in-job GPU temp from intensity: idle ~25 C, full ~50 C.
        let gi = job.profile.gpu_intensity;
        let mean = 24.0 + 27.0 * gi;
        let std = 4.5;
        let _ = rng;
        mean + z * std
    }

    /// Failure weight of a job: node-hours scaled by its domain and
    /// project multipliers.
    fn job_weight(job: &SyntheticJob) -> f64 {
        job.record.node_hours()
            * domain_character(job.record.domain).failure_multiplier
            * project_failure_multiplier(&job.record.project)
    }

    /// Generates the user-associated (job-driven) events for one job.
    /// `norm` converts a job weight into the fraction of each kind's
    /// annual total this job should carry (see [`FailureModel::generate`]).
    fn job_events<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        job: &SyntheticJob,
        node_count: usize,
        norm: f64,
        out: &mut Vec<XidEvent>,
    ) {
        let weight = Self::job_weight(job);
        let block = self.pseudo_block_start(job, node_count);

        use XidErrorKind::*;
        // Job-driven kinds and the share of their annual total that the
        // baseline process carries (the rest comes from defect streams).
        const JOB_KINDS: [(XidErrorKind, f64); 7] = [
            (MemoryPageFault, 0.97),
            (GraphicsEngineException, 0.95),
            (StoppedProcessing, 0.97),
            (NvlinkError, 0.031), // all the rest is the super-offender
            (GraphicsEngineFault, 0.85),
            (InternalMicrocontrollerHalt, 0.85),
            (DriverFirmwareError, 0.9),
        ];
        for (kind, share) in JOB_KINDS {
            let annual = paper_annual_count(kind) as f64 * share;
            let mean = annual * weight * norm;
            let count = poisson(rng, mean);
            for _ in 0..count {
                let rank = rng.gen_range(0..job.record.node_count);
                let node = NodeId((block + rank).min(node_count as u32 - 1));
                let slot = GpuSlot(weighted_index(rng, &slot_weights(kind)) as u8);
                let time = job.record.begin_time + rng.gen::<f64>() * job.record.walltime_s();
                let z = sample_thermal_z(rng, kind, self.regime);
                out.push(XidEvent {
                    kind,
                    node,
                    slot,
                    time,
                    allocation_id: Some(job.record.allocation_id),
                    gpu_core_temp: self.sketch_temperature(rng, job, z),
                    temp_zscore: z,
                });
            }
        }
    }

    /// Generates the NVLINK super-offender stream over `[t0, t0+span)`.
    fn super_offender_events<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        t0: f64,
        span_s: f64,
        year_fraction: f64,
        out: &mut Vec<XidEvent>,
    ) {
        let mean = paper_annual_count(XidErrorKind::NvlinkError) as f64
            * paper_node_concentration(XidErrorKind::NvlinkError)
            * year_fraction;
        let count = poisson(rng, mean);
        // A permanently-faulty link on one slot pair of one node.
        for _ in 0..count {
            let z = normal(rng, -0.3, 0.8);
            out.push(XidEvent {
                kind: XidErrorKind::NvlinkError,
                node: SUPER_OFFENDER,
                slot: GpuSlot(if rng.gen::<bool>() { 1 } else { 2 }),
                time: t0 + rng.gen::<f64>() * span_s,
                allocation_id: None,
                gpu_core_temp: 32.0 + 4.0 * z,
                temp_zscore: z,
            });
        }
    }

    /// Generates "bad memory" incidents: clustered double-bit /
    /// page-retirement / preemptive-cleanup bursts on weak-memory nodes.
    fn memory_incidents<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        t0: f64,
        span_s: f64,
        year_fraction: f64,
        out: &mut Vec<XidEvent>,
    ) {
        use XidErrorKind::*;
        // ~220 incidents per paper year reproduce the Table 4 counts.
        let incidents = poisson(rng, 220.0 * year_fraction);
        let weights: Vec<f64> = self.weak_memory_nodes.iter().map(|(_, w)| *w).collect();
        for _ in 0..incidents {
            let (node, _) = self.weak_memory_nodes[weighted_index(rng, &weights)];
            let slot = GpuSlot(weighted_index(rng, &slot_weights(DoubleBitError)) as u8);
            let time = t0 + rng.gen::<f64>() * span_s;
            let z = sample_thermal_z(rng, DoubleBitError, self.regime);
            // Summit: cap double-bit temperatures near the paper's 46.1 C
            // max. Titan-like chips run far hotter under air cooling.
            let temp = match self.regime {
                ThermalRegime::SummitLiquidCooled => (30.0 + 4.5 * z).min(46.0),
                ThermalRegime::TitanAirCooled => 68.0 + 8.0 * z,
            };
            let mut push = |kind: XidErrorKind, dt: f64| {
                out.push(XidEvent {
                    kind,
                    node,
                    slot,
                    time: time + dt,
                    allocation_id: None,
                    gpu_core_temp: temp,
                    temp_zscore: z,
                });
            };
            // Every incident retires pages; double-bit errors and cleanups
            // accompany most incidents. Retirement *failures* concentrate
            // on the head weak node (its ECC repeatedly fails to retire),
            // reproducing the paper's 42.4 % vs 4.3 % concentration split.
            let retirements = 1 + poisson(rng, 2.9);
            for k in 0..retirements {
                push(PageRetirementEvent, k as f64);
            }
            let prf_count = if node == self.weak_memory_nodes[0].0 {
                1 + poisson(rng, 1.5)
            } else if rng.gen::<f64>() < 0.45 {
                1
            } else {
                0
            };
            for k in 0..prf_count {
                push(PageRetirementFailure, 0.5 + k as f64 * 0.1);
            }
            if rng.gen::<f64>() < 0.80 {
                push(DoubleBitError, 0.2);
            }
            if rng.gen::<f64>() < 0.72 {
                push(PreemptiveCleanup, 1.5);
            }
            if rng.gen::<f64>() < 0.12 {
                push(FallenOffTheBus, 2.0);
            }
        }
        // Independent off-the-bus events (irregular HPC tasks).
        let bus = poisson(rng, 26.0 * year_fraction);
        for _ in 0..bus {
            let z = sample_thermal_z(rng, FallenOffTheBus, self.regime);
            out.push(XidEvent {
                kind: FallenOffTheBus,
                node: NodeId(rng.gen_range(0..TOTAL_NODES as u32)),
                slot: GpuSlot(weighted_index(rng, &slot_weights(FallenOffTheBus)) as u8),
                time: t0 + rng.gen::<f64>() * span_s,
                allocation_id: None,
                gpu_core_temp: 28.0 + 5.0 * z,
                temp_zscore: z,
            });
        }
        // Corrupted push-buffer streams: concentrated on one weak node.
        let cpb = poisson(
            rng,
            paper_annual_count(CorruptedPushBufferStream) as f64 * year_fraction,
        );
        for i in 0..cpb {
            let node = if (i as f64 / cpb.max(1) as f64) < 0.82 {
                self.weak_memory_nodes[0].0
            } else {
                NodeId(rng.gen_range(0..TOTAL_NODES as u32))
            };
            let z = normal(rng, 0.0, 1.0);
            out.push(XidEvent {
                kind: CorruptedPushBufferStream,
                node,
                slot: GpuSlot(rng.gen_range(0..6)),
                time: t0 + rng.gen::<f64>() * span_s,
                allocation_id: None,
                gpu_core_temp: 30.0 + 4.0 * z,
                temp_zscore: z,
            });
        }
        // The single graphics-engine class error of the year.
        if rng.gen::<f64>() < year_fraction.min(1.0) {
            out.push(XidEvent {
                kind: GraphicsEngineClassError,
                node: NodeId(rng.gen_range(0..TOTAL_NODES as u32)),
                slot: GpuSlot(rng.gen_range(0..6)),
                time: t0 + rng.gen::<f64>() * span_s,
                allocation_id: None,
                gpu_core_temp: 35.0,
                temp_zscore: 0.0,
            });
        }
    }

    /// Generates the correlated µC-warning / driver-error pair streams.
    fn microcontroller_events<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        t0: f64,
        span_s: f64,
        year_fraction: f64,
        out: &mut Vec<XidEvent>,
    ) {
        use XidErrorKind::*;
        // Defect-node stream: 44.6 % of warnings on one node; every driver
        // error handling exception follows a warning on that node.
        let defect_warnings = poisson(rng, 33.0 * year_fraction);
        for _ in 0..defect_warnings {
            let time = t0 + rng.gen::<f64>() * span_s;
            let z = sample_thermal_z(rng, InternalMicrocontrollerWarning, self.regime);
            let slot = GpuSlot(3);
            let temp = 27.0 + 4.5 * z;
            out.push(XidEvent {
                kind: InternalMicrocontrollerWarning,
                node: self.uc_defect_node,
                slot,
                time,
                allocation_id: None,
                gpu_core_temp: temp,
                temp_zscore: z,
            });
            // Soft error escalates to a driver error most of the time —
            // "soft errors such as micro-controller warnings can be
            // efficient for early diagnostics ... of fatal driver errors".
            if rng.gen::<f64>() < 0.62 {
                out.push(XidEvent {
                    kind: DriverErrorHandlingException,
                    node: self.uc_defect_node,
                    slot,
                    time: time + 2.0,
                    allocation_id: None,
                    gpu_core_temp: temp,
                    temp_zscore: z,
                });
            }
        }
        // Background warnings spread thinly.
        let background = poisson(rng, 41.0 * year_fraction);
        for _ in 0..background {
            let z = sample_thermal_z(rng, InternalMicrocontrollerWarning, self.regime);
            out.push(XidEvent {
                kind: InternalMicrocontrollerWarning,
                node: NodeId(rng.gen_range(0..TOTAL_NODES as u32)),
                slot: GpuSlot(
                    weighted_index(rng, &slot_weights(InternalMicrocontrollerWarning)) as u8,
                ),
                time: t0 + rng.gen::<f64>() * span_s,
                allocation_id: None,
                gpu_core_temp: 27.0 + 4.5 * z,
                temp_zscore: z,
            });
        }
    }

    /// Generates the full event log for a job population spanning
    /// `[t0, t0 + span_s)`. `year_fraction` should be `span_s / YEAR_S`
    /// so hardware background streams scale with the observation window.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        jobs: &[SyntheticJob],
        node_count: usize,
        t0: f64,
        span_s: f64,
    ) -> Vec<XidEvent> {
        assert!(span_s > 0.0, "span must be positive");
        let year_fraction = span_s / crate::spec::YEAR_S;
        let mut out = Vec::new();
        // Normalize job-driven rates so the population carries exactly
        // `year_fraction` of each kind's annual total in expectation,
        // regardless of how the caller scaled its job population.
        let total_weight: f64 = jobs.iter().map(Self::job_weight).sum();
        if total_weight > 0.0 {
            let norm = year_fraction / total_weight;
            for job in jobs {
                self.job_events(rng, job, node_count, norm, &mut out);
            }
        }
        self.super_offender_events(rng, t0, span_s, year_fraction, &mut out);
        self.memory_incidents(rng, t0, span_s, year_fraction, &mut out);
        self.microcontroller_events(rng, t0, span_s, year_fraction, &mut out);
        out.sort_by(|a, b| a.time.total_cmp(&b.time));
        out
    }

    /// Samples whole-cabinet telemetry outage bursts over
    /// `[t0, t0 + span_s)`: Poisson arrivals at roughly four outages per
    /// cabinet-year, each lasting ten minutes
    /// to a few hours. Sorted by start time; an empty floor or
    /// non-positive span yields no outages.
    pub fn cabinet_outages<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cabinets: usize,
        t0: f64,
        span_s: f64,
    ) -> Vec<CabinetOutage> {
        if cabinets == 0 || span_s <= 0.0 || span_s.is_nan() {
            return Vec::new();
        }
        let mean = cabinets as f64 * 4.0 * span_s / crate::spec::YEAR_S;
        let n = poisson(rng, mean);
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let start = t0 + rng.gen::<f64>() * span_s;
            let duration = 600.0 + exponential(rng, 1.0) * 7200.0;
            out.push(CabinetOutage {
                cabinet: CabinetId(rng.gen_range(0..cabinets) as u16),
                start_s: start,
                end_s: start + duration,
            });
        }
        out.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        out
    }
}

/// Tallies events per kind.
pub fn count_by_kind(events: &[XidEvent]) -> [u64; 16] {
    let mut counts = [0u64; 16];
    for e in events {
        counts[e.kind.index()] += 1;
    }
    counts
}

/// Per-kind, per-node count matrix (the Figure 13 input): rows indexed by
/// kind, columns by node id.
pub fn node_count_matrix(events: &[XidEvent], node_count: usize) -> Vec<Vec<f64>> {
    let mut m = vec![vec![0.0f64; node_count]; 16];
    for e in events {
        if e.node.index() < node_count {
            m[e.kind.index()][e.node.index()] += 1.0;
        }
    }
    m
}

/// Max per-node share of each kind (the Table 4 right column).
pub fn max_node_share(events: &[XidEvent], node_count: usize) -> [f64; 16] {
    let m = node_count_matrix(events, node_count);
    let counts = count_by_kind(events);
    let mut out = [0.0f64; 16];
    for (k, row) in m.iter().enumerate() {
        if counts[k] > 0 {
            let max = row.iter().cloned().fold(0.0f64, f64::max);
            out[k] = max / counts[k] as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::jobs::JobGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A ~6-week population at paper intensity.
    fn events_and_jobs(weeks: f64) -> (Vec<XidEvent>, Vec<SyntheticJob>) {
        let span = weeks * 7.0 * 86400.0;
        let mut rng = StdRng::seed_from_u64(99);
        let mut g = JobGenerator::new();
        // Paper-rate job traffic: 840k jobs over the year.
        let n_jobs = (840_000.0 * span / crate::spec::YEAR_S) as usize;
        let jobs = g.generate_population(&mut rng, n_jobs, 0.0, span);
        let model = FailureModel::new(ThermalRegime::SummitLiquidCooled, TOTAL_NODES);
        let events = model.generate(&mut rng, &jobs, TOTAL_NODES, 0.0, span);
        (events, jobs)
    }

    #[test]
    fn composition_ordering_matches_table4() {
        let (events, _) = events_and_jobs(6.0);
        let counts = count_by_kind(&events);
        use XidErrorKind::*;
        // The big three user-associated kinds dominate in order.
        assert!(counts[MemoryPageFault.index()] > counts[GraphicsEngineException.index()]);
        assert!(counts[GraphicsEngineException.index()] > counts[StoppedProcessing.index()]);
        assert!(counts[StoppedProcessing.index()] > counts[NvlinkError.index()]);
        // Hardware kinds are orders of magnitude rarer.
        assert!(counts[DoubleBitError.index()] < counts[NvlinkError.index()]);
        assert!(counts[MemoryPageFault.index()] > 100 * counts[PageRetirementEvent.index()].max(1));
    }

    #[test]
    fn annual_totals_near_paper() {
        let (events, _) = events_and_jobs(6.0);
        let frac = 6.0 * 7.0 * 86400.0 / crate::spec::YEAR_S;
        let counts = count_by_kind(&events);
        let expect = paper_annual_count(XidErrorKind::MemoryPageFault) as f64 * frac;
        let got = counts[XidErrorKind::MemoryPageFault.index()] as f64;
        // Domain/project multipliers average near 1; allow 40 % band.
        assert!(
            (got / expect - 1.0).abs() < 0.4,
            "memory page faults: got {got}, expected ~{expect}"
        );
        let total: u64 = counts.iter().sum();
        let expect_total = 251_859.0 * frac;
        assert!(
            (total as f64 / expect_total - 1.0).abs() < 0.4,
            "total {total} vs expected ~{expect_total}"
        );
    }

    #[test]
    fn nvlink_super_offender_concentration() {
        let (events, _) = events_and_jobs(6.0);
        let shares = max_node_share(&events, TOTAL_NODES);
        let s = shares[XidErrorKind::NvlinkError.index()];
        assert!(
            s > 0.85,
            "paper: 96.9 % of NVLINK errors on one node, got {s}"
        );
    }

    #[test]
    fn memory_page_faults_spread_widely() {
        let (events, _) = events_and_jobs(6.0);
        let shares = max_node_share(&events, TOTAL_NODES);
        let s = shares[XidErrorKind::MemoryPageFault.index()];
        assert!(s < 0.05, "page faults are not defect-concentrated, got {s}");
    }

    #[test]
    fn uc_warning_driver_error_correlated() {
        let (events, _) = events_and_jobs(12.0);
        let m = node_count_matrix(&events, TOTAL_NODES);
        let r = summit_analysis::correlation::pearson(
            &m[XidErrorKind::InternalMicrocontrollerWarning.index()],
            &m[XidErrorKind::DriverErrorHandlingException.index()],
        );
        assert!(
            r > 0.8,
            "paper: extremely strong uC-warning/driver-error correlation, got r={r}"
        );
    }

    #[test]
    fn memory_cluster_correlated() {
        let (events, _) = events_and_jobs(12.0);
        let m = node_count_matrix(&events, TOTAL_NODES);
        use XidErrorKind::*;
        let r1 = summit_analysis::correlation::pearson(
            &m[DoubleBitError.index()],
            &m[PageRetirementEvent.index()],
        );
        let r2 = summit_analysis::correlation::pearson(
            &m[DoubleBitError.index()],
            &m[PreemptiveCleanup.index()],
        );
        assert!(r1 > 0.5, "double-bit vs page-retirement r={r1}");
        assert!(r2 > 0.5, "double-bit vs preemptive-cleanup r={r2}");
        // And an unrelated pair stays low.
        let r3 = summit_analysis::correlation::pearson(
            &m[MemoryPageFault.index()],
            &m[DriverErrorHandlingException.index()],
        );
        assert!(
            r3.abs() < 0.3,
            "unrelated pair should not correlate, r={r3}"
        );
    }

    #[test]
    fn thermal_skews_match_figure15() {
        let (events, _) = events_and_jobs(12.0);
        let zs_of = |kind: XidErrorKind| -> Vec<f64> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.temp_zscore)
                .collect()
        };
        use XidErrorKind::*;
        let dbe = summit_analysis::stats::skewness(&zs_of(DoubleBitError));
        assert!(dbe > 0.3, "double-bit must be right-skewed, got {dbe}");
        let bus = summit_analysis::stats::skewness(&zs_of(FallenOffTheBus));
        assert!(bus > 0.2, "off-the-bus must be right-skewed, got {bus}");
        let mpf = summit_analysis::stats::skewness(&zs_of(MemoryPageFault));
        assert!(mpf.abs() < 0.25, "page faults stay symmetric, got {mpf}");
    }

    #[test]
    fn double_bit_temps_capped_low() {
        let (events, _) = events_and_jobs(12.0);
        let max_temp = events
            .iter()
            .filter(|e| e.kind == XidErrorKind::DoubleBitError)
            .map(|e| e.gpu_core_temp)
            .fold(f64::NEG_INFINITY, f64::max);
        // Paper: highest double-bit temperature was 46.1 C.
        assert!(max_temp <= 46.5, "double-bit max temp {max_temp}");
    }

    #[test]
    fn slot_zero_leads_default_kinds() {
        let (events, _) = events_and_jobs(6.0);
        let mut slots = [0u64; 6];
        for e in events
            .iter()
            .filter(|e| e.kind == XidErrorKind::MemoryPageFault)
        {
            slots[e.slot.index()] += 1;
        }
        assert!(
            slots[0] > slots[1] && slots[1] > slots[2],
            "slots {slots:?}"
        );
        assert!(slots[0] > slots[5]);
    }

    #[test]
    fn slot_four_elevated_for_double_bit() {
        let (events, _) = events_and_jobs(24.0);
        let mut slots = [0u64; 6];
        for e in events.iter().filter(|e| {
            e.kind == XidErrorKind::DoubleBitError || e.kind == XidErrorKind::PageRetirementEvent
        }) {
            slots[e.slot.index()] += 1;
        }
        let others_max = slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 4)
            .map(|(_, &c)| c)
            .max()
            .unwrap();
        assert!(
            slots[4] > others_max,
            "paper Fig 16: GPU 4 leads double-bit/page-retirement, got {slots:?}"
        );
    }

    #[test]
    fn cabinet_outages_are_rare_and_bounded() {
        let model = FailureModel::new(ThermalRegime::SummitLiquidCooled, TOTAL_NODES);
        let mut rng = StdRng::seed_from_u64(7);
        // One year over the full floor: expect ~4 outages per cabinet.
        let outages = model.cabinet_outages(&mut rng, 257, 0.0, crate::spec::YEAR_S);
        let per_cabinet = outages.len() as f64 / 257.0;
        assert!(
            (2.0..8.0).contains(&per_cabinet),
            "expected ~4 outages/cabinet-year, got {per_cabinet}"
        );
        for o in &outages {
            assert!(o.cabinet.0 < 257);
            assert!(o.end_s > o.start_s + 600.0 - 1e-9);
            assert!(o.is_active(o.start_s));
            assert!(!o.is_active(o.end_s));
        }
        assert!(outages.windows(2).all(|w| w[0].start_s <= w[1].start_s));
        // Degenerate inputs yield no outages rather than panicking.
        assert!(model.cabinet_outages(&mut rng, 0, 0.0, 1.0).is_empty());
        assert!(model.cabinet_outages(&mut rng, 10, 0.0, 0.0).is_empty());
    }

    #[test]
    fn failure_rates_differ_by_project() {
        let (events, jobs) = events_and_jobs(6.0);
        // Failures per node-hour by project (only job-attributed events).
        use std::collections::HashMap;
        let mut nh: HashMap<&str, f64> = HashMap::new();
        let mut by_alloc: HashMap<u64, &str> = HashMap::new();
        for j in &jobs {
            *nh.entry(j.record.project.as_str()).or_default() += j.record.node_hours();
            by_alloc.insert(j.record.allocation_id.0, j.record.project.as_str());
        }
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for e in &events {
            if let Some(a) = e.allocation_id {
                if let Some(p) = by_alloc.get(&a.0) {
                    *counts.entry(p).or_default() += 1;
                }
            }
        }
        let mut rates: Vec<f64> = counts
            .iter()
            .filter_map(|(p, &c)| {
                let h = nh.get(*p).copied().unwrap_or(0.0);
                (h > 5000.0).then(|| c as f64 / h)
            })
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(rates.len() > 10);
        let hi = rates[rates.len() - 1];
        let lo = rates[rates.len() / 10];
        assert!(
            hi / lo.max(1e-9) > 3.0,
            "project failure rates must vary widely: hi={hi} lo={lo}"
        );
    }
}
