//! Shared record types for the five raw data streams of the paper's
//! Table 2: per-node telemetry frames (a), central-energy-plant records
//! (b), job-scheduler allocation history (c, d) and GPU XID error events
//! (e). The simulator produces these; the pipeline and experiments consume
//! them.

use crate::catalog::METRIC_COUNT;
use crate::ids::{AllocationId, GpuSlot, NodeId};

/// One 1 Hz telemetry frame from one node: a dense vector of all catalog
/// metrics sampled at `t_sample`, timestamped at the aggregation point at
/// `t_ingest` (the paper: payloads "timestamped later at the aggregation
/// point after an average 2.5-second delay (max. 5 seconds)").
///
/// The metric vector is an inline `[f32; METRIC_COUNT]`, not a boxed
/// slice: a frame is plain value data, so routing, fault delivery and
/// window buffering move it with a memcpy instead of a per-frame heap
/// allocation — the hot paths stay allocation-free in steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFrame {
    /// Compute node identifier.
    pub node: NodeId,
    /// Seconds since epoch at which the sensors were read.
    pub t_sample: f64,
    /// Seconds since epoch at which the frame reached the aggregator.
    pub t_ingest: f64,
    /// Dense metric values in catalog order; NaN = missing sensor.
    pub values: [f32; METRIC_COUNT],
}

/// Quantizes a metric sample to the f32 width frames are stored at.
/// This is the single budgeted narrowing point (`lossy-cast`) for
/// frame values: every path that writes a measured value into f32
/// frame storage — [`NodeFrame`]s and the engine's [`crate::batch`]
/// rows alike — funnels through here, so the rounding policy lives in
/// one place.
#[inline]
pub fn frame_value(value: f64) -> f32 {
    value as f32
}

impl NodeFrame {
    /// Creates a frame with all metrics missing.
    pub fn empty(node: NodeId, t_sample: f64) -> Self {
        Self::from_row(node, t_sample, &[f32::NAN; METRIC_COUNT])
    }

    /// A frame whose metric values are `row` (`t_ingest` starts at
    /// `t_sample`; the delivery layer stamps it later).
    pub fn from_row(node: NodeId, t_sample: f64, row: &[f32; METRIC_COUNT]) -> Self {
        Self {
            node,
            t_sample,
            t_ingest: t_sample,
            values: *row,
        }
    }

    /// Value of a metric as f64 (NaN if missing).
    #[inline]
    pub fn get(&self, metric: crate::catalog::MetricId) -> f64 {
        self.values[metric.index()] as f64
    }

    /// Sets a metric value.
    #[inline]
    pub fn set(&mut self, metric: crate::catalog::MetricId, value: f64) {
        self.values[metric.index()] = frame_value(value);
    }

    /// Ingest delay in seconds.
    pub fn delay(&self) -> f64 {
        self.t_ingest - self.t_sample
    }
}

/// Science domains used for the per-domain job breakdowns (Figure 8) and
/// the failure-rate-by-project analysis (Figure 14). The list follows the
/// DOE Office of Science areas named in the paper plus the long-tail
/// domains visible in Figure 8's axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScienceDomain {
    /// Materials science.
    Materials,
    /// Physics.
    Physics,
    /// Chemistry.
    Chemistry,
    /// Engineering.
    Engineering,
    /// Fusion energy.
    Fusion,
    /// Biophysics.
    Biophysics,
    /// Astrophysics.
    Astrophysics,
    /// Computer science.
    ComputerScience,
    /// Earth science.
    EarthScience,
    /// Nuclear physics.
    NuclearPhysics,
    /// High-energy physics.
    HighEnergyPhysics,
    /// Biology.
    Biology,
    /// Seismology.
    Seismology,
    /// Combustion.
    Combustion,
    /// Medical research.
    Medical,
    /// Artificial intelligence / machine learning.
    AiMl,
    /// Other / unclassified.
    Other,
}

impl ScienceDomain {
    /// All domains in display order.
    pub const ALL: [ScienceDomain; 17] = [
        ScienceDomain::Materials,
        ScienceDomain::Physics,
        ScienceDomain::Chemistry,
        ScienceDomain::Engineering,
        ScienceDomain::Fusion,
        ScienceDomain::Biophysics,
        ScienceDomain::Astrophysics,
        ScienceDomain::ComputerScience,
        ScienceDomain::EarthScience,
        ScienceDomain::NuclearPhysics,
        ScienceDomain::HighEnergyPhysics,
        ScienceDomain::Biology,
        ScienceDomain::Seismology,
        ScienceDomain::Combustion,
        ScienceDomain::Medical,
        ScienceDomain::AiMl,
        ScienceDomain::Other,
    ];

    /// Dense index matching the position in [`ScienceDomain::ALL`]. The
    /// exhaustive match makes index/`ALL` drift a compile error instead
    /// of a silent alias onto variant 0.
    pub fn index(self) -> usize {
        match self {
            ScienceDomain::Materials => 0,
            ScienceDomain::Physics => 1,
            ScienceDomain::Chemistry => 2,
            ScienceDomain::Engineering => 3,
            ScienceDomain::Fusion => 4,
            ScienceDomain::Biophysics => 5,
            ScienceDomain::Astrophysics => 6,
            ScienceDomain::ComputerScience => 7,
            ScienceDomain::EarthScience => 8,
            ScienceDomain::NuclearPhysics => 9,
            ScienceDomain::HighEnergyPhysics => 10,
            ScienceDomain::Biology => 11,
            ScienceDomain::Seismology => 12,
            ScienceDomain::Combustion => 13,
            ScienceDomain::Medical => 14,
            ScienceDomain::AiMl => 15,
            ScienceDomain::Other => 16,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScienceDomain::Materials => "Materials",
            ScienceDomain::Physics => "Physics",
            ScienceDomain::Chemistry => "Chemistry",
            ScienceDomain::Engineering => "Engineering",
            ScienceDomain::Fusion => "Fusion",
            ScienceDomain::Biophysics => "Biophysics",
            ScienceDomain::Astrophysics => "Astrophysics",
            ScienceDomain::ComputerScience => "Comp. Science",
            ScienceDomain::EarthScience => "Earth Science",
            ScienceDomain::NuclearPhysics => "Nuclear Physics",
            ScienceDomain::HighEnergyPhysics => "High Energy Physics",
            ScienceDomain::Biology => "Biology",
            ScienceDomain::Seismology => "Seismology",
            ScienceDomain::Combustion => "Combustion",
            ScienceDomain::Medical => "Medical",
            ScienceDomain::AiMl => "AI/ML",
            ScienceDomain::Other => "Other",
        }
    }
}

/// One completed job from the scheduler allocation history (Dataset C).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Scheduler allocation identifier.
    pub allocation_id: AllocationId,
    /// Scheduling class 1..=5 by node count (paper Table 3).
    pub class: u8,
    /// Number of nodes allocated.
    pub node_count: u32,
    /// Project identifier (e.g. "MAT042").
    pub project: String,
    /// Science domain of the project.
    pub domain: ScienceDomain,
    /// Seconds since epoch.
    pub begin_time: f64,
    /// Seconds since epoch.
    pub end_time: f64,
}

impl JobRecord {
    /// Wall time in seconds.
    pub fn walltime_s(&self) -> f64 {
        self.end_time - self.begin_time
    }

    /// Node-hours consumed (the Figure 14 normalization denominator).
    pub fn node_hours(&self) -> f64 {
        self.node_count as f64 * self.walltime_s() / 3600.0
    }
}

/// Per-node allocation entry (Dataset D): which nodes a job ran on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAllocation {
    /// Scheduler allocation identifier.
    pub allocation_id: AllocationId,
    /// Compute node identifier.
    pub node: NodeId,
    /// Start time (seconds since epoch).
    pub begin_time: f64,
    /// End time (seconds since epoch).
    pub end_time: f64,
}

/// GPU XID error taxonomy of the paper's Table 4, ordered as printed.
/// The double-ruler in the table separates types that can be associated
/// with user applications (`user_associated() == true`) from those that
/// cannot (hardware/driver failures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XidErrorKind {
    /// GPU memory page fault (XID 31).
    MemoryPageFault,
    /// Graphics engine exception (XID 13).
    GraphicsEngineException,
    /// GPU stopped processing (XID 45).
    StoppedProcessing,
    /// NVLink error (XID 74).
    NvlinkError,
    /// Page retirement event (XID 63).
    PageRetirementEvent,
    /// Page retirement or row-remap failure (XID 64).
    PageRetirementFailure,
    /// Double-bit ECC error (XID 48).
    DoubleBitError,
    /// Preemptive cleanup, due to previous errors (XID 43).
    PreemptiveCleanup,
    /// Internal micro-controller warning (XID 61).
    InternalMicrocontrollerWarning,
    /// Graphics engine fault during context switch (XID 69).
    GraphicsEngineFault,
    /// GPU has fallen off the bus (XID 79).
    FallenOffTheBus,
    /// Internal micro-controller halt (XID 62).
    InternalMicrocontrollerHalt,
    /// Driver firmware error (XID 38).
    DriverFirmwareError,
    /// Driver error handling a GPU exception (XID 12).
    DriverErrorHandlingException,
    /// Corrupted push buffer stream (XID 32).
    CorruptedPushBufferStream,
    /// Graphics engine class error (XID 68).
    GraphicsEngineClassError,
}

impl XidErrorKind {
    /// All sixteen kinds in Table 4 order.
    pub const ALL: [XidErrorKind; 16] = [
        XidErrorKind::MemoryPageFault,
        XidErrorKind::GraphicsEngineException,
        XidErrorKind::StoppedProcessing,
        XidErrorKind::NvlinkError,
        XidErrorKind::PageRetirementEvent,
        XidErrorKind::PageRetirementFailure,
        XidErrorKind::DoubleBitError,
        XidErrorKind::PreemptiveCleanup,
        XidErrorKind::InternalMicrocontrollerWarning,
        XidErrorKind::GraphicsEngineFault,
        XidErrorKind::FallenOffTheBus,
        XidErrorKind::InternalMicrocontrollerHalt,
        XidErrorKind::DriverFirmwareError,
        XidErrorKind::DriverErrorHandlingException,
        XidErrorKind::CorruptedPushBufferStream,
        XidErrorKind::GraphicsEngineClassError,
    ];

    /// Dense index in Table 4 order, matching the position in
    /// [`XidErrorKind::ALL`]. The exhaustive match makes index/`ALL`
    /// drift a compile error instead of a silent alias onto variant 0.
    pub fn index(self) -> usize {
        match self {
            XidErrorKind::MemoryPageFault => 0,
            XidErrorKind::GraphicsEngineException => 1,
            XidErrorKind::StoppedProcessing => 2,
            XidErrorKind::NvlinkError => 3,
            XidErrorKind::PageRetirementEvent => 4,
            XidErrorKind::PageRetirementFailure => 5,
            XidErrorKind::DoubleBitError => 6,
            XidErrorKind::PreemptiveCleanup => 7,
            XidErrorKind::InternalMicrocontrollerWarning => 8,
            XidErrorKind::GraphicsEngineFault => 9,
            XidErrorKind::FallenOffTheBus => 10,
            XidErrorKind::InternalMicrocontrollerHalt => 11,
            XidErrorKind::DriverFirmwareError => 12,
            XidErrorKind::DriverErrorHandlingException => 13,
            XidErrorKind::CorruptedPushBufferStream => 14,
            XidErrorKind::GraphicsEngineClassError => 15,
        }
    }

    /// Display name matching the paper's Table 4.
    pub fn name(self) -> &'static str {
        match self {
            XidErrorKind::MemoryPageFault => "Memory page fault",
            XidErrorKind::GraphicsEngineException => "Graphics engine exception",
            XidErrorKind::StoppedProcessing => "Stopped processing",
            XidErrorKind::NvlinkError => "NVLINK error",
            XidErrorKind::PageRetirementEvent => "Page retirement event",
            XidErrorKind::PageRetirementFailure => "Page retirement failure",
            XidErrorKind::DoubleBitError => "Double-bit error",
            XidErrorKind::PreemptiveCleanup => "Preemptive cleanup",
            XidErrorKind::InternalMicrocontrollerWarning => "Internal microcontroller warning",
            XidErrorKind::GraphicsEngineFault => "Graphics engine fault",
            XidErrorKind::FallenOffTheBus => "Fallen off the bus",
            XidErrorKind::InternalMicrocontrollerHalt => "Internal microcontroller halt",
            XidErrorKind::DriverFirmwareError => "Driver firmware error",
            XidErrorKind::DriverErrorHandlingException => "Driver error handling exception",
            XidErrorKind::CorruptedPushBufferStream => "Corrupted push buffer stream",
            XidErrorKind::GraphicsEngineClassError => "Graphics engine class error",
        }
    }

    /// True for error types the paper's Table 4 places above the
    /// double-ruler (associable with user applications).
    pub fn user_associated(self) -> bool {
        matches!(
            self,
            XidErrorKind::MemoryPageFault
                | XidErrorKind::GraphicsEngineException
                | XidErrorKind::StoppedProcessing
        )
    }
}

/// One GPU XID error event (Dataset E row).
#[derive(Debug, Clone, PartialEq)]
pub struct XidEvent {
    /// Event/error kind.
    pub kind: XidErrorKind,
    /// Compute node identifier.
    pub node: NodeId,
    /// GPU slot within the node (0..6).
    pub slot: GpuSlot,
    /// Seconds since epoch.
    pub time: f64,
    /// Job running on the node at event time, if any.
    pub allocation_id: Option<AllocationId>,
    /// GPU core temperature at the event (°C); NaN when telemetry was
    /// missing (the paper lost temperature data in spring 2020).
    pub gpu_core_temp: f64,
    /// Z-score of that temperature within the in-job GPU population at
    /// the event moment; NaN when unavailable.
    pub temp_zscore: f64,
}

/// One central-energy-plant record (Dataset B row, ~15 s cadence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CepRecord {
    /// Seconds since epoch.
    pub time: f64,
    /// Medium-temperature-water supply temperature, °C.
    pub mtw_supply_c: f64,
    /// MTW return temperature, °C.
    pub mtw_return_c: f64,
    /// Cooling delivered by the evaporative towers, tons of refrigeration.
    pub tower_tons: f64,
    /// Cooling delivered by the trim chillers, tons of refrigeration.
    pub chiller_tons: f64,
    /// Outside wet-bulb temperature, °C.
    pub wet_bulb_c: f64,
    /// Total facility power (IT + cooling + losses), watts.
    pub facility_power_w: f64,
    /// IT equipment power, watts.
    pub it_power_w: f64,
}

impl CepRecord {
    /// Instantaneous PUE of this record.
    pub fn pue(&self) -> f64 {
        summit_analysis::pue::pue(self.facility_power_w, self.it_power_w)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::catalog;

    #[test]
    fn node_frame_roundtrip() {
        let mut f = NodeFrame::empty(NodeId(3), 100.0);
        assert!(f.get(catalog::input_power()).is_nan());
        f.set(catalog::input_power(), 1234.5);
        assert!((f.get(catalog::input_power()) - 1234.5).abs() < 0.01);
        f.t_ingest = 102.5;
        assert!((f.delay() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn job_record_derived_quantities() {
        let j = JobRecord {
            allocation_id: AllocationId(1),
            class: 1,
            node_count: 4608,
            project: "MAT001".into(),
            domain: ScienceDomain::Materials,
            begin_time: 0.0,
            end_time: 3600.0,
        };
        assert_eq!(j.walltime_s(), 3600.0);
        assert_eq!(j.node_hours(), 4608.0);
    }

    #[test]
    fn xid_taxonomy_complete() {
        assert_eq!(XidErrorKind::ALL.len(), 16);
        for (i, k) in XidErrorKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // Exactly the three top-ruler types are user-associated.
        let user: Vec<_> = XidErrorKind::ALL
            .iter()
            .filter(|k| k.user_associated())
            .collect();
        assert_eq!(user.len(), 3);
    }

    #[test]
    fn science_domains_indexable() {
        for (i, d) in ScienceDomain::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
        assert_eq!(ScienceDomain::AiMl.name(), "AI/ML");
    }

    #[test]
    fn domain_indices_form_a_permutation() {
        // Every index in 0..ALL.len(), each exactly once — no aliasing.
        let mut seen = vec![false; ScienceDomain::ALL.len()];
        for d in ScienceDomain::ALL {
            let i = d.index();
            assert!(i < seen.len(), "{d:?} index {i} out of range");
            assert!(!seen[i], "{d:?} aliases index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn xid_indices_form_a_permutation() {
        let mut seen = vec![false; XidErrorKind::ALL.len()];
        for k in XidErrorKind::ALL {
            let i = k.index();
            assert!(i < seen.len(), "{k:?} index {i} out of range");
            assert!(!seen[i], "{k:?} aliases index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cep_record_pue() {
        let r = CepRecord {
            time: 0.0,
            mtw_supply_c: 21.0,
            mtw_return_c: 29.0,
            tower_tons: 1500.0,
            chiller_tons: 0.0,
            wet_bulb_c: 15.0,
            facility_power_w: 6.66e6,
            it_power_w: 6.0e6,
        };
        assert!((r.pue() - 1.11).abs() < 1e-9);
    }
}
