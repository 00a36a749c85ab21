//! The per-node metric catalog.
//!
//! Summit's OpenBMC stream carries "over 100 metrics at 1Hz frequency"
//! per node covering per-component power and temperature (paper abstract,
//! Table 2-(a)). This module defines a dense catalog of 106 metrics per
//! node with the same structure as the paper's Dataset 0 key columns
//! (`input_power`, `p[0,1]_power`, `p[0,1]_gpu[0,1,2]_power`,
//! `gpu[0..5]_[core,mem]_temp`, ...), plus the long tail of DIMM, fan,
//! VRM and per-core sensors that make up the real payload volume.

use crate::ids::{GpuSlot, Socket};

/// Number of CPU cores per Power9 socket (22C parts on Summit).
pub const CORES_PER_SOCKET: usize = 22;
/// DIMMs per node (16 x 32 GB = 512 GB DDR4).
pub const DIMMS_PER_NODE: usize = 16;
/// Chassis fans per node.
pub const FANS_PER_NODE: usize = 4;
/// Total metrics per node in the catalog.
pub const METRIC_COUNT: usize = 106;
/// Metrics the engine writes: the catalog's first `EMITTED` ids, the
/// paper's Dataset 0 key columns (`input_power` through `p1_temp`).
/// Frames travel the hot path as rows of this prefix; every other
/// metric is NaN in every frame the twin makes.
pub const EMITTED: usize = 25;

/// Physical quantity a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Watts.
    Watts,
    /// Degrees Celsius.
    Celsius,
    /// Revolutions per minute.
    Rpm,
}

/// Dense per-node metric identifier (0..[`METRIC_COUNT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MetricId(pub u16);

impl MetricId {
    /// Dense index for columnar storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Offsets a layout base by a bounded element index. Every caller
/// asserts or type-bounds `idx`, so the checked conversion never
/// saturates in practice; it exists so no bare narrowing cast can
/// silently wrap if a bound and an offset ever drift apart
/// (`lossy-cast` lint).
fn at(base: u16, idx: usize) -> MetricId {
    MetricId(base.saturating_add(u16::try_from(idx).unwrap_or(u16::MAX)))
}

// --- Dense layout offsets -------------------------------------------------
const OFF_INPUT_POWER: u16 = 0;
const OFF_PS_INPUT_POWER: u16 = 1; // +2
const OFF_CPU_POWER: u16 = 3; // +2
const OFF_GPU_POWER: u16 = 5; // +6
const OFF_GPU_CORE_TEMP: u16 = 11; // +6
const OFF_GPU_MEM_TEMP: u16 = 17; // +6
const OFF_CPU_PKG_TEMP: u16 = 23; // +2
const OFF_CPU_CORE_TEMP: u16 = 25; // +44
const OFF_DIMM_TEMP: u16 = 69; // +16
const OFF_FAN_SPEED: u16 = 85; // +4
const OFF_FAN_POWER: u16 = 89; // +1
const OFF_MEM_POWER: u16 = 90; // +2
const OFF_NVME_TEMP: u16 = 92; // +1
const OFF_NVME_POWER: u16 = 93; // +1
const OFF_HCA_TEMP: u16 = 94; // +1
const OFF_BOARD_TEMP: u16 = 95; // +2 (inlet, outlet)
const OFF_CPU_VRM_TEMP: u16 = 97; // +2
const OFF_GPU_VRM_TEMP: u16 = 99; // +6
const OFF_IO_POWER: u16 = 105; // +1

// The emitted prefix ends where the per-core temperatures begin: the
// two array lengths must agree, or this fails to compile.
const _: [(); EMITTED] = [(); OFF_CPU_CORE_TEMP as usize];

/// Node AC input power (sum of both power supplies), watts.
pub fn input_power() -> MetricId {
    MetricId(OFF_INPUT_POWER)
}

/// Input power of power supply `ps` (0 or 1), watts.
pub fn ps_input_power(ps: usize) -> MetricId {
    assert!(ps < 2, "power supply index must be 0 or 1");
    at(OFF_PS_INPUT_POWER, ps)
}

/// Package power of a CPU socket, watts.
pub fn cpu_power(socket: Socket) -> MetricId {
    at(OFF_CPU_POWER, socket.index())
}

/// Power of the GPU in `slot`, watts.
pub fn gpu_power(slot: GpuSlot) -> MetricId {
    at(OFF_GPU_POWER, slot.index())
}

/// Core temperature of the GPU in `slot`, Celsius.
pub fn gpu_core_temp(slot: GpuSlot) -> MetricId {
    at(OFF_GPU_CORE_TEMP, slot.index())
}

/// HBM2 memory temperature of the GPU in `slot`, Celsius.
pub fn gpu_mem_temp(slot: GpuSlot) -> MetricId {
    at(OFF_GPU_MEM_TEMP, slot.index())
}

/// Package temperature of a CPU socket, Celsius.
pub fn cpu_pkg_temp(socket: Socket) -> MetricId {
    at(OFF_CPU_PKG_TEMP, socket.index())
}

/// Temperature of core `core` (0..22) on `socket`, Celsius.
pub fn cpu_core_temp(socket: Socket, core: usize) -> MetricId {
    assert!(core < CORES_PER_SOCKET, "core index out of range: {core}");
    at(OFF_CPU_CORE_TEMP, socket.index() * CORES_PER_SOCKET + core)
}

/// Temperature of DIMM `dimm` (0..16), Celsius.
pub fn dimm_temp(dimm: usize) -> MetricId {
    assert!(dimm < DIMMS_PER_NODE, "dimm index out of range: {dimm}");
    at(OFF_DIMM_TEMP, dimm)
}

/// Speed of chassis fan `fan` (0..4), RPM.
pub fn fan_speed(fan: usize) -> MetricId {
    assert!(fan < FANS_PER_NODE, "fan index out of range: {fan}");
    at(OFF_FAN_SPEED, fan)
}

/// Aggregate fan power, watts.
pub fn fan_power() -> MetricId {
    MetricId(OFF_FAN_POWER)
}

/// DDR4 memory power for a socket's DIMM group, watts.
pub fn mem_power(socket: Socket) -> MetricId {
    at(OFF_MEM_POWER, socket.index())
}

/// NVMe burst-buffer temperature, Celsius.
pub fn nvme_temp() -> MetricId {
    MetricId(OFF_NVME_TEMP)
}

/// NVMe burst-buffer power, watts.
pub fn nvme_power() -> MetricId {
    MetricId(OFF_NVME_POWER)
}

/// InfiniBand HCA temperature, Celsius.
pub fn hca_temp() -> MetricId {
    MetricId(OFF_HCA_TEMP)
}

/// Board air temperature: `0` = inlet, `1` = outlet, Celsius.
pub fn board_temp(position: usize) -> MetricId {
    assert!(
        position < 2,
        "board temp position must be 0 (inlet) or 1 (outlet)"
    );
    at(OFF_BOARD_TEMP, position)
}

/// CPU voltage-regulator temperature for a socket, Celsius.
pub fn cpu_vrm_temp(socket: Socket) -> MetricId {
    at(OFF_CPU_VRM_TEMP, socket.index())
}

/// GPU voltage-regulator temperature for a slot, Celsius.
pub fn gpu_vrm_temp(slot: GpuSlot) -> MetricId {
    at(OFF_GPU_VRM_TEMP, slot.index())
}

/// I/O subsystem power (HCA + NVMe + planar), watts.
pub fn io_power() -> MetricId {
    MetricId(OFF_IO_POWER)
}

/// Descriptor of one catalog metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Dense id.
    pub id: MetricId,
    /// Column-style name (e.g. `p0_gpu1_power`).
    pub name: String,
    /// Physical unit.
    pub unit: Unit,
}

/// Builds the full ordered catalog of all [`METRIC_COUNT`] metrics.
pub fn full_catalog() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = Vec::with_capacity(METRIC_COUNT);
    let mut push = |id: MetricId, name: String, unit: Unit| {
        defs.push(MetricDef { id, name, unit });
    };

    push(input_power(), "input_power".into(), Unit::Watts);
    for ps in 0..2 {
        push(
            ps_input_power(ps),
            format!("ps{ps}_input_power"),
            Unit::Watts,
        );
    }
    for s in Socket::ALL {
        push(cpu_power(s), format!("p{}_power", s.index()), Unit::Watts);
    }
    for g in GpuSlot::ALL {
        let socket = g.socket().index();
        let local = g.loop_position();
        push(
            gpu_power(g),
            format!("p{socket}_gpu{local}_power"),
            Unit::Watts,
        );
    }
    for g in GpuSlot::ALL {
        push(
            gpu_core_temp(g),
            format!("gpu{}_core_temp", g.index()),
            Unit::Celsius,
        );
    }
    for g in GpuSlot::ALL {
        push(
            gpu_mem_temp(g),
            format!("gpu{}_mem_temp", g.index()),
            Unit::Celsius,
        );
    }
    for s in Socket::ALL {
        push(
            cpu_pkg_temp(s),
            format!("p{}_temp", s.index()),
            Unit::Celsius,
        );
    }
    for s in Socket::ALL {
        for c in 0..CORES_PER_SOCKET {
            push(
                cpu_core_temp(s, c),
                format!("p{}_core{c}_temp", s.index()),
                Unit::Celsius,
            );
        }
    }
    for d in 0..DIMMS_PER_NODE {
        push(dimm_temp(d), format!("dimm{d}_temp"), Unit::Celsius);
    }
    for f in 0..FANS_PER_NODE {
        push(fan_speed(f), format!("fan{f}_speed"), Unit::Rpm);
    }
    push(fan_power(), "fan_power".into(), Unit::Watts);
    for s in Socket::ALL {
        push(
            mem_power(s),
            format!("p{}_mem_power", s.index()),
            Unit::Watts,
        );
    }
    push(nvme_temp(), "nvme_temp".into(), Unit::Celsius);
    push(nvme_power(), "nvme_power".into(), Unit::Watts);
    push(hca_temp(), "hca_temp".into(), Unit::Celsius);
    push(board_temp(0), "board_inlet_temp".into(), Unit::Celsius);
    push(board_temp(1), "board_outlet_temp".into(), Unit::Celsius);
    for s in Socket::ALL {
        push(
            cpu_vrm_temp(s),
            format!("p{}_vrm_temp", s.index()),
            Unit::Celsius,
        );
    }
    for g in GpuSlot::ALL {
        push(
            gpu_vrm_temp(g),
            format!("gpu{}_vrm_temp", g.index()),
            Unit::Celsius,
        );
    }
    push(io_power(), "io_power".into(), Unit::Watts);

    defs
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn catalog_has_over_100_metrics() {
        let cat = full_catalog();
        assert_eq!(cat.len(), METRIC_COUNT);
        assert!(cat.len() > 100, "paper: over 100 metrics per node");
    }

    #[test]
    fn catalog_ids_are_dense_and_ordered() {
        let cat = full_catalog();
        for (i, def) in cat.iter().enumerate() {
            assert_eq!(def.id.index(), i, "metric {} out of order", def.name);
        }
    }

    #[test]
    fn catalog_names_unique() {
        let cat = full_catalog();
        let mut names: Vec<&str> = cat.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT);
    }

    #[test]
    fn accessors_agree_with_catalog_names() {
        let cat = full_catalog();
        assert_eq!(cat[input_power().index()].name, "input_power");
        assert_eq!(
            cat[gpu_power(GpuSlot(4)).index()].name,
            "p1_gpu1_power",
            "slot 4 is the second GPU on socket 1"
        );
        assert_eq!(
            cat[gpu_core_temp(GpuSlot(5)).index()].name,
            "gpu5_core_temp"
        );
        assert_eq!(cat[cpu_power(Socket::P1).index()].name, "p1_power");
        assert_eq!(dimm_temp(15).index() - dimm_temp(0).index(), 15);
        assert_eq!(cat[io_power().index()].name, "io_power");
        assert_eq!(io_power().index(), METRIC_COUNT - 1);
    }

    #[test]
    fn units_are_sensible() {
        let cat = full_catalog();
        assert_eq!(cat[input_power().index()].unit, Unit::Watts);
        assert_eq!(cat[gpu_core_temp(GpuSlot(0)).index()].unit, Unit::Celsius);
        assert_eq!(cat[fan_speed(0).index()].unit, Unit::Rpm);
    }

    #[test]
    #[should_panic(expected = "core index out of range")]
    fn core_temp_bounds_checked() {
        cpu_core_temp(Socket::P0, 22);
    }
}
