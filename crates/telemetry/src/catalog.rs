//! The per-node metric catalog.
//!
//! Summit's OpenBMC stream carries "over 100 metrics at 1Hz frequency"
//! per node covering per-component power and temperature (paper abstract,
//! Table 2-(a)). The twin models the 25 of them that key the paper's
//! Dataset 0 windows (`input_power`, `p[0,1]_power`,
//! `p[0,1]_gpu[0,1,2]_power`, `gpu[0..5]_[core,mem]_temp`, `p[0,1]_temp`):
//! this module defines them as a dense catalog, and every frame the
//! engine makes writes each of them once.

use crate::ids::{GpuSlot, Socket};

/// Metrics per node in the catalog.
pub const METRIC_COUNT: usize = 25;

/// Physical quantity a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Watts.
    Watts,
    /// Degrees Celsius.
    Celsius,
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

    defs
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn catalog_ids_are_dense_and_ordered() {
        let cat = full_catalog();
        assert_eq!(cat.len(), METRIC_COUNT);
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
        assert_eq!(cat[cpu_pkg_temp(Socket::P1).index()].name, "p1_temp");
        assert_eq!(cpu_pkg_temp(Socket::P1).index(), METRIC_COUNT - 1);
    }

    #[test]
    fn units_are_sensible() {
        let cat = full_catalog();
        assert_eq!(cat[input_power().index()].unit, Unit::Watts);
        assert_eq!(cat[gpu_core_temp(GpuSlot(0)).index()].unit, Unit::Celsius);
    }

    #[test]
    #[should_panic(expected = "power supply index must be 0 or 1")]
    fn power_supply_index_bounds_checked() {
        ps_input_power(2);
    }
}
