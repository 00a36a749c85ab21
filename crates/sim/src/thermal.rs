//! Direct-liquid-cooling thermal model.
//!
//! Each AC922 node cools its two CPUs and six GPUs with cold plates fed by
//! the cabinet's MTW branch; within each socket's branch the water passes
//! the three GPU cold plates serially (paper Figure 1-(a)), so downstream
//! GPUs receive pre-warmed water. Component temperature follows a
//! first-order RC response to a steady state set by water temperature,
//! power, and a per-chip thermal resistance with manufacturing spread —
//! the paper observes GPU temperature tracking power "in a matter of
//! seconds" (Section 6.2) with a 15.8 °C non-outlier spread at a 62 W
//! power spread, and the "vast majority of the GPUs do not exceed 60 °C".

use summit_telemetry::ids::{GpuSlot, NodeId, Socket};

use crate::power::NodePower;
use crate::rng::stable_jitter;

/// Mean GPU cold-plate thermal resistance (K/W).
pub const GPU_THERMAL_RESISTANCE: f64 = 0.10;
/// Manufacturing spread of the GPU thermal resistance (+-16 %).
pub const GPU_RESISTANCE_SPREAD: f64 = 0.16;
/// Mean CPU cold-plate thermal resistance (K/W). CPUs run a larger, more
/// conservative cold plate; their temperature stays comparatively flat.
pub const CPU_THERMAL_RESISTANCE: f64 = 0.085;
/// Manufacturing spread of the CPU thermal resistance.
pub const CPU_RESISTANCE_SPREAD: f64 = 0.10;
/// GPU thermal time constant (s) — tight response.
pub const GPU_TAU_S: f64 = 12.0;
/// CPU thermal time constant (s) — damped response.
pub const CPU_TAU_S: f64 = 45.0;
/// Water heating per cold plate passed, per watt dissipated (K/W):
/// branch flow ~0.08 kg/s, c_p 4186 J/(kg K) -> ~0.003 K/W.
pub const SERIAL_HEATING_K_PER_W: f64 = 0.003;
/// HBM2 runs hotter than the GPU core by roughly this factor of the
/// core's rise over water.
pub const MEM_TEMP_FACTOR: f64 = 1.15;

/// Thermal state of one node's cooled components (°C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeThermals {
    /// Cpu c.
    pub cpu_c: [f64; 2],
    /// Gpu core c.
    pub gpu_core_c: [f64; 6],
    /// Gpu mem c.
    pub gpu_mem_c: [f64; 6],
}

impl NodeThermals {
    /// All components at the water supply temperature (cold start).
    pub fn at_water(water_c: f64) -> Self {
        Self {
            cpu_c: [water_c; 2],
            gpu_core_c: [water_c; 6],
            gpu_mem_c: [water_c; 6],
        }
    }
}

/// The thermal model: per-chip resistances fixed by seed
/// ([`ThermalModel::resistances`]), which hold the steady state and the
/// first-order step toward it.
#[derive(Debug, Clone, Copy)]
pub struct ThermalModel {
    seed: u64,
}

/// One node's per-chip cold-plate thermal resistances (K/W), fixed by
/// the model's seed. Holds the steady-state and step formulas, so a
/// caller that steps a node many times builds it once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipResistance {
    cpu: [f64; 2],
    gpu: [f64; 6],
}

/// The fraction `1 − e^(−dt/τ)` of the gap to the steady state that a
/// GPU and a CPU close in one step of `dt` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ThermalResponse {
    gpu: f64,
    cpu: f64,
}

impl ThermalResponse {
    /// The response to steps of `dt` seconds.
    ///
    /// # Panics
    ///
    /// If `dt` is not positive (zero, negative or NaN).
    pub(crate) fn new(dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        Self {
            gpu: 1.0 - (-dt / GPU_TAU_S).exp(),
            cpu: 1.0 - (-dt / CPU_TAU_S).exp(),
        }
    }
}

impl ThermalModel {
    /// Creates a model; `seed` fixes the manufacturing pattern.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The per-chip resistances of `node` (stable across calls).
    pub fn resistances(&self, node: NodeId) -> ChipResistance {
        let jitter = |salt: u64, chip: usize| {
            stable_jitter(self.seed ^ salt, node.0 as u64 * 8 + chip as u64)
        };
        ChipResistance {
            cpu: Socket::ALL.map(|s| {
                CPU_THERMAL_RESISTANCE * (1.0 + CPU_RESISTANCE_SPREAD * jitter(0x11c7, s.index()))
            }),
            gpu: GpuSlot::ALL.map(|g| {
                GPU_THERMAL_RESISTANCE * (1.0 + GPU_RESISTANCE_SPREAD * jitter(0x7e4a, g.index()))
            }),
        }
    }

    /// Water temperature entering the cold plate of `slot`, given the
    /// branch inlet temperature and the current GPU powers on the node:
    /// downstream plates receive water pre-warmed by upstream plates.
    pub(crate) fn water_at_slot(inlet_c: f64, slot: GpuSlot, gpu_power_w: &[f64; 6]) -> f64 {
        let socket = slot.socket();
        let mut t = inlet_c;
        for upstream in GpuSlot::ALL {
            if upstream.socket() == socket && upstream.loop_position() < slot.loop_position() {
                t += gpu_power_w[upstream.index()] * SERIAL_HEATING_K_PER_W;
            }
        }
        t
    }
}

impl ChipResistance {
    /// Steady-state temperatures for the given power and water inlet.
    pub fn steady_state(&self, power: &NodePower, inlet_c: f64) -> NodeThermals {
        let mut out = NodeThermals::at_water(inlet_c);
        for s in Socket::ALL {
            let r = self.cpu[s.index()];
            out.cpu_c[s.index()] = inlet_c + r * power.cpu_w[s.index()];
        }
        for g in GpuSlot::ALL {
            let water = ThermalModel::water_at_slot(inlet_c, g, &power.gpu_w);
            let r = self.gpu[g.index()];
            let rise = r * power.gpu_w[g.index()];
            out.gpu_core_c[g.index()] = water + rise;
            out.gpu_mem_c[g.index()] = water + rise * MEM_TEMP_FACTOR;
        }
        out
    }

    /// Advances the thermal state by one step of `response` toward the
    /// steady state implied by (`power`, `inlet_c`).
    pub(crate) fn step(
        &self,
        state: &mut NodeThermals,
        power: &NodePower,
        inlet_c: f64,
        response: ThermalResponse,
    ) {
        let target = self.steady_state(power, inlet_c);
        for i in 0..2 {
            state.cpu_c[i] += response.cpu * (target.cpu_c[i] - state.cpu_c[i]);
        }
        for i in 0..6 {
            state.gpu_core_c[i] += response.gpu * (target.gpu_core_c[i] - state.gpu_core_c[i]);
            state.gpu_mem_c[i] += response.gpu * (target.gpu_mem_c[i] - state.gpu_mem_c[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::power::{NodeUtilization, PowerModel};

    fn models() -> (PowerModel, ThermalModel) {
        (PowerModel::new(2020), ThermalModel::new(2020))
    }

    #[test]
    fn gpus_stay_under_60c_at_full_load() {
        // Paper: "the vast majority of the GPUs do not exceed 60 °C".
        let (pm, tm) = models();
        let mut over = 0;
        let total = 500 * 6;
        for n in 0..500u32 {
            let p = pm.node_power(NodeId(n), &NodeUtilization::uniform(0.3, 1.0));
            let t = tm.resistances(NodeId(n)).steady_state(&p, 21.1);
            for g in t.gpu_core_c {
                if g > 60.0 {
                    over += 1;
                }
            }
        }
        let frac = over as f64 / total as f64;
        assert!(frac < 0.05, "only a small tail may exceed 60C, got {frac}");
    }

    #[test]
    fn temperature_spread_matches_paper_scale() {
        // Paper Fig 17: at near-identical power, non-outlier temperature
        // spread was 15.8 C across 27,648 GPUs.
        let (pm, tm) = models();
        let mut temps = Vec::new();
        for n in 0..2000u32 {
            let p = pm.node_power(NodeId(n), &NodeUtilization::uniform(0.2, 0.95));
            let t = tm.resistances(NodeId(n)).steady_state(&p, 21.1);
            temps.extend(t.gpu_core_c);
        }
        let b = summit_analysis::stats::BoxStats::compute(&temps).unwrap();
        let spread = b.non_outlier_spread();
        assert!(
            (8.0..25.0).contains(&spread),
            "spread {spread} should be near the paper's 15.8 C"
        );
    }

    #[test]
    fn serial_water_heating_warms_downstream_slots() {
        let powers = [300.0; 6];
        let w0 = ThermalModel::water_at_slot(21.0, GpuSlot(0), &powers);
        let w1 = ThermalModel::water_at_slot(21.0, GpuSlot(1), &powers);
        let w2 = ThermalModel::water_at_slot(21.0, GpuSlot(2), &powers);
        assert_eq!(w0, 21.0);
        assert!(w1 > w0 && w2 > w1);
        assert!((w1 - w0 - 0.9).abs() < 1e-9); // 300 W * 0.003 K/W
                                               // Slot 3 starts a fresh branch.
        let w3 = ThermalModel::water_at_slot(21.0, GpuSlot(3), &powers);
        assert_eq!(w3, 21.0);
    }

    #[test]
    fn steady_state_rises_with_power() {
        let (pm, tm) = models();
        let idle = pm.node_power(NodeId(0), &NodeUtilization::idle());
        let busy = pm.node_power(NodeId(0), &NodeUtilization::uniform(0.9, 0.9));
        let t_idle = tm.resistances(NodeId(0)).steady_state(&idle, 21.0);
        let t_busy = tm.resistances(NodeId(0)).steady_state(&busy, 21.0);
        for i in 0..6 {
            assert!(t_busy.gpu_core_c[i] > t_idle.gpu_core_c[i]);
            assert!(
                t_busy.gpu_mem_c[i] > t_busy.gpu_core_c[i],
                "HBM runs hotter"
            );
        }
        for i in 0..2 {
            assert!(t_busy.cpu_c[i] > t_idle.cpu_c[i]);
        }
    }

    #[test]
    fn gpu_responds_faster_than_cpu() {
        let (pm, tm) = models();
        let node = NodeId(0);
        let idle = pm.node_power(node, &NodeUtilization::idle());
        let busy = pm.node_power(node, &NodeUtilization::uniform(1.0, 1.0));
        let chips = tm.resistances(node);
        let mut state = chips.steady_state(&idle, 21.0);
        let target = chips.steady_state(&busy, 21.0);
        let gpu_gap0 = target.gpu_core_c[0] - state.gpu_core_c[0];
        let cpu_gap0 = target.cpu_c[0] - state.cpu_c[0];
        // One 10 s step toward the new load.
        chips.step(&mut state, &busy, 21.0, ThermalResponse::new(10.0));
        let gpu_progress = (state.gpu_core_c[0] - (target.gpu_core_c[0] - gpu_gap0)) / gpu_gap0;
        let cpu_progress = (state.cpu_c[0] - (target.cpu_c[0] - cpu_gap0)) / cpu_gap0;
        assert!(
            gpu_progress > cpu_progress + 0.2,
            "gpu {gpu_progress} vs cpu {cpu_progress}"
        );
        // GPUs settle "in a matter of seconds": > 50 % in one 10 s step.
        assert!(gpu_progress > 0.5);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let (pm, tm) = models();
        let node = NodeId(5);
        let busy = pm.node_power(node, &NodeUtilization::uniform(0.7, 0.8));
        let chips = tm.resistances(node);
        let target = chips.steady_state(&busy, 20.0);
        let mut state = NodeThermals::at_water(20.0);
        let response = ThermalResponse::new(1.0);
        for _ in 0..600 {
            chips.step(&mut state, &busy, 20.0, response);
        }
        for i in 0..6 {
            assert!((state.gpu_core_c[i] - target.gpu_core_c[i]).abs() < 0.01);
        }
        for i in 0..2 {
            assert!((state.cpu_c[i] - target.cpu_c[i]).abs() < 0.01);
        }
    }

    #[test]
    fn resistances_are_stable_and_varied() {
        let (_, tm) = models();
        let a = tm.resistances(NodeId(0)).gpu[0];
        assert_eq!(a, tm.resistances(NodeId(0)).gpu[0]);
        assert_ne!(a, tm.resistances(NodeId(0)).gpu[1]);
        for n in 0..100u32 {
            for g in GpuSlot::ALL {
                let r = tm.resistances(NodeId(n)).gpu[g.index()];
                assert!(r > 0.0);
                assert!(
                    (r - GPU_THERMAL_RESISTANCE).abs()
                        <= GPU_THERMAL_RESISTANCE * GPU_RESISTANCE_SPREAD + 1e-12
                );
            }
        }
    }
}
