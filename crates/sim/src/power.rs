//! Component and node power models for the IBM AC922 node.
//!
//! Models per-component electrical draw as a function of utilization,
//! with per-chip manufacturing variation (the paper attributes part of
//! observed spread to "manufacturing variation in the chips") and a
//! power-supply efficiency curve. Calibrated against the paper's anchors:
//! node idle ~540 W (2.5 MW / 4,626 nodes), node max 2,300 W (Table 1),
//! CPU/GPU TDP 300 W.

use summit_telemetry::ids::{GpuSlot, NodeId, Socket};

use crate::rng::stable_jitter;
use crate::spec::{NODE_MAX_POWER_W, TOTAL_NODES};

/// CPU idle package power (W).
pub const CPU_IDLE_W: f64 = 60.0;
/// CPU practical maximum under HPC load (W). The 300 W TDP is a thermal
/// limit; sustained draw tops out lower.
pub const CPU_MAX_W: f64 = 280.0;
/// GPU idle power (W).
pub const GPU_IDLE_W: f64 = 40.0;
/// GPU maximum boost power (W).
pub const GPU_MAX_W: f64 = 310.0;
/// Per-socket DDR4 power range (W).
pub const MEM_IDLE_W: f64 = 25.0;
/// MEM MAX W.
pub const MEM_MAX_W: f64 = 60.0;
/// NVMe burst buffer power range (W).
pub const NVME_IDLE_W: f64 = 8.0;
/// NVME MAX W.
pub const NVME_MAX_W: f64 = 22.0;
/// I/O subsystem (HCA, planar, BMC) power (W), roughly constant.
pub const IO_POWER_W: f64 = 32.0;
/// Chassis fan power range (W) — most heat leaves via water; fans cover
/// DIMMs and I/O.
pub const FAN_IDLE_W: f64 = 35.0;
/// FAN MAX W.
pub const FAN_MAX_W: f64 = 95.0;

/// Relative per-chip manufacturing variation of power draw (+-4 %).
pub const CHIP_POWER_VARIATION: f64 = 0.04;

/// Instantaneous power breakdown of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePower {
    /// AC input power after PSU losses, capped at the node limit (W).
    pub input_w: f64,
    /// Per-socket CPU package power (W).
    pub cpu_w: [f64; 2],
    /// Per-slot GPU power (W).
    pub gpu_w: [f64; 6],
    /// Per-socket memory power (W).
    pub mem_w: [f64; 2],
    /// NVMe power (W).
    pub nvme_w: f64,
    /// I/O subsystem power (W).
    pub io_w: f64,
    /// Fan power (W).
    pub fan_w: f64,
    /// PSU efficiency applied.
    pub psu_efficiency: f64,
}

impl NodePower {
    /// Total DC-side component power (W).
    pub fn dc_total(&self) -> f64 {
        self.cpu_w.iter().sum::<f64>()
            + self.gpu_w.iter().sum::<f64>()
            + self.mem_w.iter().sum::<f64>()
            + self.nvme_w
            + self.io_w
            + self.fan_w
    }
}

/// Per-node utilization input to the power model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeUtilization {
    /// Per-socket CPU utilization in [0, 1].
    pub cpu: [f64; 2],
    /// Per-slot GPU utilization in [0, 1].
    pub gpu: [f64; 6],
    /// Memory/IO activity in [0, 1] (defaults to the compute average).
    pub io: f64,
}

impl NodeUtilization {
    /// Uniform utilization across all compute components.
    pub fn uniform(cpu: f64, gpu: f64) -> Self {
        Self {
            cpu: [cpu; 2],
            gpu: [gpu; 6],
            io: 0.5 * (cpu + gpu),
        }
    }

    /// Fully idle node.
    pub fn idle() -> Self {
        Self::default()
    }
}

/// The node power model. Stateless apart from the manufacturing-variation
/// seed; all methods are pure functions of (node, utilization).
///
/// ```
/// use summit_sim::power::{NodeUtilization, PowerModel};
/// use summit_telemetry::ids::NodeId;
/// let pm = PowerModel::new(2020);
/// let idle = pm.node_power(NodeId(0), &NodeUtilization::idle());
/// let busy = pm.node_power(NodeId(0), &NodeUtilization::uniform(0.3, 0.95));
/// assert!(idle.input_w < 650.0);          // ~540 W idle (2.5 MW / 4,626)
/// assert!(busy.input_w > 1800.0);         // GPU-saturated node
/// assert!(busy.input_w <= 2300.0);        // Table 1 node maximum
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    seed: u64,
}

/// One node's per-chip manufacturing variation: the factor each CPU's
/// and GPU's draw is scaled by, fixed by the model's seed. Holds the
/// node power formula, so a caller that steps a node many times builds
/// it once ([`PowerModel::variation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChipVariation {
    cpu: [f64; 2],
    gpu: [f64; 6],
}

impl PowerModel {
    /// Creates a model; `seed` fixes the per-chip variation pattern.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// PSU efficiency at a given DC load fraction (flat-top curve: ~88 %
    /// at light load, ~94 % above half load).
    pub fn psu_efficiency(load_fraction: f64) -> f64 {
        let f = load_fraction.clamp(0.0, 1.0);
        0.88 + 0.06 * (2.0 * f).min(1.0)
    }

    /// The per-chip variation factors of `node` (stable across calls).
    pub(crate) fn variation(&self, node: NodeId) -> ChipVariation {
        let factor = |salt: u64, chip: usize| {
            let entity = node.0 as u64 * 8 + chip as u64;
            1.0 + CHIP_POWER_VARIATION * stable_jitter(self.seed ^ salt, entity)
        };
        ChipVariation {
            cpu: Socket::ALL.map(|s| factor(0xC9, s.index())),
            gpu: GpuSlot::ALL.map(|g| factor(0x67, g.index())),
        }
    }

    /// Full node power at the given utilization.
    pub fn node_power(&self, node: NodeId, util: &NodeUtilization) -> NodePower {
        self.variation(node).node_power(util)
    }

    /// Cluster idle power with every node idle (W) — the paper's 2.5 MW
    /// anchor at full scale.
    pub fn cluster_idle_power(&self, nodes: usize) -> f64 {
        (0..nodes as u32)
            .map(|n| self.node_power(NodeId(n), &NodeUtilization::idle()).input_w)
            .sum()
    }
}

impl ChipVariation {
    /// Full node power at the given utilization. CPU package power is
    /// slightly super-linear in utilization (voltage/frequency scaling),
    /// and each chip's draw is scaled by its variation factor.
    pub(crate) fn node_power(&self, util: &NodeUtilization) -> NodePower {
        let cpu_w: [f64; 2] = std::array::from_fn(|i| {
            let u = util.cpu[i].clamp(0.0, 1.0);
            let base = CPU_IDLE_W + (CPU_MAX_W - CPU_IDLE_W) * (0.75 * u + 0.25 * u * u);
            base * self.cpu[i]
        });
        let gpu_w: [f64; 6] = std::array::from_fn(|i| {
            let u = util.gpu[i].clamp(0.0, 1.0);
            let base = GPU_IDLE_W + (GPU_MAX_W - GPU_IDLE_W) * (0.7 * u + 0.3 * u * u);
            base * self.gpu[i]
        });
        let io_act = util.io.clamp(0.0, 1.0);
        let mem_w = [
            MEM_IDLE_W + (MEM_MAX_W - MEM_IDLE_W) * util.cpu[0].clamp(0.0, 1.0).max(io_act * 0.6),
            MEM_IDLE_W + (MEM_MAX_W - MEM_IDLE_W) * util.cpu[1].clamp(0.0, 1.0).max(io_act * 0.6),
        ];
        let nvme_w = NVME_IDLE_W + (NVME_MAX_W - NVME_IDLE_W) * io_act;
        let compute_mean = (cpu_w.iter().sum::<f64>() + gpu_w.iter().sum::<f64>())
            / (2.0 * CPU_MAX_W + 6.0 * GPU_MAX_W);
        let fan_w = FAN_IDLE_W + (FAN_MAX_W - FAN_IDLE_W) * compute_mean.clamp(0.0, 1.0);

        let partial = NodePower {
            input_w: 0.0,
            cpu_w,
            gpu_w,
            mem_w,
            nvme_w,
            io_w: IO_POWER_W,
            fan_w,
            psu_efficiency: 1.0,
        };
        let dc = partial.dc_total();
        let eff = PowerModel::psu_efficiency(dc / NODE_MAX_POWER_W);
        let input = (dc / eff).min(NODE_MAX_POWER_W);
        NodePower {
            input_w: input,
            psu_efficiency: eff,
            ..partial
        }
    }
}

/// Calibration check helper: expected full-cluster idle per the paper.
pub fn paper_idle_anchor_w() -> f64 {
    crate::spec::SYSTEM_IDLE_POWER_W / TOTAL_NODES as f64
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(2020)
    }

    /// One CPU's package power at `util` on the per-node path (W).
    fn cpu_power(m: &PowerModel, node: NodeId, socket: Socket, util: f64) -> f64 {
        let mut u = NodeUtilization::idle();
        u.cpu[socket.index()] = util;
        m.variation(node).node_power(&u).cpu_w[socket.index()]
    }

    /// One GPU's power at `util` on the per-node path (W).
    fn gpu_power(m: &PowerModel, node: NodeId, slot: GpuSlot, util: f64) -> f64 {
        let mut u = NodeUtilization::idle();
        u.gpu[slot.index()] = util;
        m.variation(node).node_power(&u).gpu_w[slot.index()]
    }

    #[test]
    fn idle_node_near_paper_anchor() {
        let m = model();
        let p = m.node_power(NodeId(0), &NodeUtilization::idle());
        let anchor = paper_idle_anchor_w(); // ~540 W
        assert!(
            (p.input_w - anchor).abs() < 60.0,
            "idle {} vs anchor {}",
            p.input_w,
            anchor
        );
    }

    #[test]
    fn cluster_idle_near_2_5_mw() {
        let m = model();
        let idle = m.cluster_idle_power(4626);
        assert!(
            (idle - 2.5e6).abs() < 0.3e6,
            "cluster idle {idle} should be near 2.5 MW"
        );
    }

    #[test]
    fn gpu_heavy_peak_under_node_limit() {
        let m = model();
        let p = m.node_power(NodeId(0), &NodeUtilization::uniform(0.3, 1.0));
        assert!(p.input_w <= NODE_MAX_POWER_W);
        assert!(
            p.input_w > 2000.0,
            "GPU-saturated node should be >2 kW, got {}",
            p.input_w
        );
    }

    #[test]
    fn full_blast_is_capped() {
        let m = model();
        let p = m.node_power(NodeId(0), &NodeUtilization::uniform(1.0, 1.0));
        assert_eq!(p.input_w, NODE_MAX_POWER_W);
    }

    #[test]
    fn power_monotone_in_utilization() {
        let m = model();
        let mut last = 0.0;
        for step in 0..=10 {
            let u = step as f64 / 10.0;
            let p = m.node_power(NodeId(7), &NodeUtilization::uniform(u, u));
            assert!(
                p.input_w >= last,
                "power must be monotone in utilization ({u})"
            );
            last = p.input_w;
        }
    }

    #[test]
    fn cpu_gpu_power_curves_hit_endpoints() {
        let m = model();
        // Variation is +-4 %, so endpoints land within that band.
        let c0 = cpu_power(&m, NodeId(0), Socket::P0, 0.0);
        assert!((c0 - CPU_IDLE_W).abs() < CPU_IDLE_W * 0.05);
        let c1 = cpu_power(&m, NodeId(0), Socket::P0, 1.0);
        assert!((c1 - CPU_MAX_W).abs() < CPU_MAX_W * 0.05);
        let g1 = gpu_power(&m, NodeId(0), GpuSlot(3), 1.0);
        assert!((g1 - GPU_MAX_W).abs() < GPU_MAX_W * 0.05);
    }

    #[test]
    fn manufacturing_variation_differs_by_chip_but_stable() {
        let m = model();
        let a = gpu_power(&m, NodeId(1), GpuSlot(0), 0.8);
        let b = gpu_power(&m, NodeId(2), GpuSlot(0), 0.8);
        assert_ne!(a, b, "different chips should differ");
        assert_eq!(
            a,
            gpu_power(&m, NodeId(1), GpuSlot(0), 0.8),
            "stable per chip"
        );
        // Spread across many chips is bounded by the variation constant.
        let powers: Vec<f64> = (0..1000)
            .map(|n| gpu_power(&m, NodeId(n), GpuSlot(0), 1.0))
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min < 1.0 + 2.5 * CHIP_POWER_VARIATION);
        // Paper Fig 17: non-outlier GPU power spread ~62 W at full load.
        assert!(max - min > 10.0, "variation should be visible");
        assert!(
            max - min < 80.0,
            "variation should stay near the paper's 62 W"
        );
    }

    #[test]
    fn psu_efficiency_curve() {
        assert!((PowerModel::psu_efficiency(0.0) - 0.88).abs() < 1e-12);
        assert!((PowerModel::psu_efficiency(0.5) - 0.94).abs() < 1e-12);
        assert!((PowerModel::psu_efficiency(1.0) - 0.94).abs() < 1e-12);
    }

    #[test]
    fn dc_total_sums_components() {
        let m = model();
        let p = m.node_power(NodeId(3), &NodeUtilization::uniform(0.5, 0.5));
        let manual = p.cpu_w.iter().sum::<f64>()
            + p.gpu_w.iter().sum::<f64>()
            + p.mem_w.iter().sum::<f64>()
            + p.nvme_w
            + p.io_w
            + p.fan_w;
        assert!((p.dc_total() - manual).abs() < 1e-9);
        // Input power reflects PSU losses.
        assert!(p.input_w > p.dc_total());
    }
}
