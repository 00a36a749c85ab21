//! Derived thermal datasets (artifact appendix Datasets 8-11).
//!
//! The MTW operations room works from a "histogram-based component-wise
//! temperature distribution summary of the HPC platform (27,756 GPUs and
//! 9,252 CPUs)" cross-checked against cooling telemetrics (Section 2).
//! These rows reproduce that product: per 10-second window, the number of
//! reporting nodes, the hot-component list, temperature band counts, and
//! the co-registered cooling-plant record — cluster-level (Datasets 8/9)
//! and per-job (Datasets 10/11).

use crate::catalog;
use crate::ids::{AllocationId, GpuSlot, NodeId};
use crate::jobjoin::AllocationIndex;
use crate::records::CepRecord;
use crate::window::NodeWindow;
use std::collections::HashMap;
use summit_analysis::stats::Welford;

/// Temperature band edges (°C) for the operations histogram.
pub const BAND_EDGES_C: [f64; 4] = [30.0, 40.0, 50.0, 60.0];
/// Number of bands (below first edge, between edges, above last edge).
pub const BAND_COUNT: usize = BAND_EDGES_C.len() + 1;

/// Classifies a temperature into its band index `0..BAND_COUNT`.
pub fn band_of(temp_c: f64) -> Option<usize> {
    if !temp_c.is_finite() {
        return None;
    }
    Some(
        BAND_EDGES_C
            .iter()
            .position(|&edge| temp_c < edge)
            .unwrap_or(BAND_EDGES_C.len()),
    )
}

/// One thermal summary row (cluster-level = Dataset 8/9; add an
/// allocation id for the job-level Datasets 10/11).
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalRow {
    /// Start of the 10-second window (seconds since epoch).
    pub window_start: f64,
    /// Job context (None = cluster-level row).
    pub allocation_id: Option<AllocationId>,
    /// Nodes with at least one finite GPU temperature in the window.
    pub nodes_reporting: u32,
    /// GPUs counted per temperature band.
    pub gpu_band_counts: [u32; BAND_COUNT],
    /// GPUs above the hot threshold, as (node, slot) pairs.
    pub hot_gpus: Vec<(NodeId, GpuSlot)>,
    /// GPU core temperature statistics across the scope.
    pub gpu_core_mean: f64,
    /// Gpu core max.
    pub gpu_core_max: f64,
    /// CPU package temperature statistics across the scope.
    pub cpu_mean: f64,
    /// Cpu max.
    pub cpu_max: f64,
    /// Cooling-plant record co-registered to the window, if available.
    pub cep: Option<CepRecord>,
}

/// Threshold above which a GPU lands on the hot list (°C).
pub const HOT_GPU_THRESHOLD_C: f64 = 60.0;

#[derive(Default)]
struct ThermalAcc {
    nodes: u32,
    bands: [u32; BAND_COUNT],
    hot: Vec<(NodeId, GpuSlot)>,
    gpu: Welford,
    cpu: Welford,
}

impl ThermalAcc {
    fn add_window(&mut self, w: &NodeWindow) {
        let mut node_reported = false;
        for g in GpuSlot::ALL {
            let s = w.metric(catalog::gpu_core_temp(g));
            if s.count == 0 || !s.mean.is_finite() {
                continue;
            }
            node_reported = true;
            self.gpu.push(s.mean);
            if let Some(b) = band_of(s.mean) {
                self.bands[b] += 1;
            }
            if s.max >= HOT_GPU_THRESHOLD_C {
                self.hot.push((w.node, g));
            }
        }
        for sck in crate::ids::Socket::ALL {
            let s = w.metric(catalog::cpu_pkg_temp(sck));
            if s.count > 0 && s.mean.is_finite() {
                self.cpu.push(s.mean);
            }
        }
        if node_reported {
            self.nodes += 1;
        }
    }

    fn finish(
        self,
        window_start: f64,
        allocation_id: Option<AllocationId>,
        cep: Option<CepRecord>,
    ) -> ThermalRow {
        ThermalRow {
            window_start,
            allocation_id,
            nodes_reporting: self.nodes,
            gpu_band_counts: self.bands,
            hot_gpus: self.hot,
            gpu_core_mean: self.gpu.mean(),
            gpu_core_max: self.gpu.max(),
            cpu_mean: self.cpu.mean(),
            cpu_max: self.cpu.max(),
            cep,
        }
    }
}

/// Finds the CEP record nearest to a window start (within half the CEP
/// cadence; the paper's plant logs every ~15 s).
fn cep_near(ceps: &[CepRecord], t: f64, tolerance_s: f64) -> Option<CepRecord> {
    ceps.iter()
        .min_by(|a, b| (a.time - t).abs().total_cmp(&(b.time - t).abs()))
        .filter(|r| (r.time - t).abs() <= tolerance_s)
        .copied()
}

/// Builds the cluster-level thermal time series (Datasets 8/9).
pub fn thermal_cluster(windows_by_node: &[Vec<NodeWindow>], ceps: &[CepRecord]) -> Vec<ThermalRow> {
    let mut map: HashMap<i64, ThermalAcc> = HashMap::new();
    for windows in windows_by_node {
        for w in windows {
            map.entry(w.window_start.round() as i64)
                .or_default()
                .add_window(w);
        }
    }
    let mut rows: Vec<ThermalRow> = map
        .into_iter()
        .map(|(k, acc)| {
            let t = k as f64;
            acc.finish(t, None, cep_near(ceps, t, 15.0))
        })
        .collect();
    rows.sort_by(|a, b| a.window_start.total_cmp(&b.window_start));
    rows
}

/// Builds the per-job thermal time series (Datasets 10/11).
pub fn thermal_per_job(
    windows_by_node: &[Vec<NodeWindow>],
    index: &AllocationIndex,
    ceps: &[CepRecord],
) -> Vec<ThermalRow> {
    let mut map: HashMap<(u64, i64), ThermalAcc> = HashMap::new();
    for windows in windows_by_node {
        for w in windows {
            let Some(alloc) = index.lookup(w.node.0, w.window_start + 5.0) else {
                continue;
            };
            map.entry((alloc.0, w.window_start.round() as i64))
                .or_default()
                .add_window(w);
        }
    }
    let mut rows: Vec<ThermalRow> = map
        .into_iter()
        .map(|((alloc, k), acc)| {
            let t = k as f64;
            acc.finish(t, Some(AllocationId(alloc)), cep_near(ceps, t, 15.0))
        })
        .collect();
    rows.sort_by(|a, b| {
        (a.allocation_id.map(|x| x.0), a.window_start.round() as i64)
            .cmp(&(b.allocation_id.map(|x| x.0), b.window_start.round() as i64))
    });
    rows
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::records::{NodeAllocation, NodeFrame};
    use crate::window::WindowAggregator;

    fn windows_with_temps(node: u32, temps: &[(f64, [f64; 6])]) -> Vec<NodeWindow> {
        let mut agg = WindowAggregator::paper(NodeId(node));
        for &(t, gpu_temps) in temps {
            let mut f = NodeFrame::empty(NodeId(node), t);
            for g in GpuSlot::ALL {
                f.set(catalog::gpu_core_temp(g), gpu_temps[g.index()]);
            }
            f.set(catalog::cpu_pkg_temp(crate::ids::Socket::P0), 35.0);
            agg.push(&f).unwrap();
        }
        agg.finish()
    }

    fn cep(t: f64) -> CepRecord {
        CepRecord {
            time: t,
            mtw_supply_c: 21.0,
            mtw_return_c: 28.0,
            tower_tons: 1000.0,
            chiller_tons: 0.0,
            wet_bulb_c: 12.0,
            facility_power_w: 6.6e6,
            it_power_w: 6.0e6,
        }
    }

    #[test]
    fn band_classification() {
        assert_eq!(band_of(25.0), Some(0));
        assert_eq!(band_of(30.0), Some(1));
        assert_eq!(band_of(45.0), Some(2));
        assert_eq!(band_of(59.9), Some(3));
        assert_eq!(band_of(60.0), Some(4));
        assert_eq!(band_of(f64::NAN), None);
    }

    #[test]
    fn cluster_rows_count_bands_and_hot_gpus() {
        let n0 = windows_with_temps(0, &[(0.0, [25.0, 35.0, 45.0, 55.0, 65.0, 28.0])]);
        let n1 = windows_with_temps(1, &[(0.0, [41.0, 42.0, 43.0, 44.0, 45.0, 46.0])]);
        let rows = thermal_cluster(&[n0, n1], &[cep(3.0)]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.nodes_reporting, 2);
        // Bands: node0 -> [25]=b0, [35]=b1, [45]=b2, [55]=b3, [65]=b4, [28]=b0;
        // node1 -> six in b2.
        assert_eq!(r.gpu_band_counts, [2, 1, 7, 1, 1]);
        assert_eq!(r.hot_gpus, vec![(NodeId(0), GpuSlot(4))]);
        assert!((r.cpu_mean - 35.0).abs() < 0.01);
        assert!(r.gpu_core_max >= 65.0 - 0.1);
        assert!(r.cep.is_some(), "CEP record within tolerance");
    }

    #[test]
    fn cep_join_respects_tolerance() {
        let n0 = windows_with_temps(0, &[(0.0, [30.0; 6])]);
        let rows = thermal_cluster(&[n0], &[cep(100.0)]);
        assert!(rows[0].cep.is_none(), "CEP 100 s away must not join");
    }

    #[test]
    fn per_job_rows_scoped_to_allocation() {
        let n0 = windows_with_temps(0, &[(0.0, [50.0; 6]), (10.0, [50.0; 6])]);
        let n1 = windows_with_temps(1, &[(0.0, [30.0; 6])]);
        let index = AllocationIndex::build(&[NodeAllocation {
            allocation_id: AllocationId(9),
            node: NodeId(0),
            begin_time: 0.0,
            end_time: 100.0,
        }]);
        let rows = thermal_per_job(&[n0, n1], &index, &[]);
        assert_eq!(rows.len(), 2, "two windows of the allocated node");
        for r in &rows {
            assert_eq!(r.allocation_id, Some(AllocationId(9)));
            assert_eq!(r.nodes_reporting, 1);
            // Only node 0's 50 C GPUs count: all in band 3.
            assert_eq!(r.gpu_band_counts, [0, 0, 0, 6, 0]);
        }
    }

    #[test]
    fn missing_temps_are_not_counted() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        let f = NodeFrame::empty(NodeId(0), 0.0); // all NaN
        agg.push(&f).unwrap();
        let rows = thermal_cluster(&[agg.finish()], &[]);
        assert_eq!(rows[0].nodes_reporting, 0);
        assert_eq!(rows[0].gpu_band_counts, [0; BAND_COUNT]);
        assert!(rows[0].gpu_core_mean.is_nan());
    }
}
