//! Job-aware aggregation: joining per-node telemetry with scheduler
//! allocation history (Datasets 3-7 of the artifact appendix).
//!
//! "For studies that require job context, we performed the collapse after
//! joining the time series with job scheduler allocation logs"
//! (Section 3). The join key is (node, time-window) -> allocation_id.

use crate::catalog;
use crate::convert;
use crate::ids::{AllocationId, GpuSlot, Socket};
use crate::records::NodeAllocation;
use crate::window::NodeWindow;
use std::collections::BTreeMap;
use summit_analysis::series::Series;
use summit_analysis::stats::Welford;

/// One Dataset-3 row: per-job per-window power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPowerRow {
    /// Scheduler allocation identifier.
    pub allocation_id: AllocationId,
    /// Start of the 10-second window (seconds since epoch).
    pub window_start: f64,
    /// Nodes of the job reporting in this window.
    pub count_hostname: u32,
    /// Sum of per-node mean input power over the job's nodes (W).
    pub sum_inp: f64,
    /// Mean per-node input power (W).
    pub mean_inp: f64,
    /// Maximum per-node input power (W).
    pub max_inp: f64,
}

/// One Dataset-4 row: per-job per-window component power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobComponentRow {
    /// Scheduler allocation identifier.
    pub allocation_id: AllocationId,
    /// Start of the 10-second window (seconds since epoch).
    pub window_start: f64,
    /// Nodes of the job reporting in this window.
    pub count_hostname: u32,
    /// Mean per-socket CPU power (W).
    pub mean_cpu_power: f64,
    /// Maximum per-socket CPU power (W).
    pub max_cpu_power: f64,
    /// Mean per-GPU power (W).
    pub mean_gpu_power: f64,
    /// Maximum per-GPU power (W).
    pub max_gpu_power: f64,
    /// Windows with missing CPU/GPU readings (the `cpu_nans`/`gpu_nans`
    /// columns of the artifact appendix).
    pub cpu_nans: u32,
    /// Windows with missing GPU readings.
    pub gpu_nans: u32,
}

/// Dataset-5 row: whole-job power aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLevelPower {
    /// Scheduler allocation identifier.
    pub allocation_id: AllocationId,
    /// Max over windows of the job's summed input power (W).
    pub max_sum_inp: f64,
    /// Mean over windows of the job's summed input power (W).
    pub mean_sum_inp: f64,
    /// Start time (seconds since epoch).
    pub begin_time: f64,
    /// End time (seconds since epoch).
    pub end_time: f64,
    /// Total energy consumed (J), integrating `sum_inp` over windows.
    pub energy_j: f64,
}

/// An index from (node, time) to the allocation occupying it. Keyed by
/// a `BTreeMap` so any iteration over it is in node order — hash-order
/// nondeterminism cannot leak out of the index.
pub struct AllocationIndex {
    /// Per node: (begin, end, allocation), sorted by begin.
    by_node: BTreeMap<u32, Vec<(f64, f64, AllocationId)>>,
}

impl AllocationIndex {
    /// Builds the index from per-node allocation records.
    pub fn build(allocations: &[NodeAllocation]) -> Self {
        let mut by_node: BTreeMap<u32, Vec<(f64, f64, AllocationId)>> = BTreeMap::new();
        for a in allocations {
            by_node
                .entry(a.node.0)
                .or_default()
                .push((a.begin_time, a.end_time, a.allocation_id));
        }
        for list in by_node.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Self { by_node }
    }

    /// The allocation running on `node` at time `t`, if any.
    pub fn lookup(&self, node: u32, t: f64) -> Option<AllocationId> {
        let list = self.by_node.get(&node)?;
        // Binary search for the last interval starting at or before t.
        let idx = list.partition_point(|&(begin, _, _)| begin <= t);
        if idx == 0 {
            return None;
        }
        let (begin, end, alloc) = list[idx - 1];
        (t >= begin && t < end).then_some(alloc)
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.by_node.values().map(Vec::len).sum()
    }

    /// True if the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Default, Clone)]
struct JoinAcc {
    inp: Welford,
    cpu: Welford,
    gpu: Welford,
    cpu_nans: u32,
    gpu_nans: u32,
}

/// Joins per-node windows with the allocation index and collapses them to
/// per-job per-window rows (Datasets 3 and 4 together).
pub fn join_jobs(
    windows_by_node: &[Vec<NodeWindow>],
    index: &AllocationIndex,
) -> (Vec<JobPowerRow>, Vec<JobComponentRow>) {
    let _obs = summit_obs::span("summit_telemetry_jobjoin");
    // Keyed (allocation, window): draining the BTreeMap yields rows
    // already in the output order, no post-sort required.
    let mut map: BTreeMap<(u64, i64), JoinAcc> = BTreeMap::new();
    for windows in windows_by_node {
        for w in windows {
            // Gap windows synthesized for ingest outages carry no
            // samples at all; they must not count as a reporting node.
            if w.stats.iter().all(|s| s.count == 0) {
                continue;
            }
            let t_mid = w.window_start + 5.0;
            let Some(alloc) = index.lookup(w.node.0, t_mid) else {
                continue;
            };
            let key = (alloc.0, w.window_start.round() as i64);
            let acc = map.entry(key).or_default();
            let inp = w.metric(catalog::input_power());
            if inp.count > 0 {
                acc.inp.push(inp.mean);
            }
            let mut cpu_seen = false;
            for s in Socket::ALL {
                let st = w.metric(catalog::cpu_power(s));
                if st.count > 0 {
                    acc.cpu.push(st.mean);
                    cpu_seen = true;
                }
            }
            if !cpu_seen {
                acc.cpu_nans += 1;
            }
            let mut gpu_seen = false;
            for g in GpuSlot::ALL {
                let st = w.metric(catalog::gpu_power(g));
                if st.count > 0 {
                    acc.gpu.push(st.mean);
                    gpu_seen = true;
                }
            }
            if !gpu_seen {
                acc.gpu_nans += 1;
            }
        }
    }

    let mut power_rows = Vec::with_capacity(map.len());
    let mut comp_rows = Vec::with_capacity(map.len());
    for ((alloc, ws), acc) in map {
        let allocation_id = AllocationId(alloc);
        let window_start = ws as f64;
        power_rows.push(JobPowerRow {
            allocation_id,
            window_start,
            count_hostname: convert::count_u32(acc.inp.count()),
            sum_inp: acc.inp.sum(),
            mean_inp: acc.inp.mean(),
            max_inp: acc.inp.max(),
        });
        comp_rows.push(JobComponentRow {
            allocation_id,
            window_start,
            count_hostname: convert::count_u32(acc.inp.count()),
            mean_cpu_power: acc.cpu.mean(),
            max_cpu_power: acc.cpu.max(),
            mean_gpu_power: acc.gpu.mean(),
            max_gpu_power: acc.gpu.max(),
            cpu_nans: acc.cpu_nans,
            gpu_nans: acc.gpu_nans,
        });
    }
    (power_rows, comp_rows)
}

/// Collapses Dataset-3 rows into whole-job aggregates (Dataset 5 + the
/// Dataset-7 energy integral), one row per allocation.
pub fn job_level_power(rows: &[JobPowerRow], window_s: f64) -> Vec<JobLevelPower> {
    let _obs = summit_obs::span("summit_telemetry_job_level_power");
    let mut map: BTreeMap<u64, (f64, f64, f64, f64, u64)> = BTreeMap::new();
    // (max_sum, sum_of_sums, begin, end, n_windows)
    for r in rows {
        let e = map.entry(r.allocation_id.0).or_insert((
            f64::NEG_INFINITY,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0,
        ));
        e.0 = e.0.max(r.sum_inp);
        e.1 += r.sum_inp;
        e.2 = e.2.min(r.window_start);
        e.3 = e.3.max(r.window_start + window_s);
        e.4 += 1;
    }
    // BTreeMap drain order is allocation order — the output order.
    map.into_iter()
        .map(|(alloc, (max, sum, begin, end, n))| JobLevelPower {
            allocation_id: AllocationId(alloc),
            max_sum_inp: max,
            mean_sum_inp: sum / n as f64,
            begin_time: begin,
            end_time: end,
            energy_j: sum * window_s,
        })
        .collect()
}

/// Extracts one job's power time-series (`sum_inp` per window) as a
/// uniform [`Series`], filling missing windows with NaN. Rows from
/// other allocations are ignored (the series follows the first row's
/// allocation), so a mixed slice degrades gracefully instead of
/// producing a chimera series.
pub fn job_power_series(rows: &[JobPowerRow], window_s: f64) -> Option<Series> {
    let first = rows.first()?;
    let rows = rows
        .iter()
        .filter(|r| r.allocation_id == first.allocation_id);
    let mut t0 = f64::INFINITY;
    let mut t1 = f64::NEG_INFINITY;
    for r in rows.clone() {
        t0 = t0.min(r.window_start);
        t1 = t1.max(r.window_start);
    }
    let n = ((t1 - t0) / window_s).round() as usize + 1;
    let mut values = vec![f64::NAN; n];
    for r in rows {
        let idx = ((r.window_start - t0) / window_s).round() as usize;
        if let Some(slot) = values.get_mut(idx) {
            *slot = r.sum_inp;
        }
    }
    Some(Series::new(t0, window_s, values))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::NodeId;
    use crate::records::NodeFrame;
    use crate::window::WindowAggregator;

    fn alloc(node: u32, id: u64, begin: f64, end: f64) -> NodeAllocation {
        NodeAllocation {
            allocation_id: AllocationId(id),
            node: NodeId(node),
            begin_time: begin,
            end_time: end,
        }
    }

    fn windows(node: u32, samples: &[(f64, f64)]) -> Vec<NodeWindow> {
        let mut agg = WindowAggregator::paper(NodeId(node));
        for &(t, inp) in samples {
            let mut f = NodeFrame::empty(NodeId(node), t);
            f.set(catalog::input_power(), inp);
            f.set(catalog::cpu_power(Socket::P0), inp * 0.1);
            f.set(catalog::gpu_power(GpuSlot(0)), inp * 0.3);
            agg.push(&f).unwrap();
        }
        agg.finish()
    }

    #[test]
    fn allocation_index_lookup() {
        let idx = AllocationIndex::build(&[
            alloc(0, 1, 0.0, 100.0),
            alloc(0, 2, 100.0, 200.0),
            alloc(1, 1, 0.0, 100.0),
        ]);
        assert_eq!(idx.lookup(0, 50.0), Some(AllocationId(1)));
        assert_eq!(idx.lookup(0, 100.0), Some(AllocationId(2)));
        assert_eq!(idx.lookup(0, 199.0), Some(AllocationId(2)));
        assert_eq!(idx.lookup(0, 200.0), None);
        assert_eq!(idx.lookup(1, 10.0), Some(AllocationId(1)));
        assert_eq!(idx.lookup(2, 10.0), None);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn join_attributes_windows_to_jobs() {
        let w0 = windows(0, &[(0.0, 1000.0), (10.0, 1200.0)]);
        let w1 = windows(1, &[(0.0, 2000.0), (10.0, 2400.0)]);
        let idx = AllocationIndex::build(&[alloc(0, 7, 0.0, 1000.0), alloc(1, 7, 0.0, 1000.0)]);
        let (power, comp) = join_jobs(&[w0, w1], &idx);
        assert_eq!(power.len(), 2);
        assert_eq!(power[0].count_hostname, 2);
        assert!((power[0].sum_inp - 3000.0).abs() < 0.01);
        assert!((power[1].sum_inp - 3600.0).abs() < 0.01);
        assert_eq!(comp.len(), 2);
        // GPU mean: (300 + 600)/2 at window 0.
        assert!((comp[0].mean_gpu_power - 450.0).abs() < 0.1);
    }

    #[test]
    fn join_ignores_unallocated_windows() {
        let w0 = windows(0, &[(0.0, 1000.0), (500.0, 900.0)]);
        let idx = AllocationIndex::build(&[alloc(0, 7, 0.0, 100.0)]);
        let (power, _) = join_jobs(&[w0], &idx);
        assert_eq!(power.len(), 1, "second window falls outside the job");
    }

    #[test]
    fn job_level_aggregation_and_energy() {
        let rows = vec![
            JobPowerRow {
                allocation_id: AllocationId(1),
                window_start: 0.0,
                count_hostname: 2,
                sum_inp: 1000.0,
                mean_inp: 500.0,
                max_inp: 600.0,
            },
            JobPowerRow {
                allocation_id: AllocationId(1),
                window_start: 10.0,
                count_hostname: 2,
                sum_inp: 3000.0,
                mean_inp: 1500.0,
                max_inp: 1600.0,
            },
        ];
        let jobs = job_level_power(&rows, 10.0);
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.max_sum_inp, 3000.0);
        assert_eq!(j.mean_sum_inp, 2000.0);
        assert_eq!(j.begin_time, 0.0);
        assert_eq!(j.end_time, 20.0);
        assert!((j.energy_j - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn job_series_fills_gaps() {
        let mk = |ws: f64, p: f64| JobPowerRow {
            allocation_id: AllocationId(1),
            window_start: ws,
            count_hostname: 1,
            sum_inp: p,
            mean_inp: p,
            max_inp: p,
        };
        let rows = vec![mk(0.0, 100.0), mk(30.0, 400.0)];
        let s = job_power_series(&rows, 10.0).unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.values()[1].is_nan());
        assert_eq!(s.values()[3], 400.0);
    }

    #[test]
    fn series_ignores_foreign_allocations() {
        let mk = |id: u64, ws: f64, p: f64| JobPowerRow {
            allocation_id: AllocationId(id),
            window_start: ws,
            count_hostname: 1,
            sum_inp: p,
            mean_inp: p,
            max_inp: p,
        };
        // A stray row from another job neither panics nor skews t0/t1.
        let rows = vec![mk(1, 10.0, 100.0), mk(2, 500.0, 9.0), mk(1, 20.0, 200.0)];
        let s = job_power_series(&rows, 10.0).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.values()[0], 100.0);
        assert_eq!(s.values()[1], 200.0);
    }

    #[test]
    fn empty_inputs() {
        let idx = AllocationIndex::build(&[]);
        assert!(idx.is_empty());
        let (p, c) = join_jobs(&[], &idx);
        assert!(p.is_empty() && c.is_empty());
        assert!(job_level_power(&[], 10.0).is_empty());
        assert!(job_power_series(&[], 10.0).is_none());
    }
}
