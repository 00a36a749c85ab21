//! Cluster-level collapse of per-node windows (Dataset 1 of the paper's
//! artifact appendix).
//!
//! Dataset 1: "cluster-level aggregated power values at every 10 seconds
//! ... the sum of input power from all the nodes at that instance"
//! (`timestamp, count_inp, sum_inp, mean_inp, max_inp`).

use crate::catalog;
use crate::convert;
use crate::window::NodeWindow;
use rayon::prelude::*;
use summit_analysis::series::Series;
use summit_analysis::stats::Welford;

/// One Dataset-1 row: cluster-level input power at one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPowerRow {
    /// Start of the 10-second window (seconds since epoch).
    pub window_start: f64,
    /// Nodes reporting in this window.
    pub count_inp: u32,
    /// Sum of per-node mean input power (W) — the cluster power estimate.
    pub sum_inp: f64,
    /// Mean per-node input power (W).
    pub mean_inp: f64,
    /// Max per-node input power (W).
    pub max_inp: f64,
}

/// Window-keyed [`Welford`] table kept sorted by window key.
///
/// Per-node windows arrive in ascending window order, so the hot
/// admission path is a tail hit or a tail append — no tree walk and no
/// per-window node allocation — and the parallel reduce is one linear
/// two-way merge per chunk pair. Same-key accumulators combine with
/// exactly the grouping the previous `BTreeMap` formulation used
/// (per-node push order, then chunk-order merges), so the collapse is
/// bit-identical to that reference for every thread count, and the
/// drain is window-ordered by construction (hash-order lint).
struct WindowTable {
    rows: Vec<(i64, Welford)>,
}

impl WindowTable {
    fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// Accumulator slot for `key`, created empty if absent. O(1) for
    /// the in-order case (key at or past the tail); a late
    /// out-of-order window falls back to a binary-search insert.
    fn slot(&mut self, key: i64) -> &mut Welford {
        let at = match self.rows.last() {
            Some(&(last, _)) if last == key => self.rows.len() - 1,
            Some(&(last, _)) if last < key => {
                self.rows.push((key, Welford::new()));
                self.rows.len() - 1
            }
            _ => {
                let at = self.rows.partition_point(|&(k, _)| k < key);
                if self.rows.get(at).map(|&(k, _)| k) != Some(key) {
                    self.rows.insert(at, (key, Welford::new()));
                }
                at
            }
        };
        &mut self.rows[at].1
    }

    /// Merges `from` into `self` with a linear two-way merge on window
    /// key; same-key accumulators combine with [`Welford::merge`]. A key
    /// present on one side only moves its accumulator across unchanged
    /// — bitwise the same as merging it into an empty accumulator,
    /// because [`Welford::merge`] copies `other` wholesale when `self`
    /// is empty.
    fn merge(&mut self, from: Self) {
        if self.rows.is_empty() {
            self.rows = from.rows;
            return;
        }
        if from.rows.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.rows.len().max(from.rows.len()));
        let mut a = std::mem::take(&mut self.rows).into_iter();
        let mut b = from.rows.into_iter();
        let (mut na, mut nb) = (a.next(), b.next());
        loop {
            match (na, nb) {
                (Some((ka, xa)), Some((kb, xb))) => match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => {
                        merged.push((ka, xa));
                        (na, nb) = (a.next(), Some((kb, xb)));
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((kb, xb));
                        (na, nb) = (Some((ka, xa)), b.next());
                    }
                    std::cmp::Ordering::Equal => {
                        let mut x = xa;
                        x.merge(&xb);
                        merged.push((ka, x));
                        (na, nb) = (a.next(), b.next());
                    }
                },
                (Some(row), None) => {
                    merged.push(row);
                    merged.extend(a);
                    break;
                }
                (None, Some(row)) => {
                    merged.push(row);
                    merged.extend(b);
                    break;
                }
                (None, None) => break,
            }
        }
        self.rows = merged;
    }
}

/// Collapses per-node windows into the Dataset-1 cluster input-power
/// time-series, sorted by window start. Node batches are reduced in
/// parallel.
pub fn cluster_power(windows_by_node: &[Vec<NodeWindow>]) -> Vec<ClusterPowerRow> {
    // Per-node tables merge pairwise inside each worker chunk, and the
    // chunk accumulators merge in chunk order — no barrier collect of
    // all per-node tables. The merge grouping is fixed by the chunk
    // layout, so results are identical for every thread count.
    let merged = windows_by_node
        .par_iter()
        .map(|windows| {
            let mut table = WindowTable::new();
            for w in windows {
                let s = w.metric(catalog::input_power());
                if s.count == 0 {
                    continue;
                }
                let key = w.window_start.round() as i64;
                table.slot(key).push(s.mean);
            }
            table
        })
        .reduce(WindowTable::new, |mut into, from| {
            into.merge(from);
            into
        });

    // Table rows are ascending window start already.
    merged
        .rows
        .into_iter()
        .map(|(k, w)| ClusterPowerRow {
            window_start: k as f64,
            count_inp: convert::count_u32(w.count()),
            sum_inp: w.sum(),
            mean_inp: w.mean(),
            max_inp: w.max(),
        })
        .collect()
}

/// Converts Dataset-1 rows into a uniform [`Series`] of cluster power
/// (`sum_inp`), filling missing windows with NaN.
pub fn cluster_power_series(rows: &[ClusterPowerRow], window_s: f64) -> Option<Series> {
    let first = rows.first()?;
    let last = rows.last()?;
    let n = ((last.window_start - first.window_start) / window_s).round() as usize + 1;
    let mut values = vec![f64::NAN; n];
    for r in rows {
        let idx = ((r.window_start - first.window_start) / window_s).round() as usize;
        if idx < n {
            values[idx] = r.sum_inp;
        }
    }
    Some(Series::new(first.window_start, window_s, values))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::{GpuSlot, NodeId, Socket};
    use crate::records::NodeFrame;
    use crate::window::WindowAggregator;

    fn windows_for(node: u32, powers: &[(f64, f64, f64)]) -> Vec<NodeWindow> {
        // (t, input_power, gpu0_power)
        let mut agg = WindowAggregator::paper(NodeId(node));
        for &(t, inp, gpu) in powers {
            let mut f = NodeFrame::empty(NodeId(node), t);
            f.set(catalog::input_power(), inp);
            f.set(catalog::gpu_power(GpuSlot(0)), gpu);
            f.set(catalog::cpu_power(Socket::P0), inp / 10.0);
            agg.push(&f).unwrap();
        }
        agg.finish()
    }

    #[test]
    fn cluster_power_sums_nodes() {
        let n0 = windows_for(0, &[(0.0, 1000.0, 200.0), (10.0, 1100.0, 200.0)]);
        let n1 = windows_for(1, &[(0.0, 2000.0, 300.0), (10.0, 2200.0, 300.0)]);
        let rows = cluster_power(&[n0, n1]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].window_start, 0.0);
        assert_eq!(rows[0].count_inp, 2);
        assert!((rows[0].sum_inp - 3000.0).abs() < 0.01);
        assert!((rows[0].mean_inp - 1500.0).abs() < 0.01);
        assert!((rows[0].max_inp - 2000.0).abs() < 0.01);
        assert!((rows[1].sum_inp - 3300.0).abs() < 0.01);
    }

    #[test]
    fn cluster_power_skips_missing_nodes() {
        let n0 = windows_for(0, &[(0.0, 1000.0, 0.0)]);
        let n1 = windows_for(1, &[(10.0, 2000.0, 0.0)]); // different window
        let rows = cluster_power(&[n0, n1]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].count_inp, 1);
        assert_eq!(rows[1].count_inp, 1);
    }

    #[test]
    fn power_series_fills_gaps_with_nan() {
        let rows = vec![
            ClusterPowerRow {
                window_start: 0.0,
                count_inp: 1,
                sum_inp: 100.0,
                mean_inp: 100.0,
                max_inp: 100.0,
            },
            ClusterPowerRow {
                window_start: 30.0,
                count_inp: 1,
                sum_inp: 200.0,
                mean_inp: 200.0,
                max_inp: 200.0,
            },
        ];
        let s = cluster_power_series(&rows, 10.0).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.values()[0], 100.0);
        assert!(s.values()[1].is_nan());
        assert!(s.values()[2].is_nan());
        assert_eq!(s.values()[3], 200.0);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(cluster_power(&[]).is_empty());
        assert!(cluster_power_series(&[], 10.0).is_none());
    }

    /// Row-based reference: the exact `BTreeMap` formulation the sorted
    /// [`WindowTable`] replaced — same `par_iter().map().reduce()`
    /// shape, so the merge tree (per-node push order, chunk-order
    /// combines) is identical and any table divergence shows up as a
    /// bit difference.
    fn cluster_power_reference(windows_by_node: &[Vec<NodeWindow>]) -> Vec<ClusterPowerRow> {
        use std::collections::BTreeMap;
        let merged: BTreeMap<i64, Welford> = windows_by_node
            .par_iter()
            .map(|windows| {
                let mut map: BTreeMap<i64, Welford> = BTreeMap::new();
                for w in windows {
                    let s = w.metric(catalog::input_power());
                    if s.count == 0 {
                        continue;
                    }
                    let key = w.window_start.round() as i64;
                    map.entry(key).or_default().push(s.mean);
                }
                map
            })
            .reduce(BTreeMap::new, |mut into, from| {
                for (k, acc) in from {
                    into.entry(k).or_default().merge(&acc);
                }
                into
            });
        merged
            .into_iter()
            .map(|(k, w)| ClusterPowerRow {
                window_start: k as f64,
                count_inp: convert::count_u32(w.count()),
                sum_inp: w.sum(),
                mean_inp: w.mean(),
                max_inp: w.max(),
            })
            .collect()
    }

    /// Many nodes with irregular, partially-disjoint window coverage
    /// and missing metrics — enough structure to catch any divergence
    /// in push order or merge grouping.
    fn adversarial_windows(nodes: u32) -> Vec<Vec<NodeWindow>> {
        (0..nodes)
            .map(|n| {
                let mut agg = WindowAggregator::paper(NodeId(n));
                // Each node starts at a different window and skips
                // frames on its own stride; every 5th node never
                // reports input power (count_inp == 0 windows).
                let start = (n as i64 % 7) * 10;
                for i in 0..120i64 {
                    let t = (start + i) as f64;
                    if (i + n as i64) % 11 == 0 {
                        continue; // dropped frame
                    }
                    let mut f = NodeFrame::empty(NodeId(n), t);
                    if n % 5 != 0 {
                        f.set(
                            catalog::input_power(),
                            500.0 + f64::from(n) * 3.5 + (i % 13) as f64 * 0.01,
                        );
                    }
                    if n % 3 != 2 {
                        f.set(catalog::cpu_power(Socket::P0), 150.0 + (i % 7) as f64);
                        f.set(catalog::cpu_power(Socket::P1), 140.0 - (i % 5) as f64);
                    }
                    f.set(
                        catalog::gpu_power(GpuSlot((n % 6) as u8)),
                        200.0 + f64::from(n % 4) * 25.0,
                    );
                    agg.push(&f).unwrap();
                }
                agg.finish()
            })
            .collect()
    }

    #[test]
    fn sorted_table_matches_btreemap_reference_bitwise() {
        let windows = adversarial_windows(23);
        let want_power = cluster_power_reference(&windows);
        for threads in [1usize, 2, 4] {
            let got_power = rayon::with_thread_count(threads, || cluster_power(&windows));
            assert_eq!(got_power.len(), want_power.len(), "threads={threads}");
            for (g, w) in got_power.iter().zip(&want_power) {
                assert_eq!(g.window_start.to_bits(), w.window_start.to_bits());
                assert_eq!(g.count_inp, w.count_inp);
                assert_eq!(
                    g.sum_inp.to_bits(),
                    w.sum_inp.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(g.mean_inp.to_bits(), w.mean_inp.to_bits());
                assert_eq!(g.max_inp.to_bits(), w.max_inp.to_bits());
            }
        }
    }

    #[test]
    fn window_table_slot_handles_out_of_order_keys() {
        let mut table = WindowTable::new();
        for key in [10i64, 20, 20, 5, 15, 30, 5] {
            table.slot(key).push(key as f64);
        }
        let keys: Vec<i64> = table.rows.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![5, 10, 15, 20, 30]);
        let at_20 = &table.rows[3].1;
        assert_eq!(at_20.count(), 2);
        let at_5 = &table.rows[0].1;
        assert_eq!(at_5.count(), 2);
    }
}
