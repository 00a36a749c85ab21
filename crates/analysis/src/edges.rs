//! Rising/falling power-edge detection (paper Section 4.2, Figures 10/11).
//!
//! The paper defines a rising or falling edge as a change in power of more
//! than **868 W averaged across the nodes in the job** over one 10-second
//! interval — at full system scale (4,608 nodes) that is a 4 MW step. The
//! duration of an edge is "the time from the start of the rising edge to
//! the end time where power has returned back 80 % from its peak to its
//! initial power". This module implements that exact definition, in
//! batch and online form.

use crate::series::Series;

/// The per-node edge threshold from the paper: 868 W per node per
/// 10-second interval (4 MW at 4,608 nodes).
pub const EDGE_THRESHOLD_W_PER_NODE: f64 = 868.0;

/// Direction of a detected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Power stepped up.
    Rising,
    /// Power stepped down.
    Falling,
}

/// A detected power edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Rising or falling.
    pub kind: EdgeKind,
    /// Index in the source series where the step begins.
    pub start_index: usize,
    /// Timestamp of the step start.
    pub start_time: f64,
    /// Power before the step (W).
    pub initial_power: f64,
    /// Signed one-interval power change that triggered detection (W).
    pub step: f64,
    /// Index of the extremum reached after the step.
    pub peak_index: usize,
    /// Power at the extremum (W).
    pub peak_power: f64,
    /// Seconds from start until power returned 80 % of the way from the
    /// peak back to the initial power; `None` if it never returned within
    /// the series (the edge out-lives the observation window).
    pub duration_s: Option<f64>,
}

impl Edge {
    /// Unsigned peak-to-initial amplitude (W).
    pub fn amplitude(&self) -> f64 {
        (self.peak_power - self.initial_power).abs()
    }
}

/// Detects all rising and falling edges in `power` using an absolute
/// one-interval threshold in watts.
///
/// ```
/// use summit_analysis::{series::Series, edges::{detect_edges, EdgeKind}};
/// let s = Series::new(0.0, 10.0, vec![1e6, 5e6, 5e6, 1e6]);
/// let edges = detect_edges(&s, 2e6);
/// assert_eq!(edges.len(), 2);
/// assert_eq!(edges[0].kind, EdgeKind::Rising);
/// ```
///
/// Consecutive over-threshold intervals in the same direction are merged
/// into a single edge (a 2-interval ramp is one edge, not two). NaN gaps
/// break edge tracking.
pub fn detect_edges(power: &Series, threshold_w: f64) -> Vec<Edge> {
    assert!(threshold_w > 0.0, "edge threshold must be positive");
    let v = power.values();
    let mut edges = Vec::new();
    let mut i = 0;
    while i + 1 < v.len() {
        let step = v[i + 1] - v[i];
        if !step.is_finite() || step.abs() < threshold_w {
            i += 1;
            continue;
        }
        let kind = if step > 0.0 {
            EdgeKind::Rising
        } else {
            EdgeKind::Falling
        };
        let start_index = i;
        let initial = v[i];

        // Merge consecutive same-direction over-threshold intervals.
        let mut j = i + 1;
        while j + 1 < v.len() {
            let s = v[j + 1] - v[j];
            if !s.is_finite() || s.abs() < threshold_w || (s > 0.0) != (step > 0.0) {
                break;
            }
            j += 1;
        }

        // Track the extremum after the step and the 80 %-return point.
        let mut peak_index = j;
        let mut peak = v[j];
        let mut duration = None;
        let mut k = j;
        while k < v.len() {
            let x = v[k];
            if x.is_finite() {
                let more_extreme = match kind {
                    EdgeKind::Rising => x > peak,
                    EdgeKind::Falling => x < peak,
                };
                if more_extreme {
                    peak = x;
                    peak_index = k;
                }
                // "Returned back 80% from its peak to its initial power":
                // within 20% of the initial level, measured from the peak.
                let return_level = peak - 0.8 * (peak - initial);
                let returned = match kind {
                    EdgeKind::Rising => x <= return_level && k > peak_index.min(j),
                    EdgeKind::Falling => x >= return_level && k > peak_index.min(j),
                };
                if returned && k > j {
                    duration = Some(power.time_at(k) - power.time_at(start_index));
                    break;
                }
            }
            k += 1;
        }

        edges.push(Edge {
            kind,
            start_index,
            start_time: power.time_at(start_index),
            initial_power: initial,
            step: v[j] - v[start_index],
            peak_index,
            peak_power: peak,
            duration_s: duration,
        });

        // Resume scanning after the merged step (not after the full
        // return window — later independent swings must still be seen).
        i = j;
    }
    edges
}

/// State of an edge whose ramp is still being merged (consecutive
/// same-direction over-threshold steps).
#[derive(Debug, Clone, Copy)]
struct MergeState {
    start_index: usize,
    initial: f64,
    rising: bool,
}

/// An edge past its ramp, still tracking its extremum and 80 %-return.
#[derive(Debug, Clone, Copy)]
struct ActiveReturn {
    id: u64,
    kind: EdgeKind,
    start_index: usize,
    initial: f64,
    j: usize,
    peak: f64,
    peak_index: usize,
}

/// A detected edge awaiting drain, in trigger order.
#[derive(Debug, Clone)]
struct PendingEdge {
    id: u64,
    edge: Edge,
    resolved: bool,
}

/// Incremental replacement for [`detect_edges`]: feed samples one at a
/// time and obtain — for the same series — the exact same edge list,
/// without retaining the series.
///
/// [`detect_edges`] interleaves two scans: a step scanner that merges
/// consecutive same-direction over-threshold steps into one ramp, and a
/// per-edge return tracker that follows the extremum until power comes
/// back 80 % toward the initial level. Because the scanner resumes at
/// the ramp end (not the return point), return-tracking regions overlap
/// later ramps, so several edges can be "open" at once. This detector
/// keeps the scanner state plus a list of active unreturned edges, all
/// advanced per pushed value; memory is bounded by the number of
/// simultaneously unreturned edges, never the stream length.
#[derive(Debug, Clone)]
pub struct OnlineEdgeDetector {
    t0: f64,
    dt: f64,
    threshold_w: f64,
    next_index: usize,
    prev: Option<f64>,
    merging: Option<MergeState>,
    active: Vec<ActiveReturn>,
    pending: std::collections::VecDeque<PendingEdge>,
    next_id: u64,
    detected: usize,
}

impl OnlineEdgeDetector {
    /// Creates a detector for a stream sampled at `t0 + k * dt`, using
    /// an absolute one-interval threshold in watts (must be positive,
    /// as for [`detect_edges`]).
    pub fn new(t0: f64, dt: f64, threshold_w: f64) -> Self {
        Self {
            t0,
            dt,
            threshold_w,
            next_index: 0,
            prev: None,
            merging: None,
            active: Vec::new(),
            pending: std::collections::VecDeque::new(),
            next_id: 0,
            detected: 0,
        }
    }

    /// Edges triggered so far (including ones still merging/unreturned).
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Edges currently tracking their 80 %-return (live gauge).
    pub fn tracking(&self) -> usize {
        self.active.len() + usize::from(self.merging.is_some())
    }

    fn time_at(&self, k: usize) -> f64 {
        self.t0 + k as f64 * self.dt
    }

    fn sync_pending(&mut self, id: u64, peak: f64, peak_index: usize, duration_s: Option<f64>) {
        if let Some(p) = self.pending.iter_mut().find(|p| p.id == id) {
            p.edge.peak_power = peak;
            p.edge.peak_index = peak_index;
            if duration_s.is_some() {
                p.edge.duration_s = duration_s;
                p.resolved = true;
            }
        }
    }

    /// Ends the current ramp at index `j` (value `vj`), recording the
    /// edge and moving it into return tracking.
    fn finalize_merge(&mut self, j: usize, vj: f64) {
        if let Some(m) = self.merging.take() {
            let id = self.next_id;
            self.next_id += 1;
            let kind = if m.rising {
                EdgeKind::Rising
            } else {
                EdgeKind::Falling
            };
            self.pending.push_back(PendingEdge {
                id,
                resolved: false,
                edge: Edge {
                    kind,
                    start_index: m.start_index,
                    start_time: self.time_at(m.start_index),
                    initial_power: m.initial,
                    step: vj - m.initial,
                    peak_index: j,
                    peak_power: vj,
                    duration_s: None,
                },
            });
            self.active.push(ActiveReturn {
                id,
                kind,
                start_index: m.start_index,
                initial: m.initial,
                j,
                peak: vj,
                peak_index: j,
            });
        }
    }

    /// Advances every active edge's extremum/return tracking with the
    /// value at index `k` — the batch tracker's loop body verbatim.
    fn track(&mut self, k: usize, x: f64) {
        if !x.is_finite() {
            return;
        }
        let (t0, dt) = (self.t0, self.dt);
        let t_k = t0 + k as f64 * dt;
        let mut resolved: Vec<(u64, f64, usize, f64)> = Vec::new();
        self.active.retain_mut(|a| {
            let more_extreme = match a.kind {
                EdgeKind::Rising => x > a.peak,
                EdgeKind::Falling => x < a.peak,
            };
            if more_extreme {
                a.peak = x;
                a.peak_index = k;
            }
            let return_level = a.peak - 0.8 * (a.peak - a.initial);
            let crossed = match a.kind {
                EdgeKind::Rising => x <= return_level,
                EdgeKind::Falling => x >= return_level,
            };
            if crossed && k > a.peak_index.min(a.j) && k > a.j {
                let duration = t_k - (t0 + a.start_index as f64 * dt);
                resolved.push((a.id, a.peak, a.peak_index, duration));
                false
            } else {
                true
            }
        });
        for (id, peak, peak_index, duration) in resolved {
            self.sync_pending(id, peak, peak_index, Some(duration));
        }
    }

    /// Pushes the next sample of the stream.
    pub fn push(&mut self, v: f64) {
        let k = self.next_index;
        self.next_index += 1;
        let Some(p) = self.prev else {
            self.prev = Some(v);
            return;
        };
        let step = v - p;
        let over = step.is_finite() && step.abs() >= self.threshold_w;
        if let Some(m) = self.merging {
            if over && (step > 0.0) == m.rising {
                // Ramp continues: the batch merge loop consumes this
                // step; no trigger check, but older edges still track.
                self.track(k, v);
                self.prev = Some(v);
                return;
            }
            // Ramp ends at j = k-1 with v[j] = p.
            self.finalize_merge(k - 1, p);
        }
        if over {
            // Fresh trigger on this step (after a ramp break this can
            // only be the opposite direction, exactly as in the batch
            // scan resuming at i = j).
            self.merging = Some(MergeState {
                start_index: k - 1,
                initial: p,
                rising: step > 0.0,
            });
            self.detected += 1;
        }
        self.track(k, v);
        self.prev = Some(v);
    }

    /// Removes and returns every leading edge whose 80 %-return has
    /// resolved, preserving trigger order. Edges still tracking (or
    /// triggered later than one still tracking) stay queued so the
    /// drained prefix is always final.
    pub fn drain_resolved(&mut self) -> Vec<Edge> {
        let mut out = Vec::new();
        while self.pending.front().is_some_and(|p| p.resolved) {
            if let Some(p) = self.pending.pop_front() {
                out.push(p.edge);
            }
        }
        out
    }

    /// Flushes the stream end: an in-flight ramp ends at the last
    /// sample, unreturned edges keep `duration_s: None` with their
    /// final extremum — exactly the batch behaviour at the series end.
    /// Returns all remaining edges in trigger order.
    pub fn finish(mut self) -> Vec<Edge> {
        if self.merging.is_some() {
            if let Some(p) = self.prev {
                self.finalize_merge(self.next_index.saturating_sub(1), p);
            }
        }
        let active = std::mem::take(&mut self.active);
        for a in active {
            self.sync_pending(a.id, a.peak, a.peak_index, None);
        }
        self.pending.into_iter().map(|p| p.edge).collect()
    }
}

/// Detects edges with the paper's per-node scaling: threshold is
/// `868 W x node_count` per 10-second interval.
pub fn detect_edges_for_job(power: &Series, node_count: usize) -> Vec<Edge> {
    assert!(node_count > 0, "job must have at least one node");
    detect_edges(power, EDGE_THRESHOLD_W_PER_NODE * node_count as f64)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    /// Builds a 10 s-interval series from values.
    fn series(values: &[f64]) -> Series {
        Series::new(0.0, 10.0, values.to_vec())
    }

    #[test]
    fn detects_simple_rising_edge() {
        // 1 MW baseline, step to 5 MW, hold, return to baseline.
        let s = series(&[1e6, 1e6, 5e6, 5e6, 5e6, 1e6, 1e6]);
        let edges = detect_edges(&s, 2e6);
        assert_eq!(edges.len(), 2); // the rise and the fall
        let rise = &edges[0];
        assert_eq!(rise.kind, EdgeKind::Rising);
        assert_eq!(rise.start_index, 1);
        assert_eq!(rise.initial_power, 1e6);
        assert_eq!(rise.peak_power, 5e6);
        assert!((rise.amplitude() - 4e6).abs() < 1.0);
        // Returned to baseline at index 5: duration = (5-1)*10 = 40 s.
        assert_eq!(rise.duration_s, Some(40.0));
        assert_eq!(edges[1].kind, EdgeKind::Falling);
    }

    #[test]
    fn merges_multi_interval_ramp() {
        // Ramp up over two big steps -> one edge.
        let s = series(&[1e6, 3e6, 6e6, 6e6, 6e6, 1e6]);
        let edges = detect_edges(&s, 1.5e6);
        let rising: Vec<_> = edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Rising)
            .collect();
        assert_eq!(rising.len(), 1, "ramp should merge into one rising edge");
        assert_eq!(rising[0].peak_power, 6e6);
    }

    #[test]
    fn below_threshold_is_quiet() {
        let s = series(&[1e6, 1.5e6, 1.2e6, 1.4e6]);
        assert!(detect_edges(&s, 2e6).is_empty());
    }

    #[test]
    fn unreturned_edge_has_no_duration() {
        let s = series(&[1e6, 5e6, 5e6, 5e6]);
        let edges = detect_edges(&s, 2e6);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].duration_s, None);
    }

    #[test]
    fn falling_edge_detected() {
        let s = series(&[5e6, 5e6, 1e6, 1e6, 5e6]);
        let edges = detect_edges(&s, 2e6);
        assert_eq!(edges[0].kind, EdgeKind::Falling);
        assert_eq!(edges[0].peak_power, 1e6);
        // Returns when power rises back toward 5e6 at index 4.
        assert!(edges[0].duration_s.is_some());
    }

    #[test]
    fn per_node_threshold_scaling() {
        // Paper: 4,608-node job needs ≥ 4 MW to count as an edge.
        let full_system = 4608;
        let s_small = series(&[1e6, 4.5e6, 4.5e6, 1e6]); // 3.5 MW step
        assert!(detect_edges_for_job(&s_small, full_system).is_empty());
        let s_big = series(&[1e6, 5.5e6, 5.5e6, 1e6]); // 4.5 MW step
        assert_eq!(detect_edges_for_job(&s_big, full_system).len(), 2);
        // The same 3.5 MW step IS an edge for a 2,000-node job.
        assert!(!detect_edges_for_job(&s_small, 2000).is_empty());
    }

    #[test]
    fn threshold_matches_paper_full_system() {
        // 868 W * 4608 nodes ≈ 4.0 MW
        let t = EDGE_THRESHOLD_W_PER_NODE * 4608.0;
        assert!((t - 4e6).abs() < 5e4, "threshold {t}");
    }

    #[test]
    fn nan_gap_breaks_tracking() {
        let s = series(&[1e6, f64::NAN, 5e6, 5e6]);
        // The NaN interval yields a NaN step — no edge triggered by it.
        let edges = detect_edges(&s, 2e6);
        assert!(edges.is_empty());
    }

    fn assert_online_matches_batch(values: &[f64], threshold_w: f64) {
        let s = series(values);
        let reference = detect_edges(&s, threshold_w);
        let mut det = OnlineEdgeDetector::new(s.t0(), s.dt(), threshold_w);
        let mut streamed = Vec::new();
        for &v in values {
            det.push(v);
            streamed.extend(det.drain_resolved());
        }
        assert_eq!(det.detected(), reference.len(), "trigger count");
        streamed.extend(det.finish());
        assert_eq!(streamed.len(), reference.len(), "edge count");
        for (a, b) in streamed.iter().zip(&reference) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.start_index, b.start_index);
            assert_eq!(a.start_time.to_bits(), b.start_time.to_bits());
            assert_eq!(a.initial_power.to_bits(), b.initial_power.to_bits());
            assert_eq!(a.step.to_bits(), b.step.to_bits());
            assert_eq!(a.peak_index, b.peak_index);
            assert_eq!(a.peak_power.to_bits(), b.peak_power.to_bits());
            assert_eq!(
                a.duration_s.map(f64::to_bits),
                b.duration_s.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn online_detector_matches_batch_on_handcrafted_series() {
        let cases: &[&[f64]] = &[
            &[1e6, 1e6, 5e6, 5e6, 5e6, 1e6, 1e6],
            &[1e6, 3e6, 6e6, 6e6, 6e6, 1e6],
            &[1e6, 1.5e6, 1.2e6, 1.4e6],
            &[1e6, 5e6, 5e6, 5e6],
            &[5e6, 5e6, 1e6, 1e6, 5e6],
            &[1e6, f64::NAN, 5e6, 5e6],
            &[1e6, 5e6, f64::NAN, 1e6, 1e6],
            &[1e6, 5e6, 1e6, 5e6, 1e6, 5e6],
            // Slow decay: the rise's return overlaps the later fall.
            &[1e6, 9e6, 8e6, 4.5e6, 4.4e6, 1.2e6, 1.1e6],
            &[1e6, 5e6, 5e6, 1.8e6, 1.8e6],
            &[],
            &[3e6],
        ];
        for values in cases {
            assert_online_matches_batch(values, 2e6);
        }
    }

    #[test]
    fn online_detector_matches_batch_on_noisy_walk() {
        // Deterministic pseudo-random walk with occasional large jumps
        // and NaN dropouts, exercising ramp merges, overlapping return
        // windows and end-of-stream truncation.
        let mut state = 0x5EEDu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut level = 5e6;
        let mut values = Vec::new();
        for i in 0..400 {
            let u = rng();
            if u < 0.02 {
                values.push(f64::NAN);
                continue;
            }
            if u < 0.12 {
                level += (rng() - 0.5) * 8e6;
            } else {
                level += (rng() - 0.5) * 5e5;
            }
            level = level.clamp(0.0, 1.4e7);
            values.push(level);
            if i % 97 == 0 {
                level = 5e6; // hard reset = another step source
            }
        }
        assert_online_matches_batch(&values, 1.5e6);
    }

    #[test]
    fn online_detector_drains_resolved_prefix_only() {
        let mut det = OnlineEdgeDetector::new(0.0, 10.0, 2e6);
        for v in [1e6, 5e6, 5e6] {
            det.push(v);
        }
        // Rise is still tracking its return: nothing drains.
        assert!(det.drain_resolved().is_empty());
        assert_eq!(det.tracking(), 1);
        for v in [1e6, 1e6] {
            det.push(v);
        }
        let drained = det.drain_resolved();
        // Rise resolved; the fall it resolved on is still unreturned.
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].kind, EdgeKind::Rising);
        assert_eq!(drained[0].duration_s, Some(30.0));
        let rest = det.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].kind, EdgeKind::Falling);
        assert_eq!(rest[0].duration_s, None);
    }

    #[test]
    fn duration_uses_80_percent_return_not_full_return() {
        // Rise 1->5 MW; falls back only to 1.8 MW +=> that is exactly the
        // 80 % return level (5 - 0.8*4 = 1.8), so duration must be set.
        let s = series(&[1e6, 5e6, 5e6, 1.8e6, 1.8e6]);
        let edges = detect_edges(&s, 2e6);
        let rise = edges.iter().find(|e| e.kind == EdgeKind::Rising).unwrap();
        // Start at index 0, 80 % return reached at index 3 => 30 s.
        assert_eq!(rise.duration_s, Some(30.0));
    }
}
