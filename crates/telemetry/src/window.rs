//! 10-second window coarsening (paper Section 3, Dataset 0).
//!
//! "We have coarsened the data to a 10-second window, but we have avoided
//! information loss by storing statistical information such as min., max.,
//! mean, and standard deviation values of the samples in each window per
//! time-series from each node."
//!
//! The coarsener is fault-tolerant by construction: the fan-in fabric it
//! sits behind delivers frames with up-to-5 s propagation delay, so
//! frames are buffered and re-ordered within the fixed lateness horizon
//! ([`LATENESS_HORIZON_S`]), duplicates are deduped, late or misrouted
//! frames are counted and dropped via a typed [`IngestError`] — never a
//! panic — and whole-window gaps emit the NaN-filled windows the cluster
//! aggregation already treats as missing (at most [`MAX_GAP_WINDOWS`]
//! per gap).
//!
//! The coarsener carries each frame as one row of the catalog's
//! [`METRIC_COUNT`] metrics: the reorder buffer holds those rows and
//! the Welford bank has one lane per metric.

use crate::batch::RowSlab;
use crate::catalog::METRIC_COUNT;
use crate::ids::NodeId;
use crate::ingest::{
    IngestError, IngestHealth, LATENESS_HORIZON_S, MAX_ABS_TIMESTAMP_S, MAX_GAP_WINDOWS,
};
use crate::records::NodeFrame;
use rayon::prelude::*;
use std::collections::VecDeque;
use summit_analysis::stats::{Welford, WelfordColumns, WindowStats};

/// The paper's coarsening window in seconds.
pub const PAPER_WINDOW_S: f64 = 10.0;

/// One coarsened window for one node: the `count/min/max/mean/std`
/// quintuple for every catalog metric.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWindow {
    /// Compute node identifier.
    pub node: NodeId,
    /// Window start (seconds since epoch, multiple of the window length).
    pub window_start: f64,
    /// Per-metric statistics in catalog order.
    pub stats: Vec<WindowStats>,
}

impl NodeWindow {
    /// Statistics for one metric.
    #[inline]
    pub fn metric(&self, id: crate::catalog::MetricId) -> &WindowStats {
        &self.stats[id.index()]
    }
}

/// Streaming coarsener for a single node's frame sequence, tolerant of
/// the delivery faults the stream layer models.
///
/// Frames may arrive out of `t_sample` order: anything within
/// [`LATENESS_HORIZON_S`] of the newest accepted sample is
/// buffered and re-ordered before it reaches a window; frames beyond the
/// horizon are counted in [`IngestHealth::late_dropped`] and dropped;
/// exact-timestamp duplicates are deduped. A window only closes once the
/// watermark has moved a full horizon past its end, so every in-horizon
/// frame lands in its correct window. Whole-window gaps emit NaN-filled
/// windows (count 0), at most [`MAX_GAP_WINDOWS`] per gap.
///
/// ```
/// use summit_telemetry::{catalog, ids::NodeId, records::NodeFrame};
/// use summit_telemetry::window::WindowAggregator;
/// let mut agg = WindowAggregator::paper(NodeId(0));
/// for i in 0..20 {
///     let t = (i ^ 1) as f64; // adjacent frames swapped in flight
///     let mut frame = NodeFrame::empty(NodeId(0), t);
///     frame.set(catalog::input_power(), 600.0 + t);
///     assert!(agg.push(&frame).is_ok());
/// }
/// let (windows, health) = agg.finish_with_health();
/// assert_eq!(windows.len(), 2);
/// assert_eq!(windows[0].metric(catalog::input_power()).count, 10);
/// assert_eq!(health.accepted, 20);
/// assert_eq!(health.reordered, 10); // every swapped-back frame
/// ```
#[derive(Debug)]
pub struct WindowAggregator {
    node: NodeId,
    window_s: f64,
    health: IngestHealth,
    /// Newest accepted sample timestamp.
    watermark: Option<f64>,
    /// Reorder buffer: sample time (ms grain) -> metric values. Holds at
    /// most one horizon plus one window of frames at 1 Hz.
    pending: PendingStore,
    current_start: Option<f64>,
    /// Start of the most recently closed window, for gap emission when
    /// the next frame opens a non-adjacent window.
    last_closed: Option<f64>,
    /// Open-window accumulator: a structure-of-arrays Welford bank that
    /// updates one lane per metric in one vectorizable pass per frame.
    /// Reset keeps the allocations, so the bank touches no allocator
    /// after its first window.
    acc: WelfordColumns,
    out: Vec<NodeWindow>,
}

/// Reorder-buffer storage. Value rows live in a [`RowSlab`], so the
/// buffer reaches a steady state with zero allocation per frame. The key
/// order lives in a sorted ring of `(key, slot)`: frames almost always
/// arrive in time order, so insertion is an O(1) `push_back` (binary
/// insertion for the rare out-of-order frame) and dedup lookup is a
/// binary search over contiguous memory — far cheaper than B-tree node
/// hops at reorder-buffer sizes.
#[derive(Debug, Default)]
struct PendingStore {
    order: VecDeque<(i64, u32)>,
    slab: RowSlab,
}

impl PendingStore {
    fn contains_key(&self, key: i64) -> bool {
        match self.order.back() {
            // In-order streams land past the newest buffered key, so the
            // common case never searches the ring.
            Some(&(back, _)) if key > back => false,
            Some(_) => self.order.binary_search_by_key(&key, |&(k, _)| k).is_ok(),
            None => false,
        }
    }

    /// Inserts a new entry. The caller has already rejected duplicate
    /// keys via [`PendingStore::contains_key`].
    fn insert(&mut self, key: i64, values: &[f32; METRIC_COUNT]) {
        let slot = self.slab.store(|row| *row = *values);
        match self.order.back() {
            Some(&(back, _)) if back < key => self.order.push_back((key, slot)),
            _ => {
                let pos = self.order.partition_point(|&(k, _)| k < key);
                self.order.insert(pos, (key, slot));
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// Sample timestamps are compared at millisecond grain for dedup and
/// ordering — far below the 1 Hz sample cadence. The key is exact for
/// every timestamp the aggregator admits (`|t| <` [`MAX_ABS_TIMESTAMP_S`]).
fn time_key(t: f64) -> i64 {
    (t * 1000.0).round() as i64
}

impl WindowAggregator {
    /// Creates a coarsener with the given window length (seconds). A
    /// non-finite or non-positive window length falls back to
    /// [`PAPER_WINDOW_S`].
    pub fn new(node: NodeId, window_s: f64) -> Self {
        debug_assert!(
            window_s.is_finite() && window_s > 0.0,
            "window length must be positive"
        );
        let window_s = if window_s.is_finite() && window_s > 0.0 {
            window_s
        } else {
            PAPER_WINDOW_S
        };
        Self {
            node,
            window_s,
            health: IngestHealth::default(),
            watermark: None,
            pending: PendingStore::default(),
            current_start: None,
            last_closed: None,
            acc: WelfordColumns::new(METRIC_COUNT),
            out: Vec::new(),
        }
    }

    /// Creates a coarsener with the paper's 10-second window.
    pub fn paper(node: NodeId) -> Self {
        Self::new(node, PAPER_WINDOW_S)
    }

    /// The node this aggregator coarsens.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Ingest-health counters accumulated so far.
    pub fn health(&self) -> IngestHealth {
        self.health
    }

    fn window_start_of(&self, t: f64) -> f64 {
        (t / self.window_s).floor() * self.window_s
    }

    /// Closes the current window with its lanes' statistics.
    fn flush_current(&mut self) {
        if let Some(start) = self.current_start.take() {
            let mut stats = Vec::with_capacity(METRIC_COUNT);
            self.acc.finish_reset_into(&mut stats);
            self.out.push(NodeWindow {
                node: self.node,
                window_start: start,
                stats,
            });
            self.last_closed = Some(start);
        }
    }

    /// Emits NaN-filled windows covering `(closed, next)` exclusive on
    /// both ends, truncated to [`MAX_GAP_WINDOWS`].
    fn emit_gap_windows(&mut self, closed: f64, next: f64) {
        let gaps = ((next - closed) / self.window_s).round() as i64 - 1;
        if gaps <= 0 {
            return;
        }
        let emit = (gaps as usize).min(MAX_GAP_WINDOWS);
        for k in 1..=emit as i64 {
            self.out.push(NodeWindow {
                node: self.node,
                window_start: closed + k as f64 * self.window_s,
                stats: vec![Welford::new().finish(); METRIC_COUNT],
            });
        }
        self.health.gap_windows += emit as u64;
    }

    /// Folds one buffered frame (already in time order) into the
    /// current window, closing windows and emitting gaps on crossings.
    fn accumulate(&mut self, t: f64, values: &[f32]) {
        let ws = self.window_start_of(t);
        if let Some(cur) = self.current_start {
            if ws > cur {
                self.flush_current();
            }
        }
        if self.current_start.is_none() {
            if let Some(last) = self.last_closed {
                self.emit_gap_windows(last, ws);
            }
            self.current_start = Some(ws);
        }
        // One vectorized pass over the lanes; missing sensors
        // (NaN) are masked out inside the bank.
        self.acc.push_row(values);
    }

    /// Folds buffered frames, oldest first, into the windows: every
    /// frame keyed before `cutoff`, or all of them without one.
    fn fold_pending(&mut self, cutoff: Option<i64>) {
        // Accumulate straight out of the reorder buffer: the store is
        // moved aside so its rows can be borrowed across the
        // `accumulate` call without a per-frame row copy. Nothing on
        // the accumulate path touches `self.pending`.
        let mut pending = std::mem::take(&mut self.pending);
        while let Some(&(k, slot)) = pending.order.front() {
            if cutoff.is_some_and(|cutoff| k >= cutoff) {
                break;
            }
            pending.order.pop_front();
            self.accumulate(k as f64 / 1000.0, pending.slab.row(slot));
            pending.slab.free(slot);
        }
        self.pending = pending;
    }

    /// Moves every buffered frame whose window is complete — its end is
    /// a full lateness horizon behind the watermark — into the output,
    /// and closes the current window once the watermark passes its end.
    fn flush_ready(&mut self) {
        let Some(wm) = self.watermark else { return };
        let cutoff_start = self.window_start_of(wm - LATENESS_HORIZON_S);
        self.fold_pending(Some(time_key(cutoff_start)));
        if let Some(cur) = self.current_start {
            // No frame at or before the cutoff can arrive any more, so a
            // current window entirely behind it is complete.
            if cutoff_start > cur {
                self.flush_current();
            }
        }
    }

    /// Offers one frame to the coarsener. Faulty frames (wrong node,
    /// beyond the lateness horizon, duplicate, non-finite timestamp or
    /// one at or past [`MAX_ABS_TIMESTAMP_S`]) are counted in
    /// [`WindowAggregator::health`] and reported as a typed
    /// [`IngestError`]; the aggregator never panics on input.
    pub fn push(&mut self, frame: &NodeFrame) -> Result<(), IngestError> {
        self.push_values(frame.node, frame.t_sample, &frame.values)
    }

    /// [`WindowAggregator::push`] for a frame given by its fields: the
    /// node, the sample time and the metric values.
    pub fn push_values(
        &mut self,
        node: NodeId,
        t_sample: f64,
        values: &[f32; METRIC_COUNT],
    ) -> Result<(), IngestError> {
        if node != self.node {
            self.health.wrong_node += 1;
            return Err(IngestError::WrongNode {
                expected: self.node,
                got: node,
            });
        }
        if !t_sample.is_finite() {
            self.health.invalid += 1;
            return Err(IngestError::NonFiniteTimestamp);
        }
        if t_sample.abs() >= MAX_ABS_TIMESTAMP_S {
            self.health.invalid += 1;
            return Err(IngestError::TimestampOutOfRange { t_sample });
        }
        let wm = self.watermark.unwrap_or(t_sample);
        if t_sample < wm - LATENESS_HORIZON_S {
            self.health.late_dropped += 1;
            return Err(IngestError::Late {
                t_sample,
                watermark: wm,
                horizon_s: LATENESS_HORIZON_S,
            });
        }
        let key = time_key(t_sample);
        if self.pending.contains_key(key) {
            self.health.duplicates += 1;
            return Err(IngestError::Duplicate { t_sample });
        }
        if t_sample < wm {
            self.health.reordered += 1;
        }
        self.pending.insert(key, values);
        self.health.accepted += 1;
        self.watermark = Some(wm.max(t_sample));
        self.flush_ready();
        Ok(())
    }

    /// Closes every remaining window (buffered frames included) and
    /// returns all coarsened windows.
    pub fn finish(self) -> Vec<NodeWindow> {
        self.finish_with_health().0
    }

    /// Like [`WindowAggregator::finish`], also returning the final
    /// ingest-health counters.
    pub fn finish_with_health(mut self) -> (Vec<NodeWindow>, IngestHealth) {
        self.fold_pending(None);
        self.flush_current();
        (self.out, self.health)
    }

    /// Drains completed windows without closing the current one
    /// (streaming consumption). A window completes once the watermark
    /// passes its end by the full lateness horizon.
    pub fn drain_completed(&mut self) -> Vec<NodeWindow> {
        std::mem::take(&mut self.out)
    }

    /// Number of frames currently resident in the reorder buffer. At a
    /// 1 Hz cadence this is bounded by one lateness horizon plus one
    /// window regardless of how long the stream runs — the quantity the
    /// streaming pipeline's bounded-memory assertion samples.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Incremental multi-node coarsener for the streaming pipeline.
///
/// One [`WindowAggregator`] per node slot, created lazily from the
/// first frame routed to that slot. Frames are offered in delivery
/// order as they arrive; completed windows are drained continuously via
/// [`StreamingCoarsener::drain_completed`], so resident state stays
/// bounded by the reorder buffers (one lateness horizon plus one open
/// window per node) independent of run length. Because each node's
/// frames pass through the identical `WindowAggregator` admission logic
/// in the identical per-node order, the concatenation of every drained
/// window with the [`StreamingCoarsener::finish_with_health`] tail is
/// bit-identical to the batch [`coarsen_parallel_with_health`] over the
/// same per-node sequences.
#[derive(Debug)]
pub struct StreamingCoarsener {
    window_s: f64,
    slots: Vec<Option<WindowAggregator>>,
}

impl StreamingCoarsener {
    /// Creates a coarsener with `slots` node slots (more are grown on
    /// demand).
    pub fn new(slots: usize, window_s: f64) -> Self {
        let mut v = Vec::new();
        v.resize_with(slots, || None);
        Self { window_s, slots: v }
    }

    /// Offers one frame to the given node slot, lazily creating that
    /// slot's aggregator keyed to the frame's node id. Fault outcomes
    /// are typed [`IngestError`]s, counted in the slot's health.
    pub fn push(&mut self, slot: usize, frame: &NodeFrame) -> Result<(), IngestError> {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let agg = self.slots[slot]
            .get_or_insert_with(|| WindowAggregator::new(frame.node, self.window_s));
        agg.push(frame)
    }

    /// Drains every window completed since the last drain, in slot
    /// order (each window carries its node id for routing).
    pub fn drain_completed(&mut self) -> Vec<NodeWindow> {
        let mut out = Vec::new();
        for slot in self.slots.iter_mut().flatten() {
            out.append(&mut slot.drain_completed());
        }
        out
    }

    /// Frames currently resident in the reorder buffers across all
    /// nodes — the streaming pipeline's peak-memory metric.
    pub fn resident_frames(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(WindowAggregator::pending_len)
            .sum()
    }

    /// Merged ingest-health counters accumulated so far (live view).
    pub fn health(&self) -> IngestHealth {
        let mut health = IngestHealth::default();
        for slot in self.slots.iter().flatten() {
            health.merge(&slot.health());
        }
        health
    }

    /// Closes every remaining window and returns the per-slot tail
    /// windows (those not yet drained) plus the merged health, merging
    /// per-slot health in slot order exactly like the batch path.
    pub fn finish_with_health(self) -> (Vec<Vec<NodeWindow>>, IngestHealth) {
        let mut windows = Vec::with_capacity(self.slots.len());
        let mut health = IngestHealth::default();
        for slot in self.slots {
            match slot {
                Some(agg) => {
                    let (w, h) = agg.finish_with_health();
                    health.merge(&h);
                    windows.push(w);
                }
                None => windows.push(Vec::new()),
            }
        }
        (windows, health)
    }
}

/// Coarsens per-node frame batches in parallel: `frames_by_node[i]` is
/// one node's frame sequence (any delivery order the fault model allows).
/// Returns the coarsened windows per node (same outer order) and the
/// merged ingest-health counters across all nodes.
pub fn coarsen_parallel_with_health(
    frames_by_node: &[Vec<NodeFrame>],
    window_s: f64,
) -> (Vec<Vec<NodeWindow>>, IngestHealth) {
    let _obs = summit_obs::span("summit_telemetry_coarsen");
    // Fold each worker chunk into (windows, health) directly and merge
    // the per-chunk accumulators in chunk order: no barrier collect of
    // per-node pairs, and — since IngestHealth is integer counters —
    // a merge tree that is exactly the sequential one.
    let (windows, health): (Vec<Vec<NodeWindow>>, IngestHealth) = frames_by_node
        .par_iter()
        .map(|frames| {
            let Some(first) = frames.first() else {
                return (Vec::new(), IngestHealth::default());
            };
            let mut agg = WindowAggregator::new(first.node, window_s);
            for f in frames {
                let _ = agg.push(f); // faults are counted in health
            }
            agg.finish_with_health()
        })
        .fold(
            || (Vec::new(), IngestHealth::default()),
            |(mut windows, mut health), (w, h)| {
                health.merge(&h);
                windows.push(w);
                (windows, health)
            },
        )
        .reduce(
            || (Vec::new(), IngestHealth::default()),
            |(mut windows, mut health), (chunk_windows, chunk_health)| {
                health.merge(&chunk_health);
                windows.extend(chunk_windows);
                (windows, health)
            },
        );
    let emitted: usize = windows.iter().map(Vec::len).sum();
    summit_obs::counter("summit_telemetry_windows_total").inc_by(emitted as u64);
    summit_obs::counter("summit_telemetry_frames_accepted_total").inc_by(health.accepted);
    summit_obs::counter("summit_telemetry_frames_dropped_total").inc_by(health.dropped());
    (windows, health)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::catalog;

    fn frame(node: u32, t: f64, power: f64) -> NodeFrame {
        let mut f = NodeFrame::empty(NodeId(node), t);
        f.set(catalog::input_power(), power);
        f
    }

    #[test]
    fn ten_second_windows_close_correctly() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        for i in 0..25 {
            agg.push(&frame(0, i as f64, 100.0 + i as f64)).unwrap();
        }
        let windows = agg.finish();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].window_start, 0.0);
        assert_eq!(windows[1].window_start, 10.0);
        assert_eq!(windows[2].window_start, 20.0);

        let w0 = windows[0].metric(catalog::input_power());
        assert_eq!(w0.count, 10);
        assert_eq!(w0.min, 100.0);
        assert_eq!(w0.max, 109.0);
        assert!((w0.mean - 104.5).abs() < 1e-9);

        let w2 = windows[2].metric(catalog::input_power());
        assert_eq!(w2.count, 5);
    }

    #[test]
    fn missing_metrics_have_zero_count() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 0.0, 500.0)).unwrap();
        let windows = agg.finish();
        let gpu = windows[0].metric(catalog::gpu_power(crate::ids::GpuSlot(0)));
        assert_eq!(gpu.count, 0);
        assert!(gpu.mean.is_nan());
    }

    #[test]
    fn window_gaps_emit_nan_windows() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 5.0, 1.0)).unwrap();
        agg.push(&frame(0, 95.0, 2.0)).unwrap(); // 80-second gap
        let (windows, health) = agg.finish_with_health();
        assert_eq!(windows.len(), 10, "0..90 inclusive at 10 s");
        assert_eq!(windows[0].window_start, 0.0);
        assert_eq!(windows[9].window_start, 90.0);
        assert_eq!(health.gap_windows, 8);
        for w in &windows[1..9] {
            let s = w.metric(catalog::input_power());
            assert_eq!(s.count, 0, "gap window must be empty");
            assert!(s.mean.is_nan());
        }
    }

    #[test]
    fn pathological_gap_is_capped() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 0.0, 1.0)).unwrap();
        agg.push(&frame(0, 1.0e9, 2.0)).unwrap();
        let (windows, health) = agg.finish_with_health();
        assert_eq!(
            windows.len(),
            MAX_GAP_WINDOWS + 2,
            "two data windows + capped gap"
        );
        assert_eq!(health.gap_windows, MAX_GAP_WINDOWS as u64);
    }

    #[test]
    fn out_of_order_within_horizon_is_reordered() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 3.0, 30.0)).unwrap();
        agg.push(&frame(0, 0.0, 10.0)).unwrap(); // 3 s late: buffered
        agg.push(&frame(0, 1.0, 20.0)).unwrap();
        let (windows, health) = agg.finish_with_health();
        assert_eq!(windows.len(), 1);
        let s = windows[0].metric(catalog::input_power());
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        assert_eq!(health.reordered, 2);
        assert_eq!(health.accepted, 3);
    }

    #[test]
    fn beyond_horizon_is_counted_and_dropped() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 50.0, 1.0)).unwrap();
        let err = agg.push(&frame(0, 10.0, 1.0)).unwrap_err();
        assert!(matches!(err, IngestError::Late { .. }));
        let (windows, health) = agg.finish_with_health();
        assert_eq!(health.late_dropped, 1);
        assert_eq!(health.accepted, 1);
        assert_eq!(windows.len(), 1, "late frame contributes nothing");
        assert_eq!(windows[0].window_start, 50.0);
    }

    #[test]
    fn frame_exactly_at_horizon_is_accepted() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 10.0, 1.0)).unwrap();
        // Exactly watermark - horizon: the boundary is inclusive.
        agg.push(&frame(0, 5.0, 2.0)).unwrap();
        let (_, health) = agg.finish_with_health();
        assert_eq!(health.accepted, 2);
        assert_eq!(health.late_dropped, 0);
        assert_eq!(health.reordered, 1);
    }

    #[test]
    fn duplicates_are_deduped() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        agg.push(&frame(0, 4.0, 100.0)).unwrap();
        let err = agg.push(&frame(0, 4.0, 999.0)).unwrap_err();
        assert!(matches!(err, IngestError::Duplicate { .. }));
        let (windows, health) = agg.finish_with_health();
        assert_eq!(health.duplicates, 1);
        assert_eq!(health.accepted, 1);
        let s = windows[0].metric(catalog::input_power());
        assert_eq!(s.count, 1, "first copy wins");
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn duplicate_timestamp_on_window_boundary() {
        // Satellite edge case: t = 10.0 sits exactly on a 10 s boundary;
        // the duplicate must dedup, not double-count into either window.
        let mut agg = WindowAggregator::paper(NodeId(0));
        for t in [8.0, 9.0, 10.0] {
            agg.push(&frame(0, t, t)).unwrap();
        }
        assert!(agg.push(&frame(0, 10.0, 999.0)).is_err());
        let (windows, health) = agg.finish_with_health();
        assert_eq!(health.duplicates, 1);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].metric(catalog::input_power()).count, 2);
        let w1 = windows[1].metric(catalog::input_power());
        assert_eq!(w1.count, 1);
        assert_eq!(w1.max, 10.0);
    }

    #[test]
    fn wrong_node_is_counted_and_dropped() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        let err = agg.push(&frame(1, 0.0, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            IngestError::WrongNode {
                expected: NodeId(0),
                got: NodeId(1)
            }
        ));
        let (windows, health) = agg.finish_with_health();
        assert!(windows.is_empty());
        assert_eq!(health.wrong_node, 1);
        assert_eq!(health.accepted, 0);
    }

    #[test]
    fn negative_timestamps_coarsen_fine() {
        // Satellite edge case: t_sample < 0 must floor into negative
        // window starts, not panic or alias onto window 0.
        let mut agg = WindowAggregator::paper(NodeId(0));
        for t in [-15.0, -12.0, -5.0, -1.0] {
            agg.push(&frame(0, t, 1.0)).unwrap();
        }
        let windows = agg.finish();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].window_start, -20.0);
        assert_eq!(windows[1].window_start, -10.0);
        assert_eq!(windows[1].metric(catalog::input_power()).count, 2);
    }

    #[test]
    fn non_finite_timestamp_rejected() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        assert!(matches!(
            agg.push(&frame(0, f64::NAN, 1.0)),
            Err(IngestError::NonFiniteTimestamp)
        ));
        assert!(agg.push(&frame(0, f64::INFINITY, 1.0)).is_err());
        // Past the millisecond key's exact range: 1e16 + 2 s and
        // 1e16 + 4 s would key as duplicates of 1e16 s.
        for t in [1e16, 1e16 + 2.0, 1e16 + 4.0, -1e16, MAX_ABS_TIMESTAMP_S] {
            assert_eq!(
                agg.push(&frame(0, t, 1.0)),
                Err(IngestError::TimestampOutOfRange { t_sample: t })
            );
        }
        let (windows, health) = agg.finish_with_health();
        assert!(windows.is_empty());
        assert_eq!(health.invalid, 7);
        assert_eq!(health.duplicates, 0);
    }

    #[test]
    fn all_nan_outage_frames_flow_to_cluster_series() {
        // Satellite edge case: a dark cabinet emits all-NaN frames; they
        // must flow through coarsening and cluster_power_series without
        // panicking and register as missing.
        let mut agg = WindowAggregator::paper(NodeId(0));
        for t in 0..30 {
            agg.push(&NodeFrame::empty(NodeId(0), t as f64)).unwrap();
        }
        let windows = agg.finish();
        assert_eq!(windows.len(), 3);
        for w in &windows {
            assert_eq!(w.metric(catalog::input_power()).count, 0);
        }
        let rows = crate::cluster::cluster_power(std::slice::from_ref(&windows));
        assert!(rows.is_empty(), "no reporting node, no cluster rows");
        assert!(crate::cluster::cluster_power_series(&rows, PAPER_WINDOW_S).is_none());
    }

    #[test]
    fn drain_supports_streaming() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        for i in 0..21 {
            agg.push(&frame(0, i as f64, 1.0)).unwrap();
        }
        // Watermark 20; the horizon (5 s) has passed window [0, 10).
        let drained = agg.drain_completed();
        assert_eq!(drained.len(), 1);
        let rest = agg.finish();
        assert_eq!(rest.len(), 2); // [10, 20) and the trailing [20, 30)
    }

    #[test]
    fn parallel_matches_sequential() {
        let mk_frames = |node: u32| -> Vec<NodeFrame> {
            (0..100)
                .map(|i| frame(node, i as f64, (node * 100 + i) as f64))
                .collect()
        };
        let batches: Vec<Vec<NodeFrame>> = (0..8).map(mk_frames).collect();
        let par = coarsen_parallel_with_health(&batches, 10.0).0;
        let nan_eq = |a: f64, b: f64| (a.is_nan() && b.is_nan()) || a == b;
        for (node, frames) in batches.iter().enumerate() {
            let mut agg = WindowAggregator::new(NodeId(node as u32), 10.0);
            for f in frames {
                agg.push(f).unwrap();
            }
            let seq = agg.finish();
            assert_eq!(par[node].len(), seq.len());
            for (p, s) in par[node].iter().zip(&seq) {
                assert_eq!(p.window_start, s.window_start);
                for (ps, ss) in p.stats.iter().zip(&s.stats) {
                    assert_eq!(ps.count, ss.count);
                    assert!(nan_eq(ps.mean, ss.mean));
                    assert!(nan_eq(ps.min, ss.min));
                    assert!(nan_eq(ps.max, ss.max));
                }
            }
        }
    }

    #[test]
    fn parallel_health_merges_across_nodes() {
        let mut batches: Vec<Vec<NodeFrame>> = vec![
            (0..20).map(|i| frame(0, i as f64, 1.0)).collect(),
            (0..20).map(|i| frame(1, i as f64, 1.0)).collect(),
        ];
        batches[0].push(frame(0, 17.0, 9.0)); // in-horizon duplicate
        batches[1].push(frame(0, 3.0, 9.0)); // wrong node in batch 1
        let (windows, health) = coarsen_parallel_with_health(&batches, 10.0);
        assert_eq!(windows.len(), 2);
        assert_eq!(health.accepted, 40);
        assert_eq!(health.duplicates, 1);
        assert_eq!(health.wrong_node, 1);
    }

    #[test]
    fn streaming_coarsener_matches_batch_bitwise_with_bounded_residency() {
        // Interleave 4 nodes' frames tick by tick (the streaming arrival
        // shape); drained + tail windows must equal the batch coarsener
        // on the same per-node sequences to the bit, and the reorder
        // buffers must never hold more than horizon + window per node.
        let nodes = 4u32;
        let seconds = 120usize;
        let batches: Vec<Vec<NodeFrame>> = (0..nodes)
            .map(|n| {
                (0..seconds)
                    .map(|i| frame(n, i as f64, (n as usize * 1000 + i) as f64))
                    .collect()
            })
            .collect();
        let (batch_windows, batch_health) = coarsen_parallel_with_health(&batches, 10.0);

        let mut sc = StreamingCoarsener::new(nodes as usize, 10.0);
        let mut drained: Vec<Vec<NodeWindow>> = vec![Vec::new(); nodes as usize];
        let mut peak_resident = 0usize;
        for i in 0..seconds {
            for (n, node_frames) in batches.iter().enumerate() {
                sc.push(n, &node_frames[i]).unwrap();
            }
            peak_resident = peak_resident.max(sc.resident_frames());
            for w in sc.drain_completed() {
                drained[w.node.index()].push(w);
            }
        }
        let (tail, stream_health) = sc.finish_with_health();
        for (n, t) in tail.into_iter().enumerate() {
            drained[n].extend(t);
        }

        assert_eq!(stream_health, batch_health);
        assert!(
            peak_resident <= nodes as usize * 16,
            "reorder residency must stay bounded, got {peak_resident}"
        );
        assert_eq!(drained.len(), batch_windows.len());
        for (s, b) in drained.iter().zip(&batch_windows) {
            assert_eq!(s.len(), b.len());
            for (sw, bw) in s.iter().zip(b) {
                assert_eq!(sw.node, bw.node);
                assert_eq!(sw.window_start.to_bits(), bw.window_start.to_bits());
                for (ss, bs) in sw.stats.iter().zip(&bw.stats) {
                    assert_eq!(ss.count, bs.count);
                    assert_eq!(ss.mean.to_bits(), bs.mean.to_bits());
                    assert_eq!(ss.min.to_bits(), bs.min.to_bits());
                    assert_eq!(ss.max.to_bits(), bs.max.to_bits());
                    assert_eq!(ss.std.to_bits(), bs.std.to_bits());
                }
            }
        }
    }

    #[test]
    fn streaming_coarsener_grows_slots_and_reports_empty_tail() {
        let mut sc = StreamingCoarsener::new(1, 10.0);
        sc.push(3, &frame(3, 0.0, 1.0)).unwrap();
        assert_eq!(sc.health().accepted, 1);
        let (windows, health) = sc.finish_with_health();
        assert_eq!(windows.len(), 4);
        assert!(windows[0].is_empty() && windows[1].is_empty() && windows[2].is_empty());
        assert_eq!(windows[3].len(), 1);
        assert_eq!(health.accepted, 1);
    }

    fn assert_windows_bitwise_eq(a: &[Vec<NodeWindow>], b: &[Vec<NodeWindow>]) {
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.iter().zip(b) {
            assert_eq!(wa.len(), wb.len());
            for (x, y) in wa.iter().zip(wb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.window_start.to_bits(), y.window_start.to_bits());
                assert_eq!(x.stats.len(), y.stats.len());
                for (sx, sy) in x.stats.iter().zip(&y.stats) {
                    assert_eq!(sx.count, sy.count);
                    assert_eq!(sx.mean.to_bits(), sy.mean.to_bits());
                    assert_eq!(sx.min.to_bits(), sy.min.to_bits());
                    assert_eq!(sx.max.to_bits(), sy.max.to_bits());
                    assert_eq!(sx.std.to_bits(), sy.std.to_bits());
                }
            }
        }
    }

    /// Adversarial per-node sequences: mixed magnitudes, missing
    /// sensors (NaN), reordering, duplicates, late frames and gaps.
    fn adversarial_batches(nodes: u32) -> Vec<Vec<NodeFrame>> {
        (0..nodes)
            .map(|n| {
                let mut frames: Vec<NodeFrame> = (0..90)
                    .map(|i| {
                        let mut f = frame(n, i as f64, (n as usize * 977 + i * 31) as f64 * 0.37);
                        if i % 7 == 0 {
                            f.set(catalog::input_power(), f64::NAN); // dark sensor
                        }
                        f.set(
                            catalog::cpu_power(crate::ids::Socket::P0),
                            ((i * 13) % 29) as f64 * 1e6,
                        );
                        // Twelve orders of magnitude within one window.
                        f.set(
                            catalog::gpu_power(crate::ids::GpuSlot(0)),
                            ((i * 7919) % 1000) as f64 * 10f64.powi((i % 13) as i32 - 6),
                        );
                        f
                    })
                    .collect();
                // Swap adjacent frames (in-horizon reorder), inject a
                // duplicate and a beyond-horizon straggler.
                for i in (0..frames.len() - 1).step_by(5) {
                    frames.swap(i, i + 1);
                }
                frames.push(frame(n, 42.0, 1.0)); // duplicate of t=42
                frames.push(frame(n, 3.0, 1.0)); // far beyond horizon: dropped
                frames
            })
            .collect()
    }

    /// Scalar reference for the columnar coarsener: each node's admitted
    /// frames sorted by sample time, grouped into `floor(t/10)*10`
    /// windows and folded metric by metric with [`Welford::push`]. The
    /// inputs it serves are gap-free, so it emits no gap windows.
    fn scalar_oracle(admitted: &[&[NodeFrame]]) -> Vec<Vec<NodeWindow>> {
        admitted
            .iter()
            .map(|frames| {
                let mut sorted = frames.to_vec();
                sorted.sort_by(|a, b| a.t_sample.total_cmp(&b.t_sample));
                let mut windows: std::collections::BTreeMap<i64, Vec<Welford>> =
                    std::collections::BTreeMap::new();
                for f in &sorted {
                    let k = (f.t_sample / PAPER_WINDOW_S).floor() as i64;
                    let acc = windows
                        .entry(k)
                        .or_insert_with(|| vec![Welford::new(); METRIC_COUNT]);
                    for (w, &v) in acc.iter_mut().zip(&f.values) {
                        w.push(f64::from(v));
                    }
                }
                windows
                    .into_iter()
                    .map(|(k, acc)| NodeWindow {
                        node: sorted[0].node,
                        window_start: k as f64 * PAPER_WINDOW_S,
                        stats: acc.iter().map(Welford::finish).collect(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The oracle over [`adversarial_batches`] minus each node's two
    /// trailing faulty frames, plus the health every node must report:
    /// with the 5 s horizon and the watermark at 89 s, both trailing
    /// frames are late (the `t=42` copy fails the lateness check before
    /// dedup ever sees it).
    fn adversarial_reference(batches: &[Vec<NodeFrame>]) -> (Vec<Vec<NodeWindow>>, u64, u64) {
        let admitted: Vec<&[NodeFrame]> = batches.iter().map(|b| &b[..90]).collect();
        let nodes = batches.len() as u64;
        (scalar_oracle(&admitted), 90 * nodes, 2 * nodes)
    }

    #[test]
    fn batch_coarsening_matches_scalar_oracle_bitwise() {
        let batches = adversarial_batches(5);
        let (oracle, accepted, late) = adversarial_reference(&batches);
        let (windows, health) = coarsen_parallel_with_health(&batches, PAPER_WINDOW_S);
        assert_eq!(health.accepted, accepted);
        assert_eq!(health.late_dropped, late);
        assert_eq!(health.duplicates, 0);
        assert_windows_bitwise_eq(&oracle, &windows);
    }

    #[test]
    fn streaming_coarsening_matches_scalar_oracle_bitwise() {
        let batches = adversarial_batches(3);
        let (oracle, accepted, late) = adversarial_reference(&batches);
        let mut sc = StreamingCoarsener::new(3, PAPER_WINDOW_S);
        let mut drained: Vec<Vec<NodeWindow>> = vec![Vec::new(); 3];
        for i in 0..batches[0].len() {
            for (n, node_frames) in batches.iter().enumerate() {
                let _ = sc.push(n, &node_frames[i]);
            }
            for w in sc.drain_completed() {
                drained[w.node.index()].push(w);
            }
        }
        let (tail, health) = sc.finish_with_health();
        for (n, t) in tail.into_iter().enumerate() {
            drained[n].extend(t);
        }
        assert_eq!(health.accepted, accepted);
        assert_eq!(health.late_dropped, late);
        assert_eq!(health.duplicates, 0);
        assert_windows_bitwise_eq(&oracle, &drained);
    }

    #[test]
    fn slab_reorder_buffer_recycles_rows() {
        // After the first horizon fills, the slab must stop growing:
        // freed rows are recycled instead of re-allocated.
        let mut agg = WindowAggregator::paper(NodeId(0));
        for i in 0..200 {
            agg.push(&frame(0, i as f64, i as f64)).unwrap();
        }
        let rows = agg.pending.slab.len();
        assert!(
            rows <= 32,
            "slab rows must stay bounded by horizon + window, got {rows}"
        );
    }

    #[test]
    fn closed_and_gap_windows_report_every_metric() {
        // Every window holds one record per catalog metric; a gap
        // window's are what a Welford fed nothing reports: count 0, NaN
        // min/max/mean and std 0, not `WindowStats::empty()`'s NaN std.
        let mut agg = WindowAggregator::paper(NodeId(0));
        for t in [0.0, 1.0, 2.0, 35.0] {
            agg.push(&frame(0, t, 100.0 + t)).unwrap();
        }
        let (windows, health) = agg.finish_with_health();
        assert_eq!(windows.len(), 4);
        assert_eq!(health.gap_windows, 2);
        let empty = Welford::new().finish();
        for w in &windows {
            assert_eq!(w.stats.len(), METRIC_COUNT);
        }
        for w in &windows[1..3] {
            for s in &w.stats {
                assert_eq!(s.count, 0);
                assert!(s.min.is_nan() && s.max.is_nan() && s.mean.is_nan());
                assert_eq!(s.std.to_bits(), 0.0f64.to_bits());
                assert_eq!(s.std.to_bits(), empty.std.to_bits());
            }
        }
        assert_eq!(windows[0].metric(catalog::input_power()).count, 3);
    }

    #[test]
    fn std_matches_two_pass_within_window() {
        let mut agg = WindowAggregator::paper(NodeId(0));
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for (i, &v) in vals.iter().enumerate() {
            agg.push(&frame(0, i as f64, v)).unwrap();
        }
        let windows = agg.finish();
        let s = windows[0].metric(catalog::input_power());
        let expect = (32.0f64 / 7.0).sqrt();
        assert!((s.std - expect).abs() < 1e-6);
    }
}
