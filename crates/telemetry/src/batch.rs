//! Columnar (struct-of-arrays) tick-batch of telemetry frames.
//!
//! [`FrameBatch`] is the one form the engine emits telemetry in: one
//! tick worth of frames stored as one contiguous column per catalog
//! metric plus a node-id/timestamp index. The caller owns the batch and
//! the engine refills it in place every tick (the buffer is reset, never
//! reallocated, in steady state). The batch records which columns were
//! written since the last reset: a reset to the same row count refills
//! only those columns with NaN, and a row gather copies only up to the
//! highest of them. Consumers sweep a metric's [`FrameBatch::column`]
//! directly, or copy one row's values out with
//! [`FrameBatch::gather_row`] — the pipelines' node lanes do that once
//! per frame, straight into their delivery slab.
//! [`FrameBatch::read_frame`] wraps the same gather in a [`NodeFrame`].

use crate::catalog::{MetricId, METRIC_COUNT};
use crate::ids::NodeId;
use crate::records::NodeFrame;

/// The written-column mask is a `u128`, one bit per metric; this fails
/// to compile (the subtraction underflows) if the catalog outgrows it.
const _: usize = u128::BITS as usize - METRIC_COUNT;

/// One tick batch of frames in struct-of-arrays layout: a node/time
/// index plus a `values` buffer holding [`METRIC_COUNT`] columns, each
/// `stride` elements long (`values[m * stride + row]`).
///
/// ```
/// use summit_telemetry::batch::FrameBatch;
/// use summit_telemetry::{catalog, ids::NodeId};
/// let mut batch = FrameBatch::new();
/// batch.reset(2);
/// let r = batch.push_row(NodeId(7), 42.0);
/// batch.set(r, catalog::input_power(), 600.0);
/// assert_eq!(batch.len(), 1);
/// let frame = batch.read_frame(r);
/// assert_eq!(frame.node, NodeId(7));
/// assert_eq!(frame.get(catalog::input_power()), 600.0);
/// assert!(frame.get(catalog::cpu_power(summit_telemetry::ids::Socket::P0)).is_nan());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    /// Column stride: row capacity declared by the last `reset`.
    stride: usize,
    /// Rows filled so far (≤ `stride`).
    len: usize,
    nodes: Vec<NodeId>,
    t_sample: Vec<f64>,
    /// Column-major metric values, `METRIC_COUNT * stride` elements,
    /// NaN wherever nothing was written (NaN = missing sensor, as in
    /// [`NodeFrame`]).
    values: Vec<f32>,
    /// Columns written since the last reset: bit `m` is metric `m`.
    /// Every other column is NaN throughout.
    written: u128,
}

impl FrameBatch {
    /// Creates an empty batch; call [`FrameBatch::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch pre-sized for `rows` rows per tick.
    pub fn with_capacity(rows: usize) -> Self {
        let mut b = Self::default();
        b.reset(rows);
        b
    }

    /// Clears the batch and lays out columns for up to `rows` rows, all
    /// NaN. Keeps (and at most grows) the allocation: resetting to the
    /// same row count every tick touches no allocator after the first
    /// tick, and refills only the columns written since the last reset.
    pub fn reset(&mut self, rows: usize) {
        self.len = 0;
        self.nodes.clear();
        self.t_sample.clear();
        self.nodes.reserve(rows);
        self.t_sample.reserve(rows);
        if rows == self.stride {
            let written = self.written;
            for m in (0..METRIC_COUNT).filter(|&m| written >> m & 1 == 1) {
                let at = m * rows;
                self.values[at..at + rows].fill(f32::NAN);
            }
        } else {
            self.stride = rows;
            self.values.clear();
            self.values.resize(METRIC_COUNT * rows, f32::NAN);
        }
        self.written = 0;
    }

    /// Number of rows filled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row with every metric missing (NaN) and returns its
    /// index. Panics in debug builds if the declared capacity is full.
    pub fn push_row(&mut self, node: NodeId, t_sample: f64) -> usize {
        debug_assert!(self.len < self.stride, "FrameBatch capacity exhausted");
        let row = self.len;
        self.len += 1;
        self.nodes.push(node);
        self.t_sample.push(t_sample);
        row
    }

    /// Sets one metric of one row (mirrors [`NodeFrame::set`]).
    #[inline]
    pub fn set(&mut self, row: usize, metric: MetricId, value: f64) {
        let m = metric.index();
        self.values[m * self.stride + row] = crate::records::frame_value(value);
        self.written |= 1 << m;
    }

    /// Value of one metric of one row as f64 (NaN if missing).
    #[inline]
    pub fn get(&self, row: usize, metric: MetricId) -> f64 {
        f64::from(self.values[metric.index() * self.stride + row])
    }

    /// The node of a row.
    #[inline]
    pub fn node(&self, row: usize) -> NodeId {
        self.nodes[row]
    }

    /// The sample timestamp of a row.
    #[inline]
    pub fn t_sample(&self, row: usize) -> f64 {
        self.t_sample[row]
    }

    /// One metric's column over the filled rows — contiguous, unit
    /// stride, ready for a vectorized per-column sweep.
    pub fn column(&self, metric: MetricId) -> &[f32] {
        let at = metric.index() * self.stride;
        &self.values[at..at + self.len]
    }

    /// Copies one row's metric values into `dst`, bit for bit: the
    /// columns up to the highest one written since the last reset, then
    /// NaN for the rest. Exact, because a column nobody wrote is NaN
    /// throughout.
    pub fn gather_row(&self, row: usize, dst: &mut [f32; METRIC_COUNT]) {
        let span = (u128::BITS - self.written.leading_zeros()) as usize;
        let (copied, missing) = dst.split_at_mut(span);
        let column_values = self.values[row..].iter().step_by(self.stride);
        for (v, &x) in copied.iter_mut().zip(column_values) {
            *v = x;
        }
        missing.fill(f32::NAN);
    }

    /// Materializes one row as a [`NodeFrame`]: the row's node,
    /// timestamp and metric values, bit for bit (`t_ingest` starts at
    /// `t_sample`, as in [`NodeFrame::empty`]; the delivery layer stamps
    /// it later).
    pub fn read_frame(&self, row: usize) -> NodeFrame {
        let mut f = NodeFrame::empty(self.nodes[row], self.t_sample[row]);
        self.gather_row(row, &mut f.values);
        f
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::catalog;
    use crate::ids::{GpuSlot, Socket};

    #[test]
    fn round_trips_rows_bitwise() {
        let mut batch = FrameBatch::with_capacity(3);
        let mut reference = Vec::new();
        for i in 0..3u32 {
            let row = batch.push_row(NodeId(i), i as f64 * 0.5);
            let mut f = NodeFrame::empty(NodeId(i), i as f64 * 0.5);
            for (m, v) in [
                (catalog::input_power(), 600.0 + i as f64),
                (catalog::cpu_power(Socket::P1), 190.0),
                (catalog::gpu_core_temp(GpuSlot(4)), 33.25),
            ] {
                batch.set(row, m, v);
                f.set(m, v);
            }
            reference.push(f);
        }
        for (row, f) in reference.iter().enumerate() {
            let got = batch.read_frame(row);
            assert_eq!(got.node, f.node);
            assert_eq!(got.t_sample.to_bits(), f.t_sample.to_bits());
            assert_eq!(got.t_ingest.to_bits(), f.t_ingest.to_bits());
            for (a, b) in got.values.iter().zip(&f.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn columns_are_contiguous_per_metric() {
        let mut batch = FrameBatch::with_capacity(4);
        for i in 0..4u32 {
            let row = batch.push_row(NodeId(i), 0.0);
            batch.set(row, catalog::input_power(), 100.0 * (i + 1) as f64);
        }
        assert_eq!(
            batch.column(catalog::input_power()),
            &[100.0, 200.0, 300.0, 400.0]
        );
        // Untouched metrics are NaN across the column.
        assert!(batch
            .column(catalog::gpu_power(GpuSlot(0)))
            .iter()
            .all(|v| v.is_nan()));
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let mut batch = FrameBatch::with_capacity(8);
        for i in 0..8u32 {
            batch.push_row(NodeId(i), 1.0);
        }
        let ptr = batch.values.as_ptr();
        let cap = batch.values.capacity();
        batch.reset(8);
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.values.as_ptr(), ptr, "reset must not reallocate");
        assert_eq!(batch.values.capacity(), cap);
        // A partial fill exposes only the filled prefix per column.
        let row = batch.push_row(NodeId(0), 2.0);
        batch.set(row, catalog::input_power(), 7.0);
        assert_eq!(batch.column(catalog::input_power()), &[7.0]);
    }

    /// Resets `batch` to `rows` rows and writes every metric in
    /// `metrics` on every row, each cell a distinct value.
    fn fill(batch: &mut FrameBatch, rows: u32, metrics: &[u16], base: f64) {
        batch.reset(rows as usize);
        for i in 0..rows {
            let row = batch.push_row(NodeId(i), f64::from(i));
            for &m in metrics {
                batch.set(row, MetricId(m), base + f64::from(m) * 10.0 + f64::from(i));
            }
        }
    }

    fn all_nan(values: &[f32]) -> bool {
        values.iter().all(|v| v.is_nan())
    }

    #[test]
    fn a_same_shape_reset_clears_columns_written_on_an_earlier_tick() {
        let mut batch = FrameBatch::new();
        fill(&mut batch, 5, &[40], 1.0);
        assert!(batch.column(MetricId(40)).iter().all(|v| !v.is_nan()));
        let low: Vec<u16> = (0..25).collect();
        fill(&mut batch, 5, &low, 2.0);
        assert!(all_nan(batch.column(MetricId(40))));
        for row in 0..5 {
            let frame = batch.read_frame(row);
            assert!(frame.get(MetricId(40)).is_nan(), "row {row}");
            assert_eq!(frame.get(MetricId(24)), batch.get(row, MetricId(24)));
        }
    }

    #[test]
    fn a_batch_writing_only_the_last_column_gathers_it() {
        let mut batch = FrameBatch::new();
        let last = (METRIC_COUNT - 1) as u16;
        fill(&mut batch, 3, &[last], 9.0);
        let mut dst = [0.0f32; METRIC_COUNT];
        for row in 0..3 {
            batch.gather_row(row, &mut dst);
            let want = crate::records::frame_value(9.0 + f64::from(last) * 10.0 + row as f64);
            assert_eq!(dst[METRIC_COUNT - 1].to_bits(), want.to_bits());
            assert!(all_nan(&dst[..METRIC_COUNT - 1]), "row {row}");
        }
    }

    #[test]
    fn a_new_row_count_lays_the_buffer_out_again() {
        let mut batch = FrameBatch::new();
        fill(&mut batch, 4, &[0, 7], 1.0);
        batch.reset(6);
        assert_eq!(batch.values.len(), METRIC_COUNT * 6);
        assert!(all_nan(&batch.values));
        fill(&mut batch, 6, &[7], 3.0);
        let want: Vec<f32> = (0..6u32)
            .map(|i| crate::records::frame_value(73.0 + f64::from(i)))
            .collect();
        assert_eq!(batch.column(MetricId(7)), &want[..]);
        assert!(all_nan(batch.column(MetricId(0))));
    }

    #[test]
    fn a_column_never_written_stays_nan_across_resets() {
        let mut batch = FrameBatch::new();
        for (tick, metrics) in [&[0u16, 3, 50][..], &[105], &[], &[0, 49, 51]]
            .into_iter()
            .enumerate()
        {
            fill(&mut batch, 4, metrics, tick as f64);
            let at = 60 * batch.stride;
            assert!(all_nan(&batch.values[at..at + batch.stride]), "tick {tick}");
            for row in 0..4 {
                assert!(batch.read_frame(row).get(MetricId(60)).is_nan());
            }
        }
    }

    #[test]
    fn gather_row_equals_a_scan_of_every_column() {
        let mut batch = FrameBatch::new();
        let power: Vec<u16> = (0..11).collect();
        let engine: Vec<u16> = (0..25).collect();
        let ticks: [&[u16]; 5] = [&engine, &power, &[40, 105, 3], &[], &engine];
        let mut dst = [0.0f32; METRIC_COUNT];
        for (tick, metrics) in ticks.into_iter().enumerate() {
            fill(&mut batch, 7, metrics, 100.0 * tick as f64);
            for row in 0..batch.len() {
                batch.gather_row(row, &mut dst);
                for (m, v) in dst.iter().enumerate() {
                    assert_eq!(
                        f64::from(*v).to_bits(),
                        batch.get(row, MetricId(m as u16)).to_bits(),
                        "tick {tick} row {row} metric {m}"
                    );
                }
            }
        }
    }
}
