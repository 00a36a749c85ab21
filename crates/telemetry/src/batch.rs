//! Columnar (struct-of-arrays) tick-batch of telemetry frames.
//!
//! [`FrameBatch`] is the one form the engine emits telemetry in: one
//! tick worth of frames stored as one contiguous column per catalog
//! metric plus a node-id/timestamp index. The caller owns the batch and
//! the engine refills it in place every tick (the buffer is reset, never
//! reallocated, in steady state). Consumers sweep a metric's
//! [`FrameBatch::column`] directly, or materialize one row as a
//! [`NodeFrame`] with [`FrameBatch::read_frame`], as the pipelines'
//! node lanes do for every frame they deliver.

use crate::catalog::{MetricId, METRIC_COUNT};
use crate::ids::NodeId;
use crate::records::NodeFrame;

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
    /// NaN-filled on reset (NaN = missing sensor, as in [`NodeFrame`]).
    values: Vec<f32>,
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

    /// Clears the batch and lays out columns for up to `rows` rows.
    /// Keeps (and at most grows) the allocation: resetting to the same
    /// row count every tick touches no allocator after the first tick.
    pub fn reset(&mut self, rows: usize) {
        self.stride = rows;
        self.len = 0;
        self.nodes.clear();
        self.t_sample.clear();
        self.nodes.reserve(rows);
        self.t_sample.reserve(rows);
        self.values.clear();
        self.values.resize(METRIC_COUNT * rows, f32::NAN);
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
        self.values[metric.index() * self.stride + row] = crate::records::frame_value(value);
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

    /// Materializes one row as a [`NodeFrame`]: the row's node,
    /// timestamp and metric values, bit for bit (`t_ingest` starts at
    /// `t_sample`, as in [`NodeFrame::empty`]; the delivery layer stamps
    /// it later).
    pub fn read_frame(&self, row: usize) -> NodeFrame {
        let mut f = NodeFrame::empty(self.nodes[row], self.t_sample[row]);
        for (m, v) in f.values.iter_mut().enumerate() {
            *v = self.values[m * self.stride + row];
        }
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
}
