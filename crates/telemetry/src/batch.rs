//! Row-major tick batch of telemetry frames, and the row slab the
//! node lanes hold frames in.
//!
//! [`FrameBatch`] is the one form the engine emits telemetry in: one
//! tick worth of frames, each one contiguous row of the catalog's
//! metrics (`[f32; METRIC_COUNT]`) plus its node and sample time.
//!
//! The caller owns the batch and the engine lays it out again every
//! tick ([`FrameBatch::lay_out`]) and overwrites every row in place
//! ([`FrameBatch::rows_mut`]), so a batch reused from tick to tick
//! touches no allocator after the first. The pipelines' node lanes copy
//! row `i` ([`FrameBatch::row`]) straight into node `i`'s delivery slab.
//!
//! A node lane's in-flight rows — in the fabric's reorder heap and in
//! the coarsener's reorder buffer — live in a [`RowSlab`] each: rows
//! addressed by slot and recycled through a free list, so only a slot
//! number moves with a frame's key.

use crate::catalog::METRIC_COUNT;
use crate::ids::NodeId;
use crate::records::NodeFrame;

/// One tick batch of frames, row-major: row `i` is the frame of node
/// `node(i)` sampled at `t_sample(i)`, its metrics in catalog order
/// (NaN = missing sensor, as in [`NodeFrame`]).
///
/// ```
/// use summit_telemetry::batch::FrameBatch;
/// use summit_telemetry::{catalog, ids::NodeId, ids::Socket};
/// let mut batch = FrameBatch::new();
/// batch.lay_out(2, 42.0);
/// batch.rows_mut()[1][catalog::input_power().index()] = 600.0;
/// assert_eq!(batch.len(), 2);
/// let frame = batch.read_frame(1);
/// assert_eq!(frame.node, NodeId(1));
/// assert_eq!(frame.t_sample, 42.0);
/// assert_eq!(frame.get(catalog::input_power()), 600.0);
/// assert!(frame.get(catalog::cpu_power(Socket::P0)).is_nan());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    nodes: Vec<NodeId>,
    t_sample: Vec<f64>,
    rows: Vec<[f32; METRIC_COUNT]>,
}

impl FrameBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `rows` rows per tick.
    pub fn with_capacity(rows: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(rows),
            t_sample: Vec::with_capacity(rows),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Empties the batch, keeping its allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.t_sample.clear();
        self.rows.clear();
    }

    /// Lays the batch out as one tick of a floor of `nodes` nodes: row
    /// `i` is node `i`, sampled at `t`. The rows keep whatever values
    /// they held (rows new to the batch start all-NaN); the writer
    /// overwrites each one through [`FrameBatch::rows_mut`]. Keeps (and
    /// at most grows) the allocation.
    pub fn lay_out(&mut self, nodes: usize, t: f64) {
        self.nodes.clear();
        let ids = (0..nodes).map(|i| NodeId(crate::convert::count_u32(i as u64)));
        self.nodes.extend(ids);
        self.t_sample.clear();
        self.t_sample.resize(nodes, t);
        self.rows.resize(nodes, [f32::NAN; METRIC_COUNT]);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

    /// One row's metric values, in catalog order.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32; METRIC_COUNT] {
        &self.rows[row]
    }

    /// Every row's metric values, for the writer to fill in place.
    pub fn rows_mut(&mut self) -> &mut [[f32; METRIC_COUNT]] {
        &mut self.rows
    }

    /// Materializes one row as a [`NodeFrame`]: the row's node,
    /// timestamp and metric values bit for bit (`t_ingest` starts at
    /// `t_sample`; the delivery layer stamps it later).
    pub fn read_frame(&self, row: usize) -> NodeFrame {
        NodeFrame::from_row(self.nodes[row], self.t_sample[row], &self.rows[row])
    }
}

/// Metric rows addressed by slot: a freed slot is refilled before the
/// slab grows, so a slab holds as many rows as were ever in flight at
/// once and touches no allocator in its steady state.
#[derive(Debug, Default)]
pub(crate) struct RowSlab {
    rows: Vec<[f32; METRIC_COUNT]>,
    free: Vec<u32>,
}

impl RowSlab {
    /// Fills a free slot, or a new one when none is free, with `fill`
    /// and returns it.
    pub(crate) fn store(&mut self, fill: impl FnOnce(&mut [f32; METRIC_COUNT])) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.rows.push([f32::NAN; METRIC_COUNT]);
            crate::convert::count_u32(self.rows.len() as u64 - 1)
        });
        fill(&mut self.rows[slot as usize]);
        slot
    }

    /// The row in `slot`. Panics if `slot` was never handed out.
    #[inline]
    pub(crate) fn row(&self, slot: u32) -> &[f32; METRIC_COUNT] {
        &self.rows[slot as usize]
    }

    /// Returns `slot` for reuse; call it once per stored row, after its
    /// last [`RowSlab::row`] read.
    pub(crate) fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Rows allocated, free or in use.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::catalog;
    use crate::ids::{GpuSlot, Socket};

    /// Lays `batch` out as `rows` nodes at time `t` and writes every
    /// row, each cell a distinct value.
    fn fill(batch: &mut FrameBatch, rows: usize, t: f64) {
        batch.lay_out(rows, t);
        for (i, row) in batch.rows_mut().iter_mut().enumerate() {
            for (m, v) in row.iter_mut().enumerate() {
                *v = crate::records::frame_value(t * 1000.0 + (i * METRIC_COUNT + m) as f64);
            }
        }
    }

    #[test]
    fn round_trips_rows_bitwise() {
        let mut batch = FrameBatch::with_capacity(3);
        batch.lay_out(3, 0.5);
        let mut reference = Vec::new();
        for (i, row) in batch.rows_mut().iter_mut().enumerate() {
            let mut f = NodeFrame::empty(NodeId(i as u32), 0.5);
            for (m, v) in [
                (catalog::input_power(), 600.0 + i as f64),
                (catalog::cpu_power(Socket::P1), 190.0),
                (catalog::gpu_core_temp(GpuSlot(4)), 33.25),
            ] {
                row[m.index()] = crate::records::frame_value(v);
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
    fn rows_are_indexed_by_node_at_the_tick_time() {
        let mut batch = FrameBatch::new();
        fill(&mut batch, 5, 7.0);
        assert_eq!(batch.len(), 5);
        for i in 0..5 {
            assert_eq!(batch.node(i), NodeId(i as u32));
            assert_eq!(batch.t_sample(i).to_bits(), 7.0f64.to_bits());
            let want = crate::records::frame_value(7000.0 + (i * METRIC_COUNT) as f64);
            assert_eq!(batch.row(i)[0].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn read_frame_is_the_row_bit_for_bit() {
        let mut batch = FrameBatch::new();
        fill(&mut batch, 4, 2.0);
        for i in 0..4 {
            let frame = batch.read_frame(i);
            for (a, b) in frame.values.iter().zip(batch.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn lay_out_reuses_the_allocation_and_keeps_row_values() {
        let mut batch = FrameBatch::with_capacity(8);
        fill(&mut batch, 8, 1.0);
        let ptr = batch.rows.as_ptr();
        let cap = batch.rows.capacity();
        let before = batch.rows.clone();
        batch.lay_out(8, 2.0);
        assert_eq!(batch.rows.as_ptr(), ptr, "lay_out must not reallocate");
        assert_eq!(batch.rows.capacity(), cap);
        // The writer overwrites every row, so nothing refills them.
        assert_eq!(batch.rows, before);
        assert!((0..8).all(|i| batch.t_sample(i) == 2.0));
        // A larger floor grows the batch with all-NaN rows.
        batch.lay_out(10, 3.0);
        assert_eq!(batch.len(), 10);
        assert!(batch.row(9).iter().all(|v| v.is_nan()));
        assert_eq!(batch.node(9), NodeId(9));
        // A smaller one drops the rows past it.
        batch.lay_out(3, 4.0);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn clear_empties_the_batch() {
        let mut batch = FrameBatch::new();
        fill(&mut batch, 6, 0.0);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert!(batch.rows_mut().is_empty());
    }
}
