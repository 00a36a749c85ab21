//! Incremental per-node delivery through the faulty fabric.
//!
//! [`FaultInjector::deliver`](crate::stream::FaultInjector::deliver)
//! takes a node's *complete* frame batch, applies fate draws, sorts the
//! survivors into arrival order with a stable sort and runs an adjacent
//! swap pass. The streaming pipeline cannot wait for the complete
//! batch, so [`NodeDelivery`] reproduces that exact output one source
//! frame at a time:
//!
//! 1. **Fate** — each frame's drop/duplicate/delay draw is the pure
//!    order-independent hash [`FaultConfig::fate`], so the incremental
//!    path classifies every frame exactly as the batch path does.
//! 2. **Reorder release** — arrivals wait in a min-heap keyed by
//!    `(t_ingest, insertion sequence)`. Insertion order matches the
//!    batch push order (a duplicate's +0.25 s copy is inserted before
//!    its original), so the heap order *is* the batch's stable sort.
//!    An arrival is released once the node's production clock (the
//!    newest `t_sample` offered) passes its `t_ingest`: any future
//!    frame has `t_ingest ≥ t_sample > clock`, so nothing can still
//!    arrive ahead of it. This bounds the heap at the fabric's maximum
//!    delivery delay regardless of run length.
//! 3. **Swap hold** — the batch swap pass examines the *originally
//!    sorted* element at each position (a swap at `i` only moves
//!    elements at `i-1`/`i`, never a later probe target), so one held
//!    frame suffices: a frame that draws a swap is emitted ahead of the
//!    held frame; one that doesn't replaces it.
//!
//! **Slab and keys.** A frame's metric values are copied once, by the
//! caller's fill, into a per-node slab of rows recycled through a free
//! list. Only a 40-byte key — arrival time, insertion sequence, node,
//! sample and ingest times, slot — moves through the heap and the hold;
//! a duplicate copies its row into a second slot.
//! [`NodeDelivery::offer_row`] and [`NodeDelivery::drain_rows`] release
//! [`Delivered`] keys, and the consumer reads each one's values with
//! [`NodeDelivery::row`] before handing the slot back with
//! [`NodeDelivery::free`], so the slab holds only the frames in flight.
//! [`NodeDelivery::offer`] and [`NodeDelivery::finish`] adapt that core
//! to whole [`NodeFrame`]s.
//!
//! The result: delivered frame sequence, injected-fault counts, and
//! every downstream statistic are bit-identical to the batch injector
//! run over the same per-node sequence.

use crate::catalog::METRIC_COUNT;
use crate::ids::NodeId;
use crate::records::NodeFrame;
use crate::stream::{propagation_delay_s, FaultConfig, FrameFate, InjectedFaults};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One frame the fabric released: its node and timestamps, plus the
/// slab slot holding its metric values until [`NodeDelivery::free`].
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Compute node identifier.
    pub node: NodeId,
    /// Seconds since epoch at which the sensors were read.
    pub t_sample: f64,
    /// Seconds since epoch at which the frame reached the aggregator.
    pub t_ingest: f64,
    /// Slab slot of the frame's values ([`NodeDelivery::row`]).
    pub slot: u32,
}

/// One frame's key waiting in the reorder-release heap.
#[derive(Debug)]
struct Arrival {
    /// Position in arrival order: the frame's `t_ingest`, except for a
    /// duplicate's copy, which trails it by 0.25 s but keeps the
    /// original's stamps (as the batch injector's copy does).
    t_arrival: f64,
    seq: u64,
    frame: Delivered,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Arrival {}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Arrival {
    /// Reversed (min-heap through `BinaryHeap`): earliest arrival
    /// first, ties broken by insertion sequence — exactly the batch
    /// stable sort on arrival time.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .t_arrival
            .total_cmp(&self.t_arrival)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Incremental replacement for one node's
/// [`FaultInjector::deliver`](crate::stream::FaultInjector::deliver)
/// call: offer source frames in sample order, collect delivered frames
/// as they become safe to release. See the module docs for the
/// equivalence argument and the slab.
#[derive(Debug)]
pub struct NodeDelivery {
    cfg: FaultConfig,
    seq: u64,
    heap: BinaryHeap<Arrival>,
    hold: Option<Delivered>,
    counts: InjectedFaults,
    /// Metric values of every frame in the heap, in the hold, or
    /// released and not yet freed: one row per slot.
    slab: Vec<[f32; METRIC_COUNT]>,
    /// Slots free for reuse.
    free: Vec<u32>,
}

impl NodeDelivery {
    /// Creates a delivery stage for one node under the given fault
    /// profile.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            seq: 0,
            heap: BinaryHeap::new(),
            hold: None,
            counts: InjectedFaults::default(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Counts of every fault injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.counts
    }

    /// Frames currently resident (reorder heap plus the swap hold) —
    /// bounded by the fabric's maximum delivery delay at 1 Hz.
    pub fn resident(&self) -> usize {
        self.heap.len() + usize::from(self.hold.is_some())
    }

    /// The metric values of a released frame. Panics if `slot` was
    /// never handed out.
    pub fn row(&self, slot: u32) -> &[f32; METRIC_COUNT] {
        &self.slab[slot as usize]
    }

    /// Returns a released frame's slot for reuse; call it once per
    /// [`Delivered`], after the last [`NodeDelivery::row`] read.
    pub fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Fills a free slot (the slab grows only when none is free).
    fn store(&mut self, fill: impl FnOnce(&mut [f32; METRIC_COUNT])) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push([f32::NAN; METRIC_COUNT]);
            crate::convert::count_u32(self.slab.len() as u64 - 1)
        });
        fill(&mut self.slab[slot as usize]);
        slot
    }

    fn push_arrival(&mut self, t_arrival: f64, frame: Delivered) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Arrival {
            t_arrival,
            seq,
            frame,
        });
    }

    /// Runs one released (sorted-order) frame through the swap-hold
    /// stage, appending whatever it emits.
    fn emit(&mut self, frame: Delivered, out: &mut Vec<Delivered>) {
        match self.hold.take() {
            None => self.hold = Some(frame),
            Some(held) => {
                if self.cfg.draws_reorder(frame.node.0, frame.t_sample) {
                    self.counts.reordered += 1;
                    out.push(frame);
                    self.hold = Some(held);
                } else {
                    out.push(held);
                    self.hold = Some(frame);
                }
            }
        }
    }

    /// Offers one source frame — its node, sample time and a `fill` that
    /// writes its metric values into a slab row, called once unless the
    /// fabric drops the frame — and appends every frame that became safe
    /// to deliver. Frames must come in `t_sample` order, the order the
    /// engine produces them.
    pub fn offer_row(
        &mut self,
        node: NodeId,
        t_sample: f64,
        fill: impl FnOnce(&mut [f32; METRIC_COUNT]),
        out: &mut Vec<Delivered>,
    ) {
        let t_ingest = t_sample + propagation_delay_s(node.0, t_sample);
        let frame = |slot, t_ingest| Delivered {
            node,
            t_sample,
            t_ingest,
            slot,
        };
        match self.cfg.fate(node.0, t_sample) {
            FrameFate::Drop => self.counts.dropped += 1,
            FrameFate::Duplicate => {
                self.counts.duplicated += 1;
                let slot = self.store(fill);
                let values = *self.row(slot);
                let copy = self.store(|dst| *dst = values);
                // Copy before original: matches the batch push order so
                // the stable tie-break is preserved.
                self.push_arrival(t_ingest + 0.25, frame(copy, t_ingest));
                self.push_arrival(t_ingest, frame(slot, t_ingest));
            }
            FrameFate::Delay { extra_s } => {
                self.counts.delayed += 1;
                let slot = self.store(fill);
                let t_ingest = t_ingest + extra_s;
                self.push_arrival(t_ingest, frame(slot, t_ingest));
            }
            FrameFate::Deliver => {
                let slot = self.store(fill);
                self.push_arrival(t_ingest, frame(slot, t_ingest));
            }
        }
        // Release everything no future frame can precede: a later
        // sample arrives no earlier than its own `t_sample`, which is
        // past this one.
        while self
            .heap
            .peek()
            .is_some_and(|head| head.t_arrival <= t_sample)
        {
            if let Some(arrival) = self.heap.pop() {
                self.emit(arrival.frame, out);
            }
        }
    }

    /// Drains the reorder heap and the swap hold once the source is
    /// exhausted, appending the tail of the delivered sequence.
    pub fn drain_rows(&mut self, out: &mut Vec<Delivered>) {
        while let Some(arrival) = self.heap.pop() {
            self.emit(arrival.frame, out);
        }
        if let Some(held) = self.hold.take() {
            out.push(held);
        }
    }

    /// Moves released frames out of the slab as whole frames.
    fn take_frames(&mut self, released: &[Delivered], out: &mut Vec<NodeFrame>) {
        for d in released {
            out.push(NodeFrame {
                node: d.node,
                t_sample: d.t_sample,
                t_ingest: d.t_ingest,
                values: *self.row(d.slot),
            });
            self.free(d.slot);
        }
    }

    /// [`NodeDelivery::offer_row`] for a whole source frame (its
    /// `t_ingest` is ignored: the fabric stamps it), appending delivered
    /// frames.
    pub fn offer(&mut self, frame: NodeFrame, out: &mut Vec<NodeFrame>) {
        let mut released = Vec::new();
        self.offer_row(
            frame.node,
            frame.t_sample,
            |dst| *dst = frame.values,
            &mut released,
        );
        self.take_frames(&released, out);
    }

    /// [`NodeDelivery::drain_rows`] as whole frames, returning the
    /// run's fault counts.
    pub fn finish(mut self, out: &mut Vec<NodeFrame>) -> InjectedFaults {
        let mut released = Vec::new();
        self.drain_rows(&mut released);
        self.take_frames(&released, out);
        self.counts
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::NodeId;
    use crate::stream::FaultInjector;

    fn batch(node: u32, n: usize) -> Vec<NodeFrame> {
        (0..n)
            .map(|t| NodeFrame::empty(NodeId(node), t as f64))
            .collect()
    }

    fn run_streaming(cfg: FaultConfig, frames: Vec<NodeFrame>) -> (Vec<NodeFrame>, InjectedFaults) {
        let mut stage = NodeDelivery::new(cfg);
        let mut out = Vec::new();
        let mut peak = 0usize;
        for f in frames {
            stage.offer(f, &mut out);
            peak = peak.max(stage.resident());
        }
        // Residency stays bounded by the fabric delay, not the run.
        assert!(peak <= 64, "resident {peak} should be O(max delay)");
        let counts = stage.finish(&mut out);
        (out, counts)
    }

    fn assert_same_delivery(cfg: FaultConfig, n: usize) {
        let mut inj = FaultInjector::new(cfg);
        let reference = inj.deliver(batch(5, n));
        let (streamed, counts) = run_streaming(cfg, batch(5, n));
        assert_eq!(counts, inj.injected(), "fault accounting must match");
        assert_eq!(streamed.len(), reference.len());
        for (s, r) in streamed.iter().zip(&reference) {
            assert_eq!(s.t_sample.to_bits(), r.t_sample.to_bits());
            assert_eq!(s.t_ingest.to_bits(), r.t_ingest.to_bits());
        }
    }

    #[test]
    fn clean_stream_matches_batch_delivery() {
        assert_same_delivery(FaultConfig::default(), 300);
    }

    #[test]
    fn light_faults_match_batch_delivery() {
        assert_same_delivery(FaultConfig::light(42), 500);
    }

    fn heavy() -> FaultConfig {
        FaultConfig {
            drop_p: 0.10,
            duplicate_p: 0.10,
            delay_p: 0.15,
            reorder_p: 0.05,
            seed: 42,
        }
    }

    fn duplicate_and_reorder_heavy() -> FaultConfig {
        FaultConfig {
            drop_p: 0.0,
            duplicate_p: 0.30,
            delay_p: 0.0,
            reorder_p: 0.25,
            seed: 7,
        }
    }

    #[test]
    fn heavy_faults_match_batch_delivery() {
        assert_same_delivery(heavy(), 500);
    }

    #[test]
    fn duplicate_and_reorder_heavy_match_batch_delivery() {
        assert_same_delivery(duplicate_and_reorder_heavy(), 500);
    }

    /// Source frames whose values identify them, so a slot mix-up
    /// shows: metric 0 carries the sample time, the last metric its
    /// negation.
    fn marked(node: u32, n: usize) -> Vec<NodeFrame> {
        batch(node, n)
            .into_iter()
            .map(|mut f| {
                f.values[0] = f.t_sample as f32;
                f.values[METRIC_COUNT - 1] = -(f.t_sample as f32);
                f
            })
            .collect()
    }

    /// Offers `frames` through the slot path the node lanes use, reading
    /// each released row and freeing its slot at once. Returns the
    /// delivered frames, the fault counts and the slab's length, which
    /// only grows when every slot is in use.
    fn run_rows(cfg: FaultConfig, frames: &[NodeFrame]) -> (Vec<NodeFrame>, InjectedFaults, usize) {
        let mut stage = NodeDelivery::new(cfg);
        let mut released = Vec::new();
        let mut out = Vec::new();
        let mut take = |stage: &mut NodeDelivery, released: &mut Vec<Delivered>| {
            for d in released.drain(..) {
                out.push(NodeFrame {
                    node: d.node,
                    t_sample: d.t_sample,
                    t_ingest: d.t_ingest,
                    values: *stage.row(d.slot),
                });
                stage.free(d.slot);
            }
        };
        for f in frames {
            stage.offer_row(f.node, f.t_sample, |dst| *dst = f.values, &mut released);
            take(&mut stage, &mut released);
        }
        stage.drain_rows(&mut released);
        take(&mut stage, &mut released);
        (out, stage.injected(), stage.slab.len())
    }

    #[test]
    fn the_slot_path_matches_batch_delivery_under_every_profile() {
        for cfg in [
            FaultConfig::default(),
            FaultConfig::light(42),
            heavy(),
            duplicate_and_reorder_heavy(),
        ] {
            let mut inj = FaultInjector::new(cfg);
            let reference = inj.deliver(marked(5, 500));
            let (delivered, counts, _) = run_rows(cfg, &marked(5, 500));
            assert_eq!(counts, inj.injected(), "{cfg:?}: fault accounting");
            assert_eq!(delivered.len(), reference.len(), "{cfg:?}");
            for (d, r) in delivered.iter().zip(&reference) {
                assert_eq!(d.node, r.node);
                assert_eq!(d.t_sample.to_bits(), r.t_sample.to_bits());
                assert_eq!(d.t_ingest.to_bits(), r.t_ingest.to_bits());
                for (a, b) in d.values.iter().zip(&r.values) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{cfg:?} t={}", d.t_sample);
                }
            }
        }
    }

    #[test]
    fn the_slab_stays_bounded_under_heavy_faults() {
        let (_, counts, slab_len) = run_rows(heavy(), &marked(5, 500));
        assert!(counts.duplicated > 0 && counts.delayed > 0);
        // Freed slots are reused, so the slab holds the frames in flight
        // (bounded by the fabric delay), not one row per frame offered.
        assert!(slab_len <= 64, "slab grew to {slab_len} rows");
    }

    #[test]
    fn empty_source_delivers_nothing() {
        let stage = NodeDelivery::new(FaultConfig::light(1));
        let mut out = Vec::new();
        let counts = stage.finish(&mut out);
        assert!(out.is_empty());
        assert_eq!(counts, InjectedFaults::default());
    }
}
