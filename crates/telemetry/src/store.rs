//! In-memory columnar telemetry store.
//!
//! The paper archives the 1 Hz stream losslessly ("we have decided to
//! store the high-frequency datasets in their original form") and serves
//! coarsened views for analysis. This store holds the archive: raw
//! frames as compressed column blocks per (node, partition). Writers and
//! readers synchronize through `parking_lot` locks.

use crate::catalog::{full_catalog, MetricDef, METRIC_COUNT};
use crate::codec::{quant, ColumnBlock, CompressionStats};
use crate::ids::NodeId;
use crate::records::NodeFrame;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Length of one archive partition in seconds (the artifact appendix
/// partitions daily files by the minute; we default to one minute).
pub const PARTITION_S: f64 = 60.0;

/// A compressed archive partition for one node.
#[derive(Debug, Clone)]
pub struct ArchivedPartition {
    /// Compute node identifier.
    pub node: NodeId,
    /// Partition start time (multiple of [`PARTITION_S`]).
    pub partition_start: f64,
    /// Sample timestamps offsets (seconds, delta from partition start)
    /// stored as the first column; metric columns follow in catalog order.
    pub encoded: bytes::Bytes,
    /// Frames contained.
    pub frames: usize,
}

/// The telemetry store.
pub struct TelemetryStore {
    catalog: Vec<MetricDef>,
    raw: RwLock<BTreeMap<(u32, i64), ArchivedPartition>>,
    compression: RwLock<CompressionStats>,
}

impl Default for TelemetryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            catalog: full_catalog(),
            raw: RwLock::new(BTreeMap::new()),
            compression: RwLock::new(CompressionStats::default()),
        }
    }

    /// The metric catalog this store indexes by.
    pub fn catalog(&self) -> &[MetricDef] {
        &self.catalog
    }

    /// Archives a batch of frames from one node. Frames may arrive in
    /// any order and span multiple partitions: they are sorted and split
    /// on [`PARTITION_S`] boundaries internally. Frames for other nodes
    /// or with non-finite timestamps are skipped (the fault-tolerant
    /// ingest path counts them upstream). Re-archiving a partition
    /// replaces it.
    pub fn archive_partition(&self, node: NodeId, frames: &[NodeFrame]) {
        let mut mine: Vec<&NodeFrame> = frames
            .iter()
            .filter(|f| f.node == node && f.t_sample.is_finite())
            .collect();
        mine.sort_by(|a, b| a.t_sample.total_cmp(&b.t_sample));
        let mut rest = mine.as_slice();
        while let Some(first) = rest.first() {
            let pstart = (first.t_sample / PARTITION_S).floor() * PARTITION_S;
            let n = rest.partition_point(|f| f.t_sample < pstart + PARTITION_S);
            let (part, tail) = rest.split_at(n);
            self.archive_one_partition(node, pstart, part);
            rest = tail;
        }
    }

    /// Encodes one sorted, single-partition slice of frames.
    fn archive_one_partition(&self, node: NodeId, pstart: f64, frames: &[&NodeFrame]) {
        // Column 0: integer sample offsets in milliseconds.
        let mut columns: Vec<Vec<i64>> = Vec::with_capacity(METRIC_COUNT + 1);
        columns.push(
            frames
                .iter()
                .map(|f| ((f.t_sample - pstart) * 1000.0).round() as i64)
                .collect(),
        );
        for (m, def) in self.catalog.iter().enumerate() {
            let unit = def.unit;
            columns.push(
                frames
                    .iter()
                    .map(|f| quant::to_fixed(unit, f.values[m] as f64))
                    .collect(),
            );
        }
        let block = ColumnBlock { columns };
        let encoded = block.encode();
        self.compression.write().record(&block, encoded.len());
        self.raw.write().insert(
            (node.0, pstart.round() as i64),
            ArchivedPartition {
                node,
                partition_start: pstart,
                encoded,
                frames: frames.len(),
            },
        );
    }

    /// Restores the frames of one archived partition (exact roundtrip of
    /// the quantized readings). `None` if the partition is absent or the
    /// archive is corrupt: a block may decode to no more values than the
    /// partition's frames fill, and it must hold the time column and one
    /// column per metric, each one value per frame.
    pub fn load_partition(&self, node: NodeId, partition_start: f64) -> Option<Vec<NodeFrame>> {
        let key = (node.0, partition_start.round() as i64);
        let (encoded, rows) = {
            let raw = self.raw.read();
            let partition = raw.get(&key)?;
            (partition.encoded.clone(), partition.frames)
        };
        let block = ColumnBlock::decode(encoded, (METRIC_COUNT + 1).saturating_mul(rows))?;
        if block.columns.len() != METRIC_COUNT + 1 || block.columns.iter().any(|c| c.len() != rows)
        {
            return None;
        }
        let times = &block.columns[0];
        let mut frames = Vec::with_capacity(times.len());
        for (i, &t_ms) in times.iter().enumerate() {
            let mut f = NodeFrame::empty(node, partition_start + t_ms as f64 / 1000.0);
            for m in 0..METRIC_COUNT {
                let unit = self.catalog[m].unit;
                f.values[m] = quant::from_fixed(unit, block.columns[m + 1][i]) as f32;
            }
            frames.push(f);
        }
        Some(frames)
    }

    /// Current compression accounting.
    pub fn compression_stats(&self) -> CompressionStats {
        *self.compression.read()
    }

    /// Total archived raw partitions.
    pub fn partition_count(&self) -> usize {
        self.raw.read().len()
    }

    /// Total encoded archive bytes.
    pub fn archive_bytes(&self) -> u64 {
        self.raw
            .read()
            .values()
            .map(|p| p.encoded.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::catalog;

    fn make_frames(node: u32, t0: f64, n: usize) -> Vec<NodeFrame> {
        (0..n)
            .map(|i| {
                let mut f = NodeFrame::empty(NodeId(node), t0 + i as f64);
                f.set(catalog::input_power(), 600.0 + (i % 5) as f64 * 10.0);
                f.set(
                    catalog::gpu_core_temp(crate::ids::GpuSlot(0)),
                    35.5 + (i % 3) as f64 * 0.1,
                );
                f
            })
            .collect()
    }

    #[test]
    fn archive_roundtrip_is_lossless() {
        let store = TelemetryStore::new();
        let frames = make_frames(3, 120.0, 60);
        store.archive_partition(NodeId(3), &frames);
        let restored = store.load_partition(NodeId(3), 120.0).unwrap();
        assert_eq!(restored.len(), 60);
        for (orig, rest) in frames.iter().zip(&restored) {
            assert_eq!(orig.t_sample, rest.t_sample);
            let p_orig = orig.get(catalog::input_power());
            let p_rest = rest.get(catalog::input_power());
            assert!((p_orig - p_rest).abs() < 1e-6);
            // Temperatures are quantized to 0.1 degC — exact at that grid.
            let t_orig = orig.get(catalog::gpu_core_temp(crate::ids::GpuSlot(0)));
            let t_rest = rest.get(catalog::gpu_core_temp(crate::ids::GpuSlot(0)));
            assert!((t_orig - t_rest).abs() < 0.05 + 1e-9);
            // Missing metrics stay missing.
            assert!(rest
                .get(catalog::cpu_pkg_temp(crate::ids::Socket::P1))
                .is_nan());
        }
    }

    #[test]
    fn missing_partition_is_none() {
        let store = TelemetryStore::new();
        assert!(store.load_partition(NodeId(0), 0.0).is_none());
    }

    /// Stores `encoded` as node 0's partition at t = 0, holding `frames`
    /// frames.
    fn insert_raw(store: &TelemetryStore, encoded: bytes::Bytes, frames: usize) {
        let partition = ArchivedPartition {
            node: NodeId(0),
            partition_start: 0.0,
            encoded,
            frames,
        };
        store.raw.write().insert((0, 0), partition);
    }

    #[test]
    fn a_block_claiming_more_values_than_its_partition_is_refused() {
        use crate::codec::{write_varint, zigzag_encode};
        // 11 bytes: one column whose header claims 2^24 values, its
        // first value and one zero-run token covering the rest. The
        // partition's budget of 26 x 60 values refuses it before it
        // expands to 128 MB.
        let mut buf = bytes::BytesMut::new();
        write_varint(&mut buf, 1);
        write_varint(&mut buf, 1 << 24);
        write_varint(&mut buf, zigzag_encode(650));
        write_varint(&mut buf, ((1 << 24) - 1) << 1);
        let block = buf.freeze();
        assert_eq!(block.len(), 11);
        let budget = (METRIC_COUNT + 1) * 60;
        assert_eq!(ColumnBlock::decode(block.clone(), budget), None);
        let store = TelemetryStore::new();
        insert_raw(&store, block, 60);
        assert!(store.load_partition(NodeId(0), 0.0).is_none());
    }

    #[test]
    fn a_ragged_block_is_refused() {
        // The time column and every metric column hold 3 values but one
        // metric column holds 2: reading frame 2 of it would index past
        // its end.
        let mut columns = vec![vec![0, 1000, 2000]];
        columns.extend((0..METRIC_COUNT).map(|m| vec![0; if m == 20 { 2 } else { 3 }]));
        let store = TelemetryStore::new();
        insert_raw(&store, ColumnBlock { columns }.encode(), 3);
        assert!(store.load_partition(NodeId(0), 0.0).is_none());
        // The same block with every column whole loads.
        let mut columns = vec![vec![0, 1000, 2000]];
        columns.extend((0..METRIC_COUNT).map(|_| vec![0; 3]));
        insert_raw(&store, ColumnBlock { columns }.encode(), 3);
        assert_eq!(
            store.load_partition(NodeId(0), 0.0).map(|f| f.len()),
            Some(3)
        );
    }

    #[test]
    fn compression_beats_raw_on_stable_sensors() {
        let store = TelemetryStore::new();
        // Near-constant sensors: compression must be dramatic.
        let frames = make_frames(0, 0.0, 60);
        store.archive_partition(NodeId(0), &frames);
        let stats = store.compression_stats();
        assert!(
            stats.ratio() > 20.0,
            "expected >20x on stable sensors, got {:.1}x",
            stats.ratio()
        );
        assert!(store.archive_bytes() > 0);
    }

    #[test]
    fn archive_splits_sorts_and_filters() {
        let store = TelemetryStore::new();
        // Two partitions' worth, shuffled, plus a stray wrong-node frame
        // and a NaN timestamp: the store sorts, splits, and skips.
        let mut frames = make_frames(2, 0.0, 120);
        frames.reverse();
        frames.push(NodeFrame::empty(NodeId(9), 30.0));
        frames.push(NodeFrame::empty(NodeId(2), f64::NAN));
        store.archive_partition(NodeId(2), &frames);
        assert_eq!(store.partition_count(), 2);
        let p0 = store.load_partition(NodeId(2), 0.0).unwrap();
        let p1 = store.load_partition(NodeId(2), 60.0).unwrap();
        assert_eq!(p0.len(), 60);
        assert_eq!(p1.len(), 60);
        assert!(p0.windows(2).all(|w| w[0].t_sample < w[1].t_sample));
        assert!(store.load_partition(NodeId(9), 0.0).is_none());
    }

    #[test]
    fn concurrent_archive_and_query() {
        let store = std::sync::Arc::new(TelemetryStore::new());
        std::thread::scope(|scope| {
            for n in 0..8u32 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    let frames = make_frames(n, 60.0 * n as f64, 60);
                    store.archive_partition(NodeId(n), &frames);
                });
            }
        });
        assert_eq!(store.partition_count(), 8);
        for n in 0..8u32 {
            assert!(store.load_partition(NodeId(n), 60.0 * n as f64).is_some());
        }
    }
}
