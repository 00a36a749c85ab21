//! Lossless telemetry compression.
//!
//! The paper: "By leveraging several lossless data compression methods
//! throughout the telemetry data pipeline, the footprint of an aggregated
//! 460k metrics per second data stream from Summit resulted in a
//! manageable 1MB/s data stream" (Section 2), accumulating to 8.5 TB/year.
//!
//! BMC sensors emit integer readings (watts, tenths of a degree), so
//! the codec operates on integer columns: per-metric time columns are
//! delta-encoded, zigzag-mapped, varint-packed, and zero-runs (the "push
//! at metric value change" property — most sensors are unchanged between
//! consecutive seconds) are run-length encoded. The result is exactly
//! invertible.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maps a signed integer to an unsigned one with small absolute values
/// staying small (zigzag encoding).
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint.
pub fn write_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint; `None` on truncated input.
pub fn read_varint(buf: &mut Bytes) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

// Column-stream token packing: one varint per event.
//   token == 0                  -> escape; a full zigzag delta follows
//   token even (>= 2)           -> zero-run of length token >> 1
//   token odd                   -> non-zero delta, zigzag = token >> 1
// Packing the kind bit into the token halves the per-change overhead
// versus a separate tag varint (see the `ablations` binary).
const ESCAPE: u64 = 0;
/// Largest zigzag delta representable inline (one bit reserved).
const MAX_INLINE_ZIGZAG: u64 = (u64::MAX >> 1) - 1;

fn write_zero_run(out: &mut BytesMut, mut run: u64) {
    // Run lengths share the even token space; split huge runs.
    const MAX_RUN: u64 = u64::MAX >> 1;
    while run > 0 {
        let chunk = run.min(MAX_RUN);
        write_varint(out, chunk << 1);
        run -= chunk;
    }
}

/// Encodes one integer column (a metric's consecutive readings) into a
/// delta/zigzag/varint/RLE byte stream.
///
/// ```
/// use summit_telemetry::codec::{decode_column, encode_column};
/// let column = vec![650, 650, 650, 655, 655, 650];
/// let mut buf = bytes::BytesMut::new();
/// encode_column(&column, &mut buf);
/// assert!(buf.len() < column.len() * 8);
/// let mut bytes = buf.freeze();
/// assert_eq!(decode_column(&mut bytes), Some(column));
/// ```
pub fn encode_column(values: &[i64], out: &mut BytesMut) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    // First value raw (zigzag-varint).
    write_varint(out, zigzag_encode(values[0]));
    let mut zero_run: u64 = 0;
    for w in values.windows(2) {
        let delta = w[1].wrapping_sub(w[0]);
        if delta == 0 {
            zero_run += 1;
            continue;
        }
        if zero_run > 0 {
            write_zero_run(out, zero_run);
            zero_run = 0;
        }
        let zz = zigzag_encode(delta);
        if zz <= MAX_INLINE_ZIGZAG {
            write_varint(out, (zz << 1) | 1);
        } else {
            write_varint(out, ESCAPE);
            write_varint(out, zz);
        }
    }
    if zero_run > 0 {
        write_zero_run(out, zero_run);
    }
}

/// Ablation variant: zigzag+varint of the *raw* values, no delta and no
/// run-length encoding. Used by the compression ablation study to isolate
/// what the delta/RLE stages buy on telemetry-shaped data.
pub fn encode_column_raw_varint(values: &[i64], out: &mut BytesMut) {
    write_varint(out, values.len() as u64);
    for &v in values {
        write_varint(out, zigzag_encode(v));
    }
}

/// Ablation variant: delta + zigzag + varint but no zero-run RLE.
pub fn encode_column_delta_only(values: &[i64], out: &mut BytesMut) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    write_varint(out, zigzag_encode(values[0]));
    for w in values.windows(2) {
        write_varint(out, zigzag_encode(w[1].wrapping_sub(w[0])));
    }
}

/// Most values one decode returns: a column's length header, or the
/// lengths of all of a block's columns together, may claim no more. One
/// zero-run token expands a few bytes to any length the header claims,
/// so a corrupt header must not size the output: a day of 1 Hz readings
/// is 86,400 values, an archive partition 107 x 60.
const MAX_COLUMN_LEN: usize = 1 << 24;

/// Decodes a column produced by [`encode_column`]; `None` on corrupt input
/// (including a length header above 2^24 values).
pub fn decode_column(buf: &mut Bytes) -> Option<Vec<i64>> {
    decode_column_within(buf, MAX_COLUMN_LEN)
}

/// [`decode_column`] for a column whose length header may claim at most
/// `budget` values.
fn decode_column_within(buf: &mut Bytes, budget: usize) -> Option<Vec<i64>> {
    let n = usize::try_from(read_varint(buf)?).ok()?;
    if n > budget {
        return None;
    }
    if n == 0 {
        return Some(Vec::new());
    }
    // The header is untrusted: reserve no more than the bytes left.
    let mut out = Vec::with_capacity(n.min(buf.remaining()));
    let mut current = zigzag_decode(read_varint(buf)?);
    out.push(current);
    while out.len() < n {
        let token = read_varint(buf)?;
        if token == ESCAPE {
            let delta = zigzag_decode(read_varint(buf)?);
            current = current.wrapping_add(delta);
            out.push(current);
        } else if token & 1 == 1 {
            let delta = zigzag_decode(token >> 1);
            current = current.wrapping_add(delta);
            out.push(current);
        } else {
            let run = (token >> 1) as usize;
            if run == 0 || out.len() + run > n {
                return None;
            }
            out.resize(out.len() + run, current);
        }
    }
    Some(out)
}

/// A block of integer columns (one per metric) sharing a time axis —
/// the unit of archival.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBlock {
    /// Per-column integer readings; all columns must share one length.
    pub columns: Vec<Vec<i64>>,
}

impl ColumnBlock {
    /// Encodes all columns into one buffer.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        write_varint(&mut out, self.columns.len() as u64);
        for col in &self.columns {
            encode_column(col, &mut out);
        }
        out.freeze()
    }

    /// Decodes a buffer from [`ColumnBlock::encode`]; `None` on corrupt
    /// input, including columns that together claim more than `budget`
    /// values. The caller sizes the budget from what it knows the block
    /// holds; no budget reaches past 2^24 values.
    pub fn decode(mut buf: Bytes, budget: usize) -> Option<Self> {
        let n_cols = usize::try_from(read_varint(&mut buf)?).ok()?;
        // Every column takes at least one byte, so the bytes left bound
        // an honest count; a corrupt one must not size the allocation.
        let mut columns = Vec::with_capacity(n_cols.min(buf.remaining()));
        // Each column's header is checked against what the block has
        // left, before the column expands.
        let mut budget = budget.min(MAX_COLUMN_LEN);
        for _ in 0..n_cols {
            let column = decode_column_within(&mut buf, budget)?;
            budget -= column.len();
            columns.push(column);
        }
        Some(Self { columns })
    }

    /// Raw (uncompressed) footprint assuming 8-byte integers.
    pub fn raw_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.len() * 8).sum()
    }
}

/// Compression accounting across the pipeline — used by the Table 2
/// footprint reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompressionStats {
    /// Uncompressed bytes (8 B per reading).
    pub raw_bytes: u64,
    /// Encoded bytes produced.
    pub encoded_bytes: u64,
    /// Number of readings encoded.
    pub readings: u64,
}

impl CompressionStats {
    /// Records one encoded block.
    pub fn record(&mut self, block: &ColumnBlock, encoded_len: usize) {
        self.raw_bytes += block.raw_bytes() as u64;
        self.encoded_bytes += encoded_len as u64;
        self.readings += block.columns.iter().map(|c| c.len() as u64).sum::<u64>();
    }

    /// Compression ratio (raw/encoded); NaN if nothing encoded.
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            f64::NAN
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }

    /// Bytes per reading after compression.
    pub fn bytes_per_reading(&self) -> f64 {
        if self.readings == 0 {
            f64::NAN
        } else {
            self.encoded_bytes as f64 / self.readings as f64
        }
    }

    /// Merges stats from another accounting window.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.raw_bytes += other.raw_bytes;
        self.encoded_bytes += other.encoded_bytes;
        self.readings += other.readings;
    }
}

/// Fixed-point quantization scales per unit, matching what real BMC
/// sensors emit: integer watts, tenths of a degree.
pub mod quant {
    use crate::catalog::Unit;

    /// Readings per physical unit.
    pub fn scale(unit: Unit) -> f64 {
        match unit {
            Unit::Watts => 1.0,
            Unit::Celsius => 10.0,
        }
    }

    /// Physical value -> integer reading. NaN maps to the sentinel.
    pub fn to_fixed(unit: Unit, value: f64) -> i64 {
        if !value.is_finite() {
            return MISSING;
        }
        (value * scale(unit)).round() as i64
    }

    /// Integer reading -> physical value; the sentinel maps back to NaN.
    pub fn from_fixed(unit: Unit, reading: i64) -> f64 {
        if reading == MISSING {
            return f64::NAN;
        }
        reading as f64 / scale(unit)
    }

    /// Sentinel for missing readings (far outside any physical range).
    pub const MISSING: i64 = i64::MIN / 2;
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            -1_000_000i64,
            -3,
            -1,
            0,
            1,
            2,
            7,
            i64::MAX / 2,
            i64::MIN / 2,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut bytes = buf.freeze();
        for &v in &values {
            assert_eq!(read_varint(&mut bytes), Some(v));
        }
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x80); // continuation bit set, nothing follows
        let mut bytes = buf.freeze();
        assert_eq!(read_varint(&mut bytes), None);
    }

    #[test]
    fn column_roundtrip_mixed() {
        let col = vec![100, 100, 100, 105, 105, 90, 90, 90, 90, 200];
        let mut buf = BytesMut::new();
        encode_column(&col, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_column(&mut bytes), Some(col));
    }

    #[test]
    fn column_roundtrip_empty_and_single() {
        for col in [vec![], vec![42i64]] {
            let mut buf = BytesMut::new();
            encode_column(&col, &mut buf);
            let mut bytes = buf.freeze();
            assert_eq!(decode_column(&mut bytes), Some(col));
        }
    }

    #[test]
    fn constant_column_compresses_heavily() {
        // "Push at metric value change": an idle sensor costs almost nothing.
        let col = vec![650i64; 86_400]; // one day of 1 Hz idle power
        let mut buf = BytesMut::new();
        encode_column(&col, &mut buf);
        assert!(
            buf.len() < 16,
            "constant day should encode to a few bytes, got {}",
            buf.len()
        );
    }

    #[test]
    fn noisy_column_still_roundtrips() {
        let col: Vec<i64> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) % 2000) as i64 - 1000)
            .collect();
        let mut buf = BytesMut::new();
        encode_column(&col, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_column(&mut bytes), Some(col));
    }

    #[test]
    fn block_roundtrip() {
        let block = ColumnBlock {
            columns: vec![vec![1, 2, 3], vec![10, 10, 10], vec![]],
        };
        let enc = block.encode();
        assert_eq!(ColumnBlock::decode(enc, MAX_COLUMN_LEN), Some(block));
    }

    #[test]
    fn block_decode_rejects_garbage() {
        let garbage = Bytes::from_static(&[0xff, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(ColumnBlock::decode(garbage, MAX_COLUMN_LEN), None);
        // A 9-byte header claiming 2^62 values (or columns).
        let huge = Bytes::from_static(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
        assert_eq!(decode_column(&mut huge.clone()), None);
        assert_eq!(ColumnBlock::decode(huge, MAX_COLUMN_LEN), None);
        // One column one value over the cap, covered by a single run token.
        let mut over = BytesMut::new();
        write_varint(&mut over, 1);
        write_varint(&mut over, MAX_COLUMN_LEN as u64 + 1);
        write_varint(&mut over, zigzag_encode(650));
        write_zero_run(&mut over, MAX_COLUMN_LEN as u64);
        let over = over.freeze();
        assert_eq!(ColumnBlock::decode(over.clone(), MAX_COLUMN_LEN), None);
        let mut column = over;
        assert_eq!(read_varint(&mut column), Some(1));
        assert_eq!(decode_column(&mut column), None);
        // An over-budget block: each column's header is legal on its
        // own, but after a one-value column the second column's claim of
        // the full cap exceeds what the block has left, so it is
        // rejected before it expands.
        let mut over_budget = BytesMut::new();
        write_varint(&mut over_budget, 2);
        encode_column(&[650], &mut over_budget);
        write_varint(&mut over_budget, MAX_COLUMN_LEN as u64);
        write_varint(&mut over_budget, zigzag_encode(650));
        write_zero_run(&mut over_budget, MAX_COLUMN_LEN as u64 - 1);
        assert_eq!(
            ColumnBlock::decode(over_budget.freeze(), MAX_COLUMN_LEN),
            None
        );
    }

    #[test]
    fn decode_survives_seeded_fuzzing_and_round_trips() {
        // A fixed seed and case budget. Random telemetry-shaped blocks
        // (slow readings with flat runs, missing sentinels, full-range
        // jumps) round-trip; byte mutations of their encodings and
        // random byte strings never panic or decode past the cap.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let check = |bytes: Vec<u8>| {
            let bytes = Bytes::from(bytes);
            let block = ColumnBlock::decode(bytes.clone(), MAX_COLUMN_LEN);
            let values: usize = block.map_or(0, |b| b.columns.iter().map(Vec::len).sum());
            let column = decode_column(&mut bytes.clone()).map_or(0, |c| c.len());
            assert!(values <= MAX_COLUMN_LEN && column <= MAX_COLUMN_LEN);
        };
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..61);
            let mut column = |mut v: i64| -> Vec<i64> {
                (0..len)
                    .map(|_| {
                        v = match rng.gen_range(0..16) {
                            0..=2 => v.wrapping_add(rng.gen_range(-50..50)),
                            3 => quant::MISSING,
                            4 => rng.gen(),
                            _ => v,
                        };
                        v
                    })
                    .collect()
            };
            let columns = (0..len % 9).map(|c| column(1500 + c as i64)).collect();
            let block = ColumnBlock { columns };
            let encoded = block.encode();
            assert_eq!(
                ColumnBlock::decode(encoded.clone(), MAX_COLUMN_LEN),
                Some(block)
            );
            let mut bytes = encoded.as_slice().to_vec();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..=bytes.len());
                match rng.gen_range(0..3) {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] = rng.gen(),
                    _ => bytes.insert(at, rng.gen()),
                }
            }
            check(bytes);
            check((0..rng.gen_range(0..48)).map(|_| rng.gen()).collect());
        }
    }

    #[test]
    fn compression_stats_accounting() {
        let block = ColumnBlock {
            columns: vec![vec![5i64; 1000]],
        };
        let enc = block.encode();
        let mut stats = CompressionStats::default();
        stats.record(&block, enc.len());
        assert_eq!(stats.raw_bytes, 8000);
        assert_eq!(stats.readings, 1000);
        assert!(stats.ratio() > 100.0, "ratio {}", stats.ratio());
        assert!(stats.bytes_per_reading() < 0.1);
    }

    #[test]
    fn ablation_variants_order_as_expected() {
        // Telemetry-shaped data: slow-moving values with long flat runs.
        let col: Vec<i64> = (0..10_000).map(|i| 1500 + ((i / 500) % 5) as i64).collect();
        let size = |f: &dyn Fn(&[i64], &mut BytesMut)| {
            let mut buf = BytesMut::new();
            f(&col, &mut buf);
            buf.len()
        };
        let full = size(&|c, b| encode_column(c, b));
        let delta = size(&encode_column_delta_only);
        let raw = size(&encode_column_raw_varint);
        assert!(
            full < delta,
            "RLE must help on flat runs: {full} vs {delta}"
        );
        assert!(
            delta < raw,
            "delta must help on slow values: {delta} vs {raw}"
        );
    }

    #[test]
    fn quantization_roundtrip() {
        use crate::catalog::Unit;
        let temp = 43.7;
        let r = quant::to_fixed(Unit::Celsius, temp);
        assert_eq!(r, 437);
        assert!((quant::from_fixed(Unit::Celsius, r) - temp).abs() < 1e-9);
        assert_eq!(quant::to_fixed(Unit::Watts, 315.4), 315);
        assert!(quant::from_fixed(Unit::Watts, quant::to_fixed(Unit::Watts, f64::NAN)).is_nan());
    }
}
