//! Fault-tolerant ingestion policy, errors and health accounting.
//!
//! The paper's collection fabric delivers 1 Hz frames with real
//! propagation delay (2.5 s average, 5 s max), sensor dropout, and
//! whole-cabinet outages (the Section 3 "bright green cabinet"); its
//! Dataset 0 coarsening is explicitly designed to survive missing
//! samples. This module is the contract that makes our ingest path
//! equally tolerant: a typed [`IngestError`] instead of panics, one
//! fixed policy ([`LATENESS_HORIZON_S`] of reordering, at most
//! [`MAX_GAP_WINDOWS`] NaN windows per gap), and [`IngestHealth`]
//! counters that account for every frame the pipeline tolerated rather
//! than processed.

use crate::ids::NodeId;

/// Why the ingest path rejected a frame. Every variant is handled by
/// counting and dropping — nothing in the pipeline panics on bad input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// Frame routed to an aggregator owned by a different node.
    WrongNode {
        /// Node the aggregator coarsens.
        expected: NodeId,
        /// Node the frame reports for.
        got: NodeId,
    },
    /// Frame arrived later than the lateness horizon allows: its sample
    /// time is more than `horizon_s` behind the newest accepted sample.
    Late {
        /// Sample timestamp of the rejected frame (s).
        t_sample: f64,
        /// Newest accepted sample timestamp (the watermark, s).
        watermark: f64,
        /// The lateness horizon, [`LATENESS_HORIZON_S`] (s).
        horizon_s: f64,
    },
    /// A frame with the same sample timestamp was already accepted
    /// (duplicate delivery; timestamps compare at millisecond grain).
    Duplicate {
        /// Sample timestamp of the duplicate (s).
        t_sample: f64,
    },
    /// The frame's sample timestamp is NaN or infinite.
    NonFiniteTimestamp,
    /// The frame's sample timestamp is finite but at or past
    /// [`MAX_ABS_TIMESTAMP_S`] in magnitude, where its millisecond key
    /// would no longer be exact.
    TimestampOutOfRange {
        /// Sample timestamp of the rejected frame (s).
        t_sample: f64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WrongNode { expected, got } => {
                write!(f, "frame for node {} routed to node {}", got.0, expected.0)
            }
            IngestError::Late {
                t_sample,
                watermark,
                horizon_s,
            } => write!(
                f,
                "frame at t={t_sample} is beyond the {horizon_s} s lateness \
                 horizon (watermark {watermark})"
            ),
            IngestError::Duplicate { t_sample } => {
                write!(f, "duplicate frame at t={t_sample}")
            }
            IngestError::NonFiniteTimestamp => write!(f, "non-finite sample timestamp"),
            IngestError::TimestampOutOfRange { t_sample } => write!(
                f,
                "sample timestamp t={t_sample} is out of range (|t| must stay below \
                 {MAX_ABS_TIMESTAMP_S} s)"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// How far behind the newest accepted sample a frame may arrive and
/// still be buffered and re-ordered instead of dropped (seconds). It
/// equals the delay model's 5 s maximum
/// ([`crate::stream::propagation_delay_s`]): any frame the simulated
/// fabric can deliver is re-ordered into sample order; anything later is
/// counted and dropped.
pub const LATENESS_HORIZON_S: f64 = crate::stream::MAX_PROPAGATION_DELAY_S;

/// Bound on the magnitude of an admitted sample timestamp (s): 2^53
/// milliseconds, about 285,000 years from the epoch. The coarsener
/// orders and dedups frames by millisecond key, which is exact only
/// below it; past it distinct timestamps would share a key.
pub const MAX_ABS_TIMESTAMP_S: f64 = 9_007_199_254_740.992;

/// Upper bound of NaN windows emitted per whole-window gap, so a
/// pathological timestamp jump cannot allocate unbounded output. Longer
/// gaps are truncated to this many windows.
pub const MAX_GAP_WINDOWS: usize = 1_000;

/// Ingest-health counters: every frame offered to the tolerant path is
/// accounted for exactly once as accepted or as one fault kind, plus
/// the gap windows synthesized on the output side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestHealth {
    /// Frames accepted into a window (includes reordered frames).
    pub accepted: u64,
    /// Accepted frames that arrived out of sample order (older than the
    /// watermark but within the lateness horizon).
    pub reordered: u64,
    /// Frames dropped as exact-timestamp duplicates.
    pub duplicates: u64,
    /// Frames dropped for arriving beyond the lateness horizon.
    pub late_dropped: u64,
    /// Frames dropped for reaching an aggregator of another node.
    pub wrong_node: u64,
    /// Frames dropped for a NaN, infinite or out-of-range sample
    /// timestamp.
    pub invalid: u64,
    /// NaN-filled windows emitted for whole-window gaps.
    pub gap_windows: u64,
}

impl IngestHealth {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &IngestHealth) {
        self.accepted += other.accepted;
        self.reordered += other.reordered;
        self.duplicates += other.duplicates;
        self.late_dropped += other.late_dropped;
        self.wrong_node += other.wrong_node;
        self.invalid += other.invalid;
        self.gap_windows += other.gap_windows;
    }

    /// Total frames dropped (everything offered but not accepted).
    pub fn dropped(&self) -> u64 {
        self.duplicates + self.late_dropped + self.wrong_node + self.invalid
    }

    /// Total frames offered to the ingest path.
    pub fn offered(&self) -> u64 {
        self.accepted + self.dropped()
    }

    /// Fraction of offered frames that were dropped (0 when nothing was
    /// offered).
    pub fn drop_fraction(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn health_merges_and_accounts() {
        let mut a = IngestHealth {
            accepted: 10,
            reordered: 2,
            duplicates: 1,
            late_dropped: 3,
            wrong_node: 0,
            invalid: 0,
            gap_windows: 4,
        };
        let b = IngestHealth {
            accepted: 5,
            duplicates: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accepted, 15);
        assert_eq!(a.duplicates, 3);
        assert_eq!(a.dropped(), 6);
        assert_eq!(a.offered(), 21);
        assert!((a.drop_fraction() - 6.0 / 21.0).abs() < 1e-12);
        assert_eq!(IngestHealth::default().drop_fraction(), 0.0);
    }

    #[test]
    fn errors_render_for_operators() {
        use crate::ids::NodeId;
        let e = IngestError::Late {
            t_sample: 1.0,
            watermark: 9.0,
            horizon_s: 5.0,
        };
        assert!(e.to_string().contains("lateness"));
        let w = IngestError::WrongNode {
            expected: NodeId(1),
            got: NodeId(2),
        };
        assert!(w.to_string().contains("routed"));
        assert!(IngestError::Duplicate { t_sample: 3.0 }
            .to_string()
            .contains("duplicate"));
        assert!(IngestError::NonFiniteTimestamp
            .to_string()
            .contains("non-finite"));
        assert!(IngestError::TimestampOutOfRange { t_sample: 1e16 }
            .to_string()
            .contains("out of range"));
    }
}
