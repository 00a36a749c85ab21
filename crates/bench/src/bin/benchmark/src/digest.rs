//! Output digests and the frame-conservation identity the benchmark
//! checks every iteration against.

use summit_telemetry::ingest::IngestHealth;
use summit_telemetry::stream::{IngestStats, InjectedFaults};
use summit_telemetry::window::NodeWindow;

/// 64-bit FNV-1a. Statistics are folded in a whole 64-bit word per
/// step rather than byte by byte: a full-floor run digests hundreds of
/// megabytes per iteration, and each step is still a bijection of the
/// state, so a change to any single word always changes the result.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hash.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds one word in.
    pub fn eat(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// Folds raw bytes in.
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one telemetry run's data outputs: every window (node,
/// start and the full statistic quintuple of every metric, NaN bit
/// patterns included), the ingest health counters and the injected
/// fault counts. Any single-bit divergence changes it.
pub fn telemetry(
    windows: &[Vec<NodeWindow>],
    health: &IngestHealth,
    injected: &InjectedFaults,
) -> u64 {
    let mut h = Fnv::new();
    h.eat(windows.len() as u64);
    for node in windows {
        h.eat(node.len() as u64);
        for w in node {
            h.eat(u64::from(w.node.0));
            h.eat(w.window_start.to_bits());
            h.eat(w.stats.len() as u64);
            for s in &w.stats {
                h.eat(s.count);
                h.eat(s.min.to_bits());
                h.eat(s.max.to_bits());
                h.eat(s.mean.to_bits());
                h.eat(s.std.to_bits());
            }
        }
    }
    for v in [
        health.accepted,
        health.reordered,
        health.duplicates,
        health.late_dropped,
        health.wrong_node,
        health.invalid,
        health.gap_windows,
        injected.dropped,
        injected.duplicated,
        injected.delayed,
        injected.reordered,
    ] {
        h.eat(v);
    }
    h.finish()
}

/// Whether every frame is accounted for end to end: the engine's
/// `offered` frames, less fabric drops, plus fabric duplicates, reach
/// ingest (`stats.frames`), and ingest either accepts each one into a
/// window or counts why it dropped it.
pub fn conserved(offered: u64, injected: &InjectedFaults, stats: &IngestStats) -> bool {
    let reached = (offered + injected.duplicated).checked_sub(injected.dropped);
    reached == Some(stats.frames) && stats.frames == stats.health.accepted + stats.health.dropped()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use summit_analysis::stats::WindowStats;
    use summit_telemetry::ids::NodeId;

    fn sample() -> Vec<Vec<NodeWindow>> {
        let stats = |x: f64| WindowStats {
            count: 10,
            min: x - 1.0,
            max: x + 1.0,
            mean: x,
            std: 0.5,
        };
        (0..3u32)
            .map(|n| {
                (0..4)
                    .map(|w| NodeWindow {
                        node: NodeId(n),
                        window_start: f64::from(w) * 10.0,
                        stats: vec![stats(f64::from(n + w)), WindowStats::empty()],
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn one_bit_flip_in_one_statistic_changes_the_digest() {
        let health = IngestHealth::default();
        let injected = InjectedFaults::default();
        let windows = sample();
        let base = telemetry(&windows, &health, &injected);
        assert_eq!(base, telemetry(&sample(), &health, &injected));

        let mut flipped = sample();
        if let Some(s) = flipped
            .get_mut(2)
            .and_then(|n| n.get_mut(3))
            .and_then(|w| w.stats.first_mut())
        {
            s.std = f64::from_bits(s.std.to_bits() ^ 1);
        }
        assert_ne!(base, telemetry(&flipped, &health, &injected));

        let late = IngestHealth {
            late_dropped: 1,
            ..IngestHealth::default()
        };
        assert_ne!(base, telemetry(&windows, &late, &injected));
    }

    #[test]
    fn conservation_balances_drops_and_duplicates() {
        let injected = InjectedFaults {
            dropped: 3,
            duplicated: 5,
            delayed: 7,
            reordered: 11,
        };
        let mut stats = IngestStats {
            frames: 102,
            ..IngestStats::default()
        };
        stats.health.accepted = 98;
        stats.health.duplicates = 4;
        assert!(conserved(100, &injected, &stats));
        stats.health.accepted = 97;
        assert!(!conserved(100, &injected, &stats));
        assert!(!conserved(1, &injected, &IngestStats::default()));
    }
}
