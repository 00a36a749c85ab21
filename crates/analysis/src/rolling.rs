//! Online sliding-window statistics and distribution sketch.
//!
//! The paper's monitoring pipeline renders near-real-time summaries over
//! sliding windows (Section 2). This module provides the two online
//! reducers the operations console keeps per live gauge: [`RollingStats`]
//! (O(1) amortized `count/min/max/mean/std` over the last `window`
//! samples) and [`RollingSketch`] (ECDF percentiles and KDE densities
//! over a bounded sample).

use crate::cdf::Ecdf;
use crate::kde::{Bandwidth, Kde1d};
use crate::stats::{Welford, WindowStats};
use std::collections::VecDeque;

/// Online sliding-window `count/min/max/mean/std` over the last `window`
/// samples — the incremental reducer the streaming pipeline keeps per
/// live gauge, O(1) amortized per push with memory bounded by the
/// window (never the stream length).
///
/// Implemented as the classic two-stack queue of [`Welford`] monoids:
/// the back stack accumulates arrivals, the front stack holds suffix
/// aggregates built when an eviction finds it empty, and the window
/// statistic is one [`Welford::merge`] of the two tops.
#[derive(Debug, Clone)]
pub struct RollingStats {
    window: usize,
    /// Front stack, oldest on top; each entry aggregates itself and all
    /// entries beneath it (i.e. every younger front element).
    front: Vec<(f64, Welford)>,
    back: Vec<f64>,
    back_agg: Welford,
}

impl RollingStats {
    /// Creates a reducer over the last `window` samples (floored at 1).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
            front: Vec::new(),
            back: Vec::new(),
            back_agg: Welford::new(),
        }
    }

    /// Number of samples currently in the window (non-finite samples
    /// occupy positions but do not enter the statistics, matching
    /// [`Welford::push`]).
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// True when no samples are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict(&mut self) {
        if self.front.is_empty() {
            while let Some(v) = self.back.pop() {
                let mut agg = self.front.last().map_or_else(Welford::new, |&(_, a)| a);
                agg.push(v);
                self.front.push((v, agg));
            }
            self.back_agg = Welford::new();
        }
        self.front.pop();
    }

    /// Pushes one sample, evicting the oldest once the window is full.
    pub fn push(&mut self, v: f64) {
        if self.len() == self.window {
            self.evict();
        }
        self.back.push(v);
        self.back_agg.push(v);
    }

    /// Current window statistics (count reflects finite samples only).
    pub fn stats(&self) -> WindowStats {
        let mut agg = self.front.last().map_or_else(Welford::new, |&(_, a)| a);
        agg.merge(&self.back_agg);
        agg.finish()
    }
}

/// Bounded sample sketch refreshed per closed window: keeps the last
/// `capacity` values and re-fits the distribution estimators on demand,
/// so the streaming pipeline can serve live ECDF percentiles and KDE
/// densities without retaining the full stream.
#[derive(Debug, Clone)]
pub struct RollingSketch {
    capacity: usize,
    values: VecDeque<f64>,
}

impl RollingSketch {
    /// Creates a sketch over the last `capacity` samples (floored at 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            values: VecDeque::with_capacity(capacity),
        }
    }

    /// Pushes one sample, evicting the oldest at capacity. Non-finite
    /// samples are skipped (they carry no distributional information).
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(v);
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sketch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn snapshot(&self) -> Vec<f64> {
        self.values.iter().copied().collect()
    }

    /// Refreshes the empirical CDF over the retained samples.
    pub fn ecdf(&self) -> Option<Ecdf> {
        Ecdf::new(&self.snapshot())
    }

    /// Refreshes a Gaussian KDE (Silverman bandwidth) over the
    /// retained samples.
    pub fn kde(&self) -> Option<Kde1d> {
        Kde1d::fit(&self.snapshot(), Bandwidth::Silverman)
    }

    /// Percentile `p` in `[0, 1]` of the retained samples via the ECDF;
    /// NaN while empty.
    pub fn percentile(&self, p: f64) -> f64 {
        self.ecdf().map_or(f64::NAN, |e| e.percentile(p))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    /// Reference window statistics from a fresh Welford pass.
    fn window_reference(values: &[f64], window: usize, end: usize) -> WindowStats {
        let start = end.saturating_sub(window);
        let mut w = Welford::new();
        for &v in &values[start..end] {
            w.push(v);
        }
        w.finish()
    }

    #[test]
    fn rolling_stats_matches_direct_recompute() {
        // Mix of drifts, spikes and NaN dropouts.
        let values: Vec<f64> = (0..300)
            .map(|i| {
                if i % 37 == 0 {
                    f64::NAN
                } else {
                    5e6 + 1e5 * (i as f64 * 0.7).sin() + if i % 53 == 0 { 2e6 } else { 0.0 }
                }
            })
            .collect();
        for window in [1usize, 2, 7, 64] {
            let mut rs = RollingStats::new(window);
            for (i, &v) in values.iter().enumerate() {
                rs.push(v);
                assert_eq!(rs.len(), (i + 1).min(window));
                let got = rs.stats();
                let want = window_reference(&values, window, i + 1);
                assert_eq!(got.count, want.count, "window {window} at {i}");
                if want.count > 0 {
                    assert_eq!(got.min.to_bits(), want.min.to_bits());
                    assert_eq!(got.max.to_bits(), want.max.to_bits());
                    assert!(
                        (got.mean - want.mean).abs() <= 1e-6 * want.mean.abs().max(1.0),
                        "mean {} vs {}",
                        got.mean,
                        want.mean
                    );
                    assert!(
                        (got.std - want.std).abs() <= 1e-3 * want.std.abs().max(1.0),
                        "std {} vs {}",
                        got.std,
                        want.std
                    );
                }
            }
        }
    }

    #[test]
    fn rolling_stats_memory_is_window_bounded() {
        let mut rs = RollingStats::new(16);
        for i in 0..10_000 {
            rs.push(i as f64);
        }
        assert_eq!(rs.len(), 16);
        let s = rs.stats();
        assert_eq!(s.min, 9984.0);
        assert_eq!(s.max, 9999.0);
    }

    #[test]
    fn rolling_sketch_refreshes_distribution_estimators() {
        let mut sk = RollingSketch::new(100);
        assert!(sk.ecdf().is_none());
        assert!(sk.percentile(0.5).is_nan());
        for i in 0..250 {
            sk.push(i as f64);
            sk.push(f64::NAN); // skipped, carries no information
        }
        // Only the last 100 finite samples (150..250) are retained.
        assert_eq!(sk.len(), 100);
        let p50 = sk.percentile(0.5);
        assert!((150.0..250.0).contains(&p50), "p50 {p50}");
        let kde = sk.kde().unwrap();
        let (grid, dens) = kde.grid(64, 0.1);
        assert_eq!(grid.len(), 64);
        assert!(dens.iter().all(|d| d.is_finite()));
    }
}
