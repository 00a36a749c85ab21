//! Aligned snapshot superposition (paper Figures 11 and 12).
//!
//! The paper summarizes system dynamics around detected edges by cutting a
//! fixed window around each edge ("1 minute before and 4 minutes
//! following"), superimposing the snapshots aligned at the edge time, and
//! plotting the mean with a 95 % confidence envelope. This module
//! implements the extraction, alignment, and envelope computation for any
//! set of aligned series.

use crate::series::Series;
use crate::special::student_t_critical;
use crate::stats::Welford;

/// The paper's snapshot window: 60 s before the edge.
pub const PAPER_WINDOW_BEFORE_S: f64 = 60.0;
/// The paper's snapshot window: 240 s after the edge.
pub const PAPER_WINDOW_AFTER_S: f64 = 240.0;

/// A superposition of aligned snapshots: per-offset mean and confidence
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Superposition {
    /// Time offsets relative to the alignment point (seconds; negative =
    /// before the edge).
    pub offsets_s: Vec<f64>,
    /// Mean across snapshots at each offset.
    pub mean: Vec<f64>,
    /// Lower edge of the confidence envelope.
    pub ci_lo: Vec<f64>,
    /// Upper edge of the confidence envelope.
    pub ci_hi: Vec<f64>,
    /// Number of snapshots contributing at each offset.
    pub support: Vec<u64>,
    /// Number of snapshots requested.
    pub snapshot_count: usize,
}

impl Superposition {
    /// Mean value at the offset closest to `t` seconds.
    pub fn mean_at(&self, t: f64) -> f64 {
        if self.offsets_s.is_empty() {
            return f64::NAN;
        }
        self.offsets_s
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - t).abs().total_cmp(&(b.1 - t).abs()))
            .map_or(f64::NAN, |(i, _)| self.mean[i])
    }

    /// Peak of the mean envelope within `[t_lo, t_hi]` offsets.
    pub fn peak_in(&self, t_lo: f64, t_hi: f64) -> f64 {
        self.offsets_s
            .iter()
            .zip(&self.mean)
            .filter(|(&t, _)| t >= t_lo && t <= t_hi)
            .map(|(_, &m)| m)
            .fold(
                f64::NAN,
                |acc, m| if acc.is_nan() || m > acc { m } else { acc },
            )
    }
}

/// Extracts a window `[align_time - before, align_time + after)` from a
/// series. Offsets outside the series contribute NaN so all snapshots keep
/// identical length.
pub fn extract_snapshot(series: &Series, align_time: f64, before_s: f64, after_s: f64) -> Vec<f64> {
    let dt = series.dt();
    let n_before = (before_s / dt).round() as i64;
    let n_after = (after_s / dt).round() as i64;
    let align_idx = ((align_time - series.t0()) / dt).round() as i64;
    let mut out = Vec::with_capacity((n_before + n_after) as usize);
    for off in -n_before..n_after {
        let i = align_idx + off;
        if i >= 0 && (i as usize) < series.len() {
            out.push(series.values()[i as usize]);
        } else {
            out.push(f64::NAN);
        }
    }
    out
}

/// Superimposes snapshots of `series` aligned at each of `align_times`,
/// returning the per-offset mean and a `confidence` (e.g. 0.95) Student-t
/// envelope. Offsets where fewer than 2 snapshots contribute get a
/// degenerate (mean-only) envelope.
pub fn superimpose(
    series: &Series,
    align_times: &[f64],
    before_s: f64,
    after_s: f64,
    confidence: f64,
) -> Superposition {
    assert!(confidence > 0.0 && confidence < 1.0);
    let dt = series.dt();
    let n_before = (before_s / dt).round() as i64;
    let n_after = (after_s / dt).round() as i64;
    let width = (n_before + n_after) as usize;

    let mut acc: Vec<Welford> = vec![Welford::new(); width];
    for &t in align_times {
        let snap = extract_snapshot(series, t, before_s, after_s);
        for (a, v) in acc.iter_mut().zip(snap) {
            a.push(v); // Welford ignores NaN
        }
    }

    let offsets_s: Vec<f64> = (0..width)
        .map(|i| (i as i64 - n_before) as f64 * dt)
        .collect();
    let mut mean = Vec::with_capacity(width);
    let mut ci_lo = Vec::with_capacity(width);
    let mut ci_hi = Vec::with_capacity(width);
    let mut support = Vec::with_capacity(width);
    for a in &acc {
        let m = a.mean();
        mean.push(m);
        support.push(a.count());
        if a.count() >= 2 {
            let sem = a.std() / (a.count() as f64).sqrt();
            let t_crit = student_t_critical((a.count() - 1) as f64, confidence);
            ci_lo.push(m - t_crit * sem);
            ci_hi.push(m + t_crit * sem);
        } else {
            ci_lo.push(m);
            ci_hi.push(m);
        }
    }

    Superposition {
        offsets_s,
        mean,
        ci_lo,
        ci_hi,
        support,
        snapshot_count: align_times.len(),
    }
}

/// Convenience: the paper's exact window (1 min before, 4 min after, 95 %).
pub fn superimpose_paper_window(series: &Series, align_times: &[f64]) -> Superposition {
    superimpose(
        series,
        align_times,
        PAPER_WINDOW_BEFORE_S,
        PAPER_WINDOW_AFTER_S,
        0.95,
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn extract_aligns_correctly() {
        let s = Series::new(0.0, 10.0, (0..20).map(|i| i as f64).collect());
        // Align at t=100 (index 10), 20 s before, 30 s after.
        let snap = extract_snapshot(&s, 100.0, 20.0, 30.0);
        assert_eq!(snap, vec![8.0, 9.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn extract_pads_with_nan_at_boundaries() {
        let s = Series::new(0.0, 10.0, (0..5).map(|i| i as f64).collect());
        let snap = extract_snapshot(&s, 0.0, 20.0, 30.0);
        assert!(snap[0].is_nan() && snap[1].is_nan());
        assert_eq!(&snap[2..], &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn superposition_of_identical_events() {
        // A repeating sawtooth; snapshots at each period start are identical,
        // so CI width collapses to ~0.
        let period = 10usize;
        let values: Vec<f64> = (0..100).map(|i| (i % period) as f64).collect();
        let s = Series::new(0.0, 1.0, values);
        let aligns: Vec<f64> = (2..8).map(|k| (k * period) as f64).collect();
        let sp = superimpose(&s, &aligns, 2.0, 5.0, 0.95);
        assert_eq!(sp.snapshot_count, 6);
        for i in 0..sp.offsets_s.len() {
            assert_eq!(sp.support[i], 6);
            assert!((sp.ci_hi[i] - sp.ci_lo[i]).abs() < 1e-9);
        }
        // Mean at offset 0 equals the sawtooth value at period start.
        assert!((sp.mean_at(0.0) - 0.0).abs() < 1e-12);
        assert!((sp.mean_at(3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn superposition_ci_contains_mean_spread() {
        // Two snapshot sites with different levels -> CI must straddle both.
        let mut values = vec![0.0; 40];
        for v in values.iter_mut().take(20) {
            *v = 10.0;
        }
        for v in values.iter_mut().skip(20) {
            *v = 20.0;
        }
        let s = Series::new(0.0, 1.0, values);
        let sp = superimpose(&s, &[5.0, 25.0], 2.0, 3.0, 0.95);
        let mid = sp.mean_at(0.0);
        assert!((mid - 15.0).abs() < 1e-9);
        let idx = sp.offsets_s.iter().position(|&o| o == 0.0).unwrap();
        assert!(sp.ci_lo[idx] < 10.5 && sp.ci_hi[idx] > 19.5);
    }

    #[test]
    fn peak_in_window() {
        let s = Series::new(0.0, 1.0, vec![0.0, 1.0, 5.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        let sp = superimpose(&s, &[1.0], 1.0, 5.0, 0.95);
        assert_eq!(sp.peak_in(0.0, 4.0), 5.0);
    }

    #[test]
    fn empty_alignments_yield_nan_means() {
        let s = Series::new(0.0, 1.0, vec![1.0; 10]);
        let sp = superimpose(&s, &[], 2.0, 2.0, 0.95);
        assert_eq!(sp.snapshot_count, 0);
        assert!(sp.mean.iter().all(|m| m.is_nan()));
        assert!(sp.support.iter().all(|&c| c == 0));
    }

    #[test]
    fn paper_window_dimensions() {
        let s = Series::new(0.0, 10.0, vec![1.0; 100]);
        let sp = superimpose_paper_window(&s, &[500.0]);
        // 60 s before + 240 s after at 10 s dt = 30 samples.
        assert_eq!(sp.offsets_s.len(), 30);
        assert_eq!(sp.offsets_s[0], -60.0);
        assert_eq!(*sp.offsets_s.last().unwrap(), 230.0);
    }
}
