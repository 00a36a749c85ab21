//! Fixed-bin and automatically-binned histograms, one- and two-dimensional.
//!
//! Histograms back the telemetry system's "histogram-based component-wise
//! temperature distribution summary" (Section 2) and several figure
//! reproductions (Figure 16 slot counts, Figure 10 amplitude distribution).

/// A one-dimensional histogram over uniform bins on `[lo, hi)`.
///
/// Values outside the range are counted in saturating edge bins
/// (`underflow` / `overflow`) rather than silently dropped, because the
/// telemetry layer must account for every sensor reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// If `bins == 0`, or the range is empty or non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && hi > lo,
            "invalid histogram range [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Builds a histogram from data with automatic range (min..max padded
    /// by half a bin so the max lands inside). NaNs are dropped.
    /// Returns `None` if no finite data.
    pub fn auto(data: &[f64], bins: usize) -> Option<Self> {
        let finite: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if lo == hi {
            (lo - 0.5, hi + 0.5)
        } else {
            let pad = (hi - lo) * 1e-9;
            (lo, hi + pad + (hi - lo) / bins as f64 * 1e-6)
        };
        let mut h = Self::new(lo, hi, bins);
        for &x in &finite {
            h.push(x);
        }
        Some(h)
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width()) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count below range / above range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations pushed (including out-of-range, excluding NaN).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Left edge of bin `i` (edge `bins()` is the upper bound).
    pub fn edge(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.width()
    }

    /// Normalized density per bin (integrates to ≈ in-range fraction).
    pub fn density(&self) -> Vec<f64> {
        let norm = self.total.max(1) as f64 * self.width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }

    /// Merges a histogram with identical binning (parallel reduction).
    ///
    /// # Panics
    /// If binning differs.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

/// A two-dimensional histogram over uniform bins — the cheap counterpart of
/// the 2-D KDE used for quick density scans of the Figure 6/9 joint
/// distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2d {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    x_bins: usize,
    y_bins: usize,
    /// Row-major `[y][x]` counts flattened.
    counts: Vec<u64>,
    total: u64,
    out_of_range: u64,
}

impl Histogram2d {
    /// Creates a 2-D histogram with the given ranges and bin counts.
    pub fn new(x_range: (f64, f64), y_range: (f64, f64), x_bins: usize, y_bins: usize) -> Self {
        assert!(x_bins > 0 && y_bins > 0);
        assert!(x_range.1 > x_range.0 && y_range.1 > y_range.0);
        Self {
            x_lo: x_range.0,
            x_hi: x_range.1,
            y_lo: y_range.0,
            y_hi: y_range.1,
            x_bins,
            y_bins,
            counts: vec![0; x_bins * y_bins],
            total: 0,
            out_of_range: 0,
        }
    }

    /// Adds one observation; out-of-range points are tallied separately.
    pub fn push(&mut self, x: f64, y: f64) {
        if x.is_nan() || y.is_nan() {
            return;
        }
        self.total += 1;
        if x < self.x_lo || x >= self.x_hi || y < self.y_lo || y >= self.y_hi {
            self.out_of_range += 1;
            return;
        }
        let xi = (((x - self.x_lo) / (self.x_hi - self.x_lo)) * self.x_bins as f64) as usize;
        let yi = (((y - self.y_lo) / (self.y_hi - self.y_lo)) * self.y_bins as f64) as usize;
        let xi = xi.min(self.x_bins - 1);
        let yi = yi.min(self.y_bins - 1);
        self.counts[yi * self.x_bins + xi] += 1;
    }

    /// Count in cell `(xi, yi)`.
    pub fn cell(&self, xi: usize, yi: usize) -> u64 {
        assert!(xi < self.x_bins && yi < self.y_bins);
        self.counts[yi * self.x_bins + xi]
    }

    /// Total in-range + out-of-range observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations outside the grid.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0); // first bin
        h.push(10.0); // at the upper edge -> overflow
        h.push(-0.001); // underflow
        h.push(9.999999); // last bin
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_auto_covers_all_data() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.71).sin() * 5.0).collect();
        let h = Histogram::auto(&data, 16).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn histogram_auto_constant_data() {
        let h = Histogram::auto(&[5.0; 10], 4).unwrap();
        assert_eq!(h.total(), 10);
        assert_eq!(h.counts().iter().sum::<u64>(), 10);
    }

    #[test]
    fn histogram_auto_empty_is_none() {
        assert!(Histogram::auto(&[], 4).is_none());
        assert!(Histogram::auto(&[f64::NAN], 4).is_none());
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::auto(&data, 20).unwrap();
        let integral: f64 = h.density().iter().sum::<f64>() * h.width();
        assert!((integral - 1.0).abs() < 1e-9, "integral = {integral}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(1.0);
        b.push(1.0);
        b.push(11.0);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn histogram2d_basic() {
        let mut h = Histogram2d::new((0.0, 4.0), (0.0, 4.0), 4, 4);
        h.push(0.5, 0.5);
        h.push(3.5, 3.5);
        h.push(3.5, 3.5);
        h.push(5.0, 1.0); // out of range
        assert_eq!(h.cell(0, 0), 1);
        assert_eq!(h.cell(3, 3), 2);
        assert_eq!(h.out_of_range(), 1);
        assert_eq!(h.total(), 4);
    }
}
