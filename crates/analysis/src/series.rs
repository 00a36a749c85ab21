//! Uniformly-sampled time series: container, resampling, differencing.
//!
//! All cluster- and job-level power/thermal analyses in the paper operate on
//! uniformly-sampled series (1 Hz raw, 10 s coarsened). This module provides
//! the container those analyses share, plus first differencing (the paper
//! differences each job's power series before the FFT because of its
//! auto-correlated nature, Section 4.2).

/// A uniformly-sampled time series. `t0` is the epoch-seconds timestamp of
/// the first sample; `dt` the sampling interval in seconds.
///
/// ```
/// use summit_analysis::series::Series;
/// let power = Series::new(0.0, 10.0, vec![1.0e6, 2.0e6, 3.0e6]);
/// assert_eq!(power.at_time(15.0), 2.0e6);
/// assert_eq!(power.diff().values(), &[1.0e6, 1.0e6]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    t0: f64,
    dt: f64,
    values: Vec<f64>,
}

impl Series {
    /// Creates a series. `dt` must be positive.
    pub fn new(t0: f64, dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0, "sampling interval must be positive, got {dt}");
        Self { t0, dt, values }
    }

    /// Creates an empty series with the given timing.
    pub fn empty(t0: f64, dt: f64) -> Self {
        Self::new(t0, dt, Vec::new())
    }

    /// First timestamp.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sampling interval (seconds).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable sample values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Timestamp of sample `i`.
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// Timestamp just past the last sample.
    pub fn t_end(&self) -> f64 {
        self.t0 + self.values.len() as f64 * self.dt
    }

    /// Index of the sample covering timestamp `t`, if within range.
    pub fn index_of(&self, t: f64) -> Option<usize> {
        if t < self.t0 {
            return None;
        }
        let i = ((t - self.t0) / self.dt).floor() as usize;
        (i < self.values.len()).then_some(i)
    }

    /// Value at timestamp `t` (sample-and-hold), NaN if out of range.
    pub fn at_time(&self, t: f64) -> f64 {
        self.index_of(t).map_or(f64::NAN, |i| self.values[i])
    }

    /// Slices out the window `[t_start, t_end)` as a new series.
    /// Clamps to the available range.
    pub fn window(&self, t_start: f64, t_end: f64) -> Series {
        let start = (((t_start - self.t0) / self.dt).ceil().max(0.0)) as usize;
        let end =
            ((((t_end - self.t0) / self.dt).floor()).max(0.0) as usize).min(self.values.len());
        let start = start.min(end);
        Series::new(
            self.t0 + start as f64 * self.dt,
            self.dt,
            self.values[start..end].to_vec(),
        )
    }

    /// First difference: `y[i] = x[i+1] - x[i]` (length `n-1`).
    ///
    /// This is the de-trending step the paper applies before the FFT.
    pub fn diff(&self) -> Series {
        let values = self.values.windows(2).map(|w| w[1] - w[0]).collect();
        Series::new(self.t0 + self.dt, self.dt, values)
    }

    /// Downsamples by an integer factor, averaging each block (NaN-aware;
    /// a block of all-NaN yields NaN). This is how 1 Hz series become 10 s
    /// mean series.
    pub fn downsample_mean(&self, factor: usize) -> Series {
        assert!(factor >= 1, "downsample factor must be >= 1");
        if factor == 1 {
            return self.clone();
        }
        let values: Vec<f64> = self
            .values
            .chunks(factor)
            .map(|chunk| {
                let mut sum = 0.0;
                let mut n = 0u32;
                for &v in chunk {
                    if v.is_finite() {
                        sum += v;
                        n += 1;
                    }
                }
                if n == 0 {
                    f64::NAN
                } else {
                    sum / n as f64
                }
            })
            .collect();
        Series::new(self.t0, self.dt * factor as f64, values)
    }

    /// Element-wise sum of two aligned series (same t0/dt/len).
    ///
    /// # Panics
    /// If the series are not aligned.
    pub fn add(&self, other: &Series) -> Series {
        assert_eq!(self.dt, other.dt, "dt mismatch");
        assert_eq!(self.t0, other.t0, "t0 mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a + b)
            .collect();
        Series::new(self.t0, self.dt, values)
    }

    /// Scales every sample by a constant.
    pub fn scale(&self, k: f64) -> Series {
        Series::new(
            self.t0,
            self.dt,
            self.values.iter().map(|v| v * k).collect(),
        )
    }

    /// Fraction of NaN samples — the paper's telemetry had documented gaps
    /// (missing cabinet, lost temperature data in spring 2020).
    pub fn missing_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let nan = self.values.iter().filter(|v| !v.is_finite()).count();
        nan as f64 / self.values.len() as f64
    }
}

/// Sums many aligned series into one (e.g. per-node power into cluster
/// power). NaN samples are treated as missing (skipped); a timestamp where
/// every series is missing yields NaN.
pub fn sum_aligned(series: &[&Series]) -> Option<Series> {
    let first = series.first()?;
    let len = first.len();
    for s in series {
        assert_eq!(s.dt(), first.dt(), "dt mismatch in sum_aligned");
        assert_eq!(s.len(), len, "length mismatch in sum_aligned");
    }
    let mut out = vec![0.0f64; len];
    let mut seen = vec![false; len];
    for s in series {
        for (i, &v) in s.values().iter().enumerate() {
            if v.is_finite() {
                out[i] += v;
                seen[i] = true;
            }
        }
    }
    for (o, s) in out.iter_mut().zip(&seen) {
        if !s {
            *o = f64::NAN;
        }
    }
    Some(Series::new(first.t0(), first.dt(), out))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Series::new(100.0, 10.0, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.time_at(2), 120.0);
        assert_eq!(s.t_end(), 130.0);
        assert_eq!(s.at_time(115.0), 2.0);
        assert!(s.at_time(99.0).is_nan());
        assert!(s.at_time(130.0).is_nan());
    }

    #[test]
    fn window_extraction() {
        let s = Series::new(0.0, 1.0, (0..10).map(|i| i as f64).collect());
        let w = s.window(3.0, 7.0);
        assert_eq!(w.values(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(w.t0(), 3.0);
        // Clamped windows.
        let w2 = s.window(-5.0, 100.0);
        assert_eq!(w2.len(), 10);
        let w3 = s.window(8.0, 8.0);
        assert!(w3.is_empty());
    }

    #[test]
    fn diff_reduces_length_by_one() {
        let s = Series::new(0.0, 1.0, vec![1.0, 4.0, 9.0, 16.0]);
        let d = s.diff();
        assert_eq!(d.values(), &[3.0, 5.0, 7.0]);
        assert_eq!(d.t0(), 1.0);
    }

    #[test]
    fn diff_removes_linear_trend() {
        let s = Series::new(0.0, 1.0, (0..100).map(|i| 3.0 * i as f64 + 7.0).collect());
        let d = s.diff();
        assert!(d.values().iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn downsample_mean_blocks() {
        let s = Series::new(0.0, 1.0, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        let d = s.downsample_mean(2);
        assert_eq!(d.values(), &[2.0, 6.0, 9.0]);
        assert_eq!(d.dt(), 2.0);
    }

    #[test]
    fn downsample_mean_nan_aware() {
        let s = Series::new(0.0, 1.0, vec![1.0, f64::NAN, f64::NAN, f64::NAN]);
        let d = s.downsample_mean(2);
        assert_eq!(d.values()[0], 1.0);
        assert!(d.values()[1].is_nan());
    }

    #[test]
    fn add_and_scale() {
        let a = Series::new(0.0, 1.0, vec![1.0, 2.0]);
        let b = Series::new(0.0, 1.0, vec![10.0, 20.0]);
        assert_eq!(a.add(&b).values(), &[11.0, 22.0]);
        assert_eq!(a.scale(3.0).values(), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_rejects_misaligned() {
        let a = Series::new(0.0, 1.0, vec![1.0]);
        let b = Series::new(0.0, 1.0, vec![1.0, 2.0]);
        a.add(&b);
    }

    #[test]
    fn sum_aligned_skips_missing() {
        let a = Series::new(0.0, 1.0, vec![1.0, f64::NAN, 3.0]);
        let b = Series::new(0.0, 1.0, vec![10.0, 20.0, f64::NAN]);
        let s = sum_aligned(&[&a, &b]).unwrap();
        assert_eq!(s.values()[0], 11.0);
        assert_eq!(s.values()[1], 20.0);
        assert_eq!(s.values()[2], 3.0);
    }

    #[test]
    fn sum_aligned_all_missing_is_nan() {
        let a = Series::new(0.0, 1.0, vec![f64::NAN]);
        let b = Series::new(0.0, 1.0, vec![f64::NAN]);
        let s = sum_aligned(&[&a, &b]).unwrap();
        assert!(s.values()[0].is_nan());
    }

    #[test]
    fn sum_aligned_empty_input() {
        assert!(sum_aligned(&[]).is_none());
    }

    #[test]
    fn missing_fraction_counts_nan() {
        let s = Series::new(0.0, 1.0, vec![1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(s.missing_fraction(), 0.5);
        assert_eq!(Series::empty(0.0, 1.0).missing_fraction(), 0.0);
    }
}
