//! Descriptive statistics: streaming (Welford) accumulators, quantiles,
//! five-number/boxplot summaries with the 1.5 IQR outlier rule used
//! throughout the paper (Section 6.2, Figure 17), and weighted percentile
//! helpers for the Figure 7 CDF red-lines.

/// Streaming accumulator for count/min/max/mean/std using Welford's
/// algorithm — the exact statistic set the paper stores per 10-second
/// window ("min., max., mean, and standard deviation", Section 3).
///
/// ```
/// use summit_analysis::stats::Welford;
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] { w.push(x); }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.finish().count, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored (the telemetry layer
    /// models dropped/NaN sensor reads and aggregation must stay robust,
    /// mirroring the paper's missing-data handling).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (`/n`); NaN when empty.
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (`/(n-1)`); NaN for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation; NaN for fewer than two samples.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum; NaN when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum; NaN when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Freezes into the compact window statistic record.
    pub fn finish(&self) -> WindowStats {
        WindowStats {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            std: if self.count < 2 { 0.0 } else { self.std() },
        }
    }
}

/// A structure-of-arrays bank of [`Welford`] accumulators — one lane
/// per column of a fixed-width record stream (e.g. the 25 metrics a
/// telemetry frame carries through the coarsener).
///
/// [`WelfordColumns::push_row`] updates every lane in one pass over
/// the row. Lanes are independent, so unlike a single Welford fold
/// (whose running mean is a loop-carried chain) the lane axis has no
/// serial dependency: the counts, means, m2s and min/max live in
/// parallel `f64` arrays, and for an all-finite row the update is
/// branch-free, which lets the compiler vectorize the whole quintuple
/// update across lanes.
///
/// Counts are tracked as `f64` so the entire update stays in one SIMD
/// domain; they are exact integers far below 2^53, and every lane is
/// bit-identical to calling [`Welford::push`] with the same samples:
///
/// ```
/// use summit_analysis::stats::{Welford, WelfordColumns};
/// let rows: [[f32; 2]; 3] = [[1.0, 10.0], [2.0, f32::NAN], [3.0, 30.0]];
/// let mut bank = WelfordColumns::new(2);
/// for row in &rows {
///     bank.push_row(row);
/// }
/// let mut by_hand = Welford::new();
/// for row in &rows {
///     by_hand.push(f64::from(row[0]));
/// }
/// assert_eq!(bank.lane(0), by_hand);
/// assert_eq!(bank.lane(1).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WelfordColumns {
    count: Vec<f64>,
    mean: Vec<f64>,
    m2: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
}

impl WelfordColumns {
    /// Creates a bank of `width` empty accumulators.
    pub fn new(width: usize) -> Self {
        Self {
            count: vec![0.0; width],
            mean: vec![0.0; width],
            m2: vec![0.0; width],
            min: vec![f64::INFINITY; width],
            max: vec![f64::NEG_INFINITY; width],
        }
    }

    /// Folds one row into the bank: lane `m` receives `row[m]`. The
    /// row must match the bank's width.
    ///
    /// One check per row picks the update: an all-finite row — every
    /// frame of a lit node — takes the branch-free update, which
    /// vectorizes across the lanes; any other row (the all-NaN frames
    /// of a dark cabinet, sensors that dropped out) takes the per-lane
    /// update, which skips each non-finite sample before any
    /// arithmetic. A non-finite sample leaves every field of its lane
    /// unchanged, so both are exact.
    pub fn push_row(&mut self, row: &[f32]) {
        let w = self.count.len();
        debug_assert_eq!(row.len(), w, "row width must match the bank");
        // Pin the row to the bank width up front: a short row still
        // fails loudly here, and the equal-length slices let the lane
        // loops run without per-lane bounds checks.
        let row = &row[..w];
        let (count, mean, m2) = (&mut self.count[..w], &mut self.mean[..w], &mut self.m2[..w]);
        let (min, max) = (&mut self.min[..w], &mut self.max[..w]);
        // A fold rather than `all`: without an early exit the check
        // vectorizes, which keeps it as cheap as the update it picks.
        if row.iter().fold(true, |all, v| all & v.is_finite()) {
            update_lanes(count, mean, m2, min, max, row);
        } else {
            update_lanes_sparse(count, mean, m2, min, max, row);
        }
    }

    /// Reads lane `m` out as an ordinary [`Welford`] accumulator.
    pub fn lane(&self, m: usize) -> Welford {
        Welford {
            // Counts are integral and far below 2^53, so the cast is
            // exact.
            count: self.count[m] as u64,
            mean: self.mean[m],
            m2: self.m2[m],
            min: self.min[m],
            max: self.max[m],
        }
    }

    /// Freezes every lane into its compact window record and empties
    /// it, in one traversal of the bank: appends `width()` entries to
    /// `out` in lane order, each bit-identical to [`WelfordColumns::lane`]
    /// followed by [`Welford::finish`], and leaves every lane as
    /// [`WelfordColumns::new`] made it (keeping the allocations).
    pub fn finish_reset_into(&mut self, out: &mut Vec<WindowStats>) {
        out.reserve(self.count.len());
        for m in 0..self.count.len() {
            // Counts are exact integers far below 2^53, so both the
            // u64 cast and the `count - 1.0` divisor match the u64
            // arithmetic in `Welford::finish` to the bit.
            let count = self.count[m];
            let empty = count == 0.0;
            out.push(WindowStats {
                count: count as u64,
                min: if empty { f64::NAN } else { self.min[m] },
                max: if empty { f64::NAN } else { self.max[m] },
                mean: if empty { f64::NAN } else { self.mean[m] },
                std: if count < 2.0 {
                    0.0
                } else {
                    (self.m2[m] / (count - 1.0)).sqrt()
                },
            });
            self.count[m] = 0.0;
            self.mean[m] = 0.0;
            self.m2[m] = 0.0;
            self.min[m] = f64::INFINITY;
            self.max[m] = f64::NEG_INFINITY;
        }
    }
}

/// The branch-free quintuple update for one fully-populated row
/// applied to the matching lane slices. Callers must have verified
/// every sample in `row` is finite: with that precondition the
/// non-finite masking of [`Welford::push`] reduces to no-ops, so this
/// unmasked body is bit-identical to it while doing strictly less
/// work. All six slices must share a length, which the caller pins so
/// the body vectorizes across lanes.
#[inline(always)]
fn update_lanes(
    count: &mut [f64],
    mean: &mut [f64],
    m2: &mut [f64],
    min: &mut [f64],
    max: &mut [f64],
    row: &[f32],
) {
    for m in 0..row.len() {
        let x = f64::from(row[m]);
        let n = count[m] + 1.0;
        let delta = x - mean[m];
        let mean_new = mean[m] + delta / n;
        m2[m] += delta * (x - mean_new);
        count[m] = n;
        mean[m] = mean_new;
        min[m] = if x < min[m] { x } else { min[m] };
        max[m] = if x > max[m] { x } else { max[m] };
    }
}

/// The per-lane branchy variant of [`update_lanes`] for rows where
/// some lanes have no sample: a non-finite lane is skipped before any
/// arithmetic, so a mostly-missing row costs its finite lanes only.
/// Finite lanes execute the identical operation sequence to
/// [`update_lanes`], keeping the two variants bit-identical.
#[inline(always)]
fn update_lanes_sparse(
    count: &mut [f64],
    mean: &mut [f64],
    m2: &mut [f64],
    min: &mut [f64],
    max: &mut [f64],
    row: &[f32],
) {
    for m in 0..row.len() {
        let x = f64::from(row[m]);
        if !x.is_finite() {
            continue;
        }
        let n = count[m] + 1.0;
        let delta = x - mean[m];
        let mean_new = mean[m] + delta / n;
        m2[m] += delta * (x - mean_new);
        count[m] = n;
        mean[m] = mean_new;
        if x < min[m] {
            min[m] = x;
        }
        if x > max[m] {
            max[m] = x;
        }
    }
}

/// The `count/min/max/mean/std` record stored per coarsened window —
/// the paper's Dataset 0 column quintuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Samples in the window.
    pub count: u64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Mean sample.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std: f64,
}

impl WindowStats {
    /// An empty (all-missing) window.
    pub fn empty() -> Self {
        Self {
            count: 0,
            min: f64::NAN,
            max: f64::NAN,
            mean: f64::NAN,
            std: f64::NAN,
        }
    }

    /// True if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Computes a linear-interpolated quantile (`q` in [0, 1]) of unsorted data.
///
/// Matches numpy's default ("linear") method. NaNs are filtered first.
/// Returns NaN for empty input.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile q must be in [0,1], got {q}"
    );
    let mut v: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&v, q)
}

/// Quantile of already-sorted, finite data (linear interpolation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of unsorted data.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Boxplot summary with the 1.5 IQR whisker/outlier rule, the rule the
/// paper uses to define "non-outlier" spreads (Section 6.2: 62 W power
/// spread, 15.8 °C temperature spread over 27,648 GPUs).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Number of finite samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Lowest datum above `q1 - 1.5*IQR`.
    pub whisker_lo: f64,
    /// Highest datum below `q3 + 1.5*IQR`.
    pub whisker_hi: f64,
    /// Count of low outliers (below the lower fence).
    pub outliers_lo: usize,
    /// Count of high outliers (above the upper fence).
    pub outliers_hi: usize,
    /// Smallest sample (including outliers).
    pub min: f64,
    /// Largest sample (including outliers).
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxStats {
    /// Computes the boxplot summary of `data` (NaNs dropped).
    /// Returns `None` for empty (post-filter) input.
    pub fn compute(data: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let q1 = quantile_sorted(&v, 0.25);
        let med = quantile_sorted(&v, 0.5);
        let q3 = quantile_sorted(&v, 0.75);
        let iqr = q3 - q1;
        let fence_lo = q1 - 1.5 * iqr;
        let fence_hi = q3 + 1.5 * iqr;
        let whisker_lo = v.iter().copied().find(|&x| x >= fence_lo).unwrap_or(v[0]);
        let whisker_hi = v
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= fence_hi)
            .unwrap_or(v[v.len() - 1]);
        let outliers_lo = v.iter().take_while(|&&x| x < fence_lo).count();
        let outliers_hi = v.iter().rev().take_while(|&&x| x > fence_hi).count();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some(Self {
            count: v.len(),
            q1,
            median: med,
            q3,
            whisker_lo,
            whisker_hi,
            outliers_lo,
            outliers_hi,
            min: v[0],
            max: v[v.len() - 1],
            mean,
        })
    }

    /// The non-outlier spread (whisker-to-whisker range) — the paper's
    /// "spread of non-outlier" metric for Figure 17.
    pub fn non_outlier_spread(&self) -> f64 {
        self.whisker_hi - self.whisker_lo
    }
}

/// Full descriptive summary of a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of finite samples.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary (NaNs dropped); `None` if no finite values.
    pub fn compute(data: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let mut w = Welford::new();
        for &x in &v {
            w.push(x);
        }
        Some(Self {
            count: v.len(),
            mean: w.mean(),
            std: if v.len() > 1 { w.std() } else { 0.0 },
            min: v[0],
            p05: quantile_sorted(&v, 0.05),
            p25: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            p75: quantile_sorted(&v, 0.75),
            p95: quantile_sorted(&v, 0.95),
            max: v[v.len() - 1],
        })
    }
}

/// Fisher-Pearson sample skewness (g1). NaN for fewer than 3 samples or
/// zero variance. Used to classify the left/right skew of the failure
/// thermal-extremity distributions (Figure 15).
pub fn skewness(data: &[f64]) -> f64 {
    let v: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    let n = v.len();
    if n < 3 {
        return f64::NAN;
    }
    let mean = v.iter().sum::<f64>() / n as f64;
    let m2 = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    let m3 = v.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
    if m2 <= 0.0 {
        return f64::NAN;
    }
    m3 / m2.powf(1.5)
}

/// Mean of a slice ignoring NaNs; NaN if empty.
pub fn nanmean(data: &[f64]) -> f64 {
    let mut w = Welford::new();
    for &x in data {
        w.push(x);
    }
    w.mean()
}

/// Maximum ignoring NaNs; NaN if empty.
pub fn nanmax(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(
            f64::NAN,
            |acc, x| if acc.is_nan() || x > acc { x } else { acc },
        )
}

/// Minimum ignoring NaNs; NaN if empty.
pub fn nanmin(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(
            f64::NAN,
            |acc, x| if acc.is_nan() || x < acc { x } else { acc },
        )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    /// Deterministic pseudo-random stream for the column property tests
    /// (no external RNG dependency; splitmix64).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn welford_columns_match_scalar_welford_bitwise() {
        // Each row is all-finite, all-NaN or mixed (NaN, ±inf, finite),
        // with magnitudes from 1e-6 to 1e12, so both push_row paths run
        // at the catalog's width (25) and at a wider one (106). Two
        // windows through the fused finish-and-reset check that the
        // reset leaves every lane empty.
        for width in [25usize, 106] {
            let mut state = 0xC01A_2021u64;
            let mut bank = WelfordColumns::new(width);
            let mut stats = Vec::new();
            for window in 0..2 {
                let mut scalar = vec![Welford::new(); width];
                for _ in 0..40 {
                    let kind = splitmix64(&mut state) % 3;
                    let row: Vec<f32> = (0..width)
                        .map(|_| {
                            let r = splitmix64(&mut state);
                            match (kind, r % 8) {
                                (1, _) | (2, 0) => f32::NAN,
                                (2, 1) if r & 16 == 0 => f32::INFINITY,
                                (2, 1) => f32::NEG_INFINITY,
                                _ => {
                                    let exp = ((r >> 8) % 19) as i32 - 6;
                                    let mantissa = ((r >> 16) % 1000) as f32 / 100.0;
                                    let sign = if (r >> 40) & 1 == 0 { 1.0 } else { -1.0 };
                                    sign * mantissa * 10f32.powi(exp)
                                }
                            }
                        })
                        .collect();
                    bank.push_row(&row);
                    for (w, &v) in scalar.iter_mut().zip(&row) {
                        w.push(f64::from(v));
                    }
                }
                stats.clear();
                bank.finish_reset_into(&mut stats);
                assert_eq!(stats.len(), width);
                for (m, (got, lane)) in stats.iter().zip(&scalar).enumerate() {
                    let want = lane.finish();
                    let ctx = format!("width {width} window {window} lane {m}");
                    assert_eq!(got.count, want.count, "count {ctx}");
                    assert_eq!(got.min.to_bits(), want.min.to_bits(), "min {ctx}");
                    assert_eq!(got.max.to_bits(), want.max.to_bits(), "max {ctx}");
                    assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "mean {ctx}");
                    assert_eq!(got.std.to_bits(), want.std.to_bits(), "std {ctx}");
                }
            }
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance_population() - 4.0).abs() < 1e-12);
        assert!((w.std() - (32.0 / 7.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let b = Welford::new();
        let snapshot = a;
        a.merge(&b);
        assert_eq!(a, snapshot);

        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.mean(), 2.0);
    }

    #[test]
    fn welford_ignores_nan() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(f64::NAN);
        w.push(3.0);
        w.push(f64::INFINITY);
        assert_eq!(w.count(), 2);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn empty_welford_is_nan() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.min().is_nan());
        assert!(w.max().is_nan());
        assert!(w.std().is_nan());
    }

    #[test]
    fn quantile_linear_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert!((quantile(&data, 0.5) - 2.5).abs() < 1e-12);
        // numpy.percentile([1,2,3,4], 25) = 1.75
        assert!((quantile(&data, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.3), 42.0);
    }

    #[test]
    fn quantile_empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(quantile(&[f64::NAN], 0.5).is_nan());
    }

    #[test]
    fn boxstats_basic() {
        let data: Vec<f64> = (1..=11).map(|x| x as f64).collect();
        let b = BoxStats::compute(&data).unwrap();
        assert_eq!(b.median, 6.0);
        assert_eq!(b.q1, 3.5);
        assert_eq!(b.q3, 8.5);
        assert_eq!(b.outliers_lo + b.outliers_hi, 0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 11.0);
    }

    #[test]
    fn boxstats_flags_outliers() {
        let mut data: Vec<f64> = (1..=11).map(|x| x as f64).collect();
        data.push(1000.0);
        data.push(-1000.0);
        let b = BoxStats::compute(&data).unwrap();
        assert_eq!(b.outliers_hi, 1);
        assert_eq!(b.outliers_lo, 1);
        assert!(b.whisker_hi <= 11.0);
        assert!(b.whisker_lo >= 1.0);
        assert!(b.non_outlier_spread() <= 10.0 + 1e-9);
    }

    #[test]
    fn boxstats_empty_is_none() {
        assert!(BoxStats::compute(&[]).is_none());
        assert!(BoxStats::compute(&[f64::NAN]).is_none());
    }

    #[test]
    fn summary_percentiles_ordered() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let s = Summary::compute(&data).unwrap();
        assert!(s.min <= s.p05);
        assert!(s.p05 <= s.p25);
        assert!(s.p25 <= s.median);
        assert!(s.median <= s.p75);
        assert!(s.p75 <= s.p95);
        assert!(s.p95 <= s.max);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn skewness_signs() {
        // Right-skewed: long tail to the right.
        let right: Vec<f64> = vec![1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 10.0];
        assert!(skewness(&right) > 0.5);
        // Left-skewed.
        let left: Vec<f64> = right.iter().map(|x| -x).collect();
        assert!(skewness(&left) < -0.5);
        // Symmetric.
        let sym = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&sym).abs() < 1e-12);
    }

    #[test]
    fn skewness_degenerate() {
        assert!(skewness(&[1.0, 2.0]).is_nan());
        assert!(skewness(&[3.0, 3.0, 3.0]).is_nan());
    }

    #[test]
    fn nan_aggregations() {
        let data = [1.0, f64::NAN, 3.0];
        assert_eq!(nanmean(&data), 2.0);
        assert_eq!(nanmax(&data), 3.0);
        assert_eq!(nanmin(&data), 1.0);
        assert!(nanmax(&[]).is_nan());
        assert!(nanmin(&[f64::NAN]).is_nan());
    }

    #[test]
    fn window_stats_empty() {
        let w = WindowStats::empty();
        assert!(w.is_empty());
        assert!(w.mean.is_nan());
    }
}
