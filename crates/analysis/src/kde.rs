//! Gaussian kernel density estimation, one- and two-dimensional.
//!
//! The paper's Figures 6 and 9 are Gaussian-KDE joint density plots
//! (energy × max-input-power per scheduling class; CPU × GPU per-node
//! power). This module implements the classic product-kernel estimator
//! with Scott's and Silverman's bandwidth rules, evaluated on grids in
//! parallel with rayon, plus mode (density peak) extraction used to
//! characterize the multi-modal structure the paper describes.

use rayon::prelude::*;

/// Bandwidth selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bandwidth {
    /// Scott's rule: `n^(-1/(d+4)) * sigma` per dimension.
    Scott,
    /// Silverman's rule: `(n*(d+2)/4)^(-1/(d+4)) * sigma` per dimension.
    Silverman,
}

impl Bandwidth {
    fn factor(self, n: usize, d: usize) -> f64 {
        let n = n as f64;
        let d = d as f64;
        match self {
            Bandwidth::Scott => n.powf(-1.0 / (d + 4.0)),
            Bandwidth::Silverman => (n * (d + 2.0) / 4.0).powf(-1.0 / (d + 4.0)),
        }
    }
}

fn std_dev(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    var.sqrt()
}

/// One-dimensional Gaussian KDE.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde1d {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde1d {
    /// Fits a 1-D KDE; NaNs dropped. Returns `None` if fewer than 2 finite
    /// samples or zero spread (degenerate density).
    pub fn fit(data: &[f64], rule: Bandwidth) -> Option<Self> {
        let _obs = summit_obs::span("summit_analysis_kde_fit");
        let samples: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if samples.len() < 2 {
            return None;
        }
        let sigma = std_dev(&samples);
        if sigma <= 0.0 {
            return None;
        }
        let bandwidth = rule.factor(samples.len(), 1) * sigma;
        Some(Self { samples, bandwidth })
    }

    /// Fits with an explicit bandwidth (must be positive).
    pub fn with_bandwidth(data: &[f64], bandwidth: f64) -> Option<Self> {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        let samples: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if samples.is_empty() {
            return None;
        }
        Some(Self { samples, bandwidth })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Evaluates the density at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / (self.samples.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
        let sum: f64 = self
            .samples
            .iter()
            .map(|&xi| {
                let u = (x - xi) / h;
                (-0.5 * u * u).exp()
            })
            .sum();
        norm * sum
    }

    /// Evaluates on a uniform grid covering the sample range extended by
    /// `pad` bandwidths on each side; returns `(xs, densities)`.
    pub fn grid(&self, points: usize, pad: f64) -> (Vec<f64>, Vec<f64>) {
        assert!(points >= 2);
        let lo = self.samples.iter().copied().fold(f64::INFINITY, f64::min) - pad * self.bandwidth;
        let hi = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            + pad * self.bandwidth;
        let xs: Vec<f64> = (0..points)
            .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
            .collect();
        // Tiny grids run inline — the pool wakeup costs more than a
        // few dozen evals; the chunk grid (and thus every bit of the
        // output) is the same on both dispatch paths.
        let ds: Vec<f64> = xs.par_iter().seq_below(32).map(|&x| self.eval(x)).collect();
        (xs, ds)
    }

    /// Finds local density maxima ("modes") on a grid — the paper's
    /// "multi-modal pattern with several high-density regions" metric for
    /// the small scheduling classes (Figure 6 discussion).
    pub fn modes(&self, grid_points: usize) -> Vec<f64> {
        let (xs, ds) = self.grid(grid_points, 3.0);
        let mut modes = Vec::new();
        for i in 1..ds.len() - 1 {
            if ds[i] > ds[i - 1] && ds[i] >= ds[i + 1] {
                modes.push(xs[i]);
            }
        }
        modes
    }
}

/// Two-dimensional product-kernel Gaussian KDE.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde2d {
    xs: Vec<f64>,
    ys: Vec<f64>,
    hx: f64,
    hy: f64,
}

/// A dense grid evaluation of a 2-D density.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityGrid {
    /// Grid x coordinates.
    pub x_axis: Vec<f64>,
    /// Grid y coordinates.
    pub y_axis: Vec<f64>,
    /// Row-major `[y][x]` densities.
    pub density: Vec<f64>,
}

impl DensityGrid {
    /// Density at grid cell `(xi, yi)`.
    pub fn at(&self, xi: usize, yi: usize) -> f64 {
        self.density[yi * self.x_axis.len() + xi]
    }

    /// Location `(x, y)` and value of the global density peak, or NaNs
    /// for a zero-sized grid.
    pub fn peak(&self) -> (f64, f64, f64) {
        let Some((idx, &v)) = self
            .density
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            return (f64::NAN, f64::NAN, f64::NAN);
        };
        let nx = self.x_axis.len();
        (self.x_axis[idx % nx], self.y_axis[idx / nx], v)
    }

    /// Counts local maxima above `threshold_frac` of the global peak —
    /// quantifies multi-modality (Figure 6: "several high-density regions").
    pub fn count_modes(&self, threshold_frac: f64) -> usize {
        let nx = self.x_axis.len();
        let ny = self.y_axis.len();
        let peak = self.peak().2;
        let thresh = peak * threshold_frac;
        let mut count = 0;
        for yi in 1..ny.saturating_sub(1) {
            for xi in 1..nx.saturating_sub(1) {
                let v = self.at(xi, yi);
                if v < thresh {
                    continue;
                }
                let neighbors = [
                    self.at(xi - 1, yi),
                    self.at(xi + 1, yi),
                    self.at(xi, yi - 1),
                    self.at(xi, yi + 1),
                    self.at(xi - 1, yi - 1),
                    self.at(xi + 1, yi - 1),
                    self.at(xi - 1, yi + 1),
                    self.at(xi + 1, yi + 1),
                ];
                if neighbors.iter().all(|&n| v >= n) && neighbors.iter().any(|&n| v > n) {
                    count += 1;
                }
            }
        }
        count
    }
}

impl Kde2d {
    /// Fits a 2-D KDE from paired observations; pairs with any NaN are
    /// dropped. Returns `None` if fewer than 2 valid pairs or zero spread
    /// in either dimension.
    pub fn fit(x: &[f64], y: &[f64], rule: Bandwidth) -> Option<Self> {
        assert_eq!(x.len(), y.len(), "x and y must be the same length");
        let _obs = summit_obs::span("summit_analysis_kde2_fit");
        let pairs: Vec<(f64, f64)> = x
            .iter()
            .zip(y)
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .map(|(&a, &b)| (a, b))
            .collect();
        if pairs.len() < 2 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let sx = std_dev(&xs);
        let sy = std_dev(&ys);
        if sx <= 0.0 || sy <= 0.0 {
            return None;
        }
        let f = rule.factor(pairs.len(), 2);
        Some(Self {
            xs,
            ys,
            hx: f * sx,
            hy: f * sy,
        })
    }

    /// Bandwidths `(hx, hy)`.
    pub fn bandwidths(&self) -> (f64, f64) {
        (self.hx, self.hy)
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always false — construction requires at least two samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates the density at `(x, y)`.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let n = self.xs.len() as f64;
        let norm = 1.0 / (n * 2.0 * std::f64::consts::PI * self.hx * self.hy);
        let sum: f64 = self
            .xs
            .iter()
            .zip(&self.ys)
            .map(|(&xi, &yi)| {
                let u = (x - xi) / self.hx;
                let v = (y - yi) / self.hy;
                (-0.5 * (u * u + v * v)).exp()
            })
            .sum();
        norm * sum
    }

    /// Evaluates on an `nx x ny` grid spanning the data range padded by 2
    /// bandwidths; rows are computed in parallel.
    pub fn grid(&self, nx: usize, ny: usize) -> DensityGrid {
        assert!(nx >= 2 && ny >= 2);
        let x_lo = self.xs.iter().copied().fold(f64::INFINITY, f64::min) - 2.0 * self.hx;
        let x_hi = self.xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 2.0 * self.hx;
        let y_lo = self.ys.iter().copied().fold(f64::INFINITY, f64::min) - 2.0 * self.hy;
        let y_hi = self.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 2.0 * self.hy;
        let x_axis: Vec<f64> = (0..nx)
            .map(|i| x_lo + (x_hi - x_lo) * i as f64 / (nx - 1) as f64)
            .collect();
        let y_axis: Vec<f64> = (0..ny)
            .map(|i| y_lo + (y_hi - y_lo) * i as f64 / (ny - 1) as f64)
            .collect();
        // A handful of rows is cheaper inline than dispatched (each
        // row still costs nx * n_samples flops, so the floor is low).
        let density: Vec<f64> = y_axis
            .par_iter()
            .seq_below(8)
            .flat_map_iter(|&y| x_axis.iter().map(move |&x| (x, y)))
            .map(|(x, y)| self.eval(x, y))
            .collect();
        DensityGrid {
            x_axis,
            y_axis,
            density,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn kde1d_integrates_to_one() {
        let data: Vec<f64> = (0..200)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 100.0)
            .collect();
        let kde = Kde1d::fit(&data, Bandwidth::Scott).unwrap();
        let (xs, ds) = kde.grid(2000, 6.0);
        let dx = xs[1] - xs[0];
        let integral: f64 = ds.iter().sum::<f64>() * dx;
        assert!(
            (integral - 1.0).abs() < 0.01,
            "KDE should integrate to ~1, got {integral}"
        );
    }

    #[test]
    fn kde1d_peak_near_data_center() {
        let data: Vec<f64> = (0..100)
            .map(|i| 5.0 + ((i % 10) as f64 - 4.5) * 0.1)
            .collect();
        let kde = Kde1d::fit(&data, Bandwidth::Silverman).unwrap();
        assert!(kde.eval(5.0) > kde.eval(3.0));
        assert!(kde.eval(5.0) > kde.eval(7.0));
    }

    #[test]
    fn kde1d_bimodal_detection() {
        let mut data = Vec::new();
        for i in 0..100 {
            data.push(0.0 + (i % 10) as f64 * 0.05);
            data.push(10.0 + (i % 10) as f64 * 0.05);
        }
        let kde = Kde1d::with_bandwidth(&data, 0.5).unwrap();
        let modes = kde.modes(512);
        assert!(modes.len() >= 2, "expected bimodal, found modes {modes:?}");
        assert!(modes.iter().any(|&m| (m - 0.2).abs() < 1.0));
        assert!(modes.iter().any(|&m| (m - 10.2).abs() < 1.0));
    }

    #[test]
    fn kde1d_degenerate_inputs() {
        assert!(Kde1d::fit(&[], Bandwidth::Scott).is_none());
        assert!(Kde1d::fit(&[1.0], Bandwidth::Scott).is_none());
        assert!(Kde1d::fit(&[2.0, 2.0, 2.0], Bandwidth::Scott).is_none());
    }

    #[test]
    fn scott_vs_silverman_1d_close() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.137).sin() * 3.0).collect();
        let a = Kde1d::fit(&data, Bandwidth::Scott).unwrap();
        let b = Kde1d::fit(&data, Bandwidth::Silverman).unwrap();
        // For d=1, silverman = scott * (4/3)^(1/5) ≈ 1.059 * scott.
        let ratio = b.bandwidth() / a.bandwidth();
        assert!((ratio - (4.0_f64 / 3.0).powf(0.2)).abs() < 1e-9);
    }

    #[test]
    fn kde2d_integrates_to_one() {
        let x: Vec<f64> = (0..150).map(|i| (i % 13) as f64).collect();
        let y: Vec<f64> = (0..150).map(|i| ((i * 7) % 11) as f64).collect();
        let kde = Kde2d::fit(&x, &y, Bandwidth::Scott).unwrap();
        let g = kde.grid(80, 80);
        let dx = g.x_axis[1] - g.x_axis[0];
        let dy = g.y_axis[1] - g.y_axis[0];
        let integral: f64 = g.density.iter().sum::<f64>() * dx * dy;
        assert!(
            (integral - 1.0).abs() < 0.05,
            "2-D KDE should integrate to ~1, got {integral}"
        );
    }

    #[test]
    fn kde2d_peak_location() {
        let x: Vec<f64> = (0..100)
            .map(|i| 3.0 + ((i % 7) as f64 - 3.0) * 0.1)
            .collect();
        let y: Vec<f64> = (0..100)
            .map(|i| -2.0 + ((i % 5) as f64 - 2.0) * 0.1)
            .collect();
        let kde = Kde2d::fit(&x, &y, Bandwidth::Silverman).unwrap();
        let g = kde.grid(64, 64);
        let (px, py, pv) = g.peak();
        assert!(pv > 0.0);
        assert!((px - 3.0).abs() < 0.5, "peak x {px}");
        assert!((py + 2.0).abs() < 0.5, "peak y {py}");
    }

    #[test]
    fn kde2d_multimodality() {
        // Two well-separated clusters → at least 2 modes.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let j = (i % 8) as f64 * 0.05;
            x.push(0.0 + j);
            y.push(0.0 + j);
            x.push(10.0 + j);
            y.push(10.0 + j);
        }
        let kde = Kde2d::fit(&x, &y, Bandwidth::Scott).unwrap();
        let g = kde.grid(96, 96);
        assert!(
            g.count_modes(0.1) >= 2,
            "expected >= 2 modes, got {}",
            g.count_modes(0.1)
        );
    }

    #[test]
    fn kde2d_drops_nan_pairs() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 1.0, f64::NAN, 3.0];
        let kde = Kde2d::fit(&x, &y, Bandwidth::Scott).unwrap();
        assert_eq!(kde.len(), 2);
    }

    #[test]
    fn kde2d_degenerate_is_none() {
        assert!(Kde2d::fit(&[1.0, 1.0], &[2.0, 3.0], Bandwidth::Scott).is_none());
        assert!(Kde2d::fit(&[], &[], Bandwidth::Scott).is_none());
    }
}
