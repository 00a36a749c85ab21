//! Fast Fourier transform and power-swing spectral characterization.
//!
//! Section 4.2 of the paper differences each job's power time-series (to
//! remove auto-correlation) and applies an FFT to find the dominant swing
//! frequency and amplitude (Figure 10, bottom row; the 0.005 Hz / 200 s
//! finding). This module provides an iterative radix-2 complex FFT with
//! real-input helpers, amplitude spectra, and the dominant-component
//! extraction used by the experiment drivers.

/// A complex number (minimal, avoids an external dependency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

/// In-place iterative radix-2 Cooley-Tukey FFT.
///
/// # Panics
/// If `data.len()` is not a power of two (use [`fft_padded`] for arbitrary
/// lengths).
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "fft length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half].mul(w);
                chunk[k] = u.add(v);
                chunk[k + half] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// FFT of a real signal, zero-padded to the next power of two.
///
/// Returns the full complex spectrum of length `data.len().next_power_of_two()`.
pub fn fft_padded(data: &[f64]) -> Vec<Complex> {
    if data.is_empty() {
        return Vec::new();
    }
    let _obs = summit_obs::span("summit_analysis_fft");
    summit_obs::histogram("summit_analysis_fft_points").observe(data.len() as f64);
    let n = data.len().next_power_of_two();
    let mut buf: Vec<Complex> = Vec::with_capacity(n);
    buf.extend(data.iter().map(|&x| Complex::new(x, 0.0)));
    buf.resize(n, Complex::default());
    fft_in_place(&mut buf);
    buf
}

/// Inverse FFT (in place), for round-trip validation and filtering.
pub fn ifft_in_place(data: &mut [Complex]) {
    for z in data.iter_mut() {
        z.im = -z.im;
    }
    fft_in_place(data);
    let n = data.len() as f64;
    for z in data.iter_mut() {
        z.re /= n;
        z.im = -z.im / n;
    }
}

/// One-sided amplitude spectrum of a real signal sampled at `sample_hz`.
///
/// Returns `(frequencies_hz, amplitudes)` for bins `1..n/2` (the DC bin is
/// excluded — after differencing, DC carries no swing information).
/// Amplitudes are scaled so a pure sinusoid of amplitude `A` reports ~`A`.
pub fn amplitude_spectrum(data: &[f64], sample_hz: f64) -> (Vec<f64>, Vec<f64>) {
    assert!(sample_hz > 0.0, "sample rate must be positive");
    if data.len() < 4 {
        return (Vec::new(), Vec::new());
    }
    let spec = fft_padded(data);
    let n = spec.len();
    let n_signal = data.len() as f64;
    let half = n / 2;
    let mut freqs = Vec::with_capacity(half - 1);
    let mut amps = Vec::with_capacity(half - 1);
    for (k, z) in spec.iter().enumerate().take(half).skip(1) {
        freqs.push(k as f64 * sample_hz / n as f64);
        amps.push(2.0 * z.abs() / n_signal);
    }
    (freqs, amps)
}

/// The dominant spectral component of a (already differenced) signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominantComponent {
    /// Frequency in Hz of the maximum-amplitude bin.
    pub frequency_hz: f64,
    /// Amplitude at that bin (signal units).
    pub amplitude: f64,
    /// Period in seconds (1/frequency).
    pub period_s: f64,
}

/// Finds the maximum-amplitude frequency component — the paper's per-job
/// "most critical frequency and its amplitude" statistic (each job
/// contributes one frequency and one amplitude to Figure 10).
///
/// ```
/// use summit_analysis::fft::dominant_component;
/// // A 256 s period sampled at 1 Hz.
/// let signal: Vec<f64> = (0..4096)
///     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 256.0).sin())
///     .collect();
/// let d = dominant_component(&signal, 1.0).unwrap();
/// assert!((d.period_s - 256.0).abs() < 1.0);
/// ```
pub fn dominant_component(data: &[f64], sample_hz: f64) -> Option<DominantComponent> {
    let (freqs, amps) = amplitude_spectrum(data, sample_hz);
    if freqs.is_empty() {
        return None;
    }
    let (idx, &amp) = amps.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    let f = freqs[idx];
    Some(DominantComponent {
        frequency_hz: f,
        amplitude: amp,
        period_s: if f > 0.0 { 1.0 / f } else { f64::INFINITY },
    })
}

/// Total spectral energy (Parseval check helper): `sum |X_k|^2 / n`.
pub fn spectral_energy(spec: &[Complex]) -> f64 {
    if spec.is_empty() {
        return 0.0;
    }
    spec.iter().map(|z| z.re * z.re + z.im * z.im).sum::<f64>() / spec.len() as f64
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b} +/- {tol}, got {a}");
    }

    /// Naive O(n^2) DFT for validation.
    fn dft(data: &[f64]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (t, &x) in data.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64;
                    acc = acc.add(Complex::new(x * ang.cos(), x * ang.sin()));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let data: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 0.7).sin() + 0.3 * i as f64)
            .collect();
        let mut fast: Vec<Complex> = data.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut fast);
        let slow = dft(&data);
        for (f, s) in fast.iter().zip(&slow) {
            close(f.re, s.re, 1e-9);
            close(f.im, s.im, 1e-9);
        }
    }

    #[test]
    fn fft_roundtrip_identity() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 37) % 17) as f64).collect();
        let mut buf: Vec<Complex> = data.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (z, &x) in buf.iter().zip(&data) {
            close(z.re, x, 1e-9);
            close(z.im, 0.0, 1e-9);
        }
    }

    #[test]
    fn fft_parseval() {
        let data: Vec<f64> = (0..128).map(|i| (i as f64 * 0.13).cos() * 2.0).collect();
        let time_energy: f64 = data.iter().map(|x| x * x).sum();
        let mut buf: Vec<Complex> = data.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf);
        close(spectral_energy(&buf), time_energy, 1e-6);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 16];
        buf[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut buf);
        for z in &buf {
            close(z.abs(), 1.0, 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 12];
        fft_in_place(&mut buf);
    }

    #[test]
    fn spectrum_recovers_sinusoid() {
        // 256-second period at 1 Hz sampling lands exactly on bin 16 of a
        // 4096-point FFT, so the amplitude is recovered without leakage.
        let sample_hz = 1.0;
        let period = 256.0;
        let n = 4096;
        let data: Vec<f64> = (0..n)
            .map(|i| 5.0 * (2.0 * std::f64::consts::PI * i as f64 / period).sin())
            .collect();
        let dom = dominant_component(&data, sample_hz).unwrap();
        close(dom.frequency_hz, 1.0 / period, 1e-9);
        close(dom.amplitude, 5.0, 1e-9);
        close(dom.period_s, period, 1e-6);
    }

    #[test]
    fn spectrum_near_paper_frequency_with_leakage() {
        // The paper's 200 s swing does not land on an FFT bin; the dominant
        // frequency must still be recovered to within one bin and the
        // amplitude to within the worst-case scalloping loss (~36 %).
        let n = 4096;
        let data: Vec<f64> = (0..n)
            .map(|i| 5.0 * (2.0 * std::f64::consts::PI * i as f64 / 200.0).sin())
            .collect();
        let dom = dominant_component(&data, 1.0).unwrap();
        close(dom.frequency_hz, 0.005, 1.0 / n as f64);
        assert!(dom.amplitude > 5.0 * 0.6 && dom.amplitude <= 5.0 + 1e-9);
    }

    #[test]
    fn spectrum_two_tones_picks_larger() {
        let n = 2048;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                1.0 * (2.0 * std::f64::consts::PI * t / 100.0).sin()
                    + 4.0 * (2.0 * std::f64::consts::PI * t / 333.0).sin()
            })
            .collect();
        let dom = dominant_component(&data, 1.0).unwrap();
        close(dom.frequency_hz, 1.0 / 333.0, 0.001);
    }

    #[test]
    fn spectrum_handles_short_input() {
        assert!(dominant_component(&[1.0, 2.0], 1.0).is_none());
        let (f, a) = amplitude_spectrum(&[], 1.0);
        assert!(f.is_empty() && a.is_empty());
    }

    #[test]
    fn fft_padded_empty() {
        assert!(fft_padded(&[]).is_empty());
    }

    #[test]
    fn fft_linearity() {
        let a: Vec<f64> = (0..64).map(|i| (i as f64 * 0.31).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.17).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();

        let fa = fft_padded(&a);
        let fb = fft_padded(&b);
        let fsum = fft_padded(&sum);
        for i in 0..fa.len() {
            close(fsum[i].re, 2.0 * fa[i].re + 3.0 * fb[i].re, 1e-9);
            close(fsum[i].im, 2.0 * fa[i].im + 3.0 * fb[i].im, 1e-9);
        }
    }
}
