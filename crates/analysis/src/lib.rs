//! # summit-analysis
//!
//! Statistical and signal-processing toolkit for HPC power/energy/thermal
//! telemetry analysis, reproducing the analysis methods of *"Revealing
//! Power, Energy and Thermal Dynamics of a 200PF Pre-Exascale
//! Supercomputer"* (Shin et al., SC '21).
//!
//! Every method the paper applies to Summit's 2020 telemetry corpus is
//! implemented here from scratch:
//!
//! - [`stats`] — the 10-second `count/min/max/mean/std` window statistic
//!   (Welford), quantiles, boxplots with the 1.5 IQR rule.
//! - [`cdf`] — empirical CDFs with percentile queries (Figure 7/10).
//! - [`kde`] — 1-D/2-D Gaussian kernel density estimation (Figures 6, 9).
//! - [`fft`] — radix-2 FFT, amplitude spectra, dominant swing component
//!   (Figure 10).
//! - [`edges`] — the 868 W/node rising/falling edge detector and the
//!   80 %-return duration definition (Figures 10, 11).
//! - [`snapshot`] — aligned snapshot superposition with 95 % Student-t
//!   envelopes (Figures 11, 12).
//! - [`correlation`] — Pearson correlation with Bonferroni-corrected
//!   significance (Figure 13).
//! - [`zscore`] — thermal-extremity z-scores (Figure 15).
//! - [`pue`] — power usage effectiveness and energy integration.
//! - [`rolling`] — online sliding-window statistics and sample sketch
//!   (the operations console's live gauges).
//! - [`histogram`], [`series`], [`special`] — supporting machinery.
//!
//! The crate is dependency-light (rayon for grid/pair parallelism) and
//! deterministic: no global state, no clocks, no randomness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdf;
pub mod correlation;
pub mod edges;
pub mod fft;
pub mod histogram;
pub mod kde;
pub mod pue;
pub mod rolling;
pub mod series;
pub mod snapshot;
pub mod special;
pub mod stats;
pub mod zscore;
