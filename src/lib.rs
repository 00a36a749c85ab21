//! # summit-repro
//!
//! A full-system reproduction of *"Revealing Power, Energy and Thermal
//! Dynamics of a 200PF Pre-Exascale Supercomputer"* (Shin, Oles, Karimi,
//! Ellis, Wang — SC '21): a digital twin of the Summit data center, the
//! out-of-band telemetry pipeline that instrumented it, the statistical
//! toolkit behind every analysis in the paper, and experiment drivers
//! that regenerate each table and figure.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`analysis`] | stats, KDE, FFT, edge detection, snapshots, correlation |
//! | [`telemetry`] | metric catalog, 1 Hz frames, delivery fabric, codec, coarsening |
//! | [`sim`] | node power/thermal models, facility, scheduler, failures |
//! | [`core`] | per-figure experiment drivers and terminal rendering |
//! | [`obs`] | self-observability: metric registry, spans, Prometheus text |
//!
//! ## Quickstart
//!
//! ```
//! use summit_repro::core::pipeline::quick_dynamics;
//!
//! // Simulate 6 cabinets (108 nodes) for 5 minutes with a staged burst.
//! let run = quick_dynamics(6, 300.0);
//! let power = run.power_series();
//! assert!(power.len() > 0);
//! let pue = run.pue_series();
//! assert!(pue.values().iter().all(|&p| !p.is_finite() || p > 1.0));
//! ```

pub use summit_analysis as analysis;
pub use summit_core as core;
pub use summit_obs as obs;
pub use summit_sim as sim;
pub use summit_telemetry as telemetry;
