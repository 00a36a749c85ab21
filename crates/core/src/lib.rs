//! # summit-core
//!
//! Experiment drivers reproducing every table and figure of the SC '21
//! Summit power study on top of the digital twin (`summit-sim`), the
//! telemetry pipeline (`summit-telemetry`) and the analysis toolkit
//! (`summit-analysis`).
//!
//! - [`pipeline`] — scenario presets (statistical year, burst dynamics,
//!   telemetry measurement, failure year) shared across experiments.
//! - [`cache`] — the shared [`cache::ScenarioCache`]: fingerprint-keyed
//!   memoization of populations, dynamics runs and failure logs, so a
//!   full-suite run generates each artifact once.
//! - [`experiments`] — one module per paper artifact (Tables 1-4,
//!   Figures 4-17), each with a scalable `Config`, a typed result, and a
//!   terminal rendering annotated with the paper's numbers; all studies
//!   register in [`experiments::registry`] behind the
//!   [`experiments::Experiment`] trait.
//! - [`json`] — the dependency-free JSON value the registry uses for
//!   experiment configs.
//! - [`report`] — text tables, sparklines, bars and floor heatmaps.
//! - [`fingerprint`] — the paper's Section 9 future work: job power
//!   fingerprints, k-means portraits, queued-job power prediction.
//! - [`monitoring`] — the near-real-time operations console of the
//!   paper's Figure 2 (dashboards + alerting over engine ticks).
//! - [`failure_prediction`] — logistic-regression GPU-failure prediction
//!   from queue-time features (the related-work ML direction).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod experiments;
pub mod failure_prediction;
pub mod fingerprint;
pub mod json;
pub mod monitoring;
pub mod pipeline;
pub mod report;

/// Picks an index with probability proportional to `weights`; `None` when
/// the weights are empty or sum to zero (k-means++ seeding helper).
pub(crate) fn weighted_pick<R: rand::Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w.is_finite() && w > 0.0 {
            if x < w {
                return Some(i);
            }
            x -= w;
        }
    }
    weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
}
