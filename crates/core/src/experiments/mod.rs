//! One module per table/figure of the paper's evaluation, plus the
//! unified registry that drives them all.
//!
//! Each module exposes a `Config` (with a `scale`/size knob so the same
//! experiment runs in CI seconds or at bench fidelity), one typed `run`
//! entry point, and a `render` on the result that prints the same
//! rows/series the paper reports, annotated with the paper's own numbers
//! for side-by-side comparison (recorded in EXPERIMENTS.md). `run`
//! checks its `Config` and returns
//! [`ExperimentError::InvalidConfig`] for one it cannot run; studies
//! with shared inputs take the [`crate::cache::ScenarioCache`] to
//! acquire them through (`run(cache, config)`), the rest take only the
//! config.
//!
//! Each module also registers a `Study` adapter in [`registry`] that
//! decodes a JSON config into the `Config`, calls `run` and renders the
//! result; the `experiments` driver binary (`cargo run -p summit-bench
//! --bin experiments`) lists and runs the whole suite through one
//! shared cache. Defaults live only in each adapter's
//! `default_config(scale)`.

pub mod registry;

pub use registry::{Experiment, ExperimentError, REGISTRY};

pub mod early_warning;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod power_aware;
pub mod table2;
pub mod table4;
pub mod tables;
pub mod titan_contrast;
