//! # summit-sim
//!
//! A digital twin of the Summit supercomputer and its data center,
//! built to reproduce the measurement study *"Revealing Power, Energy and
//! Thermal Dynamics of a 200PF Pre-Exascale Supercomputer"* (SC '21)
//! without access to the physical machine. Every subsystem the paper's
//! analyses depend on is modelled:
//!
//! - [`spec`] / [`topology`] — Table 1/3 constants and the 257-cabinet
//!   floor with MSB power-feed zones and in-node water-loop ordering.
//! - [`power`] — component/node power models calibrated to the paper's
//!   anchors (540 W idle, 2,300 W node max, 2.5 MW cluster idle).
//! - [`thermal`] — first-order direct-liquid-cooling thermal model with
//!   manufacturing spread and serial water heating.
//! - [`weather`] / [`facility`] — East-Tennessee wet-bulb climate and the
//!   central energy plant (towers + trim chillers, PUE 1.11/1.22/1.3).
//! - [`workload`] / [`apps`] / [`jobs`] — application phase behaviour,
//!   science-domain characters, and the 840k-job population generator.
//! - [`scheduler`] — LSF-like placement producing allocation logs.
//! - [`jobstats`] — closed-form job-level power/energy (the fast path).
//! - [`failures`] — the GPU XID failure model (Table 4, Figures 13-16).
//! - [`engine`] — the 1 Hz time-domain driver wiring it all together.
//! - [`msb`] — main-switchboard meters for the Figure 4 validation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod engine;
pub mod facility;
pub mod failures;
pub mod jobs;
pub mod jobstats;
pub mod msb;
pub mod power;
pub mod rng;
pub mod scheduler;
pub mod spec;
pub mod thermal;
pub mod topology;
pub mod weather;
pub mod workload;
