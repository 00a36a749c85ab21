//! # summit-telemetry
//!
//! The out-of-band telemetry pipeline of the SC '21 Summit power study,
//! rebuilt as a library: per-node metric catalog (the 25 Dataset 0 key
//! columns of the paper's "over 100 metrics at 1 Hz"), 1 Hz frame
//! records with the 2.5 s-average propagation-delay model, a
//! deterministic per-node fault fabric, lossless delta/varint/RLE
//! compression of the archived stream, the 10-second
//! `count/min/max/mean/std` window coarsening, and the cluster-level and
//! job-aware aggregations that produce the paper's derived Datasets 0-7.
//!
//! Data flows as in the paper's Figure 3. The live pipeline
//! (`summit-core`'s `run_telemetry` and `run_streaming`) feeds each node
//! its own frames, one tick group at a time, while the archive keeps the
//! same frames losslessly:
//!
//! ```text
//! node models (summit-sim) --1 Hz [batch::FrameBatch] tick groups--> row i:
//!     [delivery::NodeDelivery] (fault fabric, arrival order)
//!     --> [stream::IngestStats] + [window::WindowAggregator] (10 s)
//!     --> [cluster] / [jobjoin] collapses --> analysis datasets
//!   the same frames --> [store::TelemetryStore] (lossless archive, codec)
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod catalog;
pub mod cluster;
pub mod codec;
pub mod convert;
pub mod datasets;
pub mod delivery;
pub mod export;
pub mod ids;
pub mod ingest;
pub mod jobjoin;
pub mod records;
pub mod store;
pub mod stream;
pub mod window;
