//! The four workloads: what each one runs, on which inputs, and the
//! outputs every iteration is checked against.
//!
//! All four are closed loops: one producer (the engine, or the suite's
//! study sequence) feeds the pipeline as fast as the pipeline accepts
//! work. No open-loop pacing is needed, because the pipeline runs far
//! faster than Summit's real 4,626 frames per second.

use crate::digest::{self, Fnv};
use std::time::Instant;
use summit_core::cache::ScenarioCache;
use summit_core::experiments::registry::{run_by_name, REGISTRY};
use summit_core::json::Json;
use summit_core::pipeline::{run_streaming, run_telemetry, StreamConfig};
use summit_obs::Snapshot;
use summit_telemetry::stream::{FaultConfig, IngestStats, InjectedFaults};

/// Fidelity scale of the paper-suite workload. Large enough that
/// population generation, the failure model and burst dynamics carry
/// the wall time; below 0.5, where Figure 11's burst sweep switches to
/// its full configuration and would dominate the suite.
pub const SUITE_SCALE: f64 = 0.2;

/// Registry counter of frames the engine offered to the pipeline.
pub const FRAMES_OFFERED: &str = "summit_core_frames_offered_total";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_telemetry` over the full 257-cabinet floor, light faults.
    FloorBatch,
    /// `run_streaming` over the same floor and faults.
    FloorStream,
    /// `run_telemetry` over 4 cabinets for two simulated hours, heavy
    /// faults.
    ArchiveFaulty,
    /// Every registered study through one fresh scenario cache.
    PaperSuite,
}

/// Every workload, in the order a full run measures them.
pub const ALL: [Workload; 4] = [
    Workload::FloorBatch,
    Workload::FloorStream,
    Workload::ArchiveFaulty,
    Workload::PaperSuite,
];

/// Which telemetry executor an iteration drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `run_telemetry`: the whole capture, then delivery, then coarsening.
    Batch,
    /// `run_streaming`: engine thread and consumer behind a bounded channel.
    Stream,
}

impl Workload {
    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloorBatch => "floor-batch",
            Workload::FloorStream => "floor-stream",
            Workload::ArchiveFaulty => "archive-faulty",
            Workload::PaperSuite => "paper-suite",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FloorBatch => {
                "wide and short: engine tick map, SoA-to-row materialization and pooled coarsening carry the time"
            }
            Workload::FloorStream => {
                "same floor on one consumer thread: consumer-side gains show here, engine-side gains must not"
            }
            Workload::ArchiveFaulty => {
                "long, narrow, hostile replay: per-node delivery and per-tick pool dispatch dominate"
            }
            Workload::PaperSuite => {
                "the researcher's experiments --all: population, failure model, burst dynamics and the scenario cache"
            }
        }
    }

    /// The telemetry shape `(cabinets, simulated seconds)`; `None` for
    /// the paper suite.
    pub fn shape(self) -> Option<(usize, f64)> {
        match self {
            Workload::FloorBatch | Workload::FloorStream => Some((257, 180.0)),
            Workload::ArchiveFaulty => Some((4, 7200.0)),
            Workload::PaperSuite => None,
        }
    }

    /// The executor the workload measures; `None` for the paper suite.
    pub fn executor(self) -> Option<Executor> {
        match self {
            Workload::FloorBatch | Workload::ArchiveFaulty => Some(Executor::Batch),
            Workload::FloorStream => Some(Executor::Stream),
            Workload::PaperSuite => None,
        }
    }

    /// The fault profile of the simulated fabric at `seed`.
    pub fn faults(self, seed: u64) -> FaultConfig {
        match self {
            Workload::ArchiveFaulty => FaultConfig {
                drop_p: 0.02,
                duplicate_p: 0.05,
                delay_p: 0.05,
                reorder_p: 0.10,
                seed,
                ..FaultConfig::default()
            },
            _ => FaultConfig::light(seed),
        }
    }

    /// Frames the engine must offer per iteration (1 Hz per node).
    pub fn expected_frames(self) -> Option<u64> {
        let (cabinets, duration_s) = self.shape()?;
        Some((cabinets * 18) as u64 * duration_s.ceil() as u64)
    }

    /// A one-line description of the inputs, for the report.
    pub fn inputs(self, seed: u64) -> String {
        match self.shape() {
            Some((cabinets, duration_s)) => {
                let f = self.faults(seed);
                format!(
                    "{cabinets} cabinets x {duration_s} s, faults drop {} dup {} delay {} reorder {}, fabric seed {seed}",
                    f.drop_p, f.duplicate_p, f.delay_p, f.reorder_p
                )
            }
            None => format!(
                "{} studies at scale {SUITE_SCALE}, {{\"seed\": {}}} over each config",
                REGISTRY.len(),
                suite_seed(seed)
            ),
        }
    }

    /// Runs one timed iteration at `seed`.
    pub fn iterate(self, seed: u64) -> Iteration {
        match (self.executor(), self.shape()) {
            (Some(exec), Some((cabinets, duration_s))) => {
                run_executor(exec, cabinets, duration_s, self.faults(seed))
            }
            _ => run_suite(seed),
        }
    }

    /// The reference run: the other executor at the same seed and
    /// shape, whose outputs must equal the workload's. `None` for the
    /// paper suite.
    pub fn reference(self, seed: u64) -> Option<Iteration> {
        let other = match self.executor()? {
            Executor::Batch => Executor::Stream,
            Executor::Stream => Executor::Batch,
        };
        let (cabinets, duration_s) = self.shape()?;
        Some(run_executor(other, cabinets, duration_s, self.faults(seed)))
    }
}

/// The suite's config seed: studies read seeds as 32-bit integers, so
/// the benchmark seed is folded into that range.
pub fn suite_seed(seed: u64) -> u64 {
    seed & u64::from(u32::MAX)
}

/// One timed iteration: the wall time of the measured call and what it
/// produced.
#[derive(Debug)]
pub struct Iteration {
    /// Seconds spent in the measured call.
    pub wall_s: f64,
    /// Digests, counts and observability from the call.
    pub out: Outcome,
}

/// What an iteration produced, reduced to what the checks and the
/// per-layer metrics need. Telemetry-only fields stay zero for the
/// paper suite and vice versa.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of the data outputs (windows, health and injected faults;
    /// for the suite, the seeded part of every report).
    pub digest: u64,
    /// Frames the engine offered to the telemetry pipeline.
    pub frames: u64,
    /// Failed output checks of this iteration.
    pub errors: Vec<String>,
    /// Bits of the run's simulated frame-to-alert p99 gauge.
    pub alert_p99_bits: u64,
    /// The run's observability snapshot.
    pub obs: Snapshot,
    /// Ingest statistics, including the coarsener's health counters.
    pub stats: IngestStats,
    /// Faults the fabric injected.
    pub injected: InjectedFaults,
    /// Windows closed.
    pub windows: u64,
    /// Peak frames held between the fabric and closed windows.
    pub resident_frames: u64,
    /// Peak tick batches waiting in the streaming channel.
    pub peak_channel_depth: u64,
    /// Wall seconds per study (paper suite only), in registry order.
    pub studies: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn telemetry(
        windows: &[Vec<summit_telemetry::window::NodeWindow>],
        stats: IngestStats,
        injected: InjectedFaults,
        obs: Snapshot,
    ) -> Self {
        let frames = obs.counter(FRAMES_OFFERED).unwrap_or(0);
        let mut errors = Vec::new();
        if !digest::conserved(frames, &injected, &stats) {
            errors.push(format!(
                "frame conservation broken: offered {frames}, injected {injected:?}, ingested {}, health {:?}",
                stats.frames, stats.health
            ));
        }
        Self {
            digest: digest::telemetry(windows, &stats.health, &injected),
            frames,
            errors,
            alert_p99_bits: obs
                .gauge("summit_core_frame_to_alert_p99_seconds")
                .unwrap_or(f64::NAN)
                .to_bits(),
            windows: windows.iter().map(|w| w.len() as u64).sum(),
            obs,
            stats,
            injected,
            ..Self::default()
        }
    }
}

/// Drives one telemetry executor; only the pipeline call is timed.
pub fn run_executor(
    exec: Executor,
    cabinets: usize,
    duration_s: f64,
    faults: FaultConfig,
) -> Iteration {
    match exec {
        Executor::Batch => {
            let start = Instant::now();
            let run = run_telemetry(cabinets, duration_s, Some(faults));
            let wall_s = start.elapsed().as_secs_f64();
            let mut out =
                Outcome::telemetry(&run.windows_by_node, run.stats, run.injected, run.obs);
            // The batch path holds every delivered frame at once.
            out.resident_frames = run.stats.frames;
            Iteration { wall_s, out }
        }
        Executor::Stream => {
            let start = Instant::now();
            let run = run_streaming(StreamConfig::new(cabinets, duration_s, Some(faults)));
            let wall_s = start.elapsed().as_secs_f64();
            let mut out =
                Outcome::telemetry(&run.windows_by_node, run.stats, run.injected, run.obs);
            out.resident_frames = run.peak_resident_frames as u64;
            out.peak_channel_depth = run.peak_channel_depth as u64;
            Iteration { wall_s, out }
        }
    }
}

/// Runs every registered study in registry order through one fresh
/// scenario cache, the way `experiments --all` does, under a private
/// metrics registry so each iteration's counters stand alone.
fn run_suite(seed: u64) -> Iteration {
    let registry = summit_obs::registry::Registry::new();
    let _scope = registry.install();
    let cache = ScenarioCache::new();
    let overrides = Json::obj([("seed", Json::Num(suite_seed(seed) as f64))]);
    let mut reports = Vec::with_capacity(REGISTRY.len());
    let mut studies = Vec::with_capacity(REGISTRY.len());
    let start = Instant::now();
    for exp in REGISTRY {
        let study_start = Instant::now();
        let report = run_by_name(&cache, exp.name(), SUITE_SCALE, Some(&overrides));
        studies.push((exp.name(), study_start.elapsed().as_secs_f64()));
        reports.push((exp.name(), report));
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut h = Fnv::new();
    let mut errors = Vec::new();
    for (name, report) in &reports {
        h.eat_bytes(name.as_bytes());
        match report {
            Ok(text) => h.eat_bytes(seeded_part(text).as_bytes()),
            Err(e) => errors.push(format!("{name}: {e}")),
        }
    }
    let obs = registry.snapshot();
    let out = Outcome {
        digest: h.finish(),
        frames: obs.counter(FRAMES_OFFERED).unwrap_or(0),
        errors,
        obs,
        studies,
        ..Outcome::default()
    };
    Iteration { wall_s, out }
}

/// The part of a study report that is a pure function of its config.
/// Table 2 measures the live pipeline: from its wall-clock throughput
/// row on, its report carries wall-clock numbers (throughput and the
/// stage-timing table), so the digest stops at the start of that line.
fn seeded_part(report: &str) -> &str {
    match report.find("(wall clock)") {
        Some(at) => {
            let line_start = report
                .get(..at)
                .and_then(|s| s.rfind('\n'))
                .map_or(0, |i| i + 1);
            report.get(..line_start).unwrap_or(report)
        }
        None => report,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn names_round_trip_and_shapes_are_set() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.shape().is_some(), w.executor().is_some());
            assert!(!w.why().contains('\n') && w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::FloorBatch.expected_frames(), Some(4626 * 180));
        assert_eq!(Workload::ArchiveFaulty.expected_frames(), Some(72 * 7200));
    }

    #[test]
    fn wall_clock_rows_are_cut_from_report_digests() {
        let report = "head\n| rows | 5 |\n| pipeline throughput (wall clock) | 3/s |\ntimings\n";
        assert_eq!(seeded_part(report), "head\n| rows | 5 |\n");
        assert_eq!(seeded_part("plain\n"), "plain\n");
    }

    #[test]
    fn suite_seed_fits_study_configs() {
        assert_eq!(suite_seed(2020), 2020);
        assert_eq!(suite_seed(u64::MAX), u64::from(u32::MAX));
    }
}
