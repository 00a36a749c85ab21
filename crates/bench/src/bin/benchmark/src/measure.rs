//! The run protocol of one workload process.
//!
//! Untraced run (end-to-end metrics): cold iterations in fresh probe
//! processes and in this one (set-up time and peak resident set), warm
//! iterations for the time budget, then the reference run of the other
//! executor. Traced run (per-layer metrics): a cold iteration, rounds of
//! an untraced iteration plus its layer replay for the time budget, one
//! iteration under a wall-clock trace and one on a single thread.

use crate::layers;
use crate::replay;
use crate::report::{end_to_end, per_layer, Host, Metric, WorkloadReport};
use crate::stats::Summary;
use crate::workload::{Executor, Outcome, Workload};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;
use summit_core::cache::{HITS_COUNTER, MISSES_COUNTER};
use summit_obs::trace::{span_stats, TraceClock, TraceCollector};

/// Fresh processes that each time one cold iteration for `setup_s`; the
/// workload process's own cold iteration is one more sample.
const SETUP_PROBES: usize = 4;

/// Warm iterations measured even when the time budget runs out first.
const MIN_WARM: usize = 5;

/// Per-thread trace ring capacity (events). Large enough that the
/// longest workload (one pool epoch per engine tick) drops nothing.
const TRACE_CAPACITY: usize = 1 << 18;

/// Iterations of the calibration loop.
const CALIB_ROUNDS: u64 = 1 << 25;

/// Checked units of work and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one checked unit of work that failed with `errors`, or
    /// passed if `errors` is empty.
    fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.extend(errors);
        }
    }

    /// Failure messages, in the order they were found.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Fixed integer-mix loop whose cost depends on the host alone, timed
/// at the start and end of every workload process so host drift
/// over time shows in the report.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..CALIB_ROUNDS {
        h = (h ^ (h >> 29) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    std::hint::black_box(h);
    start.elapsed().as_secs_f64()
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Why `it` disagrees with the workload's first iteration, if it does.
fn iteration_errors(w: Workload, first: &Outcome, it: &Outcome) -> Vec<String> {
    let mut errors = it.errors.clone();
    if it.digest != first.digest {
        errors.push(format!(
            "output digest {:016x} differs from the first iteration's {:016x}",
            it.digest, first.digest
        ));
    }
    if let Some(expected) = w.expected_frames() {
        if it.frames != expected {
            errors.push(format!(
                "engine offered {} frames, expected {expected}",
                it.frames
            ));
        }
    }
    if it.alert_p99_bits != first.alert_p99_bits {
        errors.push("frame-to-alert p99 differs from the first iteration's".into());
    }
    for name in [HITS_COUNTER, MISSES_COUNTER] {
        if it.obs.counter(name) != first.obs.counter(name) {
            errors.push(format!("{name} differs from the first iteration's"));
        }
    }
    errors
}

/// One cold iteration in a fresh process: the set-up sample.
#[derive(Debug, Clone, Copy)]
struct Cold {
    wall_s: f64,
    digest: u64,
    peak_rss_mb: f64,
}

/// Runs one cold iteration in a fresh copy of this program.
fn probe(w: Workload, seed: u64) -> Result<Cold, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--probe",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("[probe] "))
        .ok_or("set-up probe printed no result")?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    let parsed = match fields.as_slice() {
        [wall_s, digest, rss] => wall_s
            .parse()
            .ok()
            .zip(u64::from_str_radix(digest, 16).ok())
            .zip(rss.parse().ok()),
        _ => None,
    };
    let ((wall_s, digest), peak_rss_mb) =
        parsed.ok_or_else(|| format!("bad probe result `{line}`"))?;
    Ok(Cold {
        wall_s,
        digest,
        peak_rss_mb,
    })
}

/// The `--probe` mode: one cold iteration, reported as
/// `[probe] <wall_s> <digest> <peak_rss_mb>`. Errors if its outputs
/// fail a check.
pub fn run_probe(w: Workload, seed: u64) -> Result<String, String> {
    let it = w.iterate(seed);
    let rss = peak_rss_mb()?;
    let errors = iteration_errors(w, &it.out, &it.out);
    if errors.is_empty() {
        Ok(format!(
            "[probe] {} {:016x} {rss}",
            it.wall_s, it.out.digest
        ))
    } else {
        Err(errors.join("; "))
    }
}

fn metric(name: &str, unit: &str, value: f64, summary: Summary) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        summary,
    }
}

/// Measures one workload and returns its report.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> (WorkloadReport, Checks) {
    let calib_start = calibrate();
    let mut checks = Checks::default();
    let (metrics, iterations) = if trace {
        traced(w, seed, seconds as f64, &mut checks)
    } else {
        untraced(w, seed, seconds as f64, &mut checks)
    };
    let calib_end = calibrate();
    let report = WorkloadReport {
        name: w.name().to_string(),
        inputs: w.inputs(seed),
        seed,
        seconds,
        trace,
        iterations,
        attempted: checks.attempted,
        failed: checks.failed,
        host: Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            summit_threads: std::env::var("SUMMIT_THREADS").ok(),
            calib_s: vec![calib_start, calib_end],
        },
        metrics,
    };
    (report, checks)
}

fn untraced(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> (Vec<Metric>, usize) {
    let mut colds = Vec::with_capacity(SETUP_PROBES + 1);
    for _ in 0..SETUP_PROBES {
        match probe(w, seed) {
            Ok(cold) => colds.push(cold),
            Err(e) => checks.record(vec![e]),
        }
    }
    let cold = w.iterate(seed);
    let first = cold.out;
    checks.record(iteration_errors(w, &first, &first));
    for probe in &colds {
        let mismatch = (probe.digest != first.digest).then(|| {
            format!(
                "set-up probe digest {:016x} differs from {:016x}",
                probe.digest, first.digest
            )
        });
        checks.record(mismatch.into_iter().collect());
    }
    match peak_rss_mb() {
        Ok(peak_rss_mb) => colds.push(Cold {
            wall_s: cold.wall_s,
            digest: first.digest,
            peak_rss_mb,
        }),
        Err(e) => checks.record(vec![e]),
    }

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_WARM || start.elapsed().as_secs_f64() < seconds {
        let it = w.iterate(seed);
        walls.push(it.wall_s);
        rates.push(it.out.frames as f64 / it.wall_s);
        checks.record(iteration_errors(w, &first, &it.out));
    }
    if let Some(reference) = w.reference(seed) {
        let mut errors = reference.out.errors.clone();
        if reference.out.digest != first.digest
            || reference.out.alert_p99_bits != first.alert_p99_bits
        {
            errors.push(format!(
                "reference executor digest {:016x} differs from {:016x}",
                reference.out.digest, first.digest
            ));
        }
        checks.record(errors);
    }

    let setup: Vec<f64> = colds.iter().map(|c| c.wall_s).collect();
    let rss: Vec<f64> = colds.iter().map(|c| c.peak_rss_mb).collect();
    let mut metrics = Vec::new();
    for spec in end_to_end() {
        // Every warm iteration does the same checked work, so their
        // spread is interference from other tenants, which only adds
        // time: the quartile at the fast end follows the program, the
        // median follows the neighbours as well.
        let measured = match spec.name.as_str() {
            "wall_s" => Summary::of(&walls).map(|s| (s.q1, s)),
            "frames_per_s" => Summary::of(&rates).map(|s| (s.q3, s)),
            "setup_s" => Summary::of(&setup).map(|s| (s.median, s)),
            "peak_rss_mb" => Summary::of(&rss).map(|s| (s.median, s)),
            _ => None,
        };
        let (value, summary) = measured.unwrap_or_else(|| {
            checks.record(vec![format!("no samples for {}", spec.name)]);
            (0.0, Summary::single(0.0))
        });
        metrics.push(metric(&spec.name, spec.unit, value, summary));
    }
    (metrics, walls.len())
}

fn replay_round(w: Workload, seed: u64) -> Option<(replay::LayerTimes, u64)> {
    let (cabinets, duration_s) = w.shape()?;
    let faults = w.faults(seed);
    Some(match w.executor()? {
        Executor::Batch => replay::batch(cabinets, duration_s, faults),
        Executor::Stream => replay::stream(cabinets, duration_s, faults),
    })
}

fn traced(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> (Vec<Metric>, usize) {
    let first = w.iterate(seed).out;
    checks.record(iteration_errors(w, &first, &first));

    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let it = w.iterate(seed);
        checks.record(iteration_errors(w, &first, &it.out));
        let replayed = replay_round(w, seed);
        if let Some((_, digest)) = replayed {
            let mismatch = (digest != first.digest).then(|| {
                format!(
                    "layer replay digest {digest:016x} differs from the pipeline's {:016x}",
                    first.digest
                )
            });
            checks.record(mismatch.into_iter().collect());
        }
        rounds.push(layers::round(w, &it, replayed.as_ref().map(|(t, _)| t)));
        walls.push(it.wall_s);
    }
    let untraced_s = Summary::of(&walls).map_or(f64::NAN, |s| s.median);

    let collector = TraceCollector::with_capacity(TraceClock::Wall, TRACE_CAPACITY);
    let traced_it = {
        let _scope = collector.install();
        w.iterate(seed)
    };
    checks.record(iteration_errors(w, &first, &traced_it.out));
    let trace = span_stats(&collector.snapshot());
    if trace.dropped_total > 0 {
        checks.record(vec![format!(
            "trace dropped {} events",
            trace.dropped_total
        )]);
    }
    // Wall-clock traces stamp microseconds.
    for s in &trace.stages {
        println!(
            "[span] {} {} calls={} total_s={} self_s={}",
            w.name(),
            s.name,
            s.count,
            s.total as f64 * 1e-6,
            s.self_time as f64 * 1e-6
        );
    }

    let seq = rayon::with_thread_count(1, || w.iterate(seed));
    checks.record(iteration_errors(w, &first, &seq.out));

    let mut metrics = Vec::new();
    for spec in per_layer() {
        let summary = match spec.name.as_str() {
            "trace.overhead_ratio" => Summary::single(traced_it.wall_s / untraced_s),
            "trace.dropped_events" => Summary::single(trace.dropped_total as f64),
            "rayon.seq_wall_s" => Summary::single(seq.wall_s),
            "rayon.speedup" => Summary::single(seq.wall_s / untraced_s),
            name => {
                let values: Vec<f64> = rounds
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect();
                Summary::of(&values).unwrap_or(Summary::single(0.0))
            }
        };
        let summary =
            if summary.median.is_finite() && summary.q1.is_finite() && summary.q3.is_finite() {
                summary
            } else {
                checks.record(vec![format!("{} is not finite", spec.name)]);
                Summary::single(0.0)
            };
        metrics.push(metric(&spec.name, spec.unit, summary.median, summary));
    }
    (metrics, rounds.len())
}
