//! `benchmark`: end-to-end and per-layer benchmark of the telemetry
//! pipeline and the paper suite. See README.md next to this package for
//! the workloads, the metrics and how to compare two runs.

mod digest;
mod layers;
mod measure;
mod replay;
mod report;
mod stats;
mod workload;

use report::WorkloadReport;
use std::process::{Command, ExitCode, Stdio};
use summit_core::json::Json;
use workload::Workload;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out PATH]
       benchmark --compare A.json B.json

  --workload NAME   floor-batch, floor-stream, archive-faulty or paper-suite;
                    without it every workload runs, each in its own process
  --seed N          input seed (default 2020): the fault-fabric seed of the
                    telemetry workloads, {\"seed\": N} over every study config
  --seconds N       measurement budget per workload (default 10)
  --trace 0|1       0: end-to-end metrics, tracing off (default);
                    1: per-layer metrics from the traced run
  --out PATH        also write the full result document (JSON) to PATH
  --compare A B     compare two result documents; exits 1 on a regression";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    probe: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2020,
        seconds: 10,
        trace: false,
        out: None,
        probe: false,
        compare: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| {
                        format!("bad --seconds `{v}` (a whole number from 1 to 3600)")
                    })?;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                };
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                parsed.compare = Some((a, b));
            }
            "--probe" => parsed.probe = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if parsed.probe && parsed.workload.is_none() {
        return Err("--probe needs --workload".into());
    }
    Ok(parsed)
}

fn write_out(path: &str, reports: &[WorkloadReport]) -> Result<(), String> {
    std::fs::write(path, report::document(reports) + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Measures one workload in this process.
fn run_one(args: &Args, w: Workload) -> Result<bool, String> {
    eprintln!(
        "[run] {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (report, checks) = measure::run(w, args.seed, args.seconds, args.trace);
    for failure in checks.failures() {
        println!("[check] {} FAILED {failure}", w.name());
    }
    println!(
        "[check] {} attempted {} failed {}",
        w.name(),
        report.attempted,
        report.failed
    );
    println!("[workload] {} {}", w.name(), w.why());
    println!("[host] {} inputs {}", w.name(), report.inputs);
    println!(
        "[host] {} nproc {} SUMMIT_THREADS {} iterations {} calib_s {:?}",
        w.name(),
        report.host.nproc,
        report.host.summit_threads.as_deref().unwrap_or("unset"),
        report.iterations,
        report.host.calib_s
    );
    for line in report.metric_lines() {
        println!("{line}");
    }
    println!("[document] {}", report.to_json());
    if let Some(path) = &args.out {
        write_out(path, std::slice::from_ref(&report))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Measures every workload, each in a fresh child process so memory
/// and set-up are measured per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let mut reports = Vec::new();
    let mut all_correct = true;
    for w in workload::ALL {
        let out = Command::new(&exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{} did not start: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut document = None;
        for line in stdout.lines() {
            if let Some(json) = line.strip_prefix("[document] ") {
                document = Some(json.to_string());
            } else if ["[workload]", "[metric]", "[check]", "[host]", "[span]"]
                .iter()
                .any(|p| line.starts_with(p))
            {
                println!("{line}");
            }
        }
        let parsed = document
            .ok_or_else(|| format!("{} printed no result ({})", w.name(), out.status))
            .and_then(|d| Json::parse(&d).map_err(|e| e.to_string()))
            .and_then(|j| WorkloadReport::from_json(&j));
        match parsed {
            Ok(r) => {
                all_correct &= r.correct() && out.status.success();
                reports.push(r);
            }
            Err(e) => {
                println!("[check] {} FAILED {e}", w.name());
                all_correct = false;
            }
        }
    }
    if let Some(path) = &args.out {
        write_out(path, &reports)?;
    }
    let metrics = reports.iter().flat_map(|r| {
        r.metrics
            .iter()
            .map(move |m| (format!("{}.{}", r.name, m.name), m))
    });
    println!(
        "{}",
        report::result_line(
            all_correct,
            reports.iter().map(|r| r.attempted).sum(),
            reports.iter().map(|r| r.failed).sum(),
            metrics,
        )
    );
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| report::parse_document(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (lines, regressed) = report::compare(&load(a)?, &load(b)?);
    for line in lines {
        println!("{line}");
    }
    Ok(!regressed)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match args.workload {
        Some(w) if args.probe => {
            println!("{}", measure::run_probe(w, args.seed)?);
            Ok(true)
        }
        Some(w) => run_one(args, w),
        None => run_all(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_manifest_command_line() {
        let a = parse(&[
            "--workload",
            "floor-stream",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::FloorStream));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, 2020, 10, false)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "yes"],
            &["--compare", "a.json"],
            &["--probe"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
