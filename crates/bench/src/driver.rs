//! The unified `experiments` driver: list and run any registered study
//! through one shared [`ScenarioCache`].
//!
//! This is the engine behind `cargo run -p summit-bench --bin
//! experiments`. One invocation builds a single cache, so studies that
//! share an acquisition scenario (the year population, the burst engine
//! sweep, the failure log) generate it once and reuse it — `--all` runs
//! the whole paper suite with each expensive artifact built exactly
//! once.

use summit_core::cache::{ScenarioCache, HITS_COUNTER, MISSES_COUNTER};
use summit_core::experiments::registry;
use summit_core::experiments::{Experiment, REGISTRY};
use summit_core::json::Json;
use summit_core::pipeline::{run_streaming, run_telemetry, StreamConfig};
use summit_telemetry::stream::FaultConfig;

/// Default fidelity scale when `--scale` is not given: the CI smoke
/// scale (seconds per study, shapes preserved).
pub const SMOKE_SCALE: f64 = 0.05;

/// Driver usage, printed on `--help` and argument errors.
pub const USAGE: &str = "\
usage: experiments [--list] [--all | <name>...] [options]

  --list            list every registered study and exit
  --all             run every registered study, sharing one scenario cache
  <name>...         run the named studies (see --list)
  --scale S         fidelity scale in (0, 1]; 1.0 = paper scale
                    (default 0.05)
  --full            shorthand for --scale 1.0
  --config JSON     JSON object merged over each study's default config
  --json            emit one JSON envelope per study instead of plain text
  --trace PATH      record a deterministic (virtual-clock) trace of the
                    run and write Chrome/Perfetto Trace Event JSON to
                    PATH (load at chrome://tracing or ui.perfetto.dev)
  --trace-folded PATH
                    also write flamegraph-compatible folded stacks
  --stream          run table2-class studies online: frames are
                    generated on a producer thread and processed as
                    they arrive over a bounded, backpressured channel
                    (bit-identical output to the batch replay)
  --export-windows PATH
                    run the telemetry pipeline at the effective scale
                    and write its coarsened 10 s windows as CSV to
                    PATH; honors --stream (same seed -> byte-identical
                    file either way)
  -h, --help        print this help";

/// Parsed command line for the `experiments` driver.
#[derive(Debug, Clone, Default)]
pub struct Invocation {
    /// Print the registry and exit.
    pub list: bool,
    /// Run every registered study.
    pub all: bool,
    /// Studies named explicitly.
    pub names: Vec<String>,
    /// Print usage and exit.
    pub help: bool,
    /// Fidelity scale in `(0, 1]`; `None` picks [`SMOKE_SCALE`].
    pub scale: Option<f64>,
    /// Emit JSON envelopes instead of plain reports.
    pub json: bool,
    /// JSON object merged over each study's default config.
    pub overrides: Option<Json>,
    /// Write a Chrome/Perfetto Trace Event JSON of the run here.
    pub trace: Option<String>,
    /// Write flamegraph-compatible folded stacks of the run here.
    pub trace_folded: Option<String>,
    /// Run streaming-capable studies online (merges `"stream": true`
    /// over each study's config) and stream the `--export-windows` run.
    pub stream: bool,
    /// Write the pipeline's coarsened windows as CSV to this path.
    pub export_windows: Option<String>,
}

impl Invocation {
    /// Parses driver arguments (everything after the binary name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut inv = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list" => inv.list = true,
                "--all" => inv.all = true,
                "--json" => inv.json = true,
                "--full" => inv.scale = Some(1.0),
                "-h" | "--help" => inv.help = true,
                "--scale" => {
                    let v = it.next().ok_or("--scale requires a value")?;
                    let s: f64 = v
                        .parse()
                        .map_err(|_| format!("invalid --scale value `{v}`"))?;
                    if !(s > 0.0 && s <= 1.0) {
                        return Err(format!("--scale must be in (0, 1], got {s}"));
                    }
                    inv.scale = Some(s);
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace requires a path")?;
                    inv.trace = Some(v);
                }
                "--trace-folded" => {
                    let v = it.next().ok_or("--trace-folded requires a path")?;
                    inv.trace_folded = Some(v);
                }
                "--stream" => inv.stream = true,
                "--export-windows" => {
                    let v = it.next().ok_or("--export-windows requires a path")?;
                    inv.export_windows = Some(v);
                }
                "--config" => {
                    let v = it.next().ok_or("--config requires a JSON object")?;
                    let json = Json::parse(&v).map_err(|e| format!("--config: {e}"))?;
                    if !matches!(json, Json::Obj(_)) {
                        return Err(format!("--config must be a JSON object, got `{json}`"));
                    }
                    inv.overrides = Some(json);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag `{other}`"));
                }
                name => inv.names.push(name.to_string()),
            }
        }
        Ok(inv)
    }

    /// The fidelity scale this invocation runs at: the explicit
    /// `--scale`/`--full` value, else [`SMOKE_SCALE`].
    pub fn effective_scale(&self) -> f64 {
        self.scale.unwrap_or(SMOKE_SCALE)
    }
}

/// Renders the `--list` table.
pub fn render_list() -> String {
    let mut s = String::from("registered experiments (paper order):\n");
    for exp in REGISTRY {
        s.push_str(&format!("  {:<15} {}\n", exp.name(), exp.summary()));
    }
    s
}

/// Resolves the studies an invocation selects, in registry order for
/// `--all` and argument order otherwise.
pub fn select(inv: &Invocation) -> Result<Vec<&'static dyn Experiment>, String> {
    if inv.all {
        return Ok(REGISTRY.to_vec());
    }
    if inv.names.is_empty() {
        return Err("nothing to run: pass --all, --list or an experiment name".into());
    }
    inv.names
        .iter()
        .map(|name| {
            registry::find(name)
                .ok_or_else(|| format!("unknown experiment `{name}` (run with --list)"))
        })
        .collect()
}

/// One study's outcome in a driver run.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Registry name.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The effective config the study ran with.
    pub config: Json,
    /// The rendered report.
    pub report: String,
}

/// Cache traffic recorded over a driver run.
#[derive(Debug, Clone, Copy)]
pub struct CacheTraffic {
    /// Artifacts resident in the cache after the run.
    pub artifacts: usize,
    /// Cache hits (an artifact was reused).
    pub hits: u64,
    /// Cache misses (an artifact was built).
    pub misses: u64,
}

/// Thread-pool traffic recorded over a driver run.
#[derive(Debug, Clone, Copy)]
pub struct ParTraffic {
    /// Worker threads the pool resolves to (`SUMMIT_THREADS` or the
    /// machine's available parallelism).
    pub threads: usize,
    /// Parallel chunk tasks executed (`summit_par_tasks_total`).
    pub tasks: u64,
}

/// Everything one driver run produces: study reports, cache and pool
/// traffic, and the run's full observability snapshot.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// One report per selected study, in selection order.
    pub reports: Vec<StudyReport>,
    /// Scenario-cache traffic.
    pub traffic: CacheTraffic,
    /// Thread-pool traffic.
    pub par: ParTraffic,
    /// The scoped registry snapshot the run recorded into.
    pub obs: summit_obs::Snapshot,
}

/// Runs the selected studies through one shared cache. Fails on the
/// first study error.
pub fn run_selected(
    selected: &[&'static dyn Experiment],
    scale: f64,
    overrides: Option<&Json>,
) -> Result<RunOutput, String> {
    let obs = summit_obs::registry::Registry::new();
    let _guard = obs.install();
    let cache = ScenarioCache::new();
    let mut reports = Vec::with_capacity(selected.len());
    for exp in selected {
        let mut config = exp.default_config(scale);
        if let Some(over) = overrides {
            config.merge(over);
        }
        let report = exp.run(&cache, &config).map_err(|e| e.to_string())?;
        reports.push(StudyReport {
            name: exp.name(),
            summary: exp.summary(),
            config,
            report,
        });
    }
    let snap = obs.snapshot();
    let traffic = CacheTraffic {
        artifacts: cache.stats().total(),
        hits: snap.counter(HITS_COUNTER).unwrap_or(0),
        misses: snap.counter(MISSES_COUNTER).unwrap_or(0),
    };
    let par = ParTraffic {
        threads: rayon::current_num_threads(),
        tasks: snap.counter("summit_par_tasks_total").unwrap_or(0),
    };
    Ok(RunOutput {
        reports,
        traffic,
        par,
        obs: snap,
    })
}

/// Renders the post-run scenario-cache summary line.
pub fn render_traffic(t: &CacheTraffic) -> String {
    format!(
        "[scenario-cache] {} artifacts built ({} misses), {} reused (hits)",
        t.artifacts, t.misses, t.hits
    )
}

/// Renders the post-run thread-pool summary line.
pub fn render_par(p: &ParTraffic) -> String {
    format!(
        "[par] {} worker thread{} over {} parallel tasks (SUMMIT_THREADS to change)",
        p.threads,
        if p.threads == 1 { "" } else { "s" },
        p.tasks
    )
}

/// Runs the telemetry pipeline at `scale` and writes its coarsened
/// 10 s windows as CSV to `path`, streaming when `stream` is set.
/// Floats print with Rust's shortest round-trip representation, so the
/// file is a deterministic function of the data — CI byte-compares the
/// `--stream` and batch files to prove the online pipeline's output is
/// bit-identical end to end. Returns the lines to print: the run's own
/// summary, then the export's.
fn export_windows(path: &str, scale: f64, stream: bool) -> Result<String, String> {
    // A cabinet slice of the paper's 257-cabinet machine.
    let cabinets = ((257.0 * scale).round() as usize).clamp(2, 257);
    let duration_s = 120.0;
    let faults = Some(FaultConfig::light(7));
    let (windows_by_node, summary) = if stream {
        let run = run_streaming(StreamConfig::new(cabinets, duration_s, faults));
        (run.windows_by_node, run.summary)
    } else {
        let obs = summit_obs::registry::Registry::new();
        let _guard = obs.install();
        let run = run_telemetry(cabinets, duration_s, faults);
        (run.windows_by_node, run.summary)
    };
    let mut csv = String::from("node,window_start,metric,count,min,max,mean,std\n");
    let mut count = 0usize;
    for (node, windows) in windows_by_node.iter().enumerate() {
        for w in windows {
            count += 1;
            for (m, s) in w.stats.iter().enumerate() {
                csv.push_str(&format!(
                    "{node},{},{m},{},{},{},{},{}\n",
                    w.window_start, s.count, s.min, s.max, s.mean, s.std
                ));
            }
        }
    }
    std::fs::write(path, &csv).map_err(|e| format!("failed to write {path}: {e}"))?;
    Ok(format!(
        "{summary}\n[stream-export] {count} windows ({} mode, {} bytes) -> {path}\n",
        if stream { "streaming" } else { "batch" },
        csv.len()
    ))
}

/// Writes a chunk to stdout, reporting whether the consumer is still
/// listening. A closed pipe (e.g. `experiments -- --all | head`) is a normal
/// way to stop reading reports, not an error worth panicking over.
fn emit(text: &str) -> bool {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_ok()
}

/// Runs a full driver invocation, printing to stdout.
pub fn run(inv: &Invocation) -> Result<(), String> {
    if inv.help {
        emit(&format!("{USAGE}\n"));
        return Ok(());
    }
    if inv.list {
        emit(&render_list());
        return Ok(());
    }
    let scale = inv.effective_scale();
    // A bare `--export-windows` invocation is complete on its own; with
    // study names (or --all) the export rides along after the reports.
    let export_only = inv.export_windows.is_some() && inv.names.is_empty() && !inv.all;
    let selected = if export_only {
        Vec::new()
    } else {
        select(inv)?
    };
    // `--stream` switches every streaming-capable study to online mode
    // by merging over its config; studies without a `stream` key ignore
    // the extra field.
    let overrides = {
        let mut over = inv.overrides.clone();
        if inv.stream {
            let stream_on = Json::obj([("stream", Json::Bool(true))]);
            match &mut over {
                Some(o) => o.merge(&stream_on),
                None => over = Some(stream_on),
            }
        }
        over
    };
    let tracing = inv.trace.is_some() || inv.trace_folded.is_some();
    let collector = tracing
        .then(|| summit_obs::trace::TraceCollector::new(summit_obs::trace::TraceClock::Virtual));
    let output = {
        let _trace_scope = collector.as_ref().map(|tc| tc.install());
        run_selected(&selected, scale, overrides.as_ref())?
    };
    if let Some(tc) = &collector {
        let snap = tc.snapshot();
        if let Some(path) = &inv.trace {
            let mut buf = Vec::new();
            summit_obs::trace::write_chrome_json(&mut buf, &snap)
                .map_err(|e| format!("failed to render trace: {e}"))?;
            std::fs::write(path, &buf).map_err(|e| format!("failed to write {path}: {e}"))?;
            emit(&format!(
                "[trace] {} events ({} dropped) -> {path}\n",
                snap.events_total(),
                snap.dropped_total
            ));
        }
        if let Some(path) = &inv.trace_folded {
            let mut buf = Vec::new();
            summit_obs::trace::write_folded(&mut buf, &snap)
                .map_err(|e| format!("failed to render folded trace: {e}"))?;
            std::fs::write(path, &buf).map_err(|e| format!("failed to write {path}: {e}"))?;
            emit(&format!("[trace] folded stacks -> {path}\n"));
        }
    }
    let RunOutput {
        reports,
        traffic,
        par,
        ..
    } = output;
    for r in &reports {
        let block = if inv.json {
            let envelope = Json::Obj(vec![
                ("experiment".into(), Json::from(r.name)),
                ("scale".into(), Json::Num(scale)),
                ("config".into(), r.config.clone()),
                ("report".into(), Json::Str(r.report.clone())),
            ]);
            format!("{envelope}\n")
        } else {
            format!("== {} - {}\n\n{}\n", r.name, r.summary, r.report)
        };
        if !emit(&block) {
            return Ok(());
        }
    }
    if reports.len() > 1 {
        if inv.json {
            let summary = Json::Obj(vec![
                (
                    "scenario_cache_artifacts".into(),
                    Json::from(traffic.artifacts),
                ),
                ("scenario_cache_hits".into(), Json::Num(traffic.hits as f64)),
                (
                    "scenario_cache_misses".into(),
                    Json::Num(traffic.misses as f64),
                ),
                ("par_threads".into(), Json::from(par.threads)),
                ("par_tasks".into(), Json::Num(par.tasks as f64)),
            ]);
            emit(&format!("{summary}\n"));
        } else {
            emit(&format!(
                "{}\n{}\n",
                render_traffic(&traffic),
                render_par(&par)
            ));
        }
    }
    if let Some(path) = &inv.export_windows {
        emit(&export_windows(path, scale, inv.stream)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        Invocation::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_names_and_scale() {
        let inv = parse(&["--all", "--scale", "0.2", "--json"]).unwrap();
        assert!(inv.all && inv.json && !inv.list);
        assert!((inv.effective_scale() - 0.2).abs() < 1e-12);
        assert_eq!(parse(&["--all"]).unwrap().effective_scale(), SMOKE_SCALE);

        let inv = parse(&["fig08", "table4", "--full"]).unwrap();
        assert_eq!(inv.names, vec!["fig08", "table4"]);
        assert_eq!(inv.effective_scale(), 1.0);

        let inv = parse(&["tables", "--config", r#"{"class": 2}"#]).unwrap();
        assert!(inv.overrides.is_some());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "2.0"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
        assert!(parse(&["--config", "[1]"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--bench"]).is_err());
        assert!(select(&parse(&[]).unwrap()).is_err());
        assert!(select(&parse(&["fig99"]).unwrap()).is_err());
    }

    #[test]
    fn stream_and_export_flags_parse() {
        let inv = parse(&["table2", "--stream"]).unwrap();
        assert!(inv.stream && inv.export_windows.is_none());
        let inv = parse(&["--stream", "--export-windows", "w.csv"]).unwrap();
        assert_eq!(inv.export_windows.as_deref(), Some("w.csv"));
        assert!(parse(&["--export-windows"]).is_err());
        // A bare export needs no study names to be a complete run.
        let inv = parse(&["--export-windows", "w.csv"]).unwrap();
        assert!(inv.names.is_empty() && !inv.all);
    }

    #[test]
    fn trace_flags_parse() {
        let inv = parse(&["table2", "--trace", "out.trace.json"]).unwrap();
        assert_eq!(inv.trace.as_deref(), Some("out.trace.json"));
        assert!(inv.trace_folded.is_none());
        let inv = parse(&["table2", "--trace-folded", "out.folded"]).unwrap();
        assert_eq!(inv.trace_folded.as_deref(), Some("out.folded"));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn list_covers_the_registry() {
        let listing = render_list();
        for exp in REGISTRY {
            assert!(listing.contains(exp.name()), "{} missing", exp.name());
        }
    }

    #[test]
    fn selection_preserves_order() {
        let inv = parse(&["table4", "tables"]).unwrap();
        let sel = select(&inv).unwrap();
        let names: Vec<&str> = sel.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["table4", "tables"]);
        let all = select(&parse(&["--all"]).unwrap()).unwrap();
        assert_eq!(all.len(), REGISTRY.len());
    }
}
