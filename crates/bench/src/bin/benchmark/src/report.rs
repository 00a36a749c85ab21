//! Metric definitions, the result document and `--compare`.

use crate::stats::Summary;
use summit_core::experiments::registry::REGISTRY;
use summit_core::json::Json;

/// Schema tag of the document `--out` writes.
pub const SCHEMA: &str = "summit-benchmark/1";

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, losses).
    Lower,
    /// Larger is better (throughput, useful work).
    Higher,
}

impl Better {
    /// The label used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit of its values.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

fn spec(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Spec {
    Spec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, measured with tracing off on every workload.
///
/// The time bounds are close to the widest allowed because they must
/// hold across runs on a shared 2-vCPU VM, whose speed drifts with
/// other tenants' load by 10-25% over minutes (README.md). `setup_s`,
/// a median of only five cold iterations, carries the largest bound.
pub fn end_to_end() -> Vec<Spec> {
    use Better::*;
    vec![
        spec("wall_s", "s", Lower, Some(0.24)),
        spec("frames_per_s", "frames/s", Higher, Some(0.24)),
        spec("setup_s", "s", Lower, Some(0.25)),
        spec("peak_rss_mb", "MB", Lower, Some(0.15)),
    ]
}

/// Per-layer metrics of the traced run. Every workload reports every
/// one; a layer the workload never calls reads 0.
pub fn per_layer() -> Vec<Spec> {
    use Better::*;
    let mut specs: Vec<Spec> = [
        ("sim.engine.new_s", "s", Lower),
        ("sim.engine.step_batch_s", "s", Lower),
        ("sim.engine.ticks", "count", Higher),
        ("telemetry.batch.read_frame_s", "s", Lower),
        ("telemetry.batch.frames", "count", Higher),
        ("telemetry.stream.deliver_s", "s", Lower),
        ("telemetry.stream.injected_dropped", "count", Lower),
        ("telemetry.stream.injected_duplicated", "count", Lower),
        ("telemetry.stream.injected_delayed", "count", Lower),
        ("telemetry.stream.injected_reordered", "count", Lower),
        ("telemetry.delivery.offer_s", "s", Lower),
        ("telemetry.ingest.observe_s", "s", Lower),
        ("telemetry.window.coarsen_s", "s", Lower),
        ("telemetry.window.accepted", "count", Higher),
        ("telemetry.window.late", "count", Lower),
        ("telemetry.window.duplicates", "count", Lower),
        ("telemetry.window.windows", "count", Higher),
        ("telemetry.window.peak_resident_frames", "count", Lower),
        ("core.pipeline.consumer_busy_s", "s", Lower),
        ("core.pipeline.producer_busy_s", "s", Lower),
        ("core.pipeline.consumer_busy_ratio", "ratio", Lower),
        ("core.pipeline.backpressure_stalls", "count", Lower),
        ("core.pipeline.peak_channel_depth", "count", Lower),
        ("core.pipeline.alert_latency_s", "s", Lower),
        ("core.pipeline.alert_p99_sim_s", "sim-s", Lower),
        ("core.pipeline.unattributed_s", "s", Lower),
        ("core.pipeline.population_generate_s", "s", Lower),
        ("core.pipeline.failure_scenario_s", "s", Lower),
        ("core.pipeline.burst_schedule_s", "s", Lower),
        ("core.cache.hits", "count", Higher),
        ("core.cache.misses", "count", Lower),
        ("analysis.fft_s", "s", Lower),
        ("analysis.kde_fit_s", "s", Lower),
        ("analysis.kde2_fit_s", "s", Lower),
        ("analysis.cdf_build_s", "s", Lower),
        ("analysis.correlation_s", "s", Lower),
        ("rayon.speedup", "ratio", Higher),
        ("rayon.seq_wall_s", "s", Lower),
        ("rayon.tasks", "count", Lower),
        ("rayon.busy_s", "s", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        ("trace.dropped_events", "count", Lower),
    ]
    .into_iter()
    .map(|(name, unit, better)| spec(name, unit, better, None))
    .collect();
    specs.extend(
        REGISTRY
            .iter()
            .map(|e| spec(&study_metric(e.name()), "s", Lower, None)),
    );
    specs
}

/// The per-layer metric holding one study's seconds.
pub fn study_metric(study: &str) -> String {
    format!("core.experiments.{study}_s")
}

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit of the values.
    pub unit: String,
    /// The reported value: the median of the samples, or for warm wall
    /// time and throughput the quartile at the fast end.
    pub value: f64,
    /// Median, quartiles and sample count of the samples.
    pub summary: Summary,
}

/// Host facts recorded with each workload. Metadata only: nothing
/// gates on them, they make host drift over time visible.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Available parallelism of the process.
    pub nproc: usize,
    /// `SUMMIT_THREADS` as set, if set.
    pub summit_threads: Option<String>,
    /// Seconds of the fixed calibration loop at the start and the end
    /// of the workload process.
    pub calib_s: Vec<f64>,
}

/// Everything one workload process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Description of the inputs.
    pub inputs: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget (s).
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measured iterations (traced run: measured rounds).
    pub iterations: usize,
    /// Units of work checked.
    pub attempted: u64,
    /// Units of work that failed a check.
    pub failed: u64,
    /// Host facts.
    pub host: Host,
    /// Measured metrics, in definition order.
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One `[metric] <workload> <name> <value> <unit>` line per metric,
    /// followed by the samples' median, quartiles and count.
    pub fn metric_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "[metric] {} {} {} {} median={} q1={} q3={} n={}",
                    self.name,
                    m.name,
                    m.value,
                    m.unit,
                    m.summary.median,
                    m.summary.q1,
                    m.summary.q3,
                    m.summary.n
                )
            })
            .collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed` and each
    /// metric's value with its unit.
    pub fn result_line(&self) -> String {
        result_line(
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.iter().map(|m| (m.name.clone(), m)),
        )
    }

    /// The full report as JSON.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::from(m.name.as_str())),
                    ("unit", Json::from(m.unit.as_str())),
                    ("value", Json::Num(m.value)),
                    ("median", Json::Num(m.summary.median)),
                    ("q1", Json::Num(m.summary.q1)),
                    ("q3", Json::Num(m.summary.q3)),
                    ("n", Json::from(m.summary.n)),
                ])
            })
            .collect();
        let threads = match &self.host.summit_threads {
            Some(v) => Json::from(v.as_str()),
            None => Json::Null,
        };
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("inputs", Json::from(self.inputs.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("iterations", Json::from(self.iterations)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::from(self.host.nproc)),
                    ("summit_threads", threads),
                    ("calib_s", Json::nums(self.host.calib_s.iter().copied())),
                ]),
            ),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// Reads a report written by [`Self::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let host = field(j, "host")?;
        let metrics = field(j, "metrics")?
            .as_arr()
            .ok_or("`metrics` is not an array")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    value: num(m, "value")?,
                    summary: Summary {
                        median: num(m, "median")?,
                        q1: num(m, "q1")?,
                        q3: num(m, "q3")?,
                        n: count(m, "n")? as usize,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            name: text(j, "name")?,
            inputs: text(j, "inputs")?,
            seed: count(j, "seed")?,
            seconds: count(j, "seconds")?,
            trace: flag(j, "trace")?,
            iterations: count(j, "iterations")? as usize,
            attempted: count(j, "attempted")?,
            failed: count(j, "failed")?,
            host: Host {
                nproc: count(host, "nproc")? as usize,
                summit_threads: field(host, "summit_threads")?.as_str().map(str::to_string),
                calib_s: field(host, "calib_s")?
                    .as_arr()
                    .ok_or("`calib_s` is not an array")?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| format!("bad calibration time `{v}`"))
                    })
                    .collect::<Result<_, _>>()?,
            },
            metrics,
        })
    }
}

/// A result line: `correct`, `attempted`, `failed` and the value and
/// unit of each named metric.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let metrics = metrics
        .map(|(name, m)| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]);
            (name, value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn text(j: &Json, key: &str) -> Result<String, String> {
    field(j, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    match field(j, key)? {
        Json::Num(v) => Ok(*v),
        other => Err(format!("`{key}` is not a number: {other}")),
    }
}

fn count(j: &Json, key: &str) -> Result<u64, String> {
    let v = num(j, key)?;
    if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
        Ok(v as u64)
    } else {
        Err(format!("`{key}` is not a whole number: {v}"))
    }
}

fn flag(j: &Json, key: &str) -> Result<bool, String> {
    field(j, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a boolean"))
}

/// The `--out` document for a set of workload reports.
pub fn document(reports: &[WorkloadReport]) -> String {
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        (
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ])
    .to_string()
}

/// Parses a document written by [`document`].
pub fn parse_document(text: &str) -> Result<Vec<WorkloadReport>, String> {
    let j = Json::parse(text).map_err(|e| e.to_string())?;
    match j.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("unsupported schema {other:?}, expected {SCHEMA}")),
    }
    field(&j, "workloads")?
        .as_arr()
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(WorkloadReport::from_json)
        .collect()
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows, with both sides' spreads within it.
    Regressed,
    /// A side's quartile spread exceeds the bound: the data cannot tell.
    Unresolved,
}

/// Judges `b` against baseline `a` under `spec`'s bound.
pub fn judge(spec: &Spec, a: &Metric, b: &Metric) -> (f64, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    if a.value == 0.0 || !a.value.is_finite() || !b.value.is_finite() {
        return (f64::NAN, Verdict::Unresolved);
    }
    let delta = (b.value - a.value) / a.value;
    let worse = match spec.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = if a.summary.spread() > bound || b.summary.spread() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// Compares every end-to-end metric of every workload in `b` against
/// baseline `a`. Returns the report lines and whether any regressed.
pub fn compare(a: &[WorkloadReport], b: &[WorkloadReport]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = false;
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            lines.push(format!(
                "[compare] {} missing from the second document",
                wa.name
            ));
            continue;
        };
        for spec in end_to_end() {
            let (Some(ma), Some(mb)) = (wa.metric(&spec.name), wb.metric(&spec.name)) else {
                continue;
            };
            let (sa, sb) = (&ma.summary, &mb.summary);
            let (delta, verdict) = judge(&spec, ma, mb);
            regressed |= verdict == Verdict::Regressed;
            lines.push(format!(
                "[compare] {} {} A {} [{}, {}] B {} [{}, {}] {} ({} is better) delta {:+.1}% bound {:.0}% spread A {:.1}% B {:.1}% {}",
                wa.name,
                spec.name,
                ma.value,
                sa.q1,
                sa.q3,
                mb.value,
                sb.q1,
                sb.q3,
                ma.unit,
                spec.better.label(),
                delta * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_counts_fit_the_caps() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        assert!(!layers.is_empty() && layers.len() <= 128);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|s| s.name.as_str()).collect();
        for s in e2e.iter().chain(&layers) {
            assert!(valid_name(&s.name), "{}", s.name);
            assert!(valid_unit(s.unit), "{}", s.unit);
        }
        for s in &e2e {
            assert!(s.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", s.name);
        }
        let setup = e2e.iter().find(|s| s.name == "setup_s");
        let largest = e2e.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.map(|s| (s.unit, s.better, s.bound)),
            Some(("s", Better::Lower, Some(largest)))
        );
        assert!(layers.iter().all(|s| s.bound.is_none()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }

    /// `BENCHMARK.json` at the repository root must describe exactly
    /// the workloads and metrics this program reports.
    #[test]
    fn benchmark_manifest_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let j = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        let workloads: Vec<String> = crate::workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        for w in crate::workload::ALL {
            let why = j
                .get("workloads")
                .and_then(Json::as_arr)
                .and_then(|ws| {
                    ws.iter()
                        .find(|x| x.get("name").and_then(Json::as_str) == Some(w.name()))
                })
                .and_then(|x| x.get("why"))
                .and_then(Json::as_str);
            assert_eq!(why, Some(w.why()));
        }
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = j.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (m, s) in listed.iter().zip(&specs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(s.name.as_str()));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(s.unit));
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(s.better.label())
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
            }
        }
    }

    fn sample_report(name: &str, wall: [f64; 3]) -> WorkloadReport {
        WorkloadReport {
            name: name.into(),
            inputs: "4 cabinets x 60 s \"quoted\"".into(),
            seed: 2020,
            seconds: 10,
            trace: false,
            iterations: 7,
            attempted: 9,
            failed: 0,
            host: Host {
                nproc: 2,
                summit_threads: None,
                calib_s: vec![0.031, 0.0325],
            },
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    unit: "s".into(),
                    value: wall[0],
                    summary: Summary {
                        median: wall[1],
                        q1: wall[0],
                        q3: wall[2],
                        n: 7,
                    },
                },
                Metric {
                    name: "frames_per_s".into(),
                    unit: "frames/s".into(),
                    value: 1.0e6 / wall[0],
                    summary: Summary::single(1.0e6 / wall[0]),
                },
            ],
        }
    }

    #[test]
    fn document_round_trips_through_core_json() {
        let mut traced = sample_report("paper-suite", [1.9, 2.0, 2.1]);
        traced.trace = true;
        traced.host.summit_threads = Some("2".into());
        let reports = vec![sample_report("floor-batch", [0.8, 0.81, 0.83]), traced];
        let text = document(&reports);
        assert_eq!(parse_document(&text), Ok(reports));
        assert!(parse_document("{\"schema\": \"other/9\", \"workloads\": []}").is_err());
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let line = sample_report("floor-batch", [0.8, 0.81, 0.83]).result_line();
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap_or(&[])
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = j.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(
            wall.and_then(|w| w.get("value")).and_then(Json::as_f64),
            Some(0.8)
        );
        assert_eq!(
            wall.and_then(|w| w.get("unit")).and_then(Json::as_str),
            Some("s")
        );
        assert_eq!(
            j.get("attempted").map(ToString::to_string).as_deref(),
            Some("9")
        );
    }

    #[test]
    fn compare_flags_regressions_only_when_resolved() {
        let wall = end_to_end()
            .into_iter()
            .find(|s| s.name == "wall_s")
            .unwrap();
        let metric = |value: f64, q1: f64, median: f64, q3: f64| Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            value,
            summary: Summary {
                median,
                q1,
                q3,
                n: 7,
            },
        };
        let tight = |m: f64| metric(m * 0.99, m * 0.99, m, m * 1.01);
        assert_eq!(judge(&wall, &tight(1.0), &tight(1.05)).1, Verdict::Ok);
        assert_eq!(judge(&wall, &tight(1.0), &tight(1.3)).1, Verdict::Regressed);
        assert_eq!(judge(&wall, &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        let wide = metric(1.0, 1.0, 1.2, 1.4);
        assert_eq!(judge(&wall, &tight(1.0), &wide).1, Verdict::Unresolved);

        let a = vec![sample_report("floor-batch", [0.99, 1.0, 1.01])];
        let b = vec![sample_report("floor-batch", [1.29, 1.3, 1.31])];
        let (lines, regressed) = compare(&a, &b);
        assert!(regressed, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.contains("wall_s") && l.ends_with("regressed")));
        let (_, regressed) = compare(&a, &a);
        assert!(!regressed);
    }
}
