//! `cargo xtask trace-validate` — structural checks on emitted traces.
//!
//! A `summit-trace/1` file (see DESIGN.md "Tracing model") is only
//! useful if Perfetto can load it and the duration tree is well formed,
//! so CI validates every trace it produces: the file must parse with
//! [`summit_core::json`] (the same dialect the writers target), carry
//! the schema tag, and hold a non-empty `traceEvents` array in which
//! every event has a legal phase and numeric `pid`/`tid`, every `B` is
//! closed by a matching same-name `E` on the same thread track, and at
//! least one `thread_name` metadata event names a track.
//!
//! Field checks match [`Json::Num`] explicitly rather than going
//! through `as_f64`, which deliberately maps `null` to `+inf` for the
//! figure readers — a `"ts": null` must fail here, not validate.

use std::fmt::Write as _;
use summit_core::json::Json;

/// The trace schema this validator accepts.
pub const TRACE_SCHEMA: &str = "summit-trace/1";

/// Phases the summit-trace writer emits (Chrome Trace Event format).
const PHASES: &[&str] = &["B", "E", "X", "i", "M", "C"];

/// Summary of a valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceReport {
    /// Events in the `traceEvents` array (metadata included).
    pub events: usize,
    /// Thread tracks named by `thread_name` metadata events.
    pub tracks: usize,
}

/// Extracts the numeric value of `key`, refusing `null`/string/bool.
fn num_field(event: &Json, key: &str) -> Option<f64> {
    match event.get(key) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// Validates `text` as a `summit-trace/1` Chrome trace; returns the
/// event/track summary or every structural error found.
pub fn validate(text: &str) -> Result<TraceReport, Vec<String>> {
    let root = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };

    let mut errors: Vec<String> = Vec::new();
    match root.get("schema").and_then(Json::as_str) {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => errors.push(format!(
            "schema is {s:?}, expected {TRACE_SCHEMA:?} (regenerate the trace)"
        )),
        None => errors.push(format!("missing top-level \"schema\": {TRACE_SCHEMA:?}")),
    }

    let Some(events) = root.get("traceEvents").and_then(Json::as_arr) else {
        errors.push("missing top-level \"traceEvents\" array".into());
        return Err(errors);
    };
    if events.is_empty() {
        errors.push("\"traceEvents\" is empty: the trace recorded nothing".into());
    }

    // Per-tid stack of open `B` event names, keyed by (pid, tid) bits.
    let mut open: Vec<((u64, u64), Vec<String>)> = Vec::new();
    let mut tracks = 0usize;

    for (idx, event) in events.iter().enumerate() {
        if event.as_obj().is_none() {
            errors.push(format!("event #{idx}: not a JSON object"));
            continue;
        }
        let ph = match event.get("ph").and_then(Json::as_str) {
            Some(p) if PHASES.contains(&p) => p.to_owned(),
            Some(p) => {
                errors.push(format!("event #{idx}: unknown phase {p:?}"));
                continue;
            }
            None => {
                errors.push(format!("event #{idx}: missing \"ph\""));
                continue;
            }
        };
        let Some(name) = event.get("name").and_then(Json::as_str) else {
            errors.push(format!("event #{idx} (ph {ph}): \"name\" must be a string"));
            continue;
        };
        let (Some(pid), Some(tid)) = (num_field(event, "pid"), num_field(event, "tid")) else {
            errors.push(format!(
                "event #{idx} ({name:?}): \"pid\"/\"tid\" must be numbers"
            ));
            continue;
        };
        if ph != "M" {
            match num_field(event, "ts") {
                Some(ts) if ts >= 0.0 => {}
                _ => errors.push(format!(
                    "event #{idx} ({name:?}): \"ts\" must be a non-negative number"
                )),
            }
        }
        if ph == "X" && !num_field(event, "dur").is_some_and(|d| d >= 0.0) {
            errors.push(format!(
                "event #{idx} ({name:?}): complete event needs non-negative \"dur\""
            ));
        }
        if ph == "M" && name == "thread_name" {
            tracks += 1;
        }

        let key = (pid.to_bits(), tid.to_bits());
        match ph.as_str() {
            "B" => match open.iter_mut().find(|(k, _)| *k == key) {
                Some((_, stack)) => stack.push(name.to_owned()),
                None => open.push((key, vec![name.to_owned()])),
            },
            "E" => {
                let popped = open
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .and_then(|(_, stack)| stack.pop());
                match popped {
                    Some(b) if b == name => {}
                    Some(b) => errors.push(format!(
                        "event #{idx}: E {name:?} closes B {b:?} on tid {tid} \
                         (span open/close names must match)"
                    )),
                    None => errors.push(format!(
                        "event #{idx}: E {name:?} on tid {tid} with no open B"
                    )),
                }
            }
            _ => {}
        }
    }

    for ((_, tid_bits), stack) in &open {
        for name in stack {
            errors.push(format!(
                "B {name:?} on tid {} is never closed by an E",
                f64::from_bits(*tid_bits)
            ));
        }
    }
    if tracks == 0 {
        errors
            .push("no \"thread_name\" metadata event: tracks would be unnamed in Perfetto".into());
    }

    if errors.is_empty() {
        Ok(TraceReport {
            events: events.len(),
            tracks,
        })
    } else {
        Err(errors)
    }
}

/// Renders a report the way the CLI prints it.
pub fn summary(report: &TraceReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "trace ok: {} event(s), {} named track(s), B/E balanced per tid",
        report.events, report.tracks
    );
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn wrap(events: &str) -> String {
        format!(
            "{{\"schema\": \"summit-trace/1\", \"traceEvents\": [\n\
             {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
              \"args\": {{\"name\": \"main\"}}}},\n{events}\n]}}"
        )
    }

    #[test]
    fn balanced_trace_validates() {
        let text = wrap(
            "{\"name\": \"a\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 0},\n\
             {\"name\": \"b\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1, \"dur\": 2},\n\
             {\"name\": \"a\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 4}",
        );
        let report = validate(&text).unwrap();
        assert_eq!(
            report,
            TraceReport {
                events: 4,
                tracks: 1
            }
        );
        assert!(summary(&report).contains("4 event(s)"));
    }

    #[test]
    fn a_multi_megabyte_trace_validates_in_linear_time() {
        // About 5 MB of balanced spans: a linear parser takes well under
        // a second here even in a debug build, a quadratic one minutes.
        let span = "{\"name\": \"summit_core_engine_tick\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 0},\n\
                    {\"name\": \"summit_core_engine_tick\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 1}";
        let text = wrap(&vec![span; 30_000].join(",\n"));
        assert!(text.len() > 4_000_000, "{} bytes", text.len());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(validate(&text)));
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("validation must finish well within 30 s");
        assert_eq!(report.unwrap().events, 60_001);
    }

    #[test]
    fn unbalanced_and_cross_track_begins_fail() {
        // E with no B on its tid, plus a B left open on another tid.
        let text = wrap(
            "{\"name\": \"a\", \"ph\": \"B\", \"pid\": 1, \"tid\": 7, \"ts\": 0},\n\
             {\"name\": \"a\", \"ph\": \"E\", \"pid\": 1, \"tid\": 8, \"ts\": 1}",
        );
        let errors = validate(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("no open B")));
        assert!(errors.iter().any(|e| e.contains("never closed")));
    }

    #[test]
    fn mismatched_close_name_fails() {
        let text = wrap(
            "{\"name\": \"a\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, \"ts\": 0},\n\
             {\"name\": \"z\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 1}",
        );
        let errors = validate(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("must match")));
    }

    #[test]
    fn null_ts_and_wrong_schema_fail() {
        // `as_f64` would read `null` as +inf; the validator must not.
        let text = "{\"schema\": \"summit-trace/0\", \"traceEvents\": [\
                    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1},\
                    {\"name\": \"a\", \"ph\": \"i\", \"pid\": 1, \"tid\": 1, \"ts\": null}]}";
        let errors = validate(text).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.contains("expected \"summit-trace/1\"")));
        assert!(errors.iter().any(|e| e.contains("non-negative number")));
    }

    #[test]
    fn garbage_missing_array_and_unknown_phase_fail() {
        assert!(validate("not json").unwrap_err()[0].contains("not valid JSON"));
        let errors = validate("{\"schema\": \"summit-trace/1\"}").unwrap_err();
        assert!(errors.iter().any(|e| e.contains("traceEvents")));
        let text = wrap("{\"name\": \"a\", \"ph\": \"Q\", \"pid\": 1, \"tid\": 1, \"ts\": 0}");
        let errors = validate(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("unknown phase")));
    }

    #[test]
    fn missing_thread_name_fails() {
        let text = "{\"schema\": \"summit-trace/1\", \"traceEvents\": [\
                    {\"name\": \"a\", \"ph\": \"i\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]}";
        let errors = validate(text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("thread_name")));
    }
}
