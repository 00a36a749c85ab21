//! # summit-obs
//!
//! Self-observability layer for the Summit reproduction: the telemetry
//! pipeline we build is itself a monitoring product (paper Section 2 —
//! data "processed, summarized, and rendered to engineers in near
//! real-time"), so the pipeline must be able to watch itself. This
//! crate is the deterministic core that every other workspace crate
//! records into:
//!
//! - [`registry`] — named [`registry::Counter`]s, [`registry::Gauge`]s
//!   and log-bucketed [`registry::Histogram`]s behind a cloneable
//!   [`registry::Registry`] handle with sorted, deterministic
//!   [`registry::Snapshot`]s.
//! - [`span`] — [`span::SpanGuard`] stage timers: each span increments
//!   a deterministic `<name>_calls_total` counter and records its
//!   wall-clock duration into `<name>_seconds` on drop; spans nest via
//!   a thread-local stack.
//! - [`expose`] — sinks: Prometheus text exposition
//!   ([`expose::write_prometheus`] plus the [`expose::parse_prometheus`]
//!   round-trip reader), JSON ([`expose::write_json`], the
//!   `BENCH_obs.json` shape) and CSV ([`expose::write_csv`]).
//! - [`histogram`] — the fixed power-of-two bucket grid shared by every
//!   histogram (bit-identical edges across runs).
//! - [`trace`] — structured tracing: an installable
//!   [`trace::TraceCollector`] records span open/close (and pool-epoch
//!   activity from `compat/rayon`) into bounded per-thread rings, with
//!   deterministic Chrome/Perfetto JSON, folded-stack and span-stats
//!   exporters. When no collector is installed the span hooks cost one
//!   thread-local read.
//!
//! ## Metric naming
//!
//! `summit_<crate>_<stage>_<unit>`, e.g.
//! `summit_telemetry_coarsen_seconds`,
//! `summit_core_frames_offered_total`. Names are sanitized to the
//! Prometheus charset on registration.
//!
//! ## Registry resolution
//!
//! Instrumented code records into [`current()`]: the innermost registry
//! installed on this thread via [`registry::Registry::install`], or the
//! process-wide [`global()`] registry when none is installed. Scoped
//! installs give experiments an isolated per-run snapshot (and make the
//! determinism tests independent of test-runner interleaving); the
//! global registry serves long-lived exposition.
//!
//! ## Determinism contract
//!
//! Counters and size histograms depend only on the seeded simulation,
//! so two identical runs produce identical values. `_seconds`
//! histograms hold wall-clock timings and are *excluded* from every
//! determinism comparison — compare [`registry::Snapshot::counters`]
//! only.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expose;
pub mod histogram;
pub mod registry;
pub mod span;
pub mod trace;

use registry::Registry;
use std::cell::RefCell;
use std::sync::OnceLock;

pub use registry::{Counter, Gauge, Histogram, Snapshot};
pub use span::{active_spans, span, span_depth, with_innermost_span, SpanGuard};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

thread_local! {
    static INSTALLED: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The registry instrumented code records into: the innermost
/// [`Registry::install`]ed on this thread, else [`global()`].
pub fn current() -> Registry {
    INSTALLED.with(|stack| {
        stack
            .borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| global().clone())
    })
}

/// Pops its registry from the thread-local install stack on drop.
#[must_use = "dropping the guard immediately uninstalls the registry"]
#[derive(Debug)]
pub struct ScopeGuard(());

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        INSTALLED.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

impl Registry {
    /// Makes this registry the [`current()`] one on this thread until
    /// the returned guard drops. Installs stack: the innermost wins.
    pub fn install(&self) -> ScopeGuard {
        INSTALLED.with(|stack| stack.borrow_mut().push(self.clone()));
        ScopeGuard(())
    }
}

/// Shorthand: counter `name` on the current registry.
pub fn counter(name: &str) -> Counter {
    current().counter(name)
}

/// Shorthand: gauge `name` on the current registry.
pub fn gauge(name: &str) -> Gauge {
    current().gauge(name)
}

/// Shorthand: histogram `name` on the current registry.
pub fn histogram(name: &str) -> Histogram {
    current().histogram(name)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn current_falls_back_to_global() {
        // No install on this thread: the global registry receives it.
        counter("summit_obs_test_global_total").inc();
        assert!(global()
            .snapshot()
            .counter("summit_obs_test_global_total")
            .is_some());
    }

    #[test]
    fn installs_stack_and_unwind() {
        let outer = Registry::new();
        let inner = Registry::new();
        {
            let _a = outer.install();
            counter("summit_obs_test_scoped_total").inc();
            {
                let _b = inner.install();
                counter("summit_obs_test_scoped_total").inc_by(10);
            }
            counter("summit_obs_test_scoped_total").inc();
        }
        assert_eq!(
            outer.snapshot().counter("summit_obs_test_scoped_total"),
            Some(2)
        );
        assert_eq!(
            inner.snapshot().counter("summit_obs_test_scoped_total"),
            Some(10)
        );
    }

    #[test]
    fn install_is_thread_local() {
        let local = Registry::new();
        let _guard = local.install();
        std::thread::scope(|s| {
            s.spawn(|| {
                // The spawned thread has no install: records go global.
                counter("summit_obs_test_other_thread_total").inc();
            });
        });
        assert_eq!(
            local
                .snapshot()
                .counter("summit_obs_test_other_thread_total"),
            None
        );
    }
}
