//! Offline stand-in for the `rayon` crate, backed by a persistent
//! thread pool.
//!
//! The build environment has no network access, so this crate
//! implements the `par_iter`/`into_par_iter` subset the workspace uses
//! — slice and `Vec` sources; the `map`, `flat_map_iter`, `seq_below`
//! and `fold` adaptors; `collect`, `reduce` and `sum_stable` — on its
//! own worker pool: threads are spawned once (named
//! `summit-par-N`), park on a condvar between executions, and each
//! execution is dispatched to them as an *epoch*. Jobs borrow the
//! caller's stack while workers are `'static`, so dispatch erases the
//! job through one audited `unsafe` point (see `pool.rs`) made sound
//! by a compile-time `Sync` check and an unwind-safe completion
//! barrier. Unlike real rayon, execution is **deterministic by
//! construction**:
//!
//! - Every pipeline decomposes its input into contiguous chunks whose
//!   boundaries depend only on the input length — never on the thread
//!   count or on runtime scheduling.
//! - `collect()` concatenates chunk outputs in chunk order, so
//!   `par_iter().map(f).collect()` is bit-identical to the sequential
//!   `iter().map(f).collect()`.
//! - `fold()`/`reduce()` combine per-chunk accumulators in ascending
//!   chunk order, so even non-associative floating-point reductions give
//!   the same bits for every `SUMMIT_THREADS` value (the *grouping* is
//!   fixed by the chunk layout, which the thread count cannot change).
//!
//! Workers claim chunk indices from per-worker contiguous bands through
//! atomic cursors and steal from other bands once their own is drained,
//! so an imbalanced chunk does not idle the rest of the pool.
//!
//! ## Pool sizing
//!
//! The pool size is resolved per execution:
//!
//! 1. a thread-local override installed by [`with_thread_count`]
//!    (used by tests and the bench driver);
//! 2. the `SUMMIT_THREADS` environment variable (a positive integer;
//!    `1` forces the exact sequential path — no epoch at all), parsed
//!    once per process and cached;
//! 3. [`std::thread::available_parallelism`] otherwise.
//!
//! Growing the pool spawns only the missing workers and bumps the
//! counter behind [`pool_generation`], which tests read to prove a
//! warm pool is reused rather than respawned.
//!
//! ## Observability
//!
//! Executions record into `summit-obs`: the deterministic
//! `summit_par_tasks_total` chunk counter and `summit_par_threads`
//! gauge go to the current (possibly scoped) registry along with a
//! per-stage `summit_par_busy_<stage>_seconds` worker busy-time
//! histogram; the scheduling-dependent `summit_par_steal_total`
//! counter goes to the process-wide global registry only, so per-run
//! scoped snapshots stay bit-reproducible.

pub mod iter;
pub(crate) mod pool;

pub use pool::pool_generation;

use std::cell::Cell;
use std::sync::OnceLock;

/// Parallel-iterator entry points, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        StableSum,
    };
}

thread_local! {
    /// Per-thread pool-size override; `None` defers to the environment.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads the next execution on this thread will
/// use (before capping to the task count): the [`with_thread_count`]
/// override if one is active, else `SUMMIT_THREADS`, else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    // The environment cannot change mid-process, so the lookup and
    // parse happen once instead of on every parallel execution.
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    ENV_THREADS
        .get_or_init(|| parse_env_threads(std::env::var("SUMMIT_THREADS").ok().as_deref()))
        .unwrap_or_else(default_threads)
}

/// Parses a `SUMMIT_THREADS` value; anything but a positive integer
/// defers to the machine default.
fn parse_env_threads(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` with the pool size pinned to `threads` on this thread
/// (restored afterwards, panic-safe). `1` forces the exact sequential
/// path. This is how the determinism tests and the benchmark's
/// sequential leg compare thread counts without mutating the process
/// environment.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1)))));
    f()
}

/// Pins nested executions on the current (worker) thread to the
/// sequential path: a `par_iter` inside a `par_iter` must not multiply
/// the thread count.
pub(crate) fn serialize_nested() {
    THREAD_OVERRIDE.with(|c| c.set(Some(1)));
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_iter_on_vec_and_slice() {
        let v = vec![1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let s: &[i32] = &v;
        let copied: Vec<i32> = s.par_iter().map(|&x| x).collect();
        assert_eq!(copied, vec![1, 2, 3]);
    }

    #[test]
    fn into_par_iter_on_vec() {
        let v = vec![1, 2, 3];
        let sum: i32 = v.into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, 6);
    }

    #[test]
    fn with_thread_count_restores_on_exit_and_panic() {
        with_thread_count(3, || {
            assert_eq!(current_num_threads(), 3);
            with_thread_count(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
        let caught = std::panic::catch_unwind(|| with_thread_count(5, || panic!("boom")));
        assert!(caught.is_err());
        // The override must not leak out of the panicked scope.
        assert!(THREAD_OVERRIDE.with(Cell::get).is_none());
    }

    #[test]
    fn env_thread_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_env_threads(Some("4")), Some(4));
        assert_eq!(parse_env_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_env_threads(Some("0")), None);
        assert_eq!(parse_env_threads(Some("-3")), None);
        assert_eq!(parse_env_threads(Some("lots")), None);
        assert_eq!(parse_env_threads(Some("")), None);
        assert_eq!(parse_env_threads(None), None);
    }

    #[test]
    fn thread_override_wins_over_the_cached_env_value() {
        // Prime the process-wide cache first, then check the override
        // still takes precedence and restores cleanly.
        let ambient = current_num_threads();
        assert!(ambient >= 1);
        with_thread_count(ambient + 3, || {
            assert_eq!(current_num_threads(), ambient + 3);
        });
        assert_eq!(current_num_threads(), ambient);
    }

    #[test]
    fn collect_is_bit_identical_across_thread_counts() {
        let data: Vec<f64> = (0..1789).map(|i| (i as f64).sin() * 1e3).collect();
        let run = |threads: usize| -> Vec<u64> {
            with_thread_count(threads, || {
                data.par_iter()
                    .map(|&x| (x.sqrt().abs() + x * x).to_bits())
                    .collect()
            })
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn flat_map_iter_preserves_input_order() {
        let rows: Vec<usize> = (0..97).collect();
        let run = |threads: usize| -> Vec<(usize, usize)> {
            with_thread_count(threads, || {
                rows.par_iter()
                    .flat_map_iter(|&r| (0..3).map(move |c| (r, c)))
                    .collect()
            })
        };
        let sequential = run(1);
        assert_eq!(sequential.len(), 97 * 3);
        assert_eq!(run(4), sequential);
    }

    #[test]
    fn fold_reduce_fixes_float_grouping() {
        // Summing floats is not associative; the chunk layout (not the
        // thread count) decides the grouping, so every pool size gives
        // the same bits.
        let data: Vec<f64> = (0..4096).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let run = |threads: usize| -> u64 {
            with_thread_count(threads, || {
                data.par_iter()
                    .fold(|| 0.0f64, |acc, &x| acc + x)
                    .reduce(|| 0.0f64, |a, b| a + b)
                    .to_bits()
            })
        };
        let sequential = run(1);
        for threads in [2, 5, 16] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn reduce_of_empty_input_is_identity() {
        let empty: Vec<f64> = Vec::new();
        let total = with_thread_count(4, || empty.par_iter().map(|&x| x).reduce(|| -7.5, f64::max));
        assert_eq!(total, -7.5);
        let collected: Vec<f64> = with_thread_count(4, || empty.par_iter().map(|&x| x).collect());
        assert!(collected.is_empty());
    }

    #[test]
    fn seq_below_skips_the_pool_for_small_inputs() {
        // The gauge is written only by parallel (pool) executions, so
        // it doubles as a dispatch probe: under the floor it must stay
        // unset, at or above the floor the pool runs.
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let small: Vec<usize> = (0..40).collect();
        let out: Vec<usize> = with_thread_count(4, || {
            small.par_iter().map(|&x| x * 3).seq_below(64).collect()
        });
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(registry.snapshot().gauge("summit_par_threads"), None);

        let big: Vec<usize> = (0..64).collect();
        let out: Vec<usize> =
            with_thread_count(4, || big.par_iter().map(|&x| x * 3).seq_below(64).collect());
        assert_eq!(out.len(), 64);
        assert!(
            registry.snapshot().gauge("summit_par_threads").is_some(),
            "at the floor the pool must dispatch"
        );
    }

    #[test]
    fn seq_below_is_bit_identical_to_the_pool_path() {
        // Same floor, both sides of it, across adaptor stacks: the
        // inline dispatch must replay the exact chunk grid.
        let data: Vec<f64> = (0..200).map(|i| (i as f64).cos() * 1e6 + 1e-9).collect();
        for n in [0usize, 150, 100_000] {
            let gated = with_thread_count(4, || {
                data.par_iter()
                    .map(|&x| x * 1.000001)
                    .seq_below(n)
                    .fold(|| 0.0f64, |acc, x| acc + x)
                    .reduce(|| 0.0f64, |a, b| a + b)
            });
            let plain = with_thread_count(4, || {
                data.par_iter()
                    .map(|&x| x * 1.000001)
                    .fold(|| 0.0f64, |acc, x| acc + x)
                    .reduce(|| 0.0f64, |a, b| a + b)
            });
            assert_eq!(gated.to_bits(), plain.to_bits(), "floor={n}");
        }
        // The floor survives being buried under later adaptors.
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let scaled: Vec<f64> = with_thread_count(4, || {
            data.clone()
                .into_par_iter()
                .seq_below(1000)
                .map(|x| x * 2.0)
                .collect()
        });
        assert_eq!(scaled.len(), data.len());
        assert_eq!(registry.snapshot().gauge("summit_par_threads"), None);
    }

    #[test]
    fn task_counter_is_thread_count_independent() {
        let count_tasks = |threads: usize| {
            let registry = summit_obs::registry::Registry::new();
            let _scope = registry.install();
            let v: Vec<usize> = (0..333).collect();
            let _: Vec<usize> = with_thread_count(threads, || v.par_iter().map(|&x| x).collect());
            registry.snapshot().counter("summit_par_tasks_total")
        };
        assert_eq!(count_tasks(1), count_tasks(7));
    }

    #[test]
    fn nested_parallelism_is_serialized() {
        let outer: Vec<usize> = (0..64).collect();
        let nested: Vec<usize> = with_thread_count(4, || {
            outer
                .par_iter()
                .map(|&i| {
                    let inner: Vec<usize> = vec![i; 8].into_par_iter().collect();
                    i + inner.len()
                })
                .collect()
        });
        assert!(nested.iter().enumerate().all(|(i, &x)| x == i + 8));
    }

    #[test]
    fn scoped_registry_reaches_worker_threads() {
        // Counters recorded inside worker closures must land in the
        // registry installed on the *calling* thread.
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let v: Vec<usize> = (0..256).collect();
        let _: Vec<usize> = with_thread_count(4, || {
            v.par_iter()
                .map(|&x| {
                    summit_obs::counter("summit_par_test_worker_total").inc();
                    x
                })
                .collect()
        });
        assert_eq!(
            registry.snapshot().counter("summit_par_test_worker_total"),
            Some(256)
        );
    }
}
