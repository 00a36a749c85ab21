//! The chunk executor: a persistent worker pool with banded
//! work-stealing.
//!
//! [`run`] is the single entry point every terminal adaptor method goes
//! through. It lays a deterministic chunk grid over the pipeline (the
//! grid depends only on the input length), freezes the pipeline into a
//! shared
//! [`Source`], dispatches one *epoch* to the pool, and returns the
//! per-chunk outputs in ascending chunk order — which is all a caller
//! needs to reassemble the exact sequential result.
//!
//! ## Pool lifecycle
//!
//! Worker threads are spawned **once**, on first parallel use, and then
//! parked on a condvar between executions — dispatching an epoch costs
//! two mutex round-trips and a wakeup instead of N `thread::spawn`s and
//! joins. The pool grows monotonically to the largest thread count any
//! execution requests (each growth batch bumps [`pool_generation`]) and
//! is torn down by process exit; parked workers hold no work and cost
//! nothing but stack space.
//!
//! ## Epochs
//!
//! An epoch is one execution: `(bands, chunk grid, &Source)` published
//! under the pool mutex, plus a claim-slot budget of `threads - 1`.
//! Woken workers claim a slot (their *home* band), drain chunks through
//! the atomic band cursors, and send one report back through a
//! per-epoch channel; the dispatching thread participates as home 0 and
//! then waits at the completion barrier until every claimed slot
//! retires. A `door` mutex serializes concurrent dispatchers, so the
//! published epoch is unambiguous.
//!
//! ## Scheduling
//!
//! Chunk indices are partitioned into one contiguous *band* per
//! participant, each with an atomic cursor. A participant drains its
//! own band first (`fetch_add` on the cursor), then sweeps the other
//! bands and steals whatever indices remain. Cursors may overshoot
//! their band's end (a failed claim still bumps them), so accounting
//! reads clamp with [`Band::remaining`]. Scheduling decides only
//! *which thread* computes a chunk, never what the chunk contains, so
//! timing races cannot leak into results.
//!
//! ## Results and panics
//!
//! Each participant accumulates `(chunk_index, Vec<Item>)` pairs
//! privately and sends them once over the epoch's mpsc channel — no
//! shared slot vectors, no per-chunk locks. The dispatcher merges the
//! pairs index-ordered after the barrier. A panicking chunk stops its
//! participant, the panic payload (smallest chunk index wins) is
//! re-raised on the dispatching thread after the barrier, and the pool
//! survives for the next execution.
//!
//! ## The one `unsafe` erasure point
//!
//! Persistent ('static) workers cannot hold a borrow of a caller's
//! stack-allocated source in safe Rust, so the published epoch handle
//! erases `&EpochJob<'_, S>` to a raw pointer plus a monomorphized
//! trampoline (`ErasedJob`). Soundness rests on two invariants, both
//! enforced here: the dispatcher keeps the job alive until the
//! completion barrier passes (even on unwind — the barrier runs in a
//! drop guard), and `EpochJob` is compile-time-checked `Sync` before
//! its address is published ([`assert_sync`]). This is the entire
//! unsafe surface of the crate.
//!
//! ## Metrics
//!
//! Per execution, into the caller's [`summit_obs::current`] registry:
//! `summit_par_tasks_total` (+= chunk count), `summit_par_threads`
//! (participants after capping — written once, only by parallel
//! executions, so sequential and nested runs never overwrite it
//! mid-run) and a per-stage `summit_par_busy_<stage>_seconds`
//! histogram of participant busy time, where `<stage>` is the
//! innermost active obs span (name cached per thread — no per-call
//! allocation). The scheduling-dependent `summit_par_steal_total` goes
//! to [`summit_obs::global`] only, keeping scoped snapshots
//! deterministic.

use crate::iter::{ParallelIterator, Source};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use summit_obs::trace::{TraceClock, TraceCollector};

/// Upper bound on the number of chunks an execution creates. Small
/// enough that per-chunk overhead stays negligible, large enough to
/// give stealing room to smooth imbalanced chunks on any realistic
/// core count.
pub(crate) const MAX_CHUNKS: usize = 64;

/// Floor on elements per chunk: stops small inputs from shattering
/// into micro-tasks whose claim overhead exceeds their work.
pub(crate) const MIN_CHUNK: usize = 16;

/// The deterministic chunk size for an input: aim for [`MAX_CHUNKS`]
/// chunks, but never below [`MIN_CHUNK`] elements. A pure function of
/// the input length — thread count plays no part.
pub(crate) fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(MIN_CHUNK)
}

/// Input index range of chunk `k` on the `(chunk_size, len)` grid.
pub(crate) fn chunk_range(k: usize, chunk_size: usize, len: usize) -> Range<usize> {
    let start = k.saturating_mul(chunk_size).min(len);
    start..start.saturating_add(chunk_size).min(len)
}

thread_local! {
    /// True while this thread is executing chunks of an epoch (as
    /// dispatcher or worker). Any `run` on such a thread must take the
    /// sequential path: nested parallelism may not multiply the thread
    /// count, and re-entering the pool from inside an epoch would
    /// self-deadlock on the dispatch door.
    static IN_EPOCH: Cell<bool> = const { Cell::new(false) };
}

/// Executes a pipeline and returns its per-chunk outputs in ascending
/// chunk order.
pub(crate) fn run<I: ParallelIterator>(iter: I) -> Vec<Vec<I::Item>> {
    let len = iter.input_len();
    let cs = chunk_size(len);
    let tasks = if len == 0 { 0 } else { len.div_ceil(cs) };

    let registry = summit_obs::current();
    registry
        .counter("summit_par_tasks_total")
        .inc_by(tasks as u64);
    // An input under the pipeline's `seq_below` floor dispatches
    // inline: the pool wakeup would cost more than the whole kernel.
    // The grid above is already fixed, so the inline replay is
    // bit-identical to what the pool would have produced.
    let threads = if IN_EPOCH.with(Cell::get) || len < iter.seq_floor() {
        1
    } else {
        crate::current_num_threads().min(tasks.max(1))
    };
    let source = iter.into_source(cs);
    if threads <= 1 {
        return run_sequential(&source, cs, len, tasks);
    }
    run_parallel(&source, cs, len, tasks, threads, &registry)
}

/// The exact sequential path: same chunk grid, same order, no worker
/// threads, no stealing — and no `summit_par_threads` gauge write.
fn run_sequential<S: Source>(
    source: &S,
    chunk_size: usize,
    len: usize,
    tasks: usize,
) -> Vec<Vec<S::Item>> {
    (0..tasks)
        .map(|k| source.chunk_iter(chunk_range(k, chunk_size, len)).collect())
        .collect()
}

/// One participant's contiguous range of chunk indices, with an atomic
/// claim cursor. Cursors may overshoot `end` (a failed claim still
/// bumps them); claimants discard values `>= end` and accounting reads
/// go through the clamped [`Band::remaining`].
struct Band {
    next: AtomicUsize,
    end: usize,
}

impl Band {
    /// Chunks not yet claimed from this band, clamping the cursor
    /// overshoot that failed claims leave behind.
    fn remaining(&self) -> usize {
        self.end - self.next.load(Ordering::Relaxed).min(self.end)
    }
}

/// Claims the next chunk index for participant `home`, scanning bands
/// starting from its own. Returns `(chunk_index, was_steal)`.
fn claim(bands: &[Band], home: usize) -> Option<(usize, bool)> {
    for k in 0..bands.len() {
        let band = &bands[(home + k) % bands.len()];
        let i = band.next.fetch_add(1, Ordering::Relaxed);
        if i < band.end {
            return Some((i, k != 0));
        }
    }
    None
}

/// Partitions chunk indices `0..tasks` into `threads` contiguous bands
/// of near-equal size (the first `tasks % threads` bands get one
/// extra).
fn make_bands(tasks: usize, threads: usize) -> Vec<Band> {
    let base = tasks / threads;
    let rem = tasks % threads;
    let mut bands = Vec::with_capacity(threads);
    let mut start = 0;
    for w in 0..threads {
        let size = base + usize::from(w < rem);
        bands.push(Band {
            next: AtomicUsize::new(start),
            end: start + size,
        });
        start += size;
    }
    bands
}

/// Recovers the inner value of a mutex even if a thread panicked while
/// holding it; the panic itself resurfaces through the epoch barrier.
fn lock_lenient<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Per-thread cache of the busy-time histogram name, keyed by the
    /// innermost span: repeated executions inside one stage (the common
    /// case — a hot loop calling `par_iter`) reuse the formatted name
    /// instead of allocating a fresh `String` per execution.
    static BUSY_NAME: RefCell<(String, String)> =
        const { RefCell::new((String::new(), String::new())) };
}

/// Calls `f` with the name of the histogram that buckets participant
/// busy time for this execution: `summit_par_busy_<stage>_seconds`,
/// where `<stage>` is the innermost active obs span (`summit_` prefix
/// stripped), or `unstaged` outside any span.
fn with_busy_metric_name<R>(f: impl FnOnce(&str) -> R) -> R {
    summit_obs::with_innermost_span(|innermost| {
        let stage = innermost.map_or("unstaged", |s| s.strip_prefix("summit_").unwrap_or(s));
        BUSY_NAME.with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.0 != stage {
                cache.0.clear();
                cache.0.push_str(stage);
                cache.1 = format!("summit_par_busy_{stage}_seconds");
            }
            f(&cache.1)
        })
    })
}

/// Trace context for one epoch, captured at dispatch time: the
/// caller's installed collector, the epoch id it allocated, and the
/// event names pre-composed from the dispatching stage ("par_epoch
/// <stage>" / "par_chunk <stage>") so workers never format on the hot
/// path.
struct TraceHandles {
    tc: TraceCollector,
    epoch: u64,
    epoch_name: String,
    chunk_name: String,
}

/// What one participant sends back when it retires from an epoch.
struct WorkerReport<T> {
    home: usize,
    busy_s: f64,
    steals: u64,
    pairs: Vec<(usize, Vec<T>)>,
}

/// One execution's shared state: everything a participant needs to
/// drain chunks, plus the report channel and the panic slot. Workers
/// access it strictly between epoch publication and the completion
/// barrier, through `&EpochJob` (hence the [`assert_sync`] check
/// before its address is erased).
struct EpochJob<'a, S: Source> {
    source: &'a S,
    chunk_size: usize,
    len: usize,
    bands: Vec<Band>,
    registry: summit_obs::registry::Registry,
    reports: Sender<WorkerReport<S::Item>>,
    /// The dispatching thread's innermost obs span at dispatch time;
    /// workers push it as a stage label so spans (and nested busy-time
    /// attribution) opened inside chunks see the dispatching stage as
    /// their parent rather than an orphan root.
    stage: Option<String>,
    /// Trace context when the dispatcher had a collector installed.
    trace: Option<TraceHandles>,
    /// First panic payload (smallest chunk index wins, so the surfaced
    /// panic does not depend on worker timing when one site panics).
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
}

/// Compile-time proof that a value is safe to share across threads by
/// reference — the check the raw-pointer erasure would otherwise skip.
fn assert_sync<T: Sync>(_: &T) {}

/// A type-erased `&EpochJob<'_, S>`: raw pointer plus the monomorphized
/// trampoline that knows `S`.
#[derive(Clone, Copy)]
struct ErasedJob {
    data: *const (),
    run: unsafe fn(*const (), usize),
}

// SAFETY: `data` is only ever dereferenced through `run` (the matching
// trampoline) while the dispatching thread blocks at the epoch
// barrier, and the pointee is checked `Sync` by `assert_sync` before
// erasure — sharing it across threads is exactly what `Sync` permits.
// The function pointer is plain data.
unsafe impl Send for ErasedJob {}

/// Re-materializes the erased job reference and runs one participant.
///
/// # Safety
///
/// `data` must be the address of a live `EpochJob<'_, S>` published for
/// the current epoch; [`Pool::dispatch`] guarantees liveness until the
/// completion barrier that this participant's retirement feeds.
unsafe fn epoch_trampoline<S: Source>(data: *const (), home: usize) {
    // SAFETY: see above — the dispatcher keeps the pointee alive and
    // Sync-checked until every claimed participant retires.
    let job = unsafe { &*data.cast::<EpochJob<'_, S>>() };
    epoch_worker(job, home);
}

/// Drains chunks for one participant (`home` band), then sends its
/// report. Runs on the dispatching thread for home 0 and on pool
/// workers otherwise.
fn epoch_worker<S: Source>(job: &EpochJob<'_, S>, home: usize) {
    // Workers have a fresh thread-local registry stack: route obs
    // records from user closures to the caller's registry. The
    // dispatcher (home 0) already has it current — and already carries
    // the stage label and any installed trace collector.
    let _obs = (home != 0).then(|| job.registry.install());
    let _stage = (home != 0)
        .then(|| job.stage.as_deref().map(summit_obs::span::stage_scope))
        .flatten();
    let _trace = (home != 0)
        .then(|| job.trace.as_ref().and_then(|t| t.tc.install_worker()))
        .flatten();
    // Live pool events are wall-clock-only: under the virtual clock the
    // interleaving of claims is scheduling-dependent, so the dispatcher
    // synthesizes the canonical epoch post-barrier instead.
    let wall = job
        .trace
        .as_ref()
        .filter(|t| t.tc.clock() == TraceClock::Wall);
    if let Some(t) = wall {
        t.tc.instant("unpark", t.epoch);
    }
    let started = Instant::now();
    let mut steals = 0u64;
    let mut pairs = Vec::new();
    while let Some((k, was_steal)) = claim(&job.bands, home) {
        steals += u64::from(was_steal);
        if was_steal {
            if let Some(t) = wall {
                t.tc.instant("steal", t.epoch);
            }
        }
        let chunk_t0 = wall.map(|t| t.tc.now());
        let range = chunk_range(k, job.chunk_size, job.len);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.source.chunk_iter(range).collect::<Vec<_>>()
        })) {
            Ok(items) => {
                if let (Some(t), Some(t0)) = (wall, chunk_t0) {
                    t.tc.complete(&t.chunk_name, t0, t.epoch, k as i64);
                }
                pairs.push((k, items));
            }
            Err(payload) => {
                let mut slot = lock_lenient(&job.panic);
                match slot.as_ref() {
                    Some(&(first, _)) if first <= k => {}
                    _ => *slot = Some((k, payload)),
                }
                break;
            }
        }
    }
    if let Some(t) = wall {
        t.tc.instant("park", t.epoch);
    }
    let _ = job.reports.send(WorkerReport {
        home,
        busy_s: started.elapsed().as_secs_f64(),
        steals,
        pairs,
    });
}

/// Shared state of the persistent pool, guarded by [`Pool::state`].
#[derive(Default)]
struct PoolState {
    /// Monotonic epoch id; workers use it to join each epoch at most
    /// once.
    epoch: u64,
    /// The published epoch handle; `None` between epochs.
    job: Option<ErasedJob>,
    /// Worker claim slots still open in the current epoch.
    slots_left: usize,
    /// Home band the next claiming worker takes (the dispatcher is
    /// always home 0).
    next_slot: usize,
    /// Workers currently inside the current epoch.
    active: usize,
    /// Worker threads alive (spawned once, parked between epochs).
    workers: usize,
    /// Bumped once per batch of worker spawns — lets tests assert that
    /// back-to-back executions reused the same threads.
    generation: u64,
}

/// The process-wide persistent worker pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Wakes parked workers when an epoch is published.
    work_cv: Condvar,
    /// Wakes the dispatcher when the last active participant retires.
    done_cv: Condvar,
    /// Serializes dispatchers: one epoch in flight at a time.
    door: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        door: Mutex::new(()),
    })
}

/// The pool's spawn-batch counter: constant across executions exactly
/// when no new worker threads had to be spawned. `0` until the first
/// parallel execution.
pub fn pool_generation() -> u64 {
    lock_lenient(&pool().state).generation
}

impl Pool {
    /// Grows the pool so `participants - 1` workers exist, spawning
    /// missing ones (one `generation` bump per batch). Returns the
    /// achievable participant count — smaller than requested only if
    /// the OS refuses threads.
    fn ensure_workers(&'static self, participants: usize) -> usize {
        let needed = participants.saturating_sub(1);
        let mut st = lock_lenient(&self.state);
        if st.workers < needed {
            let before = st.workers;
            while st.workers < needed {
                let spawned = std::thread::Builder::new()
                    .name(format!("summit-par-{}", st.workers))
                    .spawn(move || worker_loop(self));
                match spawned {
                    Ok(_) => st.workers += 1,
                    Err(_) => break,
                }
            }
            if st.workers > before {
                st.generation += 1;
            }
        }
        (st.workers + 1).min(participants)
    }

    /// Publishes `job` as the next epoch, participates as home 0, and
    /// blocks until every claimed participant retires. On return (or
    /// unwind) no thread holds a reference into `job`.
    fn dispatch<S: Source>(&self, job: &EpochJob<'_, S>, participants: usize) {
        {
            let mut st = lock_lenient(&self.state);
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(ErasedJob {
                data: std::ptr::from_ref(job).cast(),
                run: epoch_trampoline::<S>,
            });
            st.slots_left = participants.saturating_sub(1);
            st.next_slot = 1;
            st.active = 0;
            self.work_cv.notify_all();
        }
        // Declared before the epoch flag so it drops last: the barrier
        // must hold even if the dispatcher's own participation unwinds,
        // or the erased pointer would dangle under live workers.
        let _barrier = EpochBarrier { pool: self };
        let _nested = EnterEpoch::enter();
        epoch_worker(job, 0);
    }
}

/// Closes the epoch on drop: retracts the job handle (late workers
/// then skip the epoch; their bands are drained by stealing) and waits
/// until every participant that did claim a slot has retired.
struct EpochBarrier<'p> {
    pool: &'p Pool,
}

impl Drop for EpochBarrier<'_> {
    fn drop(&mut self) {
        let mut st = lock_lenient(&self.pool.state);
        st.job = None;
        st.slots_left = 0;
        while st.active > 0 {
            st = self
                .pool
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Marks the current thread as inside an epoch for its duration (see
/// [`IN_EPOCH`]); restores the previous value on drop.
struct EnterEpoch(bool);

impl EnterEpoch {
    fn enter() -> Self {
        Self(IN_EPOCH.with(|f| f.replace(true)))
    }
}

impl Drop for EnterEpoch {
    fn drop(&mut self) {
        let prev = self.0;
        IN_EPOCH.with(|f| f.set(prev));
    }
}

/// A pool worker's whole life: park on the condvar, join each new
/// epoch at most once (claiming a home band slot), run the epoch's
/// trampoline, retire, repeat. Never returns.
fn worker_loop(pool: &'static Pool) {
    // A worker thread only ever executes inside epochs, so pin it
    // there permanently: anything nested it runs stays sequential.
    IN_EPOCH.with(|f| f.set(true));
    crate::serialize_nested();
    let mut seen = 0u64;
    let mut st = lock_lenient(&pool.state);
    loop {
        if st.epoch != seen {
            seen = st.epoch;
            if st.slots_left > 0 {
                if let Some(job) = st.job {
                    let home = st.next_slot;
                    st.next_slot += 1;
                    st.slots_left -= 1;
                    st.active += 1;
                    drop(st);
                    // SAFETY: the handle was published with this
                    // epoch; the dispatcher blocks at the barrier
                    // until our `active` decrement below, so the
                    // pointee outlives this call.
                    unsafe { (job.run)(job.data, home) };
                    st = lock_lenient(&pool.state);
                    st.active -= 1;
                    if st.active == 0 && st.slots_left == 0 {
                        pool.done_cv.notify_all();
                    }
                    continue;
                }
            }
        }
        st = pool
            .work_cv
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

fn run_parallel<S: Source>(
    source: &S,
    chunk_size: usize,
    len: usize,
    tasks: usize,
    threads: usize,
    registry: &summit_obs::registry::Registry,
) -> Vec<Vec<S::Item>> {
    let pool = pool();
    let door = lock_lenient(&pool.door);
    let threads = pool.ensure_workers(threads);
    if threads <= 1 {
        drop(door);
        return run_sequential(source, chunk_size, len, tasks);
    }
    // The one gauge write per execution, after all capping; sequential
    // executions never touch it.
    registry.gauge("summit_par_threads").set(threads as f64);

    let stage = summit_obs::with_innermost_span(|s| s.map(String::from));
    let trace = summit_obs::trace::current().map(|tc| {
        let epoch = tc.begin_epoch();
        let label = stage
            .as_deref()
            .map_or("unstaged", |s| s.strip_prefix("summit_").unwrap_or(s));
        TraceHandles {
            tc,
            epoch,
            epoch_name: format!("par_epoch {label}"),
            chunk_name: format!("par_chunk {label}"),
        }
    });

    let (reports_tx, reports_rx) = std::sync::mpsc::channel();
    let job = EpochJob {
        source,
        chunk_size,
        len,
        bands: make_bands(tasks, threads),
        registry: registry.clone(),
        reports: reports_tx,
        stage,
        trace,
        panic: Mutex::new(None),
    };
    assert_sync(&job);
    // Band sizes before any cursor moves: the canonical schedule the
    // virtual-clock synthesis replays post-barrier.
    let band_sizes: Option<Vec<usize>> = job
        .trace
        .as_ref()
        .filter(|t| t.tc.clock() == TraceClock::Virtual)
        .map(|_| job.bands.iter().map(Band::remaining).collect());
    let epoch_t0 = job
        .trace
        .as_ref()
        .filter(|t| t.tc.clock() == TraceClock::Wall)
        .map(|t| t.tc.now());
    {
        // Under the virtual clock, spans opened inside the epoch on the
        // dispatching thread would stamp scheduling-dependent ticks;
        // suppress capture for the dispatch and record the canonical
        // schedule below instead. (The job's own handle bypasses this.)
        let _suppress = job
            .trace
            .as_ref()
            .filter(|t| t.tc.clock() == TraceClock::Virtual)
            .map(|_| summit_obs::trace::suppress());
        pool.dispatch(&job, threads);
    }
    drop(door);

    // Barrier passed: every participant has retired and sent its
    // report; the channel drains without blocking.
    if let Some((_, payload)) = lock_lenient(&job.panic).take() {
        std::panic::resume_unwind(payload);
    }
    if let Some(t) = &job.trace {
        match t.tc.clock() {
            TraceClock::Virtual => {
                if let Some(sizes) = &band_sizes {
                    t.tc.pool_epoch_virtual(&t.epoch_name, &t.chunk_name, t.epoch, sizes);
                }
            }
            TraceClock::Wall => {
                if let Some(t0) = epoch_t0 {
                    t.tc.complete(&t.epoch_name, t0, t.epoch, -1);
                }
            }
        }
    }
    let mut reports: Vec<WorkerReport<S::Item>> = reports_rx.try_iter().collect();
    reports.sort_unstable_by_key(|r| r.home);

    let mut out: Vec<Vec<S::Item>> = (0..tasks).map(|_| Vec::new()).collect();
    let mut steals = 0u64;
    with_busy_metric_name(|name| {
        let histogram = registry.histogram(name);
        for report in reports {
            histogram.observe(report.busy_s);
            steals += report.steals;
            for (k, items) in report.pairs {
                if let Some(slot) = out.get_mut(k) {
                    *slot = items;
                }
            }
        }
    });
    debug_assert!(job.bands.iter().all(|b| b.remaining() == 0));
    summit_obs::global()
        .counter("summit_par_steal_total")
        .inc_by(steals);
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::prelude::*;
    use crate::with_thread_count;

    #[test]
    fn chunk_size_is_a_pure_function_of_len() {
        assert_eq!(chunk_size(0), MIN_CHUNK);
        assert_eq!(chunk_size(10), MIN_CHUNK);
        assert_eq!(chunk_size(1000), MIN_CHUNK); // ceil(1000/64) == the floor
        assert_eq!(chunk_size(10_000), 157); // ceil(10000/64) dominates
    }

    #[test]
    fn chunk_range_tiles_the_input_exactly() {
        let (cs, len) = (16usize, 50usize);
        let tasks = len.div_ceil(cs);
        let mut covered = 0;
        for k in 0..tasks {
            let r = chunk_range(k, cs, len);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, len);
        // Past-the-end chunks are empty, not out of bounds.
        assert!(chunk_range(tasks + 1, cs, len).is_empty());
    }

    #[test]
    fn bands_cover_all_tasks_exactly_once() {
        for (tasks, threads) in [(64, 4), (7, 3), (5, 8), (1, 2)] {
            let bands = make_bands(tasks, threads);
            assert_eq!(bands.len(), threads);
            let covered: usize = bands.iter().map(Band::remaining).sum();
            assert_eq!(covered, tasks);
        }
    }

    #[test]
    fn claim_drains_every_index_and_flags_steals() {
        let bands = make_bands(10, 3);
        let mut seen = [false; 10];
        let mut steals = 0;
        // A single claimant with home band 0 drains bands 1 and 2 as
        // steals once its own is empty.
        while let Some((i, was_steal)) = claim(&bands, 0) {
            assert!(!seen[i], "index {i} claimed twice");
            seen[i] = true;
            steals += u64::from(was_steal);
        }
        assert!(seen.iter().all(|&s| s));
        // Every cursor has overshot its band end by now; the clamped
        // accounting read must still report a clean drain.
        assert!(bands.iter().all(|b| b.remaining() == 0));
        let own = bands[0].end;
        assert_eq!(steals, 10 - own as u64);
    }

    #[test]
    fn claim_is_exactly_once_under_a_multithreaded_soak() {
        for round in 0..16 {
            let tasks = 403 + round; // non-divisible remainders too
            let threads = 8;
            let bands = make_bands(tasks, threads);
            let claimed: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for home in 0..threads {
                    let (bands, claimed) = (&bands, &claimed);
                    scope.spawn(move || {
                        while let Some((i, _)) = claim(bands, home) {
                            claimed[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            for (i, count) in claimed.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "chunk {i} (round {round})"
                );
            }
            assert!(bands.iter().all(|b| b.remaining() == 0));
        }
    }

    /// Grows the pool past any thread count other tests request, so
    /// generation comparisons cannot race with concurrent test threads.
    fn warm_pool() -> u64 {
        let v: Vec<usize> = (0..4096).collect();
        let _: Vec<usize> = with_thread_count(32, || v.par_iter().map(|&x| x).collect());
        pool_generation()
    }

    #[test]
    fn persistent_pool_reuses_workers_across_executions() {
        let generation = warm_pool();
        assert!(generation >= 1);
        let v: Vec<usize> = (0..4096).collect();
        let a: Vec<usize> = with_thread_count(4, || v.par_iter().map(|&x| x * 2).collect());
        let b: Vec<usize> = with_thread_count(4, || v.par_iter().map(|&x| x * 2).collect());
        assert_eq!(a, b);
        // No spawns between the two executions: same worker threads.
        assert_eq!(pool_generation(), generation);
    }

    #[test]
    fn panic_in_a_worker_resurfaces_and_the_pool_survives() {
        let generation = warm_pool();
        let v: Vec<usize> = (0..2048).collect();
        let caught = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                v.par_iter()
                    .map(|&x| {
                        assert_ne!(x, 1234, "deliberate test panic");
                        x
                    })
                    .collect::<Vec<usize>>()
            })
        });
        assert!(caught.is_err(), "the chunk panic must resurface");
        // The pool survives: the next execution is correct and reuses
        // the same workers.
        let out: Vec<usize> = with_thread_count(4, || v.par_iter().map(|&x| x + 1).collect());
        assert_eq!(out, (1..=2048).collect::<Vec<usize>>());
        assert_eq!(pool_generation(), generation);
    }

    #[test]
    fn a_panic_at_every_chunk_index_resurfaces_and_loses_no_worker() {
        // 4096 elements lay the full 64-chunk grid: chunk `k` starts at
        // element `k * 64`. Wherever the panicking chunk runs (the
        // dispatcher or a worker, first or last), the execution must
        // re-raise its payload, the erased epoch must retire without
        // deadlock, and the pool must serve the next execution exactly.
        let generation = warm_pool();
        let v: Vec<usize> = (0..4096).collect();
        assert_eq!(v.len().div_ceil(chunk_size(v.len())), MAX_CHUNKS);
        let want: Vec<usize> = v.iter().map(|&x| x * 3 + 1).collect();
        for threads in [2, 4] {
            for round in 0..3 {
                for k in 0..MAX_CHUNKS {
                    let caught = std::panic::catch_unwind(|| {
                        with_thread_count(threads, || {
                            v.par_iter()
                                .map(|&x| {
                                    if x == k * 64 {
                                        std::panic::panic_any(k);
                                    }
                                    x
                                })
                                .collect::<Vec<usize>>()
                        })
                    });
                    let at = format!("{threads} threads, round {round}, chunk {k}");
                    let payload = caught.expect_err(&at);
                    assert_eq!(payload.downcast_ref::<usize>(), Some(&k), "{at}");
                    assert_eq!(pool_generation(), generation, "{at}");
                    let out: Vec<usize> =
                        with_thread_count(threads, || v.par_iter().map(|&x| x * 3 + 1).collect());
                    assert_eq!(out, want, "{at}");
                }
            }
        }
    }

    #[test]
    fn workers_inherit_the_dispatching_stage() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let _stage = summit_obs::span("summit_test_dispatch_stage");
        let v: Vec<usize> = (0..4096).collect();
        let out: Vec<usize> = with_thread_count(4, || {
            v.par_iter()
                .map(|&x| {
                    // Asserts run on dispatcher and workers alike; a
                    // failure resurfaces through the panic barrier.
                    summit_obs::with_innermost_span(|name| {
                        assert_eq!(name, Some("summit_test_dispatch_stage"));
                    });
                    x
                })
                .collect()
        });
        assert_eq!(out.len(), 4096);
    }

    #[test]
    fn virtual_trace_synthesizes_the_canonical_epoch() {
        use summit_obs::trace::{span_stats, TraceClock, TraceCollector};
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let tc = TraceCollector::new(TraceClock::Virtual);
        let trace_scope = tc.install();
        let stage = summit_obs::span("summit_test_virtual_epoch");
        let v: Vec<usize> = (0..4096).collect();
        let out: Vec<usize> = with_thread_count(2, || v.par_iter().map(|&x| x).collect());
        assert_eq!(out.len(), 4096);
        drop(stage);
        drop(trace_scope);
        let snap = tc.snapshot();
        let labels: Vec<&str> = snap.tracks().iter().map(|(_, l)| l.as_str()).collect();
        assert!(labels.contains(&"summit-par-0"), "worker track present");
        let stats = span_stats(&snap);
        // 4096 elements -> 64 chunks on the deterministic grid, every
        // one synthesized exactly once regardless of real scheduling.
        let chunks = stats
            .stages
            .iter()
            .find(|s| s.name == "par_chunk test_virtual_epoch")
            .expect("chunk stage recorded");
        assert_eq!(chunks.count, 64);
    }

    #[test]
    fn wall_trace_records_live_pool_events() {
        use summit_obs::trace::{write_chrome_json, TraceClock, TraceCollector};
        let tc = TraceCollector::new(TraceClock::Wall);
        let trace_scope = tc.install();
        let v: Vec<usize> = (0..4096).collect();
        let out: Vec<usize> = with_thread_count(2, || v.par_iter().map(|&x| x).collect());
        assert_eq!(out.len(), 4096);
        drop(trace_scope);
        let mut buf = Vec::new();
        write_chrome_json(&mut buf, &tc.snapshot()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The dispatcher participates as home 0, so these exist even if
        // the workers never woke before the epoch drained.
        assert!(text.contains("\"unpark\""));
        assert!(text.contains("\"park\""));
        assert!(text.contains("par_chunk"));
        assert!(text.contains("par_epoch"));
    }

    #[test]
    fn sequential_executions_leave_the_threads_gauge_alone() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let v: Vec<usize> = (0..512).collect();
        let par: Vec<usize> = with_thread_count(3, || v.par_iter().map(|&x| x).collect());
        assert_eq!(par.len(), 512);
        assert_eq!(registry.snapshot().gauge("summit_par_threads"), Some(3.0));
        // A sequential execution (pinned, nested, or one-core) must
        // not overwrite the last parallel pool size.
        let seq: Vec<usize> = with_thread_count(1, || v.par_iter().map(|&x| x).collect());
        assert_eq!(seq.len(), 512);
        assert_eq!(registry.snapshot().gauge("summit_par_threads"), Some(3.0));
    }
}
