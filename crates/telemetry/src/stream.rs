//! The simulated out-of-band fabric (paper Section 2, Figure 3).
//!
//! Summit's BMCs push metric changes over the out-of-band management
//! network through a websocket-based 288:1 fan-in into the monitoring
//! cluster, reaching the point of analysis after an average 2.5-second
//! delay (max. 5 s) at a 460k metrics/sec ingest rate. This module
//! models that fabric per node, as pure functions of the frame: the
//! propagation delay ([`propagation_delay_s`]) and each frame's fault
//! fate ([`FaultConfig::fate`]) are hashes of `(node, t_sample)`, so
//! every replay is exact. [`FaultInjector`] delivers a whole per-node
//! batch at once; [`crate::delivery::NodeDelivery`] applies the same
//! draws incrementally, one frame at a time, for the live pipeline.
//! [`IngestStats`] accounts the delivered stream's rate and delay.

use crate::catalog::METRIC_COUNT;
use crate::ingest::IngestHealth;
use crate::records::NodeFrame;

/// The paper's maximum propagation delay (s): payloads reach the
/// aggregation point "after an average 2.5-second delay (max. 5
/// seconds)". The default ingest lateness horizon equals this bound.
pub const MAX_PROPAGATION_DELAY_S: f64 = 5.0;

/// Upper bound of the extra delay a [`FrameFate::Delay`] adds (s): twice
/// the propagation bound, so some delayed frames land past the lateness
/// horizon and become late drops downstream.
pub const MAX_EXTRA_DELAY_S: f64 = 2.0 * MAX_PROPAGATION_DELAY_S;

/// Propagation-delay model: a deterministic hash of (node, sample-time)
/// uniform in `[0, MAX_PROPAGATION_DELAY_S)`, so replays are exact and
/// the mean matches the paper's 2.5 s.
pub fn propagation_delay_s(node: u32, t_sample: f64) -> f64 {
    let h = mix64(
        (node as u64).wrapping_mul(0x9e3779b97f4a7c15)
            ^ (t_sample.to_bits()).wrapping_mul(0xbf58476d1ce4e5b9),
    );
    unit_f64(h) * MAX_PROPAGATION_DELAY_S
}

/// splitmix64 finalizer.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    h
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Ingest-side statistics, matching the rates the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestStats {
    /// Frames received.
    pub frames: u64,
    /// Individual metric readings received (frames x catalog size).
    pub metrics: u64,
    /// Sum of per-frame propagation delays (s).
    pub total_delay_s: f64,
    /// Maximum observed delay (s).
    pub max_delay_s: f64,
    /// Earliest and latest sample timestamps seen.
    pub t_first: f64,
    /// Latest sample timestamp seen.
    pub t_last: f64,
    /// Fault-tolerance counters from the downstream coarsening path
    /// (accepted / reordered / duplicate / late-dropped / gap windows).
    pub health: IngestHealth,
}

impl IngestStats {
    /// Mean propagation delay (s).
    pub fn mean_delay_s(&self) -> f64 {
        if self.frames == 0 {
            f64::NAN
        } else {
            self.total_delay_s / self.frames as f64
        }
    }

    /// Metrics ingested per second of covered sample time.
    ///
    /// The covered span is floored at one 1 Hz sample period, so a
    /// single-frame stream (span 0) reports its per-second payload
    /// instead of NaN; only an empty stream is NaN.
    pub fn metrics_per_second(&self) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        let span = (self.t_last - self.t_first).max(1.0);
        self.metrics as f64 / span
    }

    /// Folds one delivered frame into the statistics.
    pub fn observe(&mut self, frame: &NodeFrame) {
        self.observe_arrival(frame.t_sample, frame.t_ingest);
    }

    /// [`IngestStats::observe`] for a delivered frame given by its
    /// sample and ingest times (every frame carries the full catalog).
    pub fn observe_arrival(&mut self, t_sample: f64, t_ingest: f64) {
        if self.frames == 0 {
            self.t_first = t_sample;
            self.t_last = t_sample;
        } else {
            self.t_first = self.t_first.min(t_sample);
            self.t_last = self.t_last.max(t_sample);
        }
        self.frames += 1;
        self.metrics += METRIC_COUNT as u64;
        let d = t_ingest - t_sample;
        self.total_delay_s += d;
        if d > self.max_delay_s {
            self.max_delay_s = d;
        }
    }

    /// Folds another accumulator into this one. Counters and extremes
    /// are order-independent; the float delay sum is associated as
    /// `(…(node₀ + node₁) + …)`, so any two consumers that accumulate
    /// per node and merge in node-index order — the batch replay and
    /// the streaming consumer both do — agree to the bit. Health
    /// counters merge unconditionally; the frame-derived fields only
    /// when the other side actually saw frames.
    pub fn merge(&mut self, other: &IngestStats) {
        self.health.merge(&other.health);
        if other.frames == 0 {
            return;
        }
        if self.frames == 0 {
            self.t_first = other.t_first;
            self.t_last = other.t_last;
        } else {
            self.t_first = self.t_first.min(other.t_first);
            self.t_last = self.t_last.max(other.t_last);
        }
        self.frames += other.frames;
        self.metrics += other.metrics;
        self.total_delay_s += other.total_delay_s;
        if other.max_delay_s > self.max_delay_s {
            self.max_delay_s = other.max_delay_s;
        }
    }

    /// Publishes the accumulated statistics into the current
    /// [`summit_obs`] registry. The struct remains the in-band API; the
    /// registry carries the same values as `summit_telemetry_ingest_*`
    /// counters (deterministic) and gauges (delay timings) so every
    /// sink — Prometheus exposition, `BENCH_obs.json`, the run summary
    /// line — reads one source of truth.
    pub fn publish_obs(&self) {
        let r = summit_obs::current();
        r.counter("summit_telemetry_ingest_frames_total")
            .inc_by(self.frames);
        r.counter("summit_telemetry_ingest_metrics_total")
            .inc_by(self.metrics);
        r.counter("summit_telemetry_ingest_reordered_total")
            .inc_by(self.health.reordered);
        r.counter("summit_telemetry_ingest_duplicates_total")
            .inc_by(self.health.duplicates);
        r.counter("summit_telemetry_ingest_late_dropped_total")
            .inc_by(self.health.late_dropped);
        r.counter("summit_telemetry_ingest_gap_windows_total")
            .inc_by(self.health.gap_windows);
        r.gauge("summit_telemetry_ingest_mean_delay_seconds")
            .set(self.mean_delay_s());
        r.gauge("summit_telemetry_ingest_max_delay_seconds")
            .set(self.max_delay_s);
        r.gauge("summit_telemetry_ingest_metrics_per_second")
            .set(self.metrics_per_second());
    }
}

/// Delivery-fault probabilities for the simulated fabric.
///
/// Faults are mutually exclusive per frame (a single uniform draw picks
/// at most one class), so the injected counts account exactly for every
/// affected frame. The draw is a deterministic hash of
/// `(seed, node, t_sample)` — replays are exact without any RNG state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is lost in flight.
    pub drop_p: f64,
    /// Probability a frame is delivered twice (same sample timestamp).
    pub duplicate_p: f64,
    /// Probability a frame suffers extra delay beyond the propagation
    /// model, uniform in `[0, MAX_EXTRA_DELAY_S)` — delays past the
    /// lateness horizon become late drops downstream.
    pub delay_p: f64,
    /// Probability a delivered frame is swapped with its predecessor in
    /// arrival order (local reordering the delay model alone misses).
    pub reorder_p: f64,
    /// Seed mixed into every fault draw.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            reorder_p: 0.0,
            seed: 0x5EED,
        }
    }
}

impl FaultConfig {
    /// A mildly lossy fabric: ~1% of each fault class.
    pub fn light(seed: u64) -> Self {
        Self {
            drop_p: 0.01,
            duplicate_p: 0.01,
            delay_p: 0.01,
            reorder_p: 0.01,
            seed,
        }
    }

    fn draw(&self, node: u32, t_sample: f64, salt: u64) -> f64 {
        let h = mix64(
            self.seed
                .wrapping_mul(0xd1342543de82ef95)
                .wrapping_add(salt)
                ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15)
                ^ t_sample.to_bits().wrapping_mul(0xbf58476d1ce4e5b9),
        );
        unit_f64(h)
    }

    /// Deterministic per-frame fate: a pure hash of `(seed, node,
    /// t_sample)`, independent of arrival and processing order, so the
    /// batch and streaming delivery paths classify every frame
    /// identically. A duplicate's copy shares the original's sample
    /// timestamp and therefore its fate draws.
    pub fn fate(&self, node: u32, t_sample: f64) -> FrameFate {
        let u = self.draw(node, t_sample, 1);
        if u < self.drop_p {
            return FrameFate::Drop;
        }
        if u < self.drop_p + self.duplicate_p {
            return FrameFate::Duplicate;
        }
        if u < self.drop_p + self.duplicate_p + self.delay_p {
            return FrameFate::Delay {
                extra_s: self.draw(node, t_sample, 2) * MAX_EXTRA_DELAY_S,
            };
        }
        FrameFate::Deliver
    }

    /// Whether a delivered frame draws an adjacent arrival-order swap
    /// with its predecessor. Same hash family as [`FaultConfig::fate`]
    /// (salt 3), so both delivery paths agree per frame.
    pub fn draws_reorder(&self, node: u32, t_sample: f64) -> bool {
        self.draw(node, t_sample, 3) < self.reorder_p
    }
}

/// Fate a single frame draws from the faulty fabric (mutually
/// exclusive; a single uniform draw picks at most one class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameFate {
    /// Delivered at its modelled ingest time.
    Deliver,
    /// Lost in flight.
    Drop,
    /// Delivered twice: the copy trails the original by 0.25 s.
    Duplicate,
    /// Delivered with extra delay beyond the propagation model.
    Delay {
        /// Injected extra delay (s), itself a deterministic draw.
        extra_s: f64,
    },
}

/// Exact counts of the faults a [`FaultInjector`] introduced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Frames dropped in flight.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames given extra delay beyond the propagation model.
    pub delayed: u64,
    /// Adjacent arrival-order swaps applied.
    pub reordered: u64,
}

impl InjectedFaults {
    /// Total fault events injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.reordered
    }

    /// Folds another count set into this one.
    pub fn merge(&mut self, other: &InjectedFaults) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.reordered += other.reordered;
    }
}

/// Injects delivery faults into per-node frame batches, modelling the
/// lossy fabric between the BMCs and the point of analysis.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    counts: InjectedFaults,
}

impl FaultInjector {
    /// Creates an injector for the given fault profile.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            counts: InjectedFaults::default(),
        }
    }

    /// The active fault profile.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counts of every fault injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.counts
    }

    /// Delivers one node's frame batch through the faulty fabric:
    /// stamps arrival times from the propagation-delay model, applies
    /// drop / duplicate / extra-delay faults, and returns the surviving
    /// frames in *arrival* order (the order the fabric hands downstream),
    /// with any local reorder swaps applied on top. Every decision is a
    /// pure [`FaultConfig::fate`] / [`FaultConfig::draws_reorder`] draw,
    /// the same hashes the incremental streaming stage consults.
    pub fn deliver(&mut self, frames: Vec<NodeFrame>) -> Vec<NodeFrame> {
        let _obs = summit_obs::span("summit_telemetry_deliver");
        summit_obs::histogram("summit_telemetry_deliver_batch_frames").observe(frames.len() as f64);
        let cfg = self.config;
        let mut arrivals: Vec<(f64, NodeFrame)> = Vec::with_capacity(frames.len());
        for mut frame in frames {
            let node = frame.node.0;
            let t = frame.t_sample;
            frame.t_ingest = t + propagation_delay_s(node, t);
            match cfg.fate(node, t) {
                FrameFate::Drop => {
                    self.counts.dropped += 1;
                    continue;
                }
                FrameFate::Duplicate => {
                    self.counts.duplicated += 1;
                    // The copy trails the original by a fraction of a second.
                    arrivals.push((frame.t_ingest + 0.25, frame.clone()));
                    arrivals.push((frame.t_ingest, frame));
                    continue;
                }
                FrameFate::Delay { extra_s } => {
                    self.counts.delayed += 1;
                    frame.t_ingest += extra_s;
                    arrivals.push((frame.t_ingest, frame));
                }
                FrameFate::Deliver => arrivals.push((frame.t_ingest, frame)),
            }
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut out: Vec<NodeFrame> = arrivals.into_iter().map(|(_, f)| f).collect();
        for i in 1..out.len() {
            if cfg.draws_reorder(out[i].node.0, out[i].t_sample) {
                out.swap(i - 1, i);
                self.counts.reordered += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn delay_model_bounds_and_mean() {
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let n = 10_000;
        for i in 0..n {
            let d = propagation_delay_s(i % 100, (i / 100) as f64);
            assert!((0.0..5.0).contains(&d), "delay {d} out of bounds");
            sum += d;
            max = max.max(d);
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 2.5).abs() < 0.1,
            "paper: average 2.5 s delay, got {mean}"
        );
        assert!(max < 5.0, "paper: max 5 s delay");
        assert!(max > 4.5, "uniform sampling should approach the bound");
    }

    #[test]
    fn delay_model_is_deterministic() {
        assert_eq!(
            propagation_delay_s(7, 1234.0),
            propagation_delay_s(7, 1234.0)
        );
        assert_ne!(
            propagation_delay_s(7, 1234.0),
            propagation_delay_s(8, 1234.0)
        );
    }

    #[test]
    fn ingest_rate_computation() {
        let mut stats = IngestStats::default();
        let mut f0 = NodeFrame::empty(NodeId(0), 0.0);
        f0.t_ingest = 2.0;
        let mut f1 = NodeFrame::empty(NodeId(0), 10.0);
        f1.t_ingest = 13.0;
        stats.observe(&f0);
        stats.observe(&f1);
        assert_eq!(stats.frames, 2);
        assert!((stats.mean_delay_s() - 2.5).abs() < 1e-9);
        assert_eq!(stats.max_delay_s, 3.0);
        let per_s = stats.metrics_per_second();
        assert!((per_s - (2.0 * crate::catalog::METRIC_COUNT as f64 / 10.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = IngestStats::default();
        assert!(s.mean_delay_s().is_nan());
        assert!(s.metrics_per_second().is_nan());
    }

    #[test]
    fn single_frame_rate_is_finite() {
        // Degenerate span == 0: the rate floors at a 1 s sample period
        // rather than reporting NaN for real ingested metrics.
        let mut stats = IngestStats::default();
        let mut f = NodeFrame::empty(NodeId(0), 42.0);
        f.t_ingest = 43.0;
        stats.observe(&f);
        let per_s = stats.metrics_per_second();
        assert!((per_s - crate::catalog::METRIC_COUNT as f64).abs() < 1e-9);
    }

    fn batch(node: u32, n: usize) -> Vec<NodeFrame> {
        (0..n)
            .map(|t| NodeFrame::empty(NodeId(node), t as f64))
            .collect()
    }

    #[test]
    fn injector_is_deterministic_and_accounts_exactly() {
        let cfg = FaultConfig {
            drop_p: 0.1,
            duplicate_p: 0.1,
            delay_p: 0.1,
            reorder_p: 0.05,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let da = a.deliver(batch(3, 500));
        let db = b.deliver(batch(3, 500));
        assert_eq!(da.len(), db.len(), "same seed, same delivery");
        assert!(da
            .iter()
            .zip(&db)
            .all(|(x, y)| x.t_sample == y.t_sample && x.t_ingest == y.t_ingest));
        let f = a.injected();
        assert_eq!(
            da.len() as u64,
            500 - f.dropped + f.duplicated,
            "every frame accounted: survivors = offered - dropped + duplicated"
        );
        assert!(f.dropped > 0 && f.duplicated > 0 && f.delayed > 0);
    }

    #[test]
    fn clean_injector_preserves_arrival_order_only() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        let delivered = inj.deliver(batch(0, 100));
        assert_eq!(delivered.len(), 100);
        assert_eq!(inj.injected(), InjectedFaults::default());
        assert!(delivered.windows(2).all(|w| w[0].t_ingest <= w[1].t_ingest));
        // Propagation delay alone already reorders some sample times.
        assert!(delivered.windows(2).any(|w| w[0].t_sample > w[1].t_sample));
    }

    #[test]
    fn merged_stats_account_exactly_and_are_reproducible() {
        // Merging per-node accumulators in node order is the canonical
        // association both the batch and streaming paths use: counters
        // and extremes match a flat sequential replay exactly, the
        // (order-sensitive) delay sum matches it numerically, and two
        // per-node merges agree to the bit.
        let batches: Vec<Vec<NodeFrame>> = (0..5u32)
            .map(|n| {
                (0..40)
                    .map(|t| {
                        let mut f = NodeFrame::empty(NodeId(n), t as f64);
                        f.t_ingest = f.t_sample + propagation_delay_s(n, f.t_sample);
                        f
                    })
                    .collect()
            })
            .collect();
        let mut sequential = IngestStats::default();
        for batch in &batches {
            for f in batch {
                sequential.observe(f);
            }
        }
        let per_node_merge = || {
            let mut merged = IngestStats::default();
            for batch in &batches {
                let mut per_node = IngestStats::default();
                for f in batch {
                    per_node.observe(f);
                }
                merged.merge(&per_node);
            }
            merged
        };
        let merged = per_node_merge();
        assert_eq!(merged.frames, sequential.frames);
        assert_eq!(merged.metrics, sequential.metrics);
        assert!((merged.total_delay_s - sequential.total_delay_s).abs() < 1e-9);
        assert_eq!(
            merged.max_delay_s.to_bits(),
            sequential.max_delay_s.to_bits()
        );
        assert_eq!(merged.t_first.to_bits(), sequential.t_first.to_bits());
        assert_eq!(merged.t_last.to_bits(), sequential.t_last.to_bits());
        let again = per_node_merge();
        assert_eq!(
            again.total_delay_s.to_bits(),
            merged.total_delay_s.to_bits()
        );
    }

    #[test]
    fn merge_with_empty_side_is_identity() {
        let mut stats = IngestStats::default();
        let mut f = NodeFrame::empty(NodeId(1), 3.0);
        f.t_ingest = 5.0;
        stats.observe(&f);
        let mut merged = IngestStats::default();
        merged.merge(&stats);
        assert_eq!(merged, stats);
        merged.merge(&IngestStats::default());
        assert_eq!(merged, stats);
    }

    #[test]
    fn fate_draws_match_batch_delivery_accounting() {
        // Summing pure per-frame fates reproduces the injector's
        // mutable accounting exactly.
        let cfg = FaultConfig {
            drop_p: 0.1,
            duplicate_p: 0.1,
            delay_p: 0.15,
            reorder_p: 0.0,
            ..FaultConfig::default()
        };
        let frames = batch(9, 800);
        let mut expect = InjectedFaults::default();
        for f in &frames {
            match cfg.fate(f.node.0, f.t_sample) {
                FrameFate::Drop => expect.dropped += 1,
                FrameFate::Duplicate => expect.duplicated += 1,
                FrameFate::Delay { .. } => expect.delayed += 1,
                FrameFate::Deliver => {}
            }
        }
        let mut inj = FaultInjector::new(cfg);
        inj.deliver(frames);
        assert_eq!(inj.injected(), expect);
    }

    #[test]
    fn different_seeds_inject_differently() {
        let mut a = FaultInjector::new(FaultConfig::light(1));
        let mut b = FaultInjector::new(FaultConfig::light(2));
        a.deliver(batch(0, 1000));
        b.deliver(batch(0, 1000));
        assert_ne!(a.injected(), b.injected());
        let mut merged = a.injected();
        merged.merge(&b.injected());
        assert_eq!(merged.total(), a.injected().total() + b.injected().total());
    }
}
