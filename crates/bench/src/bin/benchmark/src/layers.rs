//! Per-layer values of one measured round: an untraced pipeline
//! iteration plus, for the telemetry workloads, its layer replay.

use crate::replay::LayerTimes;
use crate::report::study_metric;
use crate::workload::{Executor, Iteration, Workload};
use std::collections::BTreeMap;
use summit_core::cache::{HITS_COUNTER, MISSES_COUNTER};
use summit_obs::Snapshot;

/// Total seconds recorded by the in-program span `stage`.
fn span_s(obs: &Snapshot, stage: &str) -> f64 {
    obs.histogram(&format!("{stage}_seconds"))
        .map_or(0.0, |h| h.sum)
}

fn counter(obs: &Snapshot, name: &str) -> f64 {
    obs.counter(name).unwrap_or(0) as f64
}

/// Per-layer values of one round, keyed by metric name. Layers the
/// workload does not exercise are absent (reported as 0).
pub fn round(w: Workload, it: &Iteration, replay: Option<&LayerTimes>) -> BTreeMap<String, f64> {
    let o = &it.out;
    let obs = &o.obs;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    put(
        "sim.engine.ticks",
        counter(obs, "summit_core_engine_ticks_total"),
    );
    put("rayon.tasks", counter(obs, "summit_par_tasks_total"));
    let busy: f64 = obs
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("summit_par_busy_") && name.ends_with("_seconds"))
        .map(|(_, h)| h.sum)
        .sum();
    put("rayon.busy_s", busy);

    match w.executor() {
        Some(exec) => {
            put(
                "telemetry.stream.injected_dropped",
                o.injected.dropped as f64,
            );
            put(
                "telemetry.stream.injected_duplicated",
                o.injected.duplicated as f64,
            );
            put(
                "telemetry.stream.injected_delayed",
                o.injected.delayed as f64,
            );
            put(
                "telemetry.stream.injected_reordered",
                o.injected.reordered as f64,
            );
            let h = &o.stats.health;
            put("telemetry.window.accepted", h.accepted as f64);
            put("telemetry.window.late", h.late_dropped as f64);
            put("telemetry.window.duplicates", h.duplicates as f64);
            put("telemetry.window.windows", o.windows as f64);
            put(
                "telemetry.window.peak_resident_frames",
                o.resident_frames as f64,
            );
            put(
                "core.pipeline.alert_latency_s",
                span_s(obs, "summit_core_alert_latency"),
            );
            put(
                "core.pipeline.alert_p99_sim_s",
                f64::from_bits(o.alert_p99_bits),
            );
            // Work the pipeline's consumer does; for the batch entry point
            // the whole call runs inline and there is no consumer split.
            let consumer_s = match exec {
                Executor::Batch => it.wall_s,
                Executor::Stream => {
                    let consumer = span_s(obs, "summit_core_stream_consume")
                        + span_s(obs, "summit_core_stream_finish");
                    put("core.pipeline.consumer_busy_s", consumer);
                    put(
                        "core.pipeline.producer_busy_s",
                        span_s(obs, "summit_core_engine_tick"),
                    );
                    put("core.pipeline.consumer_busy_ratio", consumer / it.wall_s);
                    put(
                        "core.pipeline.backpressure_stalls",
                        counter(obs, "summit_core_stream_backpressure_stalls_total"),
                    );
                    put(
                        "core.pipeline.peak_channel_depth",
                        o.peak_channel_depth as f64,
                    );
                    consumer
                }
            };
            if let Some(t) = replay {
                put("sim.engine.new_s", t.engine_new_s);
                put("sim.engine.step_batch_s", t.step_batch_s);
                put("telemetry.batch.read_frame_s", t.read_frame_s);
                put("telemetry.batch.frames", t.frames as f64);
                put("telemetry.stream.deliver_s", t.deliver_s);
                put("telemetry.delivery.offer_s", t.offer_s);
                put("telemetry.ingest.observe_s", t.observe_s);
                put("telemetry.window.coarsen_s", t.coarsen_s);
                // Unclamped: a negative value means the replayed layers
                // took longer than the pipeline did.
                let covered = match exec {
                    Executor::Batch => t.total_s(),
                    Executor::Stream => t.consumer_s(),
                };
                put("core.pipeline.unattributed_s", consumer_s - covered);
            }
        }
        None => {
            put("core.cache.hits", counter(obs, HITS_COUNTER));
            put("core.cache.misses", counter(obs, MISSES_COUNTER));
            put(
                "core.pipeline.population_generate_s",
                span_s(obs, "summit_core_population_generate"),
            );
            put(
                "core.pipeline.failure_scenario_s",
                span_s(obs, "summit_core_failure_scenario"),
            );
            put(
                "core.pipeline.burst_schedule_s",
                span_s(obs, "summit_core_run_burst_schedule"),
            );
            for (metric, stage) in [
                ("analysis.fft_s", "summit_analysis_fft"),
                ("analysis.kde_fit_s", "summit_analysis_kde_fit"),
                ("analysis.kde2_fit_s", "summit_analysis_kde2_fit"),
                ("analysis.cdf_build_s", "summit_analysis_cdf_build"),
                ("analysis.correlation_s", "summit_analysis_correlation"),
            ] {
                put(metric, span_s(obs, stage));
            }
            for (study, secs) in &o.studies {
                put(&study_metric(study), *secs);
            }
        }
    }
    v
}
