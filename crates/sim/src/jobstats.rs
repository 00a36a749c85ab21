//! Closed-form job-level power/energy statistics (the fast path).
//!
//! A year of 840k jobs cannot be replayed at 1 Hz; the population studies
//! (Figures 6-9) only need per-job aggregates. This module computes them
//! analytically from the job's workload profile and the node power model:
//! the time-average of the utilization envelope has a closed form (ramp,
//! raised-cosine oscillation, checkpoint duty cycle), and power follows by
//! evaluating the power model at that utilization. Cross-checked against
//! the 1 Hz replay in the integration tests.

use rayon::prelude::*;
use summit_telemetry::ids::NodeId;

use crate::jobs::SyntheticJob;
use crate::power::{NodeUtilization, PowerModel};
use crate::rng::stable_jitter;

/// Per-job aggregate statistics (the paper's Datasets 5-7 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// Job-wide mean input power (W) — `mean_sum_inp`.
    pub mean_power_w: f64,
    /// Job-wide maximum input power (W) — `max_sum_inp`.
    pub max_power_w: f64,
    /// Total energy (J).
    pub energy_j: f64,
    /// Per-node mean CPU power, both sockets summed (W).
    pub mean_node_cpu_w: f64,
    /// Per-node max CPU power (W).
    pub max_node_cpu_w: f64,
    /// Per-node mean GPU power, all six GPUs summed (W).
    pub mean_node_gpu_w: f64,
    /// Per-node max GPU power (W).
    pub max_node_gpu_w: f64,
}

/// Time-average of the workload envelope over the job's life.
///
/// Exact for the raised-cosine oscillation over whole *and* partial
/// periods, and mixes the checkpoint lulls additively (the envelope takes
/// the `min` of the oscillation and the lull floor, so lull time
/// contributes the 0.15 floor, not a product). Validated against numeric
/// integration of [`WorkloadSignal::envelope`] in the integration tests.
///
/// [`WorkloadSignal::envelope`]: crate::workload::WorkloadSignal::envelope
pub fn mean_envelope(job: &SyntheticJob) -> f64 {
    let p = &job.profile;
    let dur = job.record.walltime_s();
    if dur <= 0.0 {
        return 0.0;
    }
    // Raised-cosine average over [0, dur]: 1 - d/2 * (1 - sinc(2*pi*dur/T)).
    let osc = if p.oscillation_depth > 0.0 && p.oscillation_period_s > 0.0 {
        let x = 2.0 * std::f64::consts::PI * dur / p.oscillation_period_s;
        let sinc = if x.abs() < 1e-9 { 1.0 } else { x.sin() / x };
        1.0 - 0.5 * p.oscillation_depth * (1.0 - sinc)
    } else {
        1.0
    };
    // Checkpoint lulls: active only after half an interval has elapsed
    // (warm-up guard in the envelope), dropping to the 0.15 floor.
    let mix = if p.checkpoint_interval_s > 0.0 && p.checkpoint_duration_s > 0.0 {
        let f = (p.checkpoint_duration_s / p.checkpoint_interval_s).min(1.0);
        let active_fraction = (1.0 - 0.5 * p.checkpoint_interval_s / dur).clamp(0.0, 1.0);
        let f_eff = f * active_fraction;
        (1.0 - f_eff) * osc + f_eff * 0.15
    } else {
        osc
    };
    // Ramp costs half the ramp window.
    let ramp_loss = (0.5 * p.ramp_s / dur).min(0.5);
    (mix * (1.0 - ramp_loss)).clamp(0.0, 1.0)
}

/// Computes the closed-form statistics of one job under `power_model`.
///
/// Per-node manufacturing variation is captured by evaluating a small set
/// of representative nodes spread across the id space.
pub fn job_stats(job: &SyntheticJob, power_model: &PowerModel) -> JobStats {
    let p = &job.profile;
    let env_mean = mean_envelope(job);
    let nodes = job.record.node_count as f64;
    let dur = job.record.walltime_s();

    // Representative nodes for variation averaging.
    const REPS: usize = 4;
    let mut mean_node_input = 0.0;
    let mut peak_node_input = 0.0;
    let mut mean_cpu = 0.0;
    let mut peak_cpu = 0.0;
    let mut mean_gpu = 0.0;
    let mut peak_gpu = 0.0;
    for r in 0..REPS {
        // Stable pseudo-placement of this job on the floor.
        let nid = NodeId(((stable_jitter(job.seed, r as u64).abs() * 4625.0) as u32).min(4625));
        let u_mean =
            NodeUtilization::uniform(p.cpu_intensity * env_mean, p.gpu_intensity * env_mean);
        let u_peak = NodeUtilization::uniform(p.cpu_intensity, p.gpu_intensity);
        let pw_mean = power_model.node_power(nid, &u_mean);
        let pw_peak = power_model.node_power(nid, &u_peak);
        mean_node_input += pw_mean.input_w;
        peak_node_input += pw_peak.input_w;
        mean_cpu += pw_mean.cpu_w.iter().sum::<f64>();
        peak_cpu += pw_peak.cpu_w.iter().sum::<f64>();
        mean_gpu += pw_mean.gpu_w.iter().sum::<f64>();
        peak_gpu += pw_peak.gpu_w.iter().sum::<f64>();
    }
    let inv = 1.0 / REPS as f64;
    mean_node_input *= inv;
    peak_node_input *= inv;
    mean_cpu *= inv;
    peak_cpu *= inv;
    mean_gpu *= inv;
    peak_gpu *= inv;

    let mean_power = mean_node_input * nodes;
    let max_power = peak_node_input * nodes;
    JobStats {
        mean_power_w: mean_power,
        max_power_w: max_power,
        energy_j: mean_power * dur,
        mean_node_cpu_w: mean_cpu,
        max_node_cpu_w: peak_cpu,
        mean_node_gpu_w: mean_gpu,
        max_node_gpu_w: peak_gpu,
    }
}

/// Synthesizes the job's cluster-power time series (W) at `dt_s`
/// resolution from its workload signal — the closed-form equivalent of a
/// Dataset-3 per-job series, used by the edge/FFT population studies
/// where replaying every job at 1 Hz through the engine is infeasible.
pub fn job_power_series(
    job: &SyntheticJob,
    power_model: &PowerModel,
    dt_s: f64,
) -> summit_analysis::series::Series {
    assert!(dt_s > 0.0);
    let signal =
        crate::workload::WorkloadSignal::new(job.profile, job.record.walltime_s(), job.seed);
    let n = (job.record.walltime_s() / dt_s).ceil() as usize;
    let nid = NodeId((job.seed % crate::spec::TOTAL_NODES as u64) as u32);
    let nodes = job.record.node_count as f64;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t_rel = i as f64 * dt_s;
            let env = signal.envelope(t_rel);
            let u = NodeUtilization::uniform(
                job.profile.cpu_intensity * env,
                job.profile.gpu_intensity * env,
            );
            power_model.node_power(nid, &u).input_w * nodes
        })
        .collect();
    summit_analysis::series::Series::new(job.record.begin_time, dt_s, values)
}

/// One row of the population table: the job plus its aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatsRow {
    /// Job.
    pub job: SyntheticJob,
    /// Per-metric window statistics in catalog order.
    pub stats: JobStats,
}

/// Computes statistics for an entire population in parallel.
pub fn population_stats(jobs: &[SyntheticJob], power_model: &PowerModel) -> Vec<JobStatsRow> {
    jobs.par_iter()
        .map(|job| JobStatsRow {
            job: job.clone(),
            stats: job_stats(job, power_model),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::jobs::JobGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn jobs(n: usize) -> Vec<SyntheticJob> {
        let mut rng = StdRng::seed_from_u64(77);
        let mut g = JobGenerator::new();
        g.generate_population(&mut rng, n, 0.0, 30.0 * 86400.0)
    }

    fn model() -> PowerModel {
        PowerModel::new(2020)
    }

    #[test]
    fn mean_envelope_closed_forms() {
        let mut job = jobs(1)[0].clone();
        // Whole number of oscillation periods: sinc term vanishes.
        job.record.begin_time = 0.0;
        job.record.end_time = 1000.0;
        job.profile.oscillation_depth = 0.4;
        job.profile.oscillation_period_s = 100.0;
        job.profile.checkpoint_interval_s = 0.0;
        job.profile.ramp_s = 0.0;
        assert!((mean_envelope(&job) - 0.8).abs() < 1e-9);

        // Checkpoint mixture: f = 0.1, active over the second half of the
        // first interval onward -> f_eff = 0.05; mix = 0.95 + 0.05*0.15.
        job.profile.oscillation_depth = 0.0;
        job.profile.checkpoint_interval_s = 1000.0;
        job.profile.checkpoint_duration_s = 100.0;
        let expect = 0.95 + 0.05 * 0.15;
        assert!((mean_envelope(&job) - expect).abs() < 1e-9);
    }

    #[test]
    fn mean_envelope_partial_period_correction() {
        let mut job = jobs(1)[0].clone();
        job.record.begin_time = 0.0;
        job.record.end_time = 125.0; // 1.25 periods
        job.profile.oscillation_depth = 0.6;
        job.profile.oscillation_period_s = 100.0;
        job.profile.checkpoint_interval_s = 0.0;
        job.profile.ramp_s = 0.0;
        // Numeric reference.
        let sig = crate::workload::WorkloadSignal::new(job.profile, 125.0, 1);
        let num: f64 = (0..12500)
            .map(|i| sig.envelope(i as f64 / 100.0))
            .sum::<f64>()
            / 12500.0;
        let closed = mean_envelope(&job);
        assert!(
            (closed - num).abs() < 0.01,
            "closed {closed} vs numeric {num}"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = model();
        for row in population_stats(&jobs(500), &m) {
            let s = row.stats;
            assert!(s.mean_power_w > 0.0);
            assert!(
                s.max_power_w >= s.mean_power_w - 1e-6,
                "max {} < mean {}",
                s.max_power_w,
                s.mean_power_w
            );
            assert!(
                (s.energy_j - s.mean_power_w * row.job.record.walltime_s()).abs()
                    < 1e-6 * s.energy_j.max(1.0)
            );
            assert!(s.max_node_cpu_w <= 620.0, "2 sockets x ~300 W");
            assert!(s.max_node_gpu_w <= 2000.0, "6 GPUs x ~310 W");
        }
    }

    #[test]
    fn class1_max_power_reaches_paper_scale() {
        // Paper: class-1 max input power peaks at 10.7 MW, 80 % below 6.6 MW.
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = JobGenerator::new();
        let m = model();
        let maxes: Vec<f64> = (0..400)
            .map(|_| {
                let j = g.generate_with_class(&mut rng, 0.0, 1);
                job_stats(&j, &m).max_power_w
            })
            .collect();
        let peak = maxes.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak > 8.0e6,
            "largest class-1 job should approach the 10.7 MW anchor, got {peak}"
        );
        let e = summit_analysis::cdf::Ecdf::new(&maxes).unwrap();
        let p80 = e.percentile(0.8);
        assert!(
            (4.0e6..9.0e6).contains(&p80),
            "class-1 P80 max power {p80} should be near 6.6 MW"
        );
    }

    #[test]
    fn class_separation_of_max_power() {
        // Paper Fig 6: max power strongly correlates with class.
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = JobGenerator::new();
        let m = model();
        let median_max = |class: u8, rng: &mut StdRng, g: &mut JobGenerator| {
            let v: Vec<f64> = (0..200)
                .map(|_| job_stats(&g.generate_with_class(rng, 0.0, class), &m).max_power_w)
                .collect();
            summit_analysis::stats::median(&v)
        };
        let m1 = median_max(1, &mut rng, &mut g);
        let m2 = median_max(2, &mut rng, &mut g);
        let m3 = median_max(3, &mut rng, &mut g);
        let m5 = median_max(5, &mut rng, &mut g);
        assert!(
            m1 > m2 && m2 > m3 && m3 > m5,
            "m1={m1} m2={m2} m3={m3} m5={m5}"
        );
        assert!(
            m1 / m5 > 50.0,
            "leadership and small jobs differ by orders of magnitude"
        );
    }

    #[test]
    fn energy_spans_many_decades() {
        // Paper Fig 6: energy ranges from ~1e7 J (class 5) to ~1e13 J.
        let m = model();
        let rows = population_stats(&jobs(5000), &m);
        let lo = rows
            .iter()
            .map(|r| r.stats.energy_j)
            .fold(f64::INFINITY, f64::min);
        let hi = rows
            .iter()
            .map(|r| r.stats.energy_j)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(lo < 1e8, "small jobs at ~1e7 J, got min {lo}");
        assert!(
            hi > 3e10,
            "leadership jobs reach the 1e10-1e13 J range, got max {hi}"
        );
        assert!(hi / lo > 1e4, "energy must span many decades");
    }

    #[test]
    fn parallel_population_matches_serial() {
        let m = model();
        let js = jobs(200);
        let par = population_stats(&js, &m);
        for (row, job) in par.iter().zip(&js) {
            let serial = job_stats(job, &m);
            assert_eq!(row.stats, serial);
        }
    }

    #[test]
    fn cpu_vs_gpu_split_visible() {
        // GPU-dominant jobs put most node power into GPUs and vice versa.
        let m = model();
        let rows = population_stats(&jobs(2000), &m);
        let gpu_heavy: Vec<&JobStatsRow> = rows
            .iter()
            .filter(|r| r.job.profile.gpu_intensity > 0.7)
            .collect();
        let cpu_heavy: Vec<&JobStatsRow> = rows
            .iter()
            .filter(|r| r.job.profile.gpu_intensity < 0.3)
            .collect();
        assert!(!gpu_heavy.is_empty() && !cpu_heavy.is_empty());
        let g_ratio: f64 = gpu_heavy
            .iter()
            .map(|r| r.stats.mean_node_gpu_w / r.stats.mean_node_cpu_w)
            .sum::<f64>()
            / gpu_heavy.len() as f64;
        let c_ratio: f64 = cpu_heavy
            .iter()
            .map(|r| r.stats.mean_node_gpu_w / r.stats.mean_node_cpu_w)
            .sum::<f64>()
            / cpu_heavy.len() as f64;
        assert!(g_ratio > 2.0 * c_ratio, "g={g_ratio} c={c_ratio}");
    }
}
