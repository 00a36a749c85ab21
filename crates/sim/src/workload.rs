//! Application workload model: per-job utilization as a function of time.
//!
//! The paper attributes the cluster's power dynamics to "the well-known
//! behavior of HPC applications themselves": synchronous phase changes
//! with dominant swing periods around 200 seconds (Figure 10), violent
//! MW-scale ramps within tens of seconds (Figure 11), and per-domain
//! CPU-vs-GPU intensity splits (Figures 8, 9). This module produces a
//! deterministic utilization signal per job with exactly those knobs:
//! ramp-up, periodic compute/communication oscillation, I/O lulls
//! (checkpoints), and final teardown.

use crate::power::NodeUtilization;
use crate::rng::stable_jitter;

/// Static shape of one application's behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Peak CPU utilization in [0, 1].
    pub cpu_intensity: f64,
    /// Peak GPU utilization in [0, 1].
    pub gpu_intensity: f64,
    /// Period of the compute/communication oscillation (s); the paper's
    /// dominant mode is ~200 s.
    pub oscillation_period_s: f64,
    /// Oscillation depth in [0, 1]: 0 = flat, 1 = full swings to idle.
    pub oscillation_depth: f64,
    /// Ramp-up time from launch to full intensity (s); the paper observes
    /// transitions "within tens of seconds".
    pub ramp_s: f64,
    /// Interval between checkpoint/I/O lulls (s); 0 disables them.
    pub checkpoint_interval_s: f64,
    /// Duration of each checkpoint lull (s).
    pub checkpoint_duration_s: f64,
}

impl AppProfile {
    /// A steady GPU-dominant profile (the Figure 17 BerkeleyGW-like
    /// exemplar: near-full GPU utilization, little variability).
    pub fn gpu_steady() -> Self {
        Self {
            cpu_intensity: 0.25,
            gpu_intensity: 0.97,
            oscillation_period_s: 200.0,
            oscillation_depth: 0.05,
            ramp_s: 25.0,
            checkpoint_interval_s: 0.0,
            checkpoint_duration_s: 0.0,
        }
    }

    /// A swinging profile that generates detectable power edges.
    pub fn bursty(period_s: f64, depth: f64) -> Self {
        Self {
            cpu_intensity: 0.35,
            gpu_intensity: 0.95,
            oscillation_period_s: period_s,
            oscillation_depth: depth,
            ramp_s: 20.0,
            checkpoint_interval_s: 0.0,
            checkpoint_duration_s: 0.0,
        }
    }

    /// A CPU-dominant modelling/simulation profile.
    pub fn cpu_heavy() -> Self {
        Self {
            cpu_intensity: 0.9,
            gpu_intensity: 0.12,
            oscillation_period_s: 300.0,
            oscillation_depth: 0.2,
            ramp_s: 40.0,
            checkpoint_interval_s: 1800.0,
            checkpoint_duration_s: 60.0,
        }
    }

    /// Validates ranges; call after constructing custom profiles.
    pub fn validate(&self) -> Result<(), String> {
        let in01 = |x: f64| (0.0..=1.0).contains(&x);
        if !in01(self.cpu_intensity) || !in01(self.gpu_intensity) {
            return Err(format!(
                "intensities must be in [0,1]: cpu={}, gpu={}",
                self.cpu_intensity, self.gpu_intensity
            ));
        }
        if !in01(self.oscillation_depth) {
            return Err(format!(
                "oscillation depth {} not in [0,1]",
                self.oscillation_depth
            ));
        }
        if self.oscillation_period_s <= 0.0 && self.oscillation_depth > 0.0 {
            return Err("oscillating profile needs a positive period".into());
        }
        if self.ramp_s < 0.0 {
            return Err("ramp must be non-negative".into());
        }
        Ok(())
    }
}

/// A running job's utilization generator.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSignal {
    profile: AppProfile,
    /// Walltime of the job (s) — utilization tears down at the end.
    duration_s: f64,
    /// Seed for per-node jitter.
    seed: u64,
}

impl WorkloadSignal {
    /// Creates a signal for a job of the given duration.
    pub fn new(profile: AppProfile, duration_s: f64, seed: u64) -> Self {
        assert!(duration_s > 0.0, "job duration must be positive");
        debug_assert!(
            profile.validate().is_ok(),
            "workload profile invariants violated: {:?}",
            profile.validate()
        );
        Self {
            profile,
            duration_s,
            seed,
        }
    }

    /// The job-wide intensity envelope at `t_rel` seconds after launch, in
    /// [0, 1]: ramp -> oscillating plateau with checkpoint lulls -> end.
    pub fn envelope(&self, t_rel: f64) -> f64 {
        if t_rel < 0.0 || t_rel >= self.duration_s {
            return 0.0;
        }
        let p = &self.profile;
        // Ramp-up.
        let ramp = if p.ramp_s > 0.0 {
            (t_rel / p.ramp_s).min(1.0)
        } else {
            1.0
        };
        // Synchronous oscillation: raised cosine between (1-depth) and 1.
        let osc = if p.oscillation_depth > 0.0 {
            let phase = 2.0 * std::f64::consts::PI * t_rel / p.oscillation_period_s;
            1.0 - p.oscillation_depth * 0.5 * (1.0 - phase.cos())
        } else {
            1.0
        };
        // Checkpoint lulls: drop to 15 % during I/O.
        let ckpt = if p.checkpoint_interval_s > 0.0 && p.checkpoint_duration_s > 0.0 {
            let pos = t_rel % p.checkpoint_interval_s;
            if pos < p.checkpoint_duration_s && t_rel > p.checkpoint_interval_s * 0.5 {
                0.15
            } else {
                1.0
            }
        } else {
            1.0
        };
        ramp * osc.min(ckpt)
    }

    /// Per-node utilization at `t_rel` for rank `node_rank` within the
    /// job. Ranks carry a small stable jitter (+-3 %) plus a per-minute
    /// decorrelation so nodes are synchronized but not identical.
    pub fn node_utilization(&self, t_rel: f64, node_rank: u32) -> NodeUtilization {
        let env = self.envelope(t_rel);
        if env == 0.0 {
            return NodeUtilization::idle();
        }
        let p = &self.profile;
        let static_j = 0.03 * stable_jitter(self.seed, node_rank as u64);
        let minute = (t_rel / 60.0).floor() as u64;
        let dynamic_j = 0.02 * stable_jitter(self.seed ^ 0xD1A, node_rank as u64 ^ (minute << 20));
        let f = (1.0 + static_j + dynamic_j).clamp(0.0, 1.2);
        NodeUtilization::uniform(
            (p.cpu_intensity * env * f).clamp(0.0, 1.0),
            (p.gpu_intensity * env * f).clamp(0.0, 1.0),
        )
    }

    /// Job duration (s).
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// The profile driving this signal.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn envelope_ramps_and_ends() {
        let s = WorkloadSignal::new(AppProfile::gpu_steady(), 1000.0, 1);
        assert_eq!(s.envelope(-1.0), 0.0);
        assert!(s.envelope(5.0) < s.envelope(25.0), "ramping up");
        assert!(s.envelope(30.0) > 0.9);
        assert_eq!(s.envelope(1000.0), 0.0, "ends at walltime");
        assert_eq!(s.envelope(2000.0), 0.0);
    }

    #[test]
    fn oscillation_has_requested_period() {
        let profile = AppProfile::bursty(200.0, 0.6);
        let s = WorkloadSignal::new(profile, 10_000.0, 1);
        // After ramp, envelope at t and t+200 must match (periodicity)...
        let a = s.envelope(1000.0);
        let b = s.envelope(1200.0);
        assert!((a - b).abs() < 1e-9);
        // ...and the half-period point must dip by the depth.
        let mid = s.envelope(1100.0);
        assert!(a > mid, "peak {a} vs trough {mid}");
        assert!((a - mid - 0.6).abs() < 0.05, "depth should be ~0.6");
    }

    #[test]
    fn checkpoint_lulls_drop_utilization() {
        let s = WorkloadSignal::new(AppProfile::cpu_heavy(), 20_000.0, 1);
        // A checkpoint occurs at multiples of 1800 s (after warmup).
        let during = s.envelope(3600.0 + 10.0);
        let between = s.envelope(3600.0 + 900.0);
        assert!(during <= 0.15 + 1e-9);
        assert!(between > 0.5);
    }

    #[test]
    fn node_utilization_bounded_and_jittered() {
        let s = WorkloadSignal::new(AppProfile::gpu_steady(), 5000.0, 42);
        let a = s.node_utilization(1000.0, 0);
        let b = s.node_utilization(1000.0, 1);
        assert_ne!(a.gpu[0], b.gpu[0], "ranks must differ slightly");
        for rank in 0..100 {
            let u = s.node_utilization(1000.0, rank);
            for g in u.gpu {
                assert!((0.0..=1.0).contains(&g));
            }
            for c in u.cpu {
                assert!((0.0..=1.0).contains(&c));
            }
            // Jitter is small: stays within 10 % of the profile intensity.
            assert!((u.gpu[0] - 0.97f64 * s.envelope(1000.0)).abs() < 0.1);
        }
    }

    #[test]
    fn idle_outside_job() {
        let s = WorkloadSignal::new(AppProfile::gpu_steady(), 100.0, 7);
        let u = s.node_utilization(200.0, 3);
        assert_eq!(u.cpu, [0.0; 2]);
        assert_eq!(u.gpu, [0.0; 6]);
    }

    #[test]
    fn deterministic_signal() {
        let s = WorkloadSignal::new(AppProfile::bursty(150.0, 0.4), 1000.0, 9);
        let a = s.node_utilization(123.0, 5);
        let b = s.node_utilization(123.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn profile_validation() {
        let mut p = AppProfile::gpu_steady();
        assert!(p.validate().is_ok());
        p.gpu_intensity = 1.5;
        assert!(p.validate().is_err());
        let mut q = AppProfile::bursty(100.0, 0.5);
        q.oscillation_period_s = 0.0;
        assert!(q.validate().is_err());
    }
}
