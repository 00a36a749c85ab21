//! Science-domain application library.
//!
//! Figure 8 of the paper breaks job power/energy down by science domain,
//! Figure 14 breaks GPU failure rates down by project. Each domain here
//! carries a workload mix (how GPU-leaning its codes are, how swingy they
//! run), a set of projects, and a failure-proneness factor; jobs sample a
//! concrete [`AppProfile`] from their domain.

use rand::Rng;
use summit_telemetry::records::ScienceDomain;

use crate::rng::{truncated_normal, weighted_index};
use crate::workload::AppProfile;

/// Workload character of one science domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainCharacter {
    /// Share of Summit's job traffic from this domain.
    pub traffic_weight: f64,
    /// Probability a job from this domain is GPU-dominant.
    pub gpu_affinity: f64,
    /// Mean peak GPU utilization for GPU-dominant jobs.
    pub gpu_intensity_mean: f64,
    /// Mean peak CPU utilization for CPU-dominant jobs.
    pub cpu_intensity_mean: f64,
    /// Mean oscillation depth (swinginess) of the domain's codes.
    pub swing_mean: f64,
    /// Multiplier on baseline GPU failure rates (Figure 14: "distinct
    /// workload patterns are a major factor affecting GPU reliability").
    pub failure_multiplier: f64,
    /// Number of distinct projects in the domain.
    pub project_count: u32,
}

/// Character table for all domains. Weights and intensities are chosen to
/// reproduce the Figure 8/9 shapes: materials/physics/chemistry dominate
/// GPU-heavy traffic; some engineering/earth-science codes stay
/// CPU-bound; AI/ML runs hot on GPUs with low swing.
pub fn domain_character(domain: ScienceDomain) -> DomainCharacter {
    use ScienceDomain::*;
    let (traffic_weight, gpu_affinity, gpu_i, cpu_i, swing, fail, projects) = match domain {
        Materials => (0.16, 0.85, 0.92, 0.75, 0.35, 1.6, 14),
        Physics => (0.12, 0.80, 0.90, 0.72, 0.40, 1.3, 12),
        Chemistry => (0.11, 0.80, 0.88, 0.70, 0.30, 1.1, 10),
        Engineering => (0.07, 0.45, 0.75, 0.80, 0.45, 0.9, 8),
        Fusion => (0.06, 0.70, 0.85, 0.74, 0.50, 1.2, 6),
        Biophysics => (0.07, 0.75, 0.86, 0.65, 0.25, 0.8, 8),
        Astrophysics => (0.06, 0.70, 0.88, 0.70, 0.55, 1.4, 6),
        ComputerScience => (0.06, 0.60, 0.80, 0.70, 0.60, 2.0, 8),
        EarthScience => (0.05, 0.40, 0.70, 0.82, 0.35, 0.7, 6),
        NuclearPhysics => (0.05, 0.65, 0.85, 0.75, 0.40, 1.0, 5),
        HighEnergyPhysics => (0.04, 0.70, 0.87, 0.72, 0.45, 1.1, 5),
        Biology => (0.04, 0.70, 0.84, 0.66, 0.25, 0.8, 6),
        Seismology => (0.02, 0.50, 0.78, 0.78, 0.40, 0.9, 3),
        Combustion => (0.02, 0.55, 0.80, 0.78, 0.50, 1.0, 3),
        Medical => (0.02, 0.65, 0.82, 0.64, 0.20, 0.7, 4),
        AiMl => (0.03, 0.95, 0.96, 0.45, 0.15, 1.8, 6),
        Other => (0.02, 0.50, 0.75, 0.70, 0.40, 1.0, 6),
    };
    DomainCharacter {
        traffic_weight,
        gpu_affinity,
        gpu_intensity_mean: gpu_i,
        cpu_intensity_mean: cpu_i,
        swing_mean: swing,
        failure_multiplier: fail,
        project_count: projects,
    }
}

/// Three-letter project prefix per domain.
pub fn domain_prefix(domain: ScienceDomain) -> &'static str {
    use ScienceDomain::*;
    match domain {
        Materials => "MAT",
        Physics => "PHY",
        Chemistry => "CHM",
        Engineering => "ENG",
        Fusion => "FUS",
        Biophysics => "BIP",
        Astrophysics => "AST",
        ComputerScience => "CSC",
        EarthScience => "GEO",
        NuclearPhysics => "NPH",
        HighEnergyPhysics => "HEP",
        Biology => "BIO",
        Seismology => "SEI",
        Combustion => "CMB",
        Medical => "MED",
        AiMl => "AIM",
        Other => "GEN",
    }
}

/// Samples a science domain by traffic weight.
pub fn sample_domain<R: Rng + ?Sized>(rng: &mut R) -> ScienceDomain {
    let weights: Vec<f64> = ScienceDomain::ALL
        .iter()
        .map(|&d| domain_character(d).traffic_weight)
        .collect();
    ScienceDomain::ALL[weighted_index(rng, &weights)]
}

/// Samples a project name within a domain (e.g. `MAT007`). Lower project
/// numbers get more traffic (80/20-ish), which concentrates failures in
/// the Figure 14 top-projects the way real project mixes do.
pub fn sample_project<R: Rng + ?Sized>(rng: &mut R, domain: ScienceDomain) -> String {
    let c = domain_character(domain);
    // Geometric-ish preference for low project indices.
    let mut idx = 0u32;
    while idx + 1 < c.project_count && rng.gen::<f64>() < 0.55 {
        idx += 1;
    }
    format!("{}{:03}", domain_prefix(domain), idx)
}

/// Per-project failure multiplier on top of the domain multiplier — a few
/// projects run codes that are much harder on GPUs.
pub fn project_failure_multiplier(project: &str) -> f64 {
    // Stable hash of the project name -> multiplier in [0.4, 4.0],
    // log-uniform-ish so a handful of projects dominate (Figure 14).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in project.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // FNV's high bits are weak for short strings; finalize (splitmix64).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.4 * (10.0f64).powf(u)
}

/// Stable per-project unit hash in [0, 1) (projects rerun the same codes,
/// so their workload character persists across jobs — the property the
/// paper's Section 9 fingerprinting plan relies on).
fn project_unit(project: &str, salt: u64) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ salt;
    for b in project.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Samples a profile for a job of `project` within `domain`: the project
/// fixes stable anchors (its dominant code's intensity, cycle period and
/// swing); individual jobs jitter around them.
pub fn sample_profile_for_project<R: Rng + ?Sized>(
    rng: &mut R,
    domain: ScienceDomain,
    project: &str,
) -> AppProfile {
    let c = domain_character(domain);
    // The project's dominant code is GPU- or CPU-leaning, stably.
    let gpu_dominant = project_unit(project, 0x61) < c.gpu_affinity;
    let (cpu_anchor, gpu_anchor) = if gpu_dominant {
        (
            0.30 + 0.15 * (project_unit(project, 0x11) - 0.5),
            (c.gpu_intensity_mean - 0.15 + 0.36 * (project_unit(project, 0x22) - 0.5))
                .clamp(0.25, 1.0),
        )
    } else {
        (
            (c.cpu_intensity_mean + 0.20 * (project_unit(project, 0x33) - 0.5)).clamp(0.3, 1.0),
            (0.10 + 0.10 * (project_unit(project, 0x44) - 0.5)).clamp(0.02, 0.35),
        )
    };
    let period_anchor = if project_unit(project, 0x55) < 0.6 {
        120.0 + 180.0 * project_unit(project, 0x66)
    } else {
        60.0 + 1000.0 * project_unit(project, 0x77)
    };
    let depth_anchor = (c.swing_mean + 0.3 * (project_unit(project, 0x88) - 0.5)).clamp(0.0, 0.95);
    let has_ckpt = project_unit(project, 0x99) < 0.05;

    AppProfile {
        cpu_intensity: truncated_normal(rng, cpu_anchor, 0.05, 0.02, 1.0),
        gpu_intensity: truncated_normal(rng, gpu_anchor, 0.05, 0.02, 1.0),
        oscillation_period_s: truncated_normal(rng, period_anchor, 20.0, 60.0, 1200.0),
        oscillation_depth: truncated_normal(rng, depth_anchor, 0.06, 0.0, 0.95),
        // Ramps below ~20 s would register as power edges at job start.
        ramp_s: truncated_normal(rng, 27.0, 8.0, 20.0, 60.0),
        checkpoint_interval_s: if has_ckpt {
            truncated_normal(rng, 1500.0, 600.0, 300.0, 3600.0)
        } else {
            0.0
        },
        checkpoint_duration_s: if has_ckpt {
            truncated_normal(rng, 60.0, 30.0, 20.0, 180.0)
        } else {
            0.0
        },
    }
}

/// Samples a concrete application profile for a job from `domain`.
pub fn sample_profile<R: Rng + ?Sized>(rng: &mut R, domain: ScienceDomain) -> AppProfile {
    let c = domain_character(domain);
    let gpu_dominant = rng.gen::<f64>() < c.gpu_affinity;
    let (cpu_i, gpu_i) = if gpu_dominant {
        (
            truncated_normal(rng, 0.30, 0.12, 0.05, 0.7),
            // Wide spread below the domain ceiling: most codes do not
            // saturate the GPUs (paper: 80 % of class-1 jobs stay under
            // 6.6 MW while the largest reach 10.7 MW).
            truncated_normal(rng, c.gpu_intensity_mean - 0.15, 0.18, 0.25, 1.0),
        )
    } else {
        (
            truncated_normal(rng, c.cpu_intensity_mean, 0.10, 0.3, 1.0),
            truncated_normal(rng, 0.10, 0.06, 0.02, 0.35),
        )
    };
    // Oscillation period clusters around 200 s (the paper's dominant
    // frequency) with app-specific spread; some codes run much slower
    // cycles.
    let period = if rng.gen::<f64>() < 0.6 {
        truncated_normal(rng, 200.0, 30.0, 120.0, 300.0)
    } else {
        truncated_normal(rng, 500.0, 250.0, 60.0, 1200.0)
    };
    let depth = truncated_normal(rng, c.swing_mean, 0.15, 0.0, 0.95);
    // Checkpoint/I-O lulls are the main source of detectable power edges;
    // the paper finds 96.9 % of jobs edge-free, so hard phase drops are
    // rare in the base population (scheduling classes adjust this).
    let has_ckpt = rng.gen::<f64>() < 0.05;
    AppProfile {
        cpu_intensity: cpu_i,
        gpu_intensity: gpu_i,
        oscillation_period_s: period,
        oscillation_depth: depth,
        // Ramps below ~20 s would register as power edges at job start;
        // real applications take tens of seconds to reach full load.
        ramp_s: truncated_normal(rng, 27.0, 8.0, 20.0, 60.0),
        checkpoint_interval_s: if has_ckpt {
            truncated_normal(rng, 1500.0, 600.0, 300.0, 3600.0)
        } else {
            0.0
        },
        checkpoint_duration_s: if has_ckpt {
            truncated_normal(rng, 60.0, 30.0, 20.0, 180.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traffic_weights_sum_to_one() {
        let total: f64 = ScienceDomain::ALL
            .iter()
            .map(|&d| domain_character(d).traffic_weight)
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn sampled_profiles_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let d = sample_domain(&mut rng);
            let p = sample_profile(&mut rng, d);
            p.validate().expect("valid profile");
        }
    }

    #[test]
    fn gpu_affinity_shapes_profiles() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut aiml_gpu = 0;
        let mut earth_gpu = 0;
        let n = 2000;
        for _ in 0..n {
            if sample_profile(&mut rng, ScienceDomain::AiMl).gpu_intensity > 0.5 {
                aiml_gpu += 1;
            }
            if sample_profile(&mut rng, ScienceDomain::EarthScience).gpu_intensity > 0.5 {
                earth_gpu += 1;
            }
        }
        assert!(
            aiml_gpu as f64 / n as f64 > 0.85,
            "AI/ML must be GPU-dominant"
        );
        assert!(
            (earth_gpu as f64) < (aiml_gpu as f64) * 0.6,
            "earth science leans CPU: {earth_gpu} vs {aiml_gpu}"
        );
    }

    #[test]
    fn domain_sampling_follows_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mat = 0;
        let n = 20_000;
        for _ in 0..n {
            if sample_domain(&mut rng) == ScienceDomain::Materials {
                mat += 1;
            }
        }
        let frac = mat as f64 / n as f64;
        assert!((frac - 0.16).abs() < 0.02, "materials share {frac}");
    }

    #[test]
    fn project_names_and_concentration() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut first = 0;
        let n = 5000;
        for _ in 0..n {
            let p = sample_project(&mut rng, ScienceDomain::Materials);
            assert!(p.starts_with("MAT"));
            assert_eq!(p.len(), 6);
            if p == "MAT000" {
                first += 1;
            }
        }
        // The head project carries the largest share (45 % stop prob).
        assert!(first as f64 / n as f64 > 0.3);
    }

    #[test]
    fn failure_multipliers_spread() {
        let ms: Vec<f64> = (0..50)
            .map(|i| project_failure_multiplier(&format!("MAT{i:03}")))
            .collect();
        assert!(ms.iter().all(|&m| (0.4..=4.0).contains(&m)));
        let min = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 3.0, "projects must vary widely");
        // Deterministic.
        assert_eq!(
            project_failure_multiplier("MAT001"),
            project_failure_multiplier("MAT001")
        );
    }

    #[test]
    fn dominant_oscillation_near_200s() {
        let mut rng = StdRng::seed_from_u64(5);
        let periods: Vec<f64> = (0..2000)
            .map(|_| sample_profile(&mut rng, ScienceDomain::Physics).oscillation_period_s)
            .collect();
        let near_200 = periods
            .iter()
            .filter(|&&p| (150.0..=250.0).contains(&p))
            .count();
        assert!(
            near_200 as f64 / periods.len() as f64 > 0.45,
            "the 200 s mode must dominate"
        );
    }
}
