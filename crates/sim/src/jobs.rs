//! Synthetic job population generator.
//!
//! Generates the 840k-job 2020 population with the class mix, node-count
//! distributions, and walltime distributions the paper reports in
//! Figures 6-8 and Table 3:
//! - classes 1-2 are rare leadership jobs, class 5 dominates the count;
//! - over 60 % of class-1 jobs use > 4,000 nodes, with a spike at 4,096;
//! - 80 % of class-2 jobs run below 1,500 nodes, most at 1,000/1,024;
//! - 80 % of class-1 jobs finish within ~43 minutes, class-2 within ~3 h;
//! - class-5 walltimes pile up against the 120-minute scheduler limit.

use rand::Rng;
use summit_telemetry::ids::AllocationId;
use summit_telemetry::records::{JobRecord, ScienceDomain};

use crate::apps::{sample_domain, sample_profile_for_project, sample_project};
use crate::rng::{lognormal, weighted_index};
#[cfg(test)]
use crate::spec::MAX_JOB_NODES;
use crate::spec::{class_of_node_count, class_spec};
use crate::workload::AppProfile;

/// Paper job count for 2020 ("over 840k Summit jobs").
pub const PAPER_JOB_COUNT: usize = 840_000;

/// Share of job traffic per class (1..=5). Heavily bottom-weighted: the
/// paper's Figure 6 small classes carry almost all the job count while the
/// leadership classes carry the power peaks.
/// Calibrated so the population's annual node-hours land near 85 % of
/// machine capacity (the utilization behind the paper's 5-6 MW average).
pub const CLASS_MIX: [f64; 5] = [0.002, 0.008, 0.04, 0.10, 0.85];

/// A fully-specified synthetic job.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticJob {
    /// The scheduler job record.
    pub record: JobRecord,
    /// The application workload profile.
    pub profile: AppProfile,
    /// Seed for the job's workload signal (per-node jitter etc).
    pub seed: u64,
}

impl SyntheticJob {
    /// Scheduling class shortcut.
    pub fn class(&self) -> u8 {
        self.record.class
    }
}

/// The job generator.
#[derive(Debug, Clone)]
pub struct JobGenerator {
    next_id: u64,
}

impl Default for JobGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl JobGenerator {
    /// Creates a generator.
    pub fn new() -> Self {
        Self { next_id: 1 }
    }

    /// Samples a node count for `class` per the paper's distributions.
    pub fn sample_node_count<R: Rng + ?Sized>(&self, rng: &mut R, class: u8) -> u32 {
        let spec = class_spec(class);
        let (lo, hi) = spec.node_range;
        let n = match class {
            1 => match weighted_index(rng, &[0.35, 0.25, 0.40]) {
                0 => 4096,
                1 => hi, // full machine: spec::MAX_JOB_NODES
                _ => rng.gen_range(lo..=hi),
            },
            2 => match weighted_index(rng, &[0.30, 0.20, 0.50]) {
                0 => 1024,
                1 => 1000,
                _ => {
                    // Log-leaning toward the low end: 80 % below 1,500.
                    let x = lognormal(rng, (1100.0f64).ln(), 0.35);
                    x.round() as u32
                }
            },
            3..=5 => {
                // Mixture of power-of-two spikes and a log-uniform floor.
                if rng.gen::<f64>() < 0.35 {
                    let pows: Vec<u32> = (0..16)
                        .map(|k| 1u32 << k)
                        .filter(|&p| p >= lo && p <= hi)
                        .collect();
                    if pows.is_empty() {
                        rng.gen_range(lo..=hi)
                    } else {
                        pows[rng.gen_range(0..pows.len())]
                    }
                } else {
                    // Log-uniform over the class range.
                    let u: f64 = rng.gen();
                    let x = (lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln());
                    x.exp().round() as u32
                }
            }
            _ => unreachable!("classes are 1..=5"),
        };
        n.clamp(lo, hi)
    }

    /// Samples a walltime (s) for `class`, respecting the Table 3 limit.
    pub fn sample_walltime<R: Rng + ?Sized>(&self, rng: &mut R, class: u8) -> f64 {
        let limit_s = class_spec(class).max_walltime_h * 3600.0;
        let (median_s, sigma): (f64, f64) = match class {
            1 => (1200.0, 0.91), // 80 % under ~43 min
            2 => (3600.0, 1.15), // 80 % under ~3 h
            3 => (1800.0, 1.00),
            4 => (1100.0, 1.00),
            5 => (1100.0, 1.30), // clipping creates the 120-min pile-up
            _ => unreachable!(),
        };
        lognormal(rng, median_s.ln(), sigma).clamp(60.0, limit_s)
    }

    /// Samples a scheduling class from [`CLASS_MIX`].
    pub fn sample_class<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        (weighted_index(rng, &CLASS_MIX) + 1) as u8
    }

    /// Generates one job arriving at `begin_time`.
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R, begin_time: f64) -> SyntheticJob {
        let class = self.sample_class(rng);
        self.generate_with_class(rng, begin_time, class)
    }

    /// Generates one job of a specific class.
    pub fn generate_with_class<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        begin_time: f64,
        class: u8,
    ) -> SyntheticJob {
        let node_count = self.sample_node_count(rng, class);
        debug_assert_eq!(class_of_node_count(node_count), class);
        let walltime = self.sample_walltime(rng, class);
        let domain = sample_domain(rng);
        let project = sample_project(rng, domain);
        let mut profile = sample_profile_for_project(rng, domain, &project);
        // Class-specific edge behaviour (paper Fig 10): class-4 jobs show
        // the most, shortest edges; leadership-class edges are rarer but
        // sustained for a large fraction of the (longer) job.
        match class {
            4 if rng.gen::<f64>() < 0.30 => {
                profile.checkpoint_interval_s =
                    crate::rng::truncated_normal(rng, 500.0, 150.0, 200.0, 900.0);
                profile.checkpoint_duration_s =
                    crate::rng::truncated_normal(rng, 40.0, 15.0, 20.0, 90.0);
            }
            1 | 2 if profile.checkpoint_interval_s > 0.0 => {
                let frac = crate::rng::truncated_normal(rng, 0.15, 0.10, 0.02, 0.45);
                profile.checkpoint_duration_s = (walltime * frac)
                    .max(profile.checkpoint_duration_s)
                    .min(profile.checkpoint_interval_s * 0.8);
            }
            _ => {}
        }
        let id = self.next_id;
        self.next_id += 1;
        SyntheticJob {
            record: JobRecord {
                allocation_id: AllocationId(id),
                class,
                node_count,
                project,
                domain,
                begin_time,
                end_time: begin_time + walltime,
            },
            profile,
            seed: id.wrapping_mul(0x9e3779b97f4a7c15),
        }
    }

    /// Generates a population of `count` jobs with arrivals uniform over
    /// `[t0, t0 + span_s)` (Poisson arrivals conditioned on the count),
    /// sorted by begin time.
    pub fn generate_population<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        count: usize,
        t0: f64,
        span_s: f64,
    ) -> Vec<SyntheticJob> {
        let mut jobs: Vec<SyntheticJob> = (0..count)
            .map(|_| {
                let t = t0 + rng.gen::<f64>() * span_s;
                self.generate(rng, t)
            })
            .collect();
        jobs.sort_by(|a, b| a.record.begin_time.total_cmp(&b.record.begin_time));
        jobs
    }
}

/// Sample a job population's domain for test assertions.
pub fn count_by_domain(jobs: &[SyntheticJob]) -> Vec<(ScienceDomain, usize)> {
    let mut counts = vec![0usize; ScienceDomain::ALL.len()];
    for j in jobs {
        counts[j.record.domain.index()] += 1;
    }
    ScienceDomain::ALL.iter().copied().zip(counts).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize) -> Vec<SyntheticJob> {
        let mut rng = StdRng::seed_from_u64(2020);
        let mut g = JobGenerator::new();
        g.generate_population(&mut rng, n, 0.0, 366.0 * 86400.0)
    }

    #[test]
    fn class_mix_is_bottom_heavy() {
        let jobs = population(20_000);
        let mut counts = [0usize; 5];
        for j in &jobs {
            counts[(j.class() - 1) as usize] += 1;
        }
        assert!(counts[4] > jobs.len() * 7 / 10, "class 5 dominates");
        assert!(counts[0] < jobs.len() / 100, "class 1 is rare");
        assert!(counts.iter().all(|&c| c > 0), "all classes present");
    }

    #[test]
    fn node_counts_stay_in_class_ranges() {
        let jobs = population(10_000);
        for j in &jobs {
            let spec = class_spec(j.class());
            assert!(
                j.record.node_count >= spec.node_range.0
                    && j.record.node_count <= spec.node_range.1,
                "class {} job with {} nodes",
                j.class(),
                j.record.node_count
            );
            assert!(j.record.node_count <= MAX_JOB_NODES);
        }
    }

    #[test]
    fn class1_top_band_over_60_percent() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = JobGenerator::new();
        let counts: Vec<u32> = (0..5000)
            .map(|_| g.sample_node_count(&mut rng, 1))
            .collect();
        let over_4000 = counts.iter().filter(|&&n| n > 4000).count();
        assert!(
            over_4000 as f64 / counts.len() as f64 > 0.6,
            "paper: over 60 % of class-1 jobs above 4,000 nodes"
        );
        // 4,096 is the modal count.
        let at_4096 = counts.iter().filter(|&&n| n == 4096).count();
        assert!(at_4096 as f64 / counts.len() as f64 > 0.25);
    }

    #[test]
    fn class2_80_percent_under_1500() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = JobGenerator::new();
        let counts: Vec<u32> = (0..5000)
            .map(|_| g.sample_node_count(&mut rng, 2))
            .collect();
        let under_1500 = counts.iter().filter(|&&n| n < 1500).count();
        let frac = under_1500 as f64 / counts.len() as f64;
        assert!(
            (0.7..0.92).contains(&frac),
            "paper: ~80 % of class-2 jobs under 1,500 nodes, got {frac}"
        );
    }

    #[test]
    fn class1_walltime_80pct_under_43min() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = JobGenerator::new();
        let walls: Vec<f64> = (0..5000).map(|_| g.sample_walltime(&mut rng, 1)).collect();
        let e = summit_analysis::cdf::Ecdf::new(&walls).unwrap();
        let p80_min = e.percentile(0.8) / 60.0;
        assert!(
            (25.0..60.0).contains(&p80_min),
            "class-1 P80 walltime {p80_min} min should be near the paper's 43"
        );
    }

    #[test]
    fn class5_pileup_at_two_hour_limit() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = JobGenerator::new();
        let walls: Vec<f64> = (0..5000).map(|_| g.sample_walltime(&mut rng, 5)).collect();
        assert!(walls.iter().all(|&w| w <= 7200.0));
        let e = summit_analysis::cdf::Ecdf::new(&walls).unwrap();
        let mass = e.terminal_mass(1.0);
        assert!(
            mass > 0.05,
            "the 120-min wall limit must be visible as terminal mass, got {mass}"
        );
    }

    #[test]
    fn allocation_ids_unique_and_ordered_population() {
        let jobs = population(5000);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.record.allocation_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
        for w in jobs.windows(2) {
            assert!(w[0].record.begin_time <= w[1].record.begin_time);
        }
    }

    #[test]
    fn domains_all_represented() {
        let jobs = population(20_000);
        for (d, c) in count_by_domain(&jobs) {
            assert!(c > 0, "domain {d:?} missing from a 20k population");
        }
    }

    #[test]
    fn profiles_valid_and_seeds_distinct() {
        let jobs = population(1000);
        for j in &jobs {
            j.profile.validate().expect("valid profile");
        }
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len());
    }
}
