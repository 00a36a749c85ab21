//! Job power-profile fingerprinting and predictive power analytics —
//! the paper's Section 9 future-work plan, implemented.
//!
//! "From the existing 2020 Summit job power dataset, we create
//! fingerprints as vector representations that describe user job power
//! consumption at the OLCF. Fingerprints are then clustered and
//! user-portraits are generated. Queued jobs will assume the average
//! power portrait of the user given job size, job launch arguments, and
//! project ID." — Shin et al., Section 9.
//!
//! Pipeline: per-job power series -> feature vector ([`Fingerprint`]) ->
//! z-normalized k-means clustering ([`KMeans`]) -> per-project portraits
//! ([`PortraitModel`]) -> queued-job power prediction, evaluated against
//! a power-history-only baseline (the paper: "using the power consumption
//! histories alone will most likely be insufficient").

use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use summit_analysis::edges::detect_edges_for_job;
use summit_analysis::fft::dominant_component;
use summit_sim::jobs::SyntheticJob;
use summit_sim::jobstats::job_power_series;
use summit_sim::power::PowerModel;

/// Number of fingerprint features.
pub const FEATURES: usize = 8;

/// A job's power-behaviour fingerprint (per-node normalized so job size
/// does not dominate the geometry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Mean power per node (W).
    pub mean_node_w: f64,
    /// Max power per node (W).
    pub max_node_w: f64,
    /// Relative swing: (max - min) / max over the series.
    pub swing: f64,
    /// Dominant differenced-FFT frequency (Hz; 0 when undefined).
    pub dominant_freq_hz: f64,
    /// Dominant amplitude per node (W).
    pub dominant_amp_node_w: f64,
    /// Edges per hour of walltime.
    pub edges_per_hour: f64,
    /// log10 of walltime in seconds.
    pub log_walltime: f64,
    /// log10 of node count.
    pub log_nodes: f64,
}

impl Fingerprint {
    /// The feature vector.
    pub fn to_vec(self) -> [f64; FEATURES] {
        [
            self.mean_node_w,
            self.max_node_w,
            self.swing,
            self.dominant_freq_hz,
            self.dominant_amp_node_w,
            self.edges_per_hour,
            self.log_walltime,
            self.log_nodes,
        ]
    }
}

/// Extracts a fingerprint from a job by synthesizing its Dataset-3-style
/// power series (10 s resolution).
pub fn extract(job: &SyntheticJob, power_model: &PowerModel) -> Fingerprint {
    let series = job_power_series(job, power_model, 10.0);
    let nodes = job.record.node_count as f64;
    let v = series.values();
    let mean = summit_analysis::stats::nanmean(v);
    let max = summit_analysis::stats::nanmax(v);
    let min = summit_analysis::stats::nanmin(v);
    let swing = if max > 0.0 { (max - min) / max } else { 0.0 };
    let (freq, amp) = match dominant_component(series.diff().values(), 0.1) {
        Some(d) => (d.frequency_hz, d.amplitude),
        None => (0.0, 0.0),
    };
    let edges = detect_edges_for_job(&series, job.record.node_count as usize).len();
    let hours = (job.record.walltime_s() / 3600.0).max(1e-6);
    Fingerprint {
        mean_node_w: mean / nodes,
        max_node_w: max / nodes,
        swing,
        dominant_freq_hz: freq,
        dominant_amp_node_w: amp / nodes,
        edges_per_hour: edges as f64 / hours,
        log_walltime: job.record.walltime_s().max(1.0).log10(),
        log_nodes: nodes.max(1.0).log10(),
    }
}

/// Feature z-normalizer fitted on a sample.
#[derive(Debug, Clone)]
pub struct Normalizer {
    mean: [f64; FEATURES],
    std: [f64; FEATURES],
}

impl Normalizer {
    /// Fits per-feature mean/std (std floors at 1e-9).
    pub fn fit(data: &[[f64; FEATURES]]) -> Self {
        assert!(!data.is_empty(), "cannot normalize an empty sample");
        let n = data.len() as f64;
        let mut mean = [0.0; FEATURES];
        for x in data {
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v / n;
            }
        }
        let mut std = [0.0; FEATURES];
        for x in data {
            for f in 0..FEATURES {
                std[f] += (x[f] - mean[f]).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Self { mean, std }
    }

    /// Applies the normalization.
    pub fn apply(&self, x: &[f64; FEATURES]) -> [f64; FEATURES] {
        let mut out = [0.0; FEATURES];
        for f in 0..FEATURES {
            out[f] = (x[f] - self.mean[f]) / self.std[f];
        }
        out
    }
}

fn sq_dist(a: &[f64; FEATURES], b: &[f64; FEATURES]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Plain k-means with k-means++ seeding (Lloyd iterations).
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids in normalized feature space.
    pub centroids: Vec<[f64; FEATURES]>,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Fits `k` clusters on normalized data.
    ///
    /// # Panics
    /// If `k == 0` or `data.len() < k`.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[[f64; FEATURES]],
        k: usize,
        max_iters: usize,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(data.len() >= k, "need at least k points");

        // k-means++ seeding.
        let mut centroids: Vec<[f64; FEATURES]> = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())]);
        while centroids.len() < k {
            let d2: Vec<f64> = data
                .iter()
                .map(|x| {
                    centroids
                        .iter()
                        .map(|c| sq_dist(x, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let idx = crate::weighted_pick(rng, &d2).unwrap_or(0);
            centroids.push(data[idx]);
        }

        let mut assignment = vec![0usize; data.len()];
        let mut iterations = 0;
        for iter in 0..max_iters {
            iterations = iter + 1;
            // Assign.
            let mut changed = false;
            for (i, x) in data.iter().enumerate() {
                let best = (0..k)
                    .min_by(|&a, &b| {
                        sq_dist(x, &centroids[a]).total_cmp(&sq_dist(x, &centroids[b]))
                    })
                    .unwrap_or(0);
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            // Update.
            let mut sums = vec![[0.0; FEATURES]; k];
            let mut counts = vec![0usize; k];
            for (x, &a) in data.iter().zip(&assignment) {
                counts[a] += 1;
                for f in 0..FEATURES {
                    sums[a][f] += x[f];
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for f in 0..FEATURES {
                        centroids[c][f] = sums[c][f] / counts[c] as f64;
                    }
                }
            }
            if !changed && iter > 0 {
                break;
            }
        }

        let inertia = data
            .iter()
            .zip(&assignment)
            .map(|(x, &a)| sq_dist(x, &centroids[a]))
            .sum();
        Self {
            centroids,
            inertia,
            iterations,
        }
    }

    /// Index of the nearest centroid (0 for a degenerate centroid-free
    /// model, which the constructor prevents).
    pub fn assign(&self, x: &[f64; FEATURES]) -> usize {
        (0..self.centroids.len())
            .min_by(|&a, &b| {
                sq_dist(x, &self.centroids[a]).total_cmp(&sq_dist(x, &self.centroids[b]))
            })
            .unwrap_or(0)
    }
}

/// Per-project power portrait: the average fingerprint of a project's
/// history plus its cluster identity.
#[derive(Debug, Clone)]
pub struct Portrait {
    /// Project identifier (e.g. `MAT003`).
    pub project: String,
    /// Number of jobs in this group.
    pub jobs: usize,
    /// Mean per-node power (W).
    pub mean_node_w: f64,
    /// Max per-node power (W).
    pub max_node_w: f64,
    /// Majority k-means cluster of the project.
    pub cluster: usize,
}

/// The queued-job power predictor.
#[derive(Debug, Clone)]
pub struct PortraitModel {
    portraits: HashMap<String, Portrait>,
    /// Global fallback per-node mean/max power.
    global_mean_node_w: f64,
    global_max_node_w: f64,
    /// The clustering used to label portraits.
    pub kmeans: KMeans,
    /// Normalizer.
    pub normalizer: Normalizer,
}

impl PortraitModel {
    /// Fits portraits from a training set of (job, fingerprint) pairs.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        jobs: &[&SyntheticJob],
        prints: &[Fingerprint],
        k: usize,
    ) -> Self {
        assert_eq!(jobs.len(), prints.len());
        assert!(!jobs.is_empty(), "training set must not be empty");
        let raw: Vec<[f64; FEATURES]> = prints.iter().map(|p| p.to_vec()).collect();
        let normalizer = Normalizer::fit(&raw);
        let normalized: Vec<[f64; FEATURES]> = raw.iter().map(|x| normalizer.apply(x)).collect();
        let kmeans = KMeans::fit(rng, &normalized, k.min(jobs.len()), 50);

        // BTreeMap: portraits are built in project order, and the
        // majority-cluster tie-break below is deterministic.
        let mut acc: BTreeMap<String, (usize, f64, f64, Vec<usize>)> = BTreeMap::new();
        for ((job, print), norm) in jobs.iter().zip(prints).zip(&normalized) {
            let e = acc
                .entry(job.record.project.clone())
                .or_insert((0, 0.0, 0.0, Vec::new()));
            e.0 += 1;
            e.1 += print.mean_node_w;
            e.2 += print.max_node_w;
            e.3.push(kmeans.assign(norm));
        }
        let portraits: HashMap<String, Portrait> = acc
            .into_iter()
            .map(|(project, (n, mean, max, clusters))| {
                // Majority cluster; `max_by_key` keeps the last max, so
                // over a BTreeMap a count tie resolves to the highest
                // cluster index — deterministically.
                let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
                for c in clusters {
                    *counts.entry(c).or_default() += 1;
                }
                let cluster = counts
                    .into_iter()
                    .max_by_key(|&(_, c)| c)
                    .map(|(k, _)| k)
                    .unwrap_or(0);
                (
                    project.clone(),
                    Portrait {
                        project,
                        jobs: n,
                        mean_node_w: mean / n as f64,
                        max_node_w: max / n as f64,
                        cluster,
                    },
                )
            })
            .collect();

        let global_mean = prints.iter().map(|p| p.mean_node_w).sum::<f64>() / prints.len() as f64;
        let global_max = prints.iter().map(|p| p.max_node_w).sum::<f64>() / prints.len() as f64;
        Self {
            portraits,
            global_mean_node_w: global_mean,
            global_max_node_w: global_max,
            kmeans,
            normalizer,
        }
    }

    /// Number of portraits held.
    pub fn len(&self) -> usize {
        self.portraits.len()
    }

    /// True when no portraits were fitted (cannot happen via [`fit`]).
    ///
    /// [`fit`]: PortraitModel::fit
    pub fn is_empty(&self) -> bool {
        self.portraits.is_empty()
    }

    /// Portrait lookup.
    pub fn portrait(&self, project: &str) -> Option<&Portrait> {
        self.portraits.get(project)
    }

    /// Predicts a queued job's mean power (W) from its metadata only —
    /// project id and node count, exactly the paper's proposal.
    pub fn predict_mean_power(&self, job: &SyntheticJob) -> f64 {
        let per_node = self
            .portraits
            .get(&job.record.project)
            .map(|p| p.mean_node_w)
            .unwrap_or(self.global_mean_node_w);
        per_node * job.record.node_count as f64
    }

    /// Predicts a queued job's max power (W).
    pub fn predict_max_power(&self, job: &SyntheticJob) -> f64 {
        let per_node = self
            .portraits
            .get(&job.record.project)
            .map(|p| p.max_node_w)
            .unwrap_or(self.global_max_node_w);
        per_node * job.record.node_count as f64
    }
}

/// Mean absolute percentage error.
pub fn mape(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs
        .iter()
        .map(|(pred, actual)| ((pred - actual) / actual).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

/// End-to-end evaluation of the fingerprint predictor on a train/test
/// split, against the history-only baseline (predict every job at the
/// global average per-node power — what a model without job metadata can
/// do at queue time).
#[derive(Debug, Clone)]
pub struct PredictionReport {
    /// Training-set size.
    pub train_jobs: usize,
    /// Test-set size.
    pub test_jobs: usize,
    /// k-means cluster count.
    pub clusters: usize,
    /// Portrait predictor MAPE on mean power.
    pub portrait_mape_mean: f64,
    /// Portrait predictor MAPE on max power.
    pub portrait_mape_max: f64,
    /// History-only baseline MAPE on mean power.
    pub baseline_mape_mean: f64,
    /// History-only baseline MAPE on max power.
    pub baseline_mape_max: f64,
    /// Final within-cluster sum of squares.
    pub kmeans_inertia: f64,
}

/// Runs the evaluation: fingerprints all jobs, splits 70/30, fits
/// portraits on the training split, and scores both predictors.
pub fn evaluate<R: Rng + ?Sized>(
    rng: &mut R,
    jobs: &[SyntheticJob],
    power_model: &PowerModel,
    k: usize,
) -> PredictionReport {
    assert!(jobs.len() >= 20, "need a meaningful population");
    use rayon::prelude::*;
    let prints: Vec<Fingerprint> = jobs.par_iter().map(|j| extract(j, power_model)).collect();

    let split = jobs.len() * 7 / 10;
    let train_jobs: Vec<&SyntheticJob> = jobs[..split].iter().collect();
    let train_prints = &prints[..split];
    let model = PortraitModel::fit(rng, &train_jobs, train_prints, k);

    let mut portrait_mean = Vec::new();
    let mut portrait_max = Vec::new();
    let mut baseline_mean = Vec::new();
    let mut baseline_max = Vec::new();
    for (job, print) in jobs[split..].iter().zip(&prints[split..]) {
        let actual_mean = print.mean_node_w * job.record.node_count as f64;
        let actual_max = print.max_node_w * job.record.node_count as f64;
        if actual_mean <= 0.0 || actual_max <= 0.0 {
            continue;
        }
        portrait_mean.push((model.predict_mean_power(job), actual_mean));
        portrait_max.push((model.predict_max_power(job), actual_max));
        baseline_mean.push((
            model.global_mean_node_w * job.record.node_count as f64,
            actual_mean,
        ));
        baseline_max.push((
            model.global_max_node_w * job.record.node_count as f64,
            actual_max,
        ));
    }

    PredictionReport {
        train_jobs: split,
        test_jobs: jobs.len() - split,
        clusters: model.kmeans.centroids.len(),
        portrait_mape_mean: mape(&portrait_mean),
        portrait_mape_max: mape(&portrait_max),
        baseline_mape_mean: mape(&baseline_mean),
        baseline_mape_max: mape(&baseline_max),
        kmeans_inertia: model.kmeans.inertia,
    }
}

impl PredictionReport {
    /// Renders the evaluation summary.
    pub fn render(&self) -> String {
        let mut t = crate::report::Table::new(
            "Job power-profile fingerprinting (paper Section 9 future work)",
            &["predictor", "mean-power MAPE", "max-power MAPE"],
        );
        t.row(vec![
            format!("project portraits (k={})", self.clusters),
            crate::report::pct(self.portrait_mape_mean),
            crate::report::pct(self.portrait_mape_max),
        ]);
        t.row(vec![
            "history-only baseline".into(),
            crate::report::pct(self.baseline_mape_mean),
            crate::report::pct(self.baseline_mape_max),
        ]);
        let mut s = t.render();
        s.push_str(&format!(
            "\ntrain {} / test {} jobs; k-means inertia {:.1}\n\
             paper: \"power consumption histories alone will most likely be insufficient\";\n\
             portraits mediated by job metadata should beat the history-only baseline\n",
            self.train_jobs, self.test_jobs, self.kmeans_inertia
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use summit_sim::jobs::JobGenerator;

    fn population(n: usize) -> (Vec<SyntheticJob>, PowerModel) {
        let mut rng = StdRng::seed_from_u64(31);
        let mut gen = JobGenerator::new();
        (
            gen.generate_population(&mut rng, n, 0.0, 30.0 * 86400.0),
            PowerModel::new(31),
        )
    }

    #[test]
    fn fingerprints_are_finite_and_scaled() {
        let (jobs, pm) = population(100);
        for job in &jobs {
            let f = extract(job, &pm);
            for v in f.to_vec() {
                assert!(v.is_finite(), "feature must be finite for {job:?}");
            }
            assert!(f.mean_node_w > 100.0 && f.mean_node_w < 2400.0);
            assert!(f.max_node_w >= f.mean_node_w - 1e-6);
            assert!((0.0..=1.0).contains(&f.swing));
        }
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Vec::new();
        for i in 0..60 {
            let jitter = (i % 7) as f64 * 0.01;
            let mut a = [0.0; FEATURES];
            a[0] = 0.0 + jitter;
            let mut b = [0.0; FEATURES];
            b[0] = 10.0 + jitter;
            data.push(a);
            data.push(b);
        }
        let km = KMeans::fit(&mut rng, &data, 2, 50);
        let c0 = km.assign(&{
            let mut x = [0.0; FEATURES];
            x[0] = 0.05;
            x
        });
        let c1 = km.assign(&{
            let mut x = [0.0; FEATURES];
            x[0] = 9.9;
            x
        });
        assert_ne!(c0, c1, "well-separated clusters must split");
        assert!(km.inertia < 1.0, "inertia {}", km.inertia);
    }

    #[test]
    fn kmeans_inertia_decreases_with_k() {
        let (jobs, pm) = population(150);
        let raw: Vec<[f64; FEATURES]> = jobs.iter().map(|j| extract(j, &pm).to_vec()).collect();
        let norm = Normalizer::fit(&raw);
        let data: Vec<[f64; FEATURES]> = raw.iter().map(|x| norm.apply(x)).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let i2 = KMeans::fit(&mut rng, &data, 2, 50).inertia;
        let mut rng = StdRng::seed_from_u64(2);
        let i8 = KMeans::fit(&mut rng, &data, 8, 50).inertia;
        assert!(i8 < i2, "more clusters must reduce inertia ({i8} vs {i2})");
    }

    #[test]
    fn portraits_beat_history_only_baseline() {
        let (jobs, pm) = population(1200);
        let mut rng = StdRng::seed_from_u64(3);
        let report = evaluate(&mut rng, &jobs, &pm, 6);
        assert!(report.portrait_mape_mean.is_finite());
        assert!(
            report.portrait_mape_mean < report.baseline_mape_mean,
            "portraits {} must beat baseline {}",
            report.portrait_mape_mean,
            report.baseline_mape_mean
        );
        assert!(
            report.portrait_mape_max < report.baseline_mape_max,
            "max-power prediction must also improve"
        );
        let s = report.render();
        assert!(s.contains("MAPE"));
    }

    #[test]
    fn unknown_project_falls_back_to_global() {
        let (jobs, pm) = population(100);
        let prints: Vec<Fingerprint> = jobs.iter().map(|j| extract(j, &pm)).collect();
        let refs: Vec<&SyntheticJob> = jobs.iter().collect();
        let mut rng = StdRng::seed_from_u64(4);
        let model = PortraitModel::fit(&mut rng, &refs, &prints, 4);
        let mut stranger = jobs[0].clone();
        stranger.record.project = "ZZZ999".into();
        let pred = model.predict_mean_power(&stranger);
        assert!(pred > 0.0);
        assert!(model.portrait("ZZZ999").is_none());
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let data = vec![
            {
                let mut x = [0.0; FEATURES];
                x[0] = 1.0;
                x
            },
            {
                let mut x = [0.0; FEATURES];
                x[0] = 3.0;
                x
            },
        ];
        let n = Normalizer::fit(&data);
        let a = n.apply(&data[0]);
        let b = n.apply(&data[1]);
        assert!((a[0] + 1.0).abs() < 1e-9);
        assert!((b[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mape_basics() {
        assert!((mape(&[(110.0, 100.0), (90.0, 100.0)]) - 0.1).abs() < 1e-12);
        assert!(mape(&[]).is_nan());
    }
}
