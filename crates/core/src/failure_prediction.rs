//! GPU failure prediction from job features — the direction of the
//! paper's related work ([23] Nie et al., DSN'18; [24]) brought into the
//! reproduction: a from-scratch logistic-regression classifier that
//! predicts whether a job will encounter at least one GPU XID event, from
//! queue-time features only (size, walltime, workload fingerprint,
//! project history).
//!
//! The generator's ground truth makes the hypothesis testable: failure
//! intensity scales with node-hours and per-project/domain multipliers,
//! so a well-calibrated model must recover that structure.

use std::collections::HashSet;
use summit_sim::apps::{domain_character, project_failure_multiplier};
use summit_sim::jobs::SyntheticJob;
use summit_telemetry::records::XidEvent;

/// Number of model features (plus intercept handled internally).
pub const FEATURES: usize = 6;

/// Queue-time feature vector for one job.
pub fn job_features(job: &SyntheticJob) -> [f64; FEATURES] {
    [
        (job.record.node_hours().max(1e-3)).ln(),
        (job.record.node_count as f64).ln(),
        (job.record.walltime_s().max(1.0)).ln(),
        job.profile.gpu_intensity,
        domain_character(job.record.domain).failure_multiplier,
        project_failure_multiplier(&job.record.project),
    ]
}

/// Labels jobs: true when at least one XID event was attributed to the
/// job's allocation.
pub fn label_jobs(jobs: &[SyntheticJob], events: &[XidEvent]) -> Vec<bool> {
    let hit: HashSet<u64> = events
        .iter()
        .filter_map(|e| e.allocation_id.map(|a| a.0))
        .collect();
    jobs.iter()
        .map(|j| hit.contains(&j.record.allocation_id.0))
        .collect()
}

/// A logistic-regression model trained by batch gradient descent with L2
/// regularization, on z-normalized features.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    weights: [f64; FEATURES],
    bias: f64,
    feat_mean: [f64; FEATURES],
    feat_std: [f64; FEATURES],
    /// Training epochs executed.
    pub epochs: usize,
    /// Final training loss (mean negative log-likelihood + L2).
    pub final_loss: f64,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticModel {
    /// Trains on (features, label) pairs.
    ///
    /// # Panics
    /// If the training set is empty or single-class.
    pub fn train(
        data: &[[f64; FEATURES]],
        labels: &[bool],
        epochs: usize,
        learning_rate: f64,
        l2: f64,
    ) -> Self {
        assert_eq!(data.len(), labels.len());
        assert!(!data.is_empty(), "empty training set");
        let positives = labels.iter().filter(|&&l| l).count();
        assert!(
            positives > 0 && positives < labels.len(),
            "training set must contain both classes (got {positives}/{})",
            labels.len()
        );

        // Normalize features.
        let n = data.len() as f64;
        let mut mean = [0.0; FEATURES];
        for x in data {
            for f in 0..FEATURES {
                mean[f] += x[f] / n;
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
        let norm: Vec<[f64; FEATURES]> = data
            .iter()
            .map(|x| {
                let mut out = [0.0; FEATURES];
                for f in 0..FEATURES {
                    out[f] = (x[f] - mean[f]) / std[f];
                }
                out
            })
            .collect();

        let mut w = [0.0f64; FEATURES];
        let mut b = 0.0f64;
        let mut loss = f64::INFINITY;
        let mut epochs_run = 0;
        for epoch in 0..epochs {
            epochs_run = epoch + 1;
            let mut grad_w = [0.0f64; FEATURES];
            let mut grad_b = 0.0f64;
            let mut nll = 0.0f64;
            for (x, &y) in norm.iter().zip(labels) {
                let z = b + w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>();
                let p = sigmoid(z);
                let t = if y { 1.0 } else { 0.0 };
                let err = p - t;
                for (g, xi) in grad_w.iter_mut().zip(x) {
                    *g += err * xi / n;
                }
                grad_b += err / n;
                nll -= t * p.max(1e-12).ln() + (1.0 - t) * (1.0 - p).max(1e-12).ln();
            }
            for f in 0..FEATURES {
                grad_w[f] += l2 * w[f];
                w[f] -= learning_rate * grad_w[f];
            }
            b -= learning_rate * grad_b;
            let new_loss = nll / n + 0.5 * l2 * w.iter().map(|wi| wi * wi).sum::<f64>();
            if (loss - new_loss).abs() < 1e-9 {
                loss = new_loss;
                break;
            }
            loss = new_loss;
        }

        Self {
            weights: w,
            bias: b,
            feat_mean: mean,
            feat_std: std,
            epochs: epochs_run,
            final_loss: loss,
        }
    }

    /// Predicted failure probability for a feature vector.
    pub fn predict(&self, x: &[f64; FEATURES]) -> f64 {
        let mut z = self.bias;
        for (((w, xi), m), sd) in self
            .weights
            .iter()
            .zip(x)
            .zip(&self.feat_mean)
            .zip(&self.feat_std)
        {
            z += w * (xi - m) / sd;
        }
        sigmoid(z)
    }

    /// The learned (normalized-space) weights.
    pub fn weights(&self) -> &[f64; FEATURES] {
        &self.weights
    }
}

/// Area under the ROC curve via the rank statistic (Mann-Whitney U).
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let mut pairs: Vec<(f64, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n_pos = labels.iter().filter(|&&l| l).count() as f64;
    let n_neg = labels.len() as f64 - n_pos;
    if n_pos == 0.0 || n_neg == 0.0 {
        return f64::NAN;
    }
    // Average ranks over ties.
    let mut rank_sum_pos = 0.0;
    let mut i = 0usize;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for p in &pairs[i..=j] {
            if p.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

/// End-to-end evaluation report.
#[derive(Debug, Clone)]
pub struct FailurePredictionReport {
    /// Training-set size.
    pub train_jobs: usize,
    /// Test-set size.
    pub test_jobs: usize,
    /// Positive-class prevalence in the test set.
    pub prevalence: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Accuracy at the 0.5 threshold.
    pub accuracy_at_half: f64,
    /// Feature weights in the order of [`job_features`].
    pub weights: [f64; FEATURES],
}

/// Labels `jobs` by the XID `events` drawn over them, splits 70/30,
/// trains and scores the classifier.
pub fn evaluate(jobs: &[SyntheticJob], events: &[XidEvent]) -> FailurePredictionReport {
    assert!(jobs.len() >= 50, "need a meaningful population");
    let labels = label_jobs(jobs, events);
    let features: Vec<[f64; FEATURES]> = jobs.iter().map(job_features).collect();

    let split = jobs.len() * 7 / 10;
    let clf = LogisticModel::train(&features[..split], &labels[..split], 400, 0.5, 1e-4);

    let scores: Vec<f64> = features[split..].iter().map(|x| clf.predict(x)).collect();
    let test_labels = &labels[split..];
    let correct = scores
        .iter()
        .zip(test_labels)
        .filter(|(s, &l)| (**s >= 0.5) == l)
        .count();
    let prevalence = test_labels.iter().filter(|&&l| l).count() as f64 / test_labels.len() as f64;

    FailurePredictionReport {
        train_jobs: split,
        test_jobs: jobs.len() - split,
        prevalence,
        auc: auc(&scores, test_labels),
        accuracy_at_half: correct as f64 / scores.len() as f64,
        weights: *clf.weights(),
    }
}

impl FailurePredictionReport {
    /// Renders the evaluation.
    pub fn render(&self) -> String {
        let mut t = crate::report::Table::new(
            "GPU failure prediction from queue-time features (related work [23])",
            &["quantity", "value"],
        );
        t.row(vec![
            "train / test jobs".into(),
            format!("{} / {}", self.train_jobs, self.test_jobs),
        ]);
        t.row(vec![
            "failure prevalence".into(),
            crate::report::pct(self.prevalence),
        ]);
        t.row(vec!["ROC AUC".into(), format!("{:.3}", self.auc)]);
        t.row(vec![
            "accuracy @ 0.5".into(),
            crate::report::pct(self.accuracy_at_half),
        ]);
        let names = [
            "ln(node-hours)",
            "ln(nodes)",
            "ln(walltime)",
            "gpu intensity",
            "domain multiplier",
            "project multiplier",
        ];
        for (name, w) in names.iter().zip(self.weights) {
            t.row(vec![format!("weight: {name}"), format!("{w:+.3}")]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use summit_sim::failures::{FailureModel, ThermalRegime};
    use summit_sim::jobs::JobGenerator;
    use summit_sim::spec::TOTAL_NODES;

    fn report() -> FailurePredictionReport {
        let span = 4.0 * 7.0 * 86400.0;
        let mut rng = StdRng::seed_from_u64(17);
        let mut gen = JobGenerator::new();
        let n_jobs = (840_000.0 * span / summit_sim::spec::YEAR_S) as usize;
        let jobs = gen.generate_population(&mut rng, n_jobs.min(30_000), 0.0, span);
        let model = FailureModel::new(ThermalRegime::SummitLiquidCooled, TOTAL_NODES);
        let events = model.generate(&mut rng, &jobs, TOTAL_NODES, 0.0, span);
        evaluate(&jobs, &events)
    }

    #[test]
    fn auc_rank_statistic_correct() {
        // Perfect separation.
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &[false, false, true, true]), 1.0);
        // Random-equivalent.
        let a = auc(&[0.5, 0.5, 0.5, 0.5], &[false, true, false, true]);
        assert!((a - 0.5).abs() < 1e-12);
        // Inverted.
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &[false, false, true, true]), 0.0);
        assert!(auc(&[0.5], &[true]).is_nan());
    }

    #[test]
    fn model_learns_the_generator_structure() {
        let r = report();
        assert!(
            r.auc > 0.75,
            "node-hours x multipliers drive failures; AUC {} too low",
            r.auc
        );
        assert!(r.accuracy_at_half >= r.prevalence.max(1.0 - r.prevalence) - 0.05);
        // Exposure must carry positive weight.
        assert!(
            r.weights[0] > 0.0,
            "ln(node-hours) should predict failures, weight {}",
            r.weights[0]
        );
    }

    #[test]
    fn logistic_training_converges_on_synthetic() {
        // y = 1 iff x0 > 0 (clean separation in one feature).
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let x0 = (i as f64 - 100.0) / 30.0;
            let mut x = [0.0; FEATURES];
            x[0] = x0;
            data.push(x);
            labels.push(x0 > 0.0);
        }
        let m = LogisticModel::train(&data, &labels, 500, 1.0, 1e-5);
        assert!(m.weights()[0] > 1.0, "separating weight {}", m.weights()[0]);
        let mut hi = [0.0; FEATURES];
        hi[0] = 2.0;
        let mut lo = [0.0; FEATURES];
        lo[0] = -2.0;
        assert!(m.predict(&hi) > 0.9);
        assert!(m.predict(&lo) < 0.1);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn training_rejects_single_class() {
        let data = vec![[0.0; FEATURES]; 10];
        let labels = vec![true; 10];
        LogisticModel::train(&data, &labels, 10, 0.1, 0.0);
    }
}
