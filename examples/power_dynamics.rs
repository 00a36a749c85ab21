//! Power-dynamics study on a synthetic job population: rising/falling
//! edge statistics and dominant swing frequencies, the Section 4.2
//! analysis of the paper.
//!
//! ```sh
//! cargo run --release --example power_dynamics
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::analysis::edges::{detect_edges_for_job, EDGE_THRESHOLD_W_PER_NODE};
use summit_repro::analysis::fft::dominant_component;
use summit_repro::core::pipeline::{PopulationScenario, POPULATION_SEED};
use summit_repro::core::report::{pct, Table};
use summit_repro::sim::jobstats::job_power_series;
use summit_repro::sim::power::PowerModel;

fn main() {
    let scenario = PopulationScenario::paper_year(0.002); // ~1,700 jobs
    let jobs = scenario.generate();
    let pm = PowerModel::new(POPULATION_SEED);
    println!(
        "analyzing {} jobs (edge threshold {} W/node per 10 s) ...",
        jobs.len(),
        EDGE_THRESHOLD_W_PER_NODE
    );

    let mut edge_free = 0usize;
    let mut per_class: Vec<(usize, usize, Vec<f64>, Vec<f64>)> =
        (0..5).map(|_| (0, 0, Vec::new(), Vec::new())).collect();
    for job in &jobs {
        let series = job_power_series(job, &pm, 10.0);
        let edges = detect_edges_for_job(&series, job.record.node_count as usize);
        let slot = &mut per_class[(job.class() - 1) as usize];
        slot.0 += 1;
        if edges.is_empty() {
            edge_free += 1;
            continue;
        }
        slot.1 += 1;
        slot.2
            .extend(edges.iter().filter_map(|e| e.duration_s.map(|d| d / 60.0)));
        if let Some(dom) = dominant_component(series.diff().values(), 0.1) {
            slot.3.push(dom.frequency_hz);
        }
    }

    let mut t = Table::new(
        "edge behaviour per scheduling class",
        &[
            "class",
            "jobs",
            "with edges",
            "median edge duration (min)",
            "median dominant freq (Hz)",
        ],
    );
    for (i, (jobs_n, with_edges, durations, freqs)) in per_class.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            jobs_n.to_string(),
            with_edges.to_string(),
            format!("{:.1}", summit_repro::analysis::stats::median(durations)),
            format!("{:.4}", summit_repro::analysis::stats::median(freqs)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "edge-free jobs: {} (paper reports 96.9%); the dominant period clusters near 200 s",
        pct(edge_free as f64 / jobs.len() as f64)
    );
}
