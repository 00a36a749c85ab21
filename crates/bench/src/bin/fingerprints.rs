//! Runs the Section 9 future-work pipeline: job power fingerprinting,
//! k-means portraits, and queued-job power prediction vs the
//! history-only baseline.
use rand::rngs::StdRng;
use rand::SeedableRng;
use summit_bench::{fidelity, header, Fidelity};
use summit_core::fingerprint::evaluate;
use summit_core::pipeline::{PopulationScenario, POPULATION_SEED};
use summit_sim::power::PowerModel;

fn main() {
    let f = fidelity();
    header("job power fingerprints (Section 9 future work)", f);
    let scale = match f {
        Fidelity::Quick => 0.002,
        Fidelity::Full => 0.02,
    };
    let scenario = PopulationScenario::paper_year(scale);
    let jobs = scenario.generate();
    println!("fingerprinting {} jobs ...", jobs.len());
    let pm = PowerModel::new(POPULATION_SEED);
    let mut rng = StdRng::seed_from_u64(POPULATION_SEED);
    let report = evaluate(&mut rng, &jobs, &pm, 8);
    println!("{}", report.render());
}
