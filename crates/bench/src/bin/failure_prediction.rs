//! Trains and scores the GPU failure predictor (related work [23]/[24]).
use summit_bench::{fidelity, header, Fidelity};
use summit_core::failure_prediction::evaluate;
use summit_core::pipeline::FailureScenario;
use summit_sim::failures::ThermalRegime;

fn main() {
    let f = fidelity();
    header("GPU failure prediction", f);
    let weeks = match f {
        Fidelity::Quick => 4.0,
        Fidelity::Full => 26.0,
    };
    let year = FailureScenario { weeks, seed: 17 }.generate(ThermalRegime::SummitLiquidCooled);
    println!("labeling {} jobs over {weeks} weeks ...", year.jobs.len());
    let report = evaluate(&year.jobs, &year.events);
    println!("{}", report.render());
}
