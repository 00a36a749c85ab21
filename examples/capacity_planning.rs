//! Facility capacity planning: sweep central-energy-plant design
//! parameters against the simulated 2020 workload and compare annual PUE.
//!
//! This exercises the cross-cutting facility/IT interaction the paper's
//! future-work section motivates: "making the large power consumption
//! visible or deterministic enough to be predictable by the cooling plant
//! can open additional energy savings opportunities".
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::analysis::pue::average_pue;
use summit_repro::analysis::series::Series;
use summit_repro::core::pipeline::{cluster_power_sweep, PopulationScenario};
use summit_repro::core::report::Table;
use summit_repro::sim::facility::{Facility, FacilityConfig};
use summit_repro::sim::spec;
use summit_repro::sim::weather::Weather;

fn annual_pue(it: &Series, cfg: FacilityConfig) -> f64 {
    let weather = Weather::oak_ridge(2020);
    let dt = it.dt();
    let mut fac = Facility::new(cfg, it.values()[0]);
    let mut fac_series = Vec::with_capacity(it.len());
    for (i, &p) in it.values().iter().enumerate() {
        let t = i as f64 * dt;
        let rec = fac.step(t, p, weather.wet_bulb_c(t), dt);
        fac_series.push(rec.facility_power_w);
    }
    average_pue(&Series::new(0.0, dt, fac_series), it)
}

fn main() {
    // Build the year's IT power profile once (hourly resolution).
    let scale = 0.25;
    println!(
        "building the statistical year ({}% of 840k jobs) ...",
        scale * 100.0
    );
    let rows = PopulationScenario::paper_year(scale).artifact().rows;
    let sweep = cluster_power_sweep(&rows, 0.0, spec::YEAR_S, 3600.0);
    let inflate = 1.0 / scale;
    let idle = spec::SYSTEM_IDLE_POWER_W;
    let cap = spec::TOTAL_NODES as f64 * spec::NODE_MAX_POWER_W;
    let it = Series::new(
        0.0,
        3600.0,
        sweep
            .values()
            .iter()
            .map(|&v| (idle + (v - idle) * inflate).min(cap) + 0.6e6)
            .collect(),
    );

    let baseline = FacilityConfig::default();
    let mut t = Table::new(
        "annual PUE under facility design variants",
        &["variant", "annual PUE", "delta vs baseline"],
    );
    let base_pue = annual_pue(&it, baseline);
    let mut row = |name: &str, cfg: FacilityConfig| {
        let p = annual_pue(&it, cfg);
        t.row(vec![
            name.into(),
            format!("{p:.4}"),
            format!("{:+.4}", p - base_pue),
        ]);
    };
    row("baseline (paper-calibrated)", baseline);
    row(
        "better chillers (COP 6.5)",
        FacilityConfig {
            chiller_cop: 6.5,
            ..baseline
        },
    );
    row(
        "worse tower approach (6 K)",
        FacilityConfig {
            tower_approach_k: 6.0,
            ..baseline
        },
    );
    row(
        "tighter tower approach (2.5 K)",
        FacilityConfig {
            tower_approach_k: 2.5,
            ..baseline
        },
    );
    row(
        "low-loss distribution (1%)",
        FacilityConfig {
            distribution_loss_fraction: 0.01,
            ..baseline
        },
    );
    row(
        "aggressive destaging (tau 60 s)",
        FacilityConfig {
            stage_down_tau_s: 60.0,
            ..baseline
        },
    );
    println!("{}", t.render());
    println!("paper anchor: annual PUE 1.11 with evaporative cooling ~80% of the year");
}
