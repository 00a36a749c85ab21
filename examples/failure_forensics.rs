//! GPU failure forensics: generate a synthetic XID error log and run the
//! paper's Section 6 analyses — composition, co-occurrence, placement and
//! thermal extremity.
//!
//! ```sh
//! cargo run --release --example failure_forensics
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::analysis::correlation::CorrelationMatrix;
use summit_repro::analysis::zscore::ExtremitySummary;
use summit_repro::core::pipeline::FailureScenario;
use summit_repro::core::report::{bar, pct, Table};
use summit_repro::sim::failures::{
    count_by_kind, max_node_share, node_count_matrix, ThermalRegime,
};
use summit_repro::sim::spec::TOTAL_NODES;
use summit_repro::telemetry::records::XidErrorKind;

fn main() {
    // Twelve weeks of paper-rate traffic.
    let weeks = 12.0;
    let year = FailureScenario { weeks, seed: 42 }.generate(ThermalRegime::SummitLiquidCooled);
    println!("generating {} jobs over {weeks} weeks ...", year.jobs.len());
    let events = year.events;
    println!("{} XID events generated\n", events.len());

    // Composition (Table 4 shape).
    let counts = count_by_kind(&events);
    let shares = max_node_share(&events, TOTAL_NODES);
    let mut t = Table::new("failure composition", &["kind", "count", "max/node", ""]);
    let max_count = *counts.iter().max().unwrap() as f64;
    for kind in XidErrorKind::ALL {
        if counts[kind.index()] == 0 {
            continue;
        }
        t.row(vec![
            kind.name().into(),
            counts[kind.index()].to_string(),
            pct(shares[kind.index()]),
            bar(
                (counts[kind.index()] as f64).ln().max(0.0),
                max_count.ln(),
                24,
            ),
        ]);
    }
    println!("{}", t.render());

    // Co-occurrence (Figure 13 shape).
    let matrix = node_count_matrix(&events, TOTAL_NODES);
    let corr = CorrelationMatrix::compute(&matrix, 0.05);
    println!("significant co-occurrences (Bonferroni 0.05):");
    for p in corr.significant_pairs().iter().take(8) {
        println!(
            "  r={:+.2}  {} x {}",
            p.r,
            XidErrorKind::ALL[p.i].name(),
            XidErrorKind::ALL[p.j].name()
        );
    }

    // Thermal extremity (Figure 15 shape).
    println!("\nthermal extremity by kind (z-scores):");
    for kind in [
        XidErrorKind::DoubleBitError,
        XidErrorKind::FallenOffTheBus,
        XidErrorKind::MemoryPageFault,
        XidErrorKind::GraphicsEngineFault,
    ] {
        let zs: Vec<f64> = events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.temp_zscore)
            .collect();
        if let Some(s) = ExtremitySummary::compute(&zs) {
            println!(
                "  {:<34} n={:<6} skew={:+.2} ({})",
                kind.name(),
                s.count,
                s.skewness,
                s.skew_label()
            );
        }
    }
    println!("\npaper: overheating is NOT a significant factor; cold-start kinds skew right");
}
