//! Paper-fidelity smoke tests (full floor / year populations).
//!
//! These take minutes each, so they are `#[ignore]`d by default; run
//! them with `cargo test --release --test full_fidelity -- --ignored`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::cache::ScenarioCache;
use summit_repro::core::experiments::*;

#[test]
#[ignore = "paper-scale: full 840k-job year (~30 s)"]
fn full_year_trend_hits_paper_anchors() {
    let r = fig05::run(
        &ScenarioCache::new(),
        &fig05::Config {
            population_scale: 1.0,
            dt_s: 600.0,
            maintenance_days: Some((34.0, 41.0)),
        },
    )
    .unwrap();
    assert!(
        (1.08..1.16).contains(&r.annual_avg_pue),
        "PUE {}",
        r.annual_avg_pue
    );
    assert!(r.summer_avg_pue > r.annual_avg_pue);
    assert!(r.maintenance_peak_pue > 1.25);
    assert!(
        (4.5e6..7.5e6).contains(&r.mean_power_w),
        "mean {}",
        r.mean_power_w
    );
    assert!(r.max_power_w > 9.0e6, "peak {}", r.max_power_w);
    assert!(r.min_power_w >= 2.4e6);
}

#[test]
#[ignore = "paper-scale: full floor, 1-7 MW edges (~1 min)"]
fn full_floor_edge_snapshots() {
    let r = fig11::run(
        &ScenarioCache::new(),
        &fig11::Config {
            cabinets: 257,
            amplitudes_mw: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            repeats: 3,
            burst_duration_s: 180.0,
            spacing_s: 600.0,
        },
    )
    .unwrap();
    assert!(r.classes.len() >= 5, "most MW classes detected");
    let biggest = r.classes.last().unwrap();
    assert!(biggest.amplitude_mw >= 6.0);
    assert!(biggest.rise_in_60s_w > 5.0e6, "7 MW swing rises fast");
    for c in &r.classes {
        assert!(c.power_pue_r < -0.5, "inverse PUE at {} MW", c.amplitude_mw);
    }
    assert!(r.pue_at_peak < r.pue_at_baseline);
}

#[test]
#[ignore = "paper-scale: full floor thermal response (~1 min)"]
fn full_floor_thermal_response() {
    // Only the 4 and 7 MW classes; `experiments fig12 --full` runs
    // fig11's full 1-7 MW schedule instead.
    let r = fig12::run(
        &ScenarioCache::new(),
        &fig12::Config {
            burst: fig11::Config {
                cabinets: 257,
                amplitudes_mw: vec![4.0, 7.0],
                repeats: 3,
                burst_duration_s: 180.0,
                spacing_s: 600.0,
            },
        },
    )
    .unwrap();
    assert!(r.gpu_swing_c > 10.0, "GPU swing {}", r.gpu_swing_c);
    assert!(r.gpu_swing_c > 3.0 * r.cpu_swing_c.abs());
    assert!(
        (30.0..200.0).contains(&r.cooling_half_response_s),
        "cooling response {}",
        r.cooling_half_response_s
    );
}

#[test]
#[ignore = "paper-scale: 4,608-node exemplar job (~2 min)"]
fn full_floor_job_variability() {
    let r = fig17::run(&fig17::Config {
        cabinets: 257,
        job_duration_s: 21.5 * 60.0,
        stride_s: 10.0,
        missing_cabinet: Some(140),
        seed: 2020,
    })
    .unwrap();
    assert_eq!(r.job_nodes, summit_repro::sim::spec::MAX_JOB_NODES);
    assert!(
        (30.0..90.0).contains(&r.peak_power_spread_w),
        "62 W anchor, got {}",
        r.peak_power_spread_w
    );
    assert!(
        (8.0..25.0).contains(&r.peak_temp_spread_c),
        "15.8 C anchor, got {}",
        r.peak_temp_spread_c
    );
    assert!(r.frac_over_60c < 0.02);
    assert!(r.transition_s < 30.0, "under half a minute");
}

#[test]
#[ignore = "paper-scale: full failure year (~30 s)"]
fn full_year_failure_composition() {
    let r = table4::run(
        &ScenarioCache::new(),
        &table4::Config {
            weeks: 52.3,
            seed: 2020,
        },
    )
    .unwrap();
    assert!(
        (r.total_annual / r.paper_total as f64 - 1.0).abs() < 0.2,
        "annual total {} vs paper {}",
        r.total_annual,
        r.paper_total
    );
    let nvlink = r
        .rows
        .iter()
        .find(|row| row.kind == summit_repro::telemetry::records::XidErrorKind::NvlinkError)
        .unwrap();
    assert!(nvlink.max_node_share > 0.9);
}
