//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Compression stages** — raw varint vs delta vs delta+RLE on real
//!    telemetry columns (the paper's "several lossless data compression
//!    methods").
//! 2. **Coarsening window** — information loss vs window length (the
//!    paper chose 10 s and kept min/max/mean/std to "avoid information
//!    loss").
//! 3. **Edge threshold** — sensitivity of the edge-free job fraction to
//!    the 868 W/node definition.
//! 4. **Cooling destaging** — the effect of the slow destaging time
//!    constant on post-falling-edge cooling overshoot (the paper's
//!    future-work tuning target).

use summit_bench::{fidelity, header, Fidelity};
use summit_core::pipeline::{PopulationScenario, POPULATION_SEED};
use summit_core::report::{pct, Table};
use summit_sim::engine::{Engine, EngineConfig, StepOptions};
use summit_sim::facility::{Facility, FacilityConfig};
use summit_sim::jobstats::job_power_series;
use summit_sim::power::PowerModel;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::codec::{encode_column, encode_column_delta_only, encode_column_raw_varint};

fn codec_ablation(cabinets: usize) {
    // Real telemetry columns from an engine run.
    let mut engine = Engine::new(EngineConfig::small(cabinets), 0.0);
    let mut engine_col: Vec<i64> = Vec::new();
    let mut temp_col: Vec<i64> = Vec::new();
    let mut batch = FrameBatch::new();
    for _ in 0..600 {
        engine.step_batch(&StepOptions { frames: true }, &mut batch);
        if batch.is_empty() {
            continue;
        }
        let f = batch.read_frame(0);
        engine_col.push(f.get(summit_telemetry::catalog::input_power()).round() as i64);
        temp_col.push(
            (f.get(summit_telemetry::catalog::gpu_core_temp(
                summit_telemetry::ids::GpuSlot(0),
            )) * 10.0)
                .round() as i64,
        );
    }
    let mut t = Table::new(
        "ablation 1: compression stages (bytes per 600-sample column)",
        &["column", "raw 8B", "varint", "+delta", "+delta+RLE"],
    );
    for (name, col) in [
        ("input_power (W)", &engine_col),
        ("gpu0_core_temp (0.1C)", &temp_col),
    ] {
        let sz = |f: &dyn Fn(&[i64], &mut bytes::BytesMut)| {
            let mut b = bytes::BytesMut::new();
            f(col, &mut b);
            b.len()
        };
        t.row(vec![
            name.into(),
            (col.len() * 8).to_string(),
            sz(&encode_column_raw_varint).to_string(),
            sz(&encode_column_delta_only).to_string(),
            sz(&|c, b| encode_column(c, b)).to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn window_ablation(cabinets: usize) {
    // Ground truth: 1 Hz cluster power; coarsen at various windows and
    // measure how much of the true peak the window means retain.
    let run = summit_core::pipeline::quick_dynamics(cabinets, 900.0);
    let truth = run.true_power_series();
    let true_peak = summit_analysis::stats::nanmax(truth.values());
    let true_mean = summit_analysis::stats::nanmean(truth.values());
    let mut t = Table::new(
        "ablation 2: coarsening window vs information retention",
        &["window", "peak retained (window means)", "mean error"],
    );
    for w in [1usize, 10, 30, 60, 300] {
        let coarse = truth.downsample_mean(w);
        let peak = summit_analysis::stats::nanmax(coarse.values());
        let mean = summit_analysis::stats::nanmean(coarse.values());
        t.row(vec![
            format!("{w} s"),
            pct(peak / true_peak),
            pct((mean - true_mean).abs() / true_mean),
        ]);
    }
    let mut s = t.render();
    s.push_str(
        "paper: 10 s windows keep min/max/mean/std so peaks survive coarsening;\n\
         plain means at long windows shave the peaks\n",
    );
    println!("{s}");
}

fn edge_threshold_ablation(scale: f64) {
    let scenario = PopulationScenario::paper_year(scale);
    let jobs = scenario.generate();
    let pm = PowerModel::new(POPULATION_SEED);
    let mut t = Table::new(
        "ablation 3: edge-threshold sensitivity",
        &["threshold (W/node)", "edge-free jobs"],
    );
    for thr in [400.0, 600.0, 868.0, 1200.0, 1600.0] {
        let edge_free = jobs
            .iter()
            .filter(|job| {
                let series = job_power_series(job, &pm, 10.0);
                summit_analysis::edges::detect_edges(&series, thr * job.record.node_count as f64)
                    .is_empty()
            })
            .count();
        t.row(vec![
            format!("{thr:.0}"),
            pct(edge_free as f64 / jobs.len() as f64),
        ]);
    }
    let mut s = t.render();
    s.push_str("paper definition: 868 W/node per 10 s => 96.9% edge-free\n");
    println!("{s}");
}

fn destaging_ablation() {
    // Step a settled plant down 4 MW and integrate the excess cooling
    // delivered after the fall (overcooling energy) for different
    // destaging time constants.
    let mut t = Table::new(
        "ablation 4: cooling destaging time constant",
        &[
            "stage_down_tau (s)",
            "overcooling after 4 MW fall (ton-minutes)",
        ],
    );
    for tau in [60.0, 120.0, 200.0, 400.0] {
        let cfg = FacilityConfig {
            stage_down_tau_s: tau,
            ..Default::default()
        };
        let mut fac = Facility::new(cfg, 8e6);
        for i in 0..500 {
            fac.step(i as f64 * 10.0, 8e6, 10.0, 10.0);
        }
        // Fall to 4 MW; integrate cooling beyond the 4 MW requirement.
        let need_tons = 4e6 / summit_sim::spec::WATTS_PER_TON;
        let mut overcool = 0.0;
        for i in 0..120 {
            let rec = fac.step(5000.0 + i as f64 * 10.0, 4e6, 10.0, 10.0);
            let delivered = rec.tower_tons + rec.chiller_tons;
            overcool += (delivered - need_tons).max(0.0) * 10.0 / 60.0;
        }
        t.row(vec![format!("{tau:.0}"), format!("{overcool:.0}")]);
    }
    let mut s = t.render();
    s.push_str(
        "paper future work: \"the higher PUE experienced on the high-magnitude falling\n\
         edges revealed potential parameter tunings ... that stages and de-stages cooling\"\n",
    );
    println!("{s}");
}

fn main() {
    let f = fidelity();
    header("design ablations", f);
    let (cabinets, scale) = match f {
        Fidelity::Quick => (6, 0.001),
        Fidelity::Full => (30, 0.01),
    };
    codec_ablation(cabinets);
    window_ablation(cabinets);
    edge_threshold_ablation(scale);
    destaging_ablation();
}
