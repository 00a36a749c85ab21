//! Live operations console: streams engine ticks into the monitoring
//! dashboard the way Summit's telemetry system feeds its MTW operations
//! room (paper Figure 2), printing the dashboard once a minute and every
//! alert as it fires.
//!
//! ```sh
//! cargo run --release --example operations_console
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::monitoring::{OpsConsole, Thresholds};
use summit_repro::core::pipeline::summer_t0;
use summit_repro::sim::engine::{Engine, EngineConfig};
use summit_repro::sim::jobs::JobGenerator;
use summit_repro::sim::spec;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cabinets = 10;
    let mut engine = Engine::new(EngineConfig::small(cabinets), summer_t0());
    // Scale the swing alarm to the floor slice (2 MW/min on 4,626 nodes
    // ~= 78 kW/min on 180).
    let nodes_in_slice = cabinets as f64 * spec::NODES_PER_CABINET as f64;
    let thresholds = Thresholds {
        swing_w_per_min: 2.0e6 * nodes_in_slice / spec::TOTAL_NODES as f64,
        ..Default::default()
    };
    let mut console = OpsConsole::new(thresholds);

    // Stage a workload with one violent swing to trip the swing alarm.
    let mut rng = StdRng::seed_from_u64(5);
    let mut gen = JobGenerator::new();
    let t0 = summer_t0();
    for (at, nodes, dur, gpu) in [
        (60.0, 60u32, 300.0, 0.7),
        (420.0, 180, 240.0, 0.95), // the swing
        (780.0, 30, 200.0, 0.5),
    ] {
        let mut job = gen.generate_with_class(&mut rng, t0 + at, 5);
        job.record.node_count = nodes.min((cabinets * 18) as u32);
        job.record.class = summit_repro::sim::spec::class_of_node_count(job.record.node_count);
        job.record.end_time = job.record.begin_time + dur;
        job.profile.gpu_intensity = gpu;
        job.profile.ramp_s = 20.0;
        engine.scheduler().submit(job);
    }

    for minute in 0..18 {
        for _ in 0..60 {
            let tick = engine.step();
            console.observe(&tick);
        }
        // Print fresh alerts immediately, dashboards periodically.
        for alert in console.drain_alerts() {
            println!("!! [{:?}] t={:.0}s {}", alert.kind, alert.t, alert.detail);
        }
        if minute % 4 == 3 {
            println!("{}", console.render());
        }
    }
}
