//! Bit-identity against committed digests: smoke-scale runs of the
//! telemetry path and of the dynamics path must reproduce, bit for
//! bit, the digests in `tests/golden/digests.txt`. A change that moves
//! any output bit fails here and must edit that file (and say so).
//!
//! The file also holds the benchmark's floor-scale `--probe --seed
//! 2020` digests, which CI compares with the benchmark's output.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::pipeline::{
    quick_dynamics, run_streaming, run_telemetry, StreamConfig, TelemetryRun,
};
use summit_repro::telemetry::ingest::IngestHealth;
use summit_repro::telemetry::stream::{FaultConfig, InjectedFaults};
use summit_repro::telemetry::window::NodeWindow;

const DIGESTS: &str = include_str!("golden/digests.txt");

/// The committed digest named `kind name`.
fn golden(kind: &str, name: &str) -> u64 {
    let line = DIGESTS
        .lines()
        .map(str::split_whitespace)
        .map(|mut f| (f.next(), f.next(), f.next()))
        .find(|&(k, n, _)| k == Some(kind) && n == Some(name));
    let hex = line
        .and_then(|(_, _, v)| v)
        .unwrap_or_else(|| panic!("no `{kind} {name}` line in tests/golden/digests.txt"));
    u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("`{kind} {name}` value {hex}: {e}"))
}

/// 64-bit FNV-1a over whole words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a telemetry run's data outputs: every window (node, start
/// and every metric's statistics, NaN bit patterns included), the
/// ingest health counters and the injected fault counts.
fn telemetry_digest(
    windows: &[Vec<NodeWindow>],
    health: &IngestHealth,
    injected: &InjectedFaults,
) -> u64 {
    let mut h = Fnv::new();
    h.eat(windows.len() as u64);
    for node in windows {
        h.eat(node.len() as u64);
        for w in node {
            h.eat(u64::from(w.node.0));
            h.eat(w.window_start.to_bits());
            h.eat(w.stats.len() as u64);
            for s in &w.stats {
                let bits = [s.min, s.max, s.mean, s.std].map(f64::to_bits);
                for v in std::iter::once(s.count).chain(bits) {
                    h.eat(v);
                }
            }
        }
    }
    for v in [
        health.accepted,
        health.reordered,
        health.duplicates,
        health.late_dropped,
        health.wrong_node,
        health.invalid,
        health.gap_windows,
        injected.dropped,
        injected.duplicated,
        injected.delayed,
        injected.reordered,
    ] {
        h.eat(v);
    }
    h.0
}

/// The hostile fabric profile: every fault path fires at smoke scale.
fn hostile() -> FaultConfig {
    FaultConfig {
        drop_p: 0.02,
        duplicate_p: 0.05,
        delay_p: 0.05,
        reorder_p: 0.10,
        seed: 2020,
    }
}

#[test]
fn telemetry_outputs_match_the_committed_digest() {
    let want = golden("smoke", "telemetry");
    let TelemetryRun {
        windows_by_node,
        stats,
        injected,
        ..
    } = run_telemetry(3, 120.0, Some(hostile()));
    let batch = telemetry_digest(&windows_by_node, &stats.health, &injected);
    assert_eq!(batch, want, "run_telemetry: got {batch:016x}");
    let s = run_streaming(StreamConfig::new(3, 120.0, Some(hostile())));
    let stream = telemetry_digest(&s.windows_by_node, &s.stats.health, &s.injected);
    assert_eq!(stream, want, "run_streaming: got {stream:016x}");
}

#[test]
fn dynamics_ticks_match_the_committed_digest() {
    let run = quick_dynamics(6, 1000.0);
    assert_eq!(run.ticks.len(), 1000);
    let mut h = Fnv::new();
    for o in &run.ticks {
        let c = &o.cep;
        for v in [
            o.t,
            o.true_compute_power_w,
            o.sensor_compute_power_w,
            c.time,
            c.mtw_supply_c,
            c.mtw_return_c,
            c.tower_tons,
            c.chiller_tons,
            c.wet_bulb_c,
            c.facility_power_w,
            c.it_power_w,
        ] {
            h.eat(v.to_bits());
        }
        for v in o.msb_meter_w.iter().chain(&o.msb_sensor_w) {
            h.eat(v.to_bits());
        }
        for v in [o.gpu_temp_mean_c, o.gpu_temp_max_c, o.cpu_temp_mean_c] {
            h.eat(v.to_bits());
        }
        h.eat(o.running_jobs as u64);
        h.eat(o.busy_nodes as u64);
    }
    let got = h.0;
    assert_eq!(got, golden("smoke", "dynamics"), "got {got:016x}");
}
