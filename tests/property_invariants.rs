//! Property-based invariants spanning crates.
//!
//! Originally written with `proptest`; rewritten as deterministic
//! seeded-random sweeps (the offline toolchain has no proptest). Every
//! case derives from a fixed-seed [`StdRng`], so failures reproduce
//! exactly — print the `case` index from the assertion message and
//! re-run.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use summit_repro::analysis::cdf::Ecdf;
use summit_repro::analysis::edges::detect_edges;
use summit_repro::analysis::fft::{fft_padded, ifft_in_place};
use summit_repro::analysis::pue::integrate_energy;
use summit_repro::analysis::series::Series;
use summit_repro::analysis::stats::{quantile, BoxStats, Welford};
use summit_repro::telemetry::codec::{decode_column, encode_column, zigzag_decode, zigzag_encode};
use summit_repro::telemetry::ids::NodeId;
use summit_repro::telemetry::records::NodeFrame;
use summit_repro::telemetry::window::WindowAggregator;

const CASES: usize = 64;

fn vec_f64(rng: &mut StdRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(min_len..max_len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn zigzag_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let v: i64 = rng.gen();
        assert_eq!(zigzag_decode(zigzag_encode(v)), v, "case {case}: v={v}");
    }
    for v in [i64::MIN, i64::MAX, 0, -1, 1] {
        assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }
}

#[test]
fn codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..500);
        let col: Vec<i64> = (0..n)
            .map(|_| rng.gen_range(-1_000_000i64..1_000_000))
            .collect();
        let mut buf = bytes::BytesMut::new();
        encode_column(&col, &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_column(&mut bytes), Some(col), "case {case}");
    }
}

#[test]
fn welford_matches_two_pass() {
    let mut rng = StdRng::seed_from_u64(0x3E1F0);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, -1e6, 1e6, 2, 200);
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean {} vs {mean}",
            w.mean()
        );
        assert!(
            (w.variance() - var).abs() < 1e-5 * (1.0 + var.abs()),
            "case {case}: var {} vs {var}",
            w.variance()
        );
        assert!(
            w.min() <= w.mean() + 1e-9 && w.mean() <= w.max() + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn quantiles_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0x9A117);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, -1e3, 1e3, 1, 100);
        let q25 = quantile(&data, 0.25);
        let q50 = quantile(&data, 0.5);
        let q75 = quantile(&data, 0.75);
        assert!(q25 <= q50 && q50 <= q75, "case {case}: {q25} {q50} {q75}");
    }
}

#[test]
fn boxstats_ordering() {
    let mut rng = StdRng::seed_from_u64(0xB0857);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, -1e3, 1e3, 1, 100);
        let b = BoxStats::compute(&data).expect("non-empty data");
        assert!(b.min <= b.whisker_lo + 1e-9, "case {case}");
        assert!(b.whisker_lo <= b.q1 + 1e-9, "case {case}");
        assert!(b.q1 <= b.median && b.median <= b.q3, "case {case}");
        assert!(b.q3 <= b.whisker_hi + 1e-9, "case {case}");
        assert!(b.whisker_hi <= b.max + 1e-9, "case {case}");
        assert_eq!(b.count, data.len(), "case {case}");
    }
}

#[test]
fn ecdf_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xECDF);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, -1e3, 1e3, 1, 100);
        let probe = rng.gen_range(-2e3f64..2e3);
        let e = Ecdf::new(&data).expect("non-empty data");
        let f = e.eval(probe);
        assert!((0.0..=1.0).contains(&f), "case {case}: F={f}");
        assert!(e.eval(e.max()) == 1.0, "case {case}");
        assert!(e.eval(e.min() - 1.0) == 0.0, "case {case}");
    }
}

#[test]
fn fft_roundtrip_random() {
    let mut rng = StdRng::seed_from_u64(0xFF7);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, -1e3, 1e3, 1, 129);
        let mut spec = fft_padded(&data);
        ifft_in_place(&mut spec);
        for (z, &x) in spec.iter().zip(&data) {
            assert!((z.re - x).abs() < 1e-6, "case {case}");
            assert!(z.im.abs() < 1e-6, "case {case}");
        }
    }
}

#[test]
fn energy_integration_additive() {
    let mut rng = StdRng::seed_from_u64(0xE6E);
    for case in 0..CASES {
        let data = vec_f64(&mut rng, 0.0, 1e6, 2, 200);
        let split = rng.gen_range(1usize..100);
        let s = Series::new(0.0, 1.0, data.clone());
        let k = split.min(data.len() - 1);
        let whole = integrate_energy(&s).energy_j;
        let a = integrate_energy(&s.window(0.0, k as f64)).energy_j;
        let b = integrate_energy(&s.window(k as f64, data.len() as f64)).energy_j;
        assert!(
            (whole - (a + b)).abs() < 1e-6 * (1.0 + whole.abs()),
            "case {case}: {whole} vs {a}+{b}"
        );
    }
}

#[test]
fn edges_have_consistent_geometry() {
    let mut rng = StdRng::seed_from_u64(0xED6E);
    for case in 0..CASES {
        let values = vec_f64(&mut rng, 0.0, 1e7, 4, 200);
        let threshold = rng.gen_range(1e4f64..1e6);
        let s = Series::new(0.0, 10.0, values);
        for e in detect_edges(&s, threshold) {
            assert!(e.start_index < s.len(), "case {case}");
            assert!(e.peak_index < s.len(), "case {case}");
            assert!(e.peak_index >= e.start_index, "case {case}");
            assert!(e.step.abs() >= threshold * 0.999, "case {case}");
            if let Some(d) = e.duration_s {
                assert!(d >= 0.0, "case {case}");
                assert!(d <= s.len() as f64 * s.dt(), "case {case}");
            }
        }
    }
}

#[test]
fn window_stats_bound_samples() {
    let mut rng = StdRng::seed_from_u64(0x3B00);
    for case in 0..CASES {
        let samples = vec_f64(&mut rng, 0.0, 5000.0, 1, 50);
        let mut agg = WindowAggregator::paper(NodeId(0));
        for (i, &v) in samples.iter().enumerate() {
            let mut f = NodeFrame::empty(NodeId(0), i as f64);
            f.set(summit_repro::telemetry::catalog::input_power(), v);
            agg.push(&f).unwrap();
        }
        for w in agg.finish() {
            let s = w.metric(summit_repro::telemetry::catalog::input_power());
            if s.count > 0 {
                assert!(s.min <= s.mean + 1e-6, "case {case}");
                assert!(s.mean <= s.max + 1e-6, "case {case}");
                assert!(s.std >= 0.0, "case {case}");
                assert!(s.count <= 10, "case {case}");
            }
        }
    }
}

#[test]
fn power_model_monotone_everywhere() {
    use summit_repro::sim::power::{NodeUtilization, PowerModel};
    let mut rng = StdRng::seed_from_u64(0x90E3);
    let pm = PowerModel::new(1);
    for case in 0..16 {
        let node = rng.gen_range(0..summit_repro::sim::spec::TOTAL_NODES as u32);
        let u1 = rng.gen_range(0.0f64..1.0);
        let u2 = rng.gen_range(0.0f64..1.0);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let p_lo = pm
            .node_power(NodeId(node), &NodeUtilization::uniform(lo, lo))
            .input_w;
        let p_hi = pm
            .node_power(NodeId(node), &NodeUtilization::uniform(hi, hi))
            .input_w;
        assert!(p_lo <= p_hi + 1e-9, "case {case}: {p_lo} > {p_hi}");
        assert!(p_lo > 0.0, "case {case}");
        assert!(
            p_hi <= summit_repro::sim::spec::NODE_MAX_POWER_W + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn scheduler_churn_conserves_nodes() {
    use summit_repro::sim::jobs::JobGenerator;
    use summit_repro::sim::scheduler::Scheduler;
    let mut meta = StdRng::seed_from_u64(0x5C3D);
    for case in 0..16 {
        let seed = meta.gen_range(0u64..1000);
        let submissions = meta.gen_range(1usize..40);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = JobGenerator::new();
        let total = 200usize;
        let mut sched = Scheduler::new(total);
        let mut t = 0.0;
        for _ in 0..submissions {
            t += rng.gen::<f64>() * 400.0;
            let mut job = gen.generate_with_class(&mut rng, t, 5);
            job.record.end_time = job.record.begin_time + 60.0 + rng.gen::<f64>() * 600.0;
            sched.submit(job);
            sched.advance(t);
            // Invariant: free + allocated == total, no node double-booked.
            let allocated: usize = sched.running().iter().map(|p| p.nodes.len()).sum();
            assert_eq!(sched.free_nodes() + allocated, total, "case {case}");
            let mut seen = std::collections::HashSet::new();
            for p in sched.running() {
                for n in &p.nodes {
                    assert!(seen.insert(n.0), "case {case}: node {n} double-allocated");
                }
            }
        }
        // Drain: everything eventually completes and all nodes free.
        sched.advance(t + 30.0 * 86400.0);
        assert_eq!(sched.free_nodes(), total, "case {case}");
        assert!(sched.running().is_empty(), "case {case}");
    }
}

#[test]
fn facility_records_are_physical() {
    use summit_repro::sim::facility::{Facility, FacilityConfig};
    let mut rng = StdRng::seed_from_u64(0xFAC);
    for case in 0..16 {
        let it_mw = rng.gen_range(0.5f64..12.0);
        let wet_bulb = rng.gen_range(-5.0f64..25.0);
        let mut fac = Facility::new(FacilityConfig::default(), it_mw * 1e6);
        let mut rec = fac.step(0.0, it_mw * 1e6, wet_bulb, 10.0);
        for i in 1..200 {
            rec = fac.step(i as f64 * 10.0, it_mw * 1e6, wet_bulb, 10.0);
        }
        assert!(
            rec.facility_power_w >= rec.it_power_w,
            "case {case}: facility < IT"
        );
        assert!(
            rec.pue() >= 1.0 && rec.pue() < 1.6,
            "case {case}: PUE {}",
            rec.pue()
        );
        assert!(
            rec.tower_tons >= 0.0 && rec.chiller_tons >= 0.0,
            "case {case}"
        );
        assert!(rec.mtw_return_c > rec.mtw_supply_c - 1.0, "case {case}");
    }
}

#[test]
fn thermal_steady_state_above_water() {
    use summit_repro::sim::power::{NodeUtilization, PowerModel};
    use summit_repro::sim::thermal::ThermalModel;
    let mut rng = StdRng::seed_from_u64(0x7E3);
    let pm = PowerModel::new(1);
    let tm = ThermalModel::new(1);
    for case in 0..16 {
        let node = rng.gen_range(0..summit_repro::sim::spec::TOTAL_NODES as u32);
        let util = rng.gen_range(0.0f64..1.0);
        let water = rng.gen_range(15.0f64..25.0);
        let p = pm.node_power(NodeId(node), &NodeUtilization::uniform(util, util));
        let t = tm.resistances(NodeId(node)).steady_state(&p, water);
        for g in t.gpu_core_c {
            assert!(g >= water, "case {case}: GPU below water temp");
            assert!(g < 90.0, "case {case}: GPU unphysically hot");
        }
        for c in t.cpu_c {
            assert!(c >= water && c < 90.0, "case {case}");
        }
    }
}
