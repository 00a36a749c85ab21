//! Smoke tests over the unified experiment registry: every registered
//! study runs at smoke scale through one shared scenario cache and
//! renders a non-trivial report mentioning its paper anchors, cached
//! artifacts are bit-identical to fresh ones, and config validation
//! returns typed errors instead of panicking.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use summit_repro::core::cache::{ScenarioCache, HITS_COUNTER, MISSES_COUNTER};
use summit_repro::core::experiments::registry::run_by_name;
use summit_repro::core::experiments::{
    fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig17, table2, table4,
    ExperimentError, REGISTRY,
};
use summit_repro::core::json::Json;
use summit_repro::obs::registry::Registry;

/// Small enough for CI seconds, large enough that every study produces
/// populated reports.
const SMOKE_SCALE: f64 = 0.01;

#[test]
fn registry_runs_every_study_at_smoke_scale() {
    let obs = Registry::new();
    let guard = obs.install();
    let cache = ScenarioCache::new();
    let mut reports: BTreeMap<&str, String> = BTreeMap::new();
    for study in REGISTRY {
        let report = run_by_name(&cache, study.name(), SMOKE_SCALE, None)
            .unwrap_or_else(|e| panic!("{} failed at smoke scale: {e}", study.name()));
        assert!(
            report.trim().len() > 40,
            "{} rendered a trivial report",
            study.name()
        );
        assert!(!study.summary().is_empty());
        assert!(
            reports.insert(study.name(), report).is_none(),
            "duplicate registry name {}",
            study.name()
        );
    }
    assert_eq!(reports.len(), REGISTRY.len());

    // One shared cache across the suite must produce actual reuse: the
    // year population, the burst sweep and the failure log are shared.
    let snap = obs.snapshot();
    drop(guard);
    let hits = snap.counter(HITS_COUNTER).unwrap_or(0);
    let misses = snap.counter(MISSES_COUNTER).unwrap_or(0);
    assert!(misses >= 1, "shared artifacts were never built");
    assert!(
        hits >= 3,
        "expected cross-study cache reuse, got {hits} hits"
    );

    // Paper anchors survive the registry path.
    assert!(reports["tables"].contains("4626"));
    assert!(reports["tables"].contains("2765 - 4608"));
    assert!(reports["table2"].contains("8.5 TB"));
    assert!(reports["fig04"].contains("128.83 kW"));
    assert!(reports["fig05"].contains("PUE"));
    assert!(reports["fig07"].contains("80% under 1500"));
    assert!(reports["fig10"].contains("96.9%"));
    assert!(reports["fig12"].contains("MTW return"));
    assert!(reports["table4"].contains("NVLINK"));
    assert!(reports["fig13"].contains("Bonferroni"));
    assert!(reports["fig15"].contains("46.1"));
    assert!(reports["fig16"].contains("GPU slot"));
    assert!(reports["fig17"].contains("heatmap"));
    assert!(reports["early_warning"].contains("lead time"));
    assert!(reports["titan_contrast"].contains("Titan"));
    assert!(reports["power_aware"].contains("paper conclusion"));
}

#[test]
fn shared_cache_is_bit_identical_to_fresh_runs() {
    // fig07 and fig09 resolve the identical population scenario at this
    // scale (fig07's floor is 0.01), so one cache serves both.
    const SCALE: f64 = 0.02;
    let fresh07 = run_by_name(&ScenarioCache::new(), "fig07", SCALE, None).unwrap();
    let fresh09 = run_by_name(&ScenarioCache::new(), "fig09", SCALE, None).unwrap();

    let obs = Registry::new();
    let guard = obs.install();
    let cache = ScenarioCache::new();
    let shared07 = run_by_name(&cache, "fig07", SCALE, None).unwrap();
    let shared09 = run_by_name(&cache, "fig09", SCALE, None).unwrap();
    let snap = obs.snapshot();
    drop(guard);

    // Reuse must not perturb results: byte-for-byte identical reports.
    assert_eq!(fresh07, shared07);
    assert_eq!(fresh09, shared09);
    // Exactly one population build, one reuse.
    assert_eq!(snap.counter(MISSES_COUNTER), Some(1));
    assert_eq!(snap.counter(HITS_COUNTER), Some(1));
    assert_eq!(cache.stats().total(), 1);
}

#[test]
fn config_validation_returns_typed_errors() {
    // Direct typed API: the paper's Figure 8 has class-1 and class-2
    // panels only.
    let err = fig08::run(
        &ScenarioCache::new(),
        &fig08::Config {
            population_scale: 0.01,
            class: 3,
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExperimentError::InvalidConfig(_)));
    assert!(err.to_string().contains("class"));

    let err = table2::run(&table2::Config {
        cabinets: 2,
        duration_s: 0,
        stream: false,
    })
    .unwrap_err();
    assert!(matches!(err, ExperimentError::InvalidConfig(_)));

    // A floor holds 1..=257 cabinets.
    for cabinets in [0, 258] {
        let err = table2::run(&table2::Config {
            cabinets,
            duration_s: 60,
            stream: false,
        })
        .unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidConfig(_)));
        assert!(err.to_string().contains("cabinets"), "{err}");
    }

    // Every typed `run` checks its own config: each of these fails
    // before any work with an error that names the field.
    let cache = ScenarioCache::new();
    let typed = [
        (
            "dt_s",
            fig05::run(
                &cache,
                &fig05::Config {
                    population_scale: 0.01,
                    dt_s: 0.0,
                    maintenance_days: None,
                },
            )
            .err(),
        ),
        (
            "dt_s",
            fig05::run(
                &cache,
                &fig05::Config {
                    population_scale: 0.01,
                    dt_s: 700_000.0,
                    maintenance_days: None,
                },
            )
            .err(),
        ),
        (
            "cabinets",
            fig04::run(&fig04::Config {
                cabinets: 0,
                duration_s: 60,
                busy_fraction: 1.0,
            })
            .err(),
        ),
        (
            "cabinets",
            fig04::run(&fig04::Config {
                cabinets: 258,
                duration_s: 60,
                busy_fraction: 1.0,
            })
            .err(),
        ),
        (
            "cabinets",
            fig17::run(&fig17::Config {
                cabinets: 258,
                job_duration_s: 300.0,
                stride_s: 10.0,
                missing_cabinet: None,
                seed: 1,
            })
            .err(),
        ),
        (
            "stride_s",
            fig17::run(&fig17::Config {
                cabinets: 1,
                job_duration_s: 30.0,
                stride_s: 0.5,
                missing_cabinet: None,
                seed: 1,
            })
            .err(),
        ),
        (
            "grid",
            fig06::run(
                &cache,
                &fig06::Config {
                    population_scale: 0.01,
                    grid: 0,
                    max_samples: 100,
                },
            )
            .err(),
        ),
        (
            "grid",
            fig06::run(
                &cache,
                &fig06::Config {
                    population_scale: 0.01,
                    grid: 1,
                    max_samples: 100,
                },
            )
            .err(),
        ),
        (
            "population_scale",
            fig07::run(
                &cache,
                &fig07::Config {
                    population_scale: 0.0,
                },
            )
            .err(),
        ),
        (
            "max_samples",
            fig09::run(
                &cache,
                &fig09::Config {
                    population_scale: 0.01,
                    max_samples: 0,
                },
            )
            .err(),
        ),
        (
            "weeks",
            table4::run(
                &cache,
                &table4::Config {
                    weeks: 0.0,
                    seed: 1,
                },
            )
            .err(),
        ),
        (
            "repeats",
            fig11::run(
                &cache,
                &fig11::Config {
                    cabinets: 12,
                    amplitudes_mw: vec![0.15],
                    repeats: 0,
                    burst_duration_s: 120.0,
                    spacing_s: 420.0,
                },
            )
            .err(),
        ),
        (
            "dt_s",
            fig05::run(
                &cache,
                &fig05::Config {
                    population_scale: 0.01,
                    dt_s: 1e-9,
                    maintenance_days: None,
                },
            )
            .err(),
        ),
        (
            "dt_s",
            fig10::run(
                &cache,
                &fig10::Config {
                    population_scale: 0.01,
                    dt_s: 1e-9,
                },
            )
            .err(),
        ),
        (
            "burst_duration_s",
            fig11::run(
                &cache,
                &fig11::Config {
                    cabinets: 12,
                    amplitudes_mw: vec![0.15],
                    repeats: 1,
                    burst_duration_s: 1e-9,
                    spacing_s: 420.0,
                },
            )
            .err(),
        ),
        (
            "burst_duration_s",
            fig12::run(
                &cache,
                &fig12::Config {
                    burst: fig11::Config {
                        cabinets: 12,
                        amplitudes_mw: vec![0.15],
                        repeats: 1,
                        burst_duration_s: 1e-9,
                        spacing_s: 420.0,
                    },
                },
            )
            .err(),
        ),
    ];
    for (field, err) in typed {
        let err = err.unwrap_or_else(|| panic!("a config with bad `{field}` was accepted"));
        assert!(matches!(err, ExperimentError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains(field), "{field}: {err}");
    }
    assert_eq!(
        cache.stats().total(),
        0,
        "a rejected config built an artifact"
    );

    // Registry path: overrides are validated the same way.
    let overrides = Json::obj([("class", Json::Num(3.0))]);
    let err = run_by_name(&cache, "fig08", 0.01, Some(&overrides)).unwrap_err();
    assert!(matches!(err, ExperimentError::InvalidConfig(_)));

    let overrides = Json::obj([("cabinets", Json::Num(258.0))]);
    for name in ["table2", "fig04", "fig11", "fig17"] {
        let err = run_by_name(&cache, name, 0.01, Some(&overrides)).unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidConfig(_)), "{name}");
        assert!(err.to_string().contains("cabinets"), "{name}: {err}");
    }

    let err = run_by_name(&cache, "fig99", 1.0, None).unwrap_err();
    assert!(matches!(err, ExperimentError::UnknownExperiment(_)));
}
