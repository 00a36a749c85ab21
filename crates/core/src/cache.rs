//! Shared scenario cache: fingerprint-keyed memoization of the
//! expensive artifacts every experiment re-derives.
//!
//! Before this layer each study privately regenerated its inputs — a
//! full-suite run rebuilt the same 840k-job statistical year up to a
//! dozen times. [`ScenarioCache`] memoizes the three artifact families
//! behind the experiments:
//!
//! - **populations** — [`PopulationArtifact`]: the statistical-year job
//!   population with closed-form [`JobStatsRow`] stats (Figures 5-10,
//!   14; power_aware);
//! - **dynamics** — [`DynamicsRun`]: staged-burst engine runs
//!   (Figures 11/12 share one run per burst schedule);
//! - **failures** — [`FailureArtifact`]: the XID failure log plus the
//!   job population it was drawn over (Table 4; Figures 13-16;
//!   early_warning).
//!
//! Entries are keyed by an FNV-1a fingerprint of the scenario config's
//! `Debug` rendering (configs derive `Debug` and render every field, so
//! two configs collide only if they are field-for-field identical).
//! Generation is seeded and deterministic, so a cached artifact is
//! bit-identical to a fresh one — `tests/experiments_smoke.rs` proves
//! this. Hits and misses are counted in the observability registry as
//! `summit_core_scenario_cache_hits_total` /
//! `summit_core_scenario_cache_misses_total`.
//!
//! The cache is `Sync`; builders run outside the map lock, so two
//! threads racing on the same key may both build, but the first insert
//! wins and determinism makes the loser's artifact identical.

use crate::pipeline::{
    DynamicsRun, FailureArtifact, FailureScenario, PopulationArtifact, PopulationScenario,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Counter name for cache hits.
pub const HITS_COUNTER: &str = "summit_core_scenario_cache_hits_total";
/// Counter name for cache misses (each miss builds the artifact once).
pub const MISSES_COUNTER: &str = "summit_core_scenario_cache_misses_total";

/// FNV-1a over a domain tag and a key string; stable across runs and
/// platforms (unlike `std`'s `DefaultHasher`, which is randomized by
/// design in other stdlibs and unspecified across releases).
fn fingerprint(domain: &str, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in domain.bytes().chain([0u8]).chain(key.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Slot<T> = Mutex<BTreeMap<u64, Arc<T>>>;

/// Thread-safe memo of the expensive experiment inputs; see the module
/// docs for the artifact families and keying scheme.
#[derive(Debug, Default)]
pub struct ScenarioCache {
    populations: Slot<PopulationArtifact>,
    dynamics: Slot<DynamicsRun>,
    failures: Slot<FailureArtifact>,
}

/// Entry counts per artifact family (for driver summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cached population artifacts.
    pub populations: usize,
    /// Cached dynamics runs.
    pub dynamics: usize,
    /// Cached failure artifacts.
    pub failures: usize,
}

impl CacheStats {
    /// Total cached artifacts.
    pub fn total(&self) -> usize {
        self.populations + self.dynamics + self.failures
    }
}

fn lock<T>(slot: &Slot<T>) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<T>>> {
    // A poisoned lock only means another thread panicked mid-insert;
    // the map itself is still a valid memo, so recover it.
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn memo<T>(slot: &Slot<T>, domain: &str, key: &str, build: impl FnOnce() -> T) -> Arc<T> {
    let fp = fingerprint(domain, key);
    if let Some(hit) = lock(slot).get(&fp) {
        summit_obs::counter(HITS_COUNTER).inc();
        return Arc::clone(hit);
    }
    summit_obs::counter(MISSES_COUNTER).inc();
    let built = Arc::new(build());
    Arc::clone(lock(slot).entry(fp).or_insert(built))
}

impl ScenarioCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistical-year population with per-job stats for
    /// `scenario`, generating it on first use.
    pub fn population(&self, scenario: &PopulationScenario) -> Arc<PopulationArtifact> {
        memo(
            &self.populations,
            "population",
            &format!("{scenario:?}"),
            || scenario.artifact(),
        )
    }

    /// A staged-burst dynamics run, keyed by the caller's full burst
    /// configuration (`key` must render every field that shapes the
    /// run; passing the config's `Debug` output does).
    pub fn dynamics(&self, key: &str, build: impl FnOnce() -> DynamicsRun) -> Arc<DynamicsRun> {
        memo(&self.dynamics, "dynamics", key, build)
    }

    /// The failure log (and the job population it was drawn over) for
    /// `scenario`, generating it on first use.
    pub fn failures(&self, scenario: &FailureScenario) -> Arc<FailureArtifact> {
        memo(&self.failures, "failures", &format!("{scenario:?}"), || {
            scenario.generate()
        })
    }

    /// Entry counts per artifact family.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            populations: lock(&self.populations).len(),
            dynamics: lock(&self.dynamics).len(),
            failures: lock(&self.failures).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn counters() -> (u64, u64) {
        (
            summit_obs::counter(HITS_COUNTER).get(),
            summit_obs::counter(MISSES_COUNTER).get(),
        )
    }

    #[test]
    fn population_is_generated_once_and_shared() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let cache = ScenarioCache::new();
        let scenario = PopulationScenario::paper_year(0.001);
        let a = cache.population(&scenario);
        let (h0, m0) = counters();
        assert_eq!((h0, m0), (0, 1));
        let b = cache.population(&scenario);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be the same Arc");
        let (h1, m1) = counters();
        assert_eq!((h1, m1), (1, 1));
        assert_eq!(cache.stats().populations, 1);
        assert_eq!(cache.stats().total(), 1);
    }

    #[test]
    fn distinct_scenarios_occupy_distinct_entries() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let cache = ScenarioCache::new();
        let _ = cache.population(&PopulationScenario::paper_year(0.001));
        let _ = cache.population(&PopulationScenario::paper_year(0.002));
        assert_eq!(cache.stats().populations, 2);
        let (h, m) = counters();
        assert_eq!((h, m), (0, 2));
    }

    #[test]
    fn cached_population_matches_fresh_generation() {
        let cache = ScenarioCache::new();
        let scenario = PopulationScenario::paper_year(0.001);
        let cached = cache.population(&scenario);
        let fresh = scenario.artifact();
        assert_eq!(cached.rows.len(), fresh.rows.len());
        for (a, b) in cached.rows.iter().zip(&fresh.rows) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn fingerprints_are_domain_separated() {
        assert_ne!(fingerprint("population", "x"), fingerprint("dynamics", "x"));
        assert_ne!(fingerprint("a", "bc"), fingerprint("ab", "c"));
    }

    #[test]
    fn failure_artifact_is_shared_across_studies() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let cache = ScenarioCache::new();
        let scenario = FailureScenario {
            weeks: 2.0,
            seed: 7,
        };
        let a = cache.failures(&scenario);
        let b = cache.failures(&scenario);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.events.is_empty());
        assert!(!a.jobs.is_empty());
        let (h, m) = counters();
        assert_eq!((h, m), (1, 1));
    }
}
