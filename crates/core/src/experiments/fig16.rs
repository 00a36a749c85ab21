//! Figure 16: counts of GPU failures by component placement (slot 0-5).
//!
//! Paper anchors: the trend is close to the *reverse* of the water-order
//! expectation — "second-hand" cooling water is not the issue; GPU 0
//! leads many counts (single-GPU jobs); double-bit errors and page
//! retirement events are unexpectedly elevated on GPU 4; off-the-bus
//! failures cluster on the CPU1-side GPUs.

use crate::cache::ScenarioCache;
use crate::experiments::registry::{Cfg, Experiment, ExperimentError};
use crate::experiments::table4;
use crate::json::Json;
use crate::pipeline::FailureScenario;
use crate::report::{bar, Table};
use summit_telemetry::records::XidErrorKind;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Observation span (weeks).
    pub weeks: f64,
    /// Seed.
    pub seed: u64,
}

/// Slot histogram for one kind.
#[derive(Debug, Clone)]
pub struct SlotHistogram {
    /// Event/error kind.
    pub kind: XidErrorKind,
    /// Per-slot counts.
    pub counts: [u64; 6],
}

impl SlotHistogram {
    /// The slot with the largest count.
    pub fn peak_slot(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Full result — the four panels of the figure plus the all-kinds total.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// Per-panel results.
    pub panels: Vec<SlotHistogram>,
    /// Histogram over all kinds together.
    pub all_kinds: SlotHistogram,
}

/// The four kinds the paper plots.
pub const PANEL_KINDS: [XidErrorKind; 4] = [
    XidErrorKind::PageRetirementEvent,
    XidErrorKind::DoubleBitError,
    XidErrorKind::InternalMicrocontrollerWarning,
    XidErrorKind::FallenOffTheBus,
];

/// Runs the Figure 16 analysis, acquiring the failure log through
/// `cache`.
pub fn run(cache: &ScenarioCache, config: &Config) -> Result<Fig16Result, ExperimentError> {
    table4::ensure_weeks("fig16", config.weeks)?;
    let _obs = summit_obs::span("summit_core_fig16");
    let art = cache.failures(&FailureScenario {
        weeks: config.weeks,
        seed: config.seed,
    });
    let mut panels: Vec<SlotHistogram> = PANEL_KINDS
        .iter()
        .map(|&kind| SlotHistogram {
            kind,
            counts: [0; 6],
        })
        .collect();
    let mut all = SlotHistogram {
        kind: XidErrorKind::MemoryPageFault, // placeholder tag for "all"
        counts: [0; 6],
    };
    for e in &art.events {
        all.counts[e.slot.index()] += 1;
        if let Some(p) = panels.iter_mut().find(|p| p.kind == e.kind) {
            p.counts[e.slot.index()] += 1;
        }
    }
    Ok(Fig16Result {
        panels,
        all_kinds: all,
    })
}

/// Registry adapter for the Figure 16 study.
pub struct Study;

impl Experiment for Study {
    fn name(&self) -> &'static str {
        "fig16"
    }

    fn summary(&self) -> &'static str {
        "GPU failure counts by component placement (slot 0-5)"
    }

    fn default_config(&self, scale: f64) -> Json {
        Json::obj([
            ("weeks", Json::Num(table4::default_weeks(scale))),
            ("seed", Json::Num(2020.0)),
        ])
    }

    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError> {
        let cfg = Cfg::new("fig16", config)?;
        let config = Config {
            weeks: cfg.f64("weeks")?,
            seed: cfg.u64("seed")?,
        };
        Ok(run(cache, &config)?.render())
    }
}

impl Fig16Result {
    /// Renders the four slot histograms.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for p in &self.panels {
            let mut t = Table::new(
                format!("Figure 16: {} by GPU slot", p.kind.name()),
                &["slot", "count", ""],
            );
            let max = *p.counts.iter().max().unwrap_or(&1) as f64;
            for (slot, &c) in p.counts.iter().enumerate() {
                t.row(vec![
                    slot.to_string(),
                    c.to_string(),
                    bar(c as f64, max, 30),
                ]);
            }
            s.push_str(&t.render());
            s.push('\n');
        }
        s.push_str(
            "paper: GPU 4 leads double-bit/page-retirement; GPU 0 leads overall \
             (single-GPU jobs); trend reverses the water-order expectation\n",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use XidErrorKind::*;

    fn result() -> Fig16Result {
        run(
            &ScenarioCache::new(),
            &Config {
                weeks: 40.0,
                seed: 13,
            },
        )
        .unwrap()
    }

    #[test]
    fn four_panels_present() {
        let r = result();
        assert_eq!(r.panels.len(), 4);
        for p in &r.panels {
            assert!(p.counts.iter().sum::<u64>() > 0, "{:?} empty", p.kind);
        }
    }

    #[test]
    fn gpu4_leads_memory_kinds() {
        let r = result();
        for kind in [PageRetirementEvent, DoubleBitError] {
            let p = r.panels.iter().find(|p| p.kind == kind).unwrap();
            assert_eq!(
                p.peak_slot(),
                4,
                "paper: {} peaks on GPU 4, got {:?}",
                kind.name(),
                p.counts
            );
        }
    }

    #[test]
    fn slot0_leads_overall() {
        let r = result();
        assert_eq!(
            r.all_kinds.peak_slot(),
            0,
            "GPU 0 must lead the all-kinds histogram: {:?}",
            r.all_kinds.counts
        );
        // Reverse of the water order: downstream slots do NOT lead.
        assert!(r.all_kinds.counts[0] > r.all_kinds.counts[2]);
        assert!(r.all_kinds.counts[3] > r.all_kinds.counts[5]);
    }

    #[test]
    fn off_bus_leans_cpu1_side() {
        let r = result();
        let p = r.panels.iter().find(|p| p.kind == FallenOffTheBus).unwrap();
        let cpu0: u64 = p.counts[..3].iter().sum();
        let cpu1: u64 = p.counts[3..].iter().sum();
        assert!(
            cpu1 as f64 > cpu0 as f64 * 0.8,
            "off-the-bus should lean toward the CPU1-side GPUs: {:?}",
            p.counts
        );
    }
}
