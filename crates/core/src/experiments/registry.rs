//! The unified experiment registry.
//!
//! Every study in this reproduction registers here as a first-class
//! [`Experiment`]: a named, self-describing unit that accepts a JSON
//! config (its scaled defaults merged with user overrides), pulls its
//! expensive inputs through a shared [`ScenarioCache`], and returns its
//! rendered report. Each module's typed `run` (`Config` in, typed
//! result out, `render()` on the result) is the study's one entry point;
//! the trait is the type-erased layer that lets one driver binary list,
//! configure and run the whole suite — and lets a full-suite run
//! generate each population/engine/failure artifact exactly once.
//!
//! Config validation is typed: the typed `run` checks its `Config`
//! before it opens the study's span and reports invalid configuration
//! as [`ExperimentError::InvalidConfig`], never as a panic. An adapter
//! only decodes JSON into the `Config` (a wrong shape or type is its
//! error) and renders the result.

use crate::cache::ScenarioCache;
use crate::json::Json;
use std::fmt;
use std::ops::RangeInclusive;
use summit_sim::spec;

/// A typed experiment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The user-supplied configuration is invalid for this experiment.
    InvalidConfig(String),
    /// No registered experiment has the requested name.
    UnknownExperiment(String),
}

impl ExperimentError {
    /// Builds an [`ExperimentError::InvalidConfig`] tagged with the
    /// experiment name.
    pub fn invalid(experiment: &str, message: impl fmt::Display) -> Self {
        Self::InvalidConfig(format!("{experiment}: {message}"))
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            Self::UnknownExperiment(name) => write!(
                f,
                "unknown experiment `{name}` (run with --list for the registry)"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// A registered paper study: list it, configure it with JSON, run it
/// through the shared scenario cache, get its rendered report.
pub trait Experiment: Sync {
    /// Stable registry name (the experiment module's name).
    fn name(&self) -> &'static str;

    /// One-line description shown by `experiments --list`.
    fn summary(&self) -> &'static str;

    /// The study's default configuration at `scale` (fraction of paper
    /// fidelity in `(0, 1]`; 1.0 = paper scale), as a JSON object whose
    /// keys mirror the module's `Config` fields.
    fn default_config(&self, scale: f64) -> Json;

    /// Runs the study with a JSON config (normally
    /// [`Self::default_config`] merged with overrides), acquiring
    /// expensive inputs through `cache`, and returns the rendered
    /// report.
    fn run(&self, cache: &ScenarioCache, config: &Json) -> Result<String, ExperimentError>;
}

/// Every registered study, in paper order (tables and figures first,
/// then the related-work extension studies).
pub static REGISTRY: &[&dyn Experiment] = &[
    &super::tables::Study,
    &super::table2::Study,
    &super::fig04::Study,
    &super::fig05::Study,
    &super::fig06::Study,
    &super::fig07::Study,
    &super::fig08::Study,
    &super::fig09::Study,
    &super::fig10::Study,
    &super::fig11::Study,
    &super::fig12::Study,
    &super::table4::Study,
    &super::fig13::Study,
    &super::fig14::Study,
    &super::fig15::Study,
    &super::fig16::Study,
    &super::fig17::Study,
    &super::power_aware::Study,
    &super::early_warning::Study,
    &super::titan_contrast::Study,
];

/// Looks an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().find(|e| e.name() == name).copied()
}

/// Runs a registered experiment by name: the study's defaults at
/// `scale`, merged with `overrides` (if any), through `cache`.
pub fn run_by_name(
    cache: &ScenarioCache,
    name: &str,
    scale: f64,
    overrides: Option<&Json>,
) -> Result<String, ExperimentError> {
    let exp = find(name).ok_or_else(|| ExperimentError::UnknownExperiment(name.to_string()))?;
    let mut config = exp.default_config(scale);
    if let Some(over) = overrides {
        config.merge(over);
    }
    exp.run(cache, &config)
}

/// Clamps a fidelity scale into `(0, 1]`, treating non-finite input as
/// full fidelity.
pub fn clamp_scale(scale: f64) -> f64 {
    if scale.is_finite() {
        scale.clamp(1e-4, 1.0)
    } else {
        1.0
    }
}

/// The cabinet counts a scaled floor can have: one up to the full floor.
const CABINETS: RangeInclusive<usize> = 1..=spec::TOTAL_CABINETS;

/// Validates a floor size in [`CABINETS`].
pub(crate) fn ensure_cabinets(
    experiment: &'static str,
    cabinets: usize,
) -> Result<(), ExperimentError> {
    if CABINETS.contains(&cabinets) {
        Ok(())
    } else {
        Err(ExperimentError::invalid(
            experiment,
            format!(
                "cabinets must be in {}..={}, got {cabinets}",
                CABINETS.start(),
                CABINETS.end()
            ),
        ))
    }
}

/// Typed field access over a JSON config object; every failure carries
/// the experiment name and offending key.
pub(crate) struct Cfg<'a> {
    experiment: &'static str,
    json: &'a Json,
}

impl<'a> Cfg<'a> {
    /// Wraps a config, requiring a JSON object.
    pub fn new(experiment: &'static str, json: &'a Json) -> Result<Self, ExperimentError> {
        match json {
            Json::Obj(_) => Ok(Self { experiment, json }),
            other => Err(ExperimentError::invalid(
                experiment,
                format!("config must be a JSON object, got `{other}`"),
            )),
        }
    }

    fn field(&self, key: &str) -> Result<&'a Json, ExperimentError> {
        self.json
            .get(key)
            .ok_or_else(|| ExperimentError::invalid(self.experiment, format!("missing `{key}`")))
    }

    fn bad(&self, key: &str, want: &str, got: &Json) -> ExperimentError {
        ExperimentError::invalid(
            self.experiment,
            format!("`{key}` must be {want}, got `{got}`"),
        )
    }

    /// A required number field (`null` reads as infinity).
    pub fn f64(&self, key: &str) -> Result<f64, ExperimentError> {
        let v = self.field(key)?;
        v.as_f64().ok_or_else(|| self.bad(key, "a number", v))
    }

    /// A required non-negative integer field.
    pub fn usize(&self, key: &str) -> Result<usize, ExperimentError> {
        let v = self.f64(key)?;
        if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 {
            Ok(v as usize)
        } else {
            Err(self.bad(key, "a non-negative integer", &Json::Num(v)))
        }
    }

    /// A required `u64` field.
    pub fn u64(&self, key: &str) -> Result<u64, ExperimentError> {
        self.usize(key).map(|v| v as u64)
    }

    /// A required `u8` field.
    pub fn u8(&self, key: &str) -> Result<u8, ExperimentError> {
        let v = self.usize(key)?;
        u8::try_from(v).map_err(|_| self.bad(key, "an integer in 0..=255", &Json::from(v)))
    }

    /// A required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, ExperimentError> {
        let v = self.field(key)?;
        v.as_bool().ok_or_else(|| self.bad(key, "a boolean", v))
    }

    /// A required list-of-numbers field; `null` items read as infinity
    /// (the "no cap" encoding — JSON has no infinity literal).
    pub fn f64_list(&self, key: &str) -> Result<Vec<f64>, ExperimentError> {
        let v = self.field(key)?;
        let items = v.as_arr().ok_or_else(|| self.bad(key, "an array", v))?;
        items
            .iter()
            .map(|item| {
                item.as_f64()
                    .ok_or_else(|| self.bad(key, "an array of numbers", v))
            })
            .collect()
    }

    /// An optional two-number field (`null` = absent).
    pub fn opt_f64_pair(&self, key: &str) -> Result<Option<(f64, f64)>, ExperimentError> {
        match self.field(key)? {
            Json::Null => Ok(None),
            v => match v.as_arr() {
                Some([a, b]) => match (a.as_f64(), b.as_f64()) {
                    (Some(a), Some(b)) => Ok(Some((a, b))),
                    _ => Err(self.bad(key, "a pair of numbers or null", v)),
                },
                _ => Err(self.bad(key, "a pair of numbers or null", v)),
            },
        }
    }

    /// An optional `u16` field (`null` = absent).
    pub fn opt_u16(&self, key: &str) -> Result<Option<u16>, ExperimentError> {
        match self.field(key)? {
            Json::Null => Ok(None),
            v => {
                let n = v
                    .as_f64()
                    .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
                    .and_then(|n| u16::try_from(n as u64).ok())
                    .ok_or_else(|| self.bad(key, "a u16 or null", v))?;
                Ok(Some(n))
            }
        }
    }
}

/// Validates a population scale (fraction of the paper's 840k jobs).
pub(crate) fn ensure_population_scale(
    experiment: &'static str,
    scale: f64,
) -> Result<(), ExperimentError> {
    if scale > 0.0 && scale <= 1.0 {
        Ok(())
    } else {
        Err(ExperimentError::invalid(
            experiment,
            format!("population_scale must be in (0, 1], got {scale}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 20, "all paper studies registered");
        let full = names.clone();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len(), "duplicate registry name");
        assert_eq!(find("fig08").map(|e| e.name()), Some("fig08"));
        assert!(find("fig99").is_none());
    }

    #[test]
    fn every_summary_and_default_config_is_well_formed() {
        for exp in REGISTRY {
            assert!(!exp.summary().is_empty(), "{} summary", exp.name());
            let cfg = exp.default_config(0.01);
            assert!(
                matches!(cfg, Json::Obj(_)),
                "{} default config must be an object",
                exp.name()
            );
            // Defaults must parse back through their own Display form.
            assert_eq!(Json::parse(&cfg.to_string()).unwrap(), sanitize(cfg));
        }
    }

    /// Display writes non-finite numbers as null; mirror that for the
    /// round-trip comparison.
    fn sanitize(v: Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.into_iter().map(sanitize).collect()),
            Json::Obj(pairs) => {
                Json::Obj(pairs.into_iter().map(|(k, v)| (k, sanitize(v))).collect())
            }
            other => other,
        }
    }

    #[test]
    fn json_parse_survives_seeded_fuzzing_and_round_trips() {
        // A fixed seed and case budget: random strings of JSON tokens,
        // then byte mutations of every default config. Parsing must never
        // panic, and whatever parses must read back equal through its
        // Display form.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const CASES: usize = 20_000;
        const WORDS: &[&str] = &["\\u", "\\ud800", "\\n", "1e400", "null", "true", "false"];
        let tokens: Vec<String> = "{}[]\":, \n\\+-.eE07aé\u{7}\u{1f600}"
            .chars()
            .map(String::from)
            .chain(WORDS.iter().map(|w| w.to_string()))
            .collect();
        let check = |text: &str| {
            if let Ok(v) = Json::parse(text) {
                let back = Json::parse(&v.to_string());
                assert_eq!(back, Ok(sanitize(v)), "{text:?}");
            }
        };
        let mut rng = StdRng::seed_from_u64(0x150_7e57);
        for _ in 0..CASES {
            let len = rng.gen_range(0..24);
            let text: String = (0..len)
                .map(|_| tokens[rng.gen_range(0..tokens.len())].as_str())
                .collect();
            check(&text);
        }
        let docs: Vec<String> = REGISTRY
            .iter()
            .map(|e| e.default_config(0.05).to_string())
            .collect();
        for _ in 0..CASES {
            let mut bytes = docs[rng.gen_range(0..docs.len())].clone().into_bytes();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..=bytes.len());
                match rng.gen_range(0..4) {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 => bytes.insert(at, rng.gen()),
                    _ => {
                        let token = &tokens[rng.gen_range(0..tokens.len())];
                        bytes.splice(at..at, token.bytes());
                    }
                }
            }
            check(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn unknown_experiment_is_a_typed_error() {
        let cache = ScenarioCache::new();
        let err = run_by_name(&cache, "fig99", 0.01, None).unwrap_err();
        assert_eq!(err, ExperimentError::UnknownExperiment("fig99".into()));
    }

    #[test]
    fn cfg_reports_offending_keys() {
        let json = Json::parse(r#"{"a": 1.5, "b": [1, null], "c": null, "d": [2, 3]}"#).unwrap();
        let cfg = Cfg::new("demo", &json).unwrap();
        assert_eq!(cfg.f64("a").unwrap(), 1.5);
        assert!(matches!(
            cfg.usize("a"),
            Err(ExperimentError::InvalidConfig(m)) if m.contains("`a`")
        ));
        assert_eq!(cfg.f64_list("b").unwrap(), vec![1.0, f64::INFINITY]);
        assert_eq!(cfg.opt_f64_pair("c").unwrap(), None);
        assert_eq!(cfg.opt_f64_pair("d").unwrap(), Some((2.0, 3.0)));
        assert_eq!(cfg.opt_u16("c").unwrap(), None);
        assert!(cfg.f64("missing").is_err());
    }

    #[test]
    fn clamp_scale_bounds() {
        assert_eq!(clamp_scale(0.5), 0.5);
        assert_eq!(clamp_scale(7.0), 1.0);
        assert_eq!(clamp_scale(0.0), 1e-4);
        assert_eq!(clamp_scale(f64::NAN), 1.0);
    }
}
