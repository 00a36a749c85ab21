//! `cargo xtask` — repo-specific developer tooling.
//!
//! `lint` is a custom static-analysis pass built on a dependency-free
//! lexer + item-level AST-lite (`xtask::lex`, `xtask::ast`), enforcing
//! nine invariants the compiler cannot check:
//!
//! 1. **determinism** — no wall-clock or entropy-seeded randomness in
//!    the simulation/analysis crates that feed experiment outputs;
//! 2. **panic-freedom** — no `unwrap()`/`expect()`/bare `panic!` in
//!    non-test library code outside a ratcheted allowlist, and
//!    `assert!`/`assert_eq!`/`assert_ne!` sites held to a second
//!    ratcheted budget (`debug_assert!` stays free);
//! 3. **spec-constants** — `crates/sim/src/spec.rs` matches the
//!    machine-readable `paper_constants.toml` (paper Tables 1/3), and
//!    no spec value is duplicated as a magic literal elsewhere;
//! 4. **registry** — every experiment module is declared in
//!    `experiments/mod.rs`, implements the `Experiment` trait, and is
//!    entered in the static `REGISTRY` that the unified `experiments`
//!    driver and the registry-iterating smoke test run;
//! 5. **obs-coverage** — every public `run_*` entry point in
//!    `core::pipeline` and every experiment module opens at least one
//!    `summit_obs` span, so new stages cannot silently skip the
//!    self-observability layer; and every public `write_*` exporter in
//!    `obs::trace` references `TRACE_SCHEMA`, so each trace output is
//!    schema-tagged (`summit-trace/1`);
//! 6. **parallelism** — no direct `std::thread::spawn`/`scope`/
//!    `Builder` in library crates: all data-parallelism goes through
//!    the deterministic `compat/rayon` pool so it honors
//!    `SUMMIT_THREADS` and the bit-reproducibility contract;
//! 7. **hash-order** — no order-sensitive iteration over
//!    `HashMap`/`HashSet` in the data-path crates (unsorted hash
//!    iteration order can leak into figure outputs);
//! 8. **float-reduction** — no non-associative float reductions
//!    (`.sum::<f64>()`, float-accumulator `fold`/`reduce`) inside
//!    parallel pipelines outside the facade's exact merge tree;
//! 9. **lossy-cast** — no unreviewed narrowing `as` casts in
//!    `crates/{telemetry,analysis}`; checked conversions or a
//!    ratcheted budget.
//!
//! `ratchet` compares every `xtask/*_allowlist.txt` total against the
//! committed `xtask/ratchet_baseline.txt` so allowlist debt can only
//! shrink.
//!
//! `trace-validate <path>` parses an emitted `summit-trace/1` Chrome
//! trace with the repo's own `core::json` reader and checks the event
//! structure — legal phases, numeric `pid`/`tid`/`ts`, per-tid B/E
//! span balance, named thread tracks — so CI catches a malformed trace
//! before a human ever loads it in Perfetto.
//!
//! Exit codes: 0 clean, 1 violations found, 2 internal lint error
//! (unreadable workspace, malformed allowlist/baseline, bad usage).
//!
//! Run as `cargo xtask lint` (see `.cargo/config.toml` for the alias).

use std::process::ExitCode;
use std::time::Instant;
use xtask::violation::Violation;
use xtask::{json_report, ratchet, rules, workspace};

const USAGE: &str = "\
usage: cargo xtask lint [--rule <name>]... [--strict-indexing] [--json]
       cargo xtask ratchet
       cargo xtask trace-validate <trace.json>

rules: determinism | panic-freedom | spec-constants | registry | obs-coverage
       | parallelism | hash-order | float-reduction | lossy-cast
       (default: all nine)

--strict-indexing  also fail on literal slice indexing (`xs[0]`) in
                   non-test library code; advisory warnings otherwise
--json             write BENCH_lint.json (summit-lint/1: per-rule counts,
                   per-rule wall time, allowlist-debt totals)

ratchet            fail when any xtask/*_allowlist.txt total grows (or
                   silently shrinks) relative to xtask/ratchet_baseline.txt

trace-validate     parse a summit-trace/1 Chrome trace with core::json and
                   check phases, pid/tid/ts fields, per-tid B/E balance and
                   thread_name track metadata

exit codes: 0 clean · 1 violations · 2 internal lint error
";

/// Exit code for internal lint failures (distinct from violations).
const EXIT_INTERNAL: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("lint") => {}
        Some("ratchet") => return run_ratchet(),
        Some("trace-validate") => return run_trace_validate(iter.next().map(String::as_str)),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    }

    let mut selected: Vec<String> = Vec::new();
    let mut strict_indexing = false;
    let mut json = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--rule" => match iter.next() {
                Some(name) => selected.push(name.clone()),
                None => {
                    eprintln!("--rule requires a value\n{USAGE}");
                    return ExitCode::from(EXIT_INTERNAL);
                }
            },
            "--strict-indexing" => strict_indexing = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }

    let root = match workspace::workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: cannot locate workspace root: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };

    let run = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);
    let mut stats: Vec<json_report::RuleStat> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut warnings: Vec<Violation> = Vec::new();

    // Each entry runs one rule and returns `(errors, warnings)`.
    type RuleFn<'a> = Box<dyn Fn() -> (Vec<Violation>, Vec<Violation>) + 'a>;
    let rules_table: Vec<(&'static str, RuleFn)> = vec![
        (
            "determinism",
            Box::new(|| (rules::determinism::check(&root), Vec::new())),
        ),
        (
            "panic-freedom",
            Box::new(|| rules::panic_freedom::check(&root, strict_indexing)),
        ),
        (
            "spec-constants",
            Box::new(|| (rules::spec_constants::check(&root), Vec::new())),
        ),
        (
            "registry",
            Box::new(|| (rules::registry::check(&root), Vec::new())),
        ),
        (
            "obs-coverage",
            Box::new(|| (rules::obs_coverage::check(&root), Vec::new())),
        ),
        (
            "parallelism",
            Box::new(|| (rules::parallelism::check(&root), Vec::new())),
        ),
        (
            "hash-order",
            Box::new(|| (rules::hash_order::check(&root), Vec::new())),
        ),
        (
            "float-reduction",
            Box::new(|| (rules::float_reduction::check(&root), Vec::new())),
        ),
        (
            "lossy-cast",
            Box::new(|| (rules::lossy_cast::check(&root), Vec::new())),
        ),
    ];

    let known: Vec<&str> = rules_table.iter().map(|(n, _)| *n).collect();
    if let Some(bad) = selected.iter().find(|s| !known.contains(&s.as_str())) {
        eprintln!("unknown rule `{bad}`\n{USAGE}");
        return ExitCode::from(EXIT_INTERNAL);
    }

    for (name, check) in &rules_table {
        if !run(name) {
            continue;
        }
        let start = Instant::now();
        let (errs, warns) = check();
        stats.push(json_report::RuleStat {
            name,
            violations: errs.len(),
            warnings: warns.len(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
        violations.extend(errs);
        warnings.extend(warns);
    }

    violations.sort();
    warnings.sort();
    for w in &warnings {
        println!("warning: {w}");
    }
    for v in &violations {
        println!("error: {v}");
    }

    println!("rule timings:");
    for s in &stats {
        println!(
            "  {:<16} {:>3} violation(s) {:>3} warning(s) {:>9.3} ms",
            s.name, s.violations, s.warnings, s.wall_ms
        );
    }

    let debts = match json_report::allowlist_debt(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask lint: cannot total allowlist debt: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    if json {
        match json_report::write(&root, &stats, &debts) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("xtask lint: cannot write BENCH_lint.json: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }

    let internal = violations.iter().any(|v| v.internal);
    if internal {
        println!("xtask lint: internal lint error");
        ExitCode::from(EXIT_INTERNAL)
    } else if violations.is_empty() {
        println!(
            "xtask lint: clean ({} advisory warning{})",
            warnings.len(),
            if warnings.len() == 1 { "" } else { "s" }
        );
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// `cargo xtask trace-validate <path>` — the trace-structure gate.
fn run_trace_validate(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("trace-validate requires a trace path\n{USAGE}");
        return ExitCode::from(EXIT_INTERNAL);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-validate: cannot read {path}: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    match xtask::trace_validate::validate(&text) {
        Ok(report) => {
            println!(
                "xtask trace-validate: {path}: {}",
                xtask::trace_validate::summary(&report)
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                println!("error: [trace] {path}: {e}");
            }
            println!("xtask trace-validate: {} error(s)", errors.len());
            ExitCode::FAILURE
        }
    }
}

/// `cargo xtask ratchet` — the allowlist-growth gate.
fn run_ratchet() -> ExitCode {
    let root = match workspace::workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: cannot locate workspace root: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };
    match ratchet::check(&root) {
        Ok(errors) if errors.is_empty() => {
            println!("xtask ratchet: allowlist totals match the baseline");
            ExitCode::SUCCESS
        }
        Ok(errors) => {
            for e in &errors {
                println!("error: [ratchet] {e}");
            }
            println!("xtask ratchet: {} mismatch(es)", errors.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask ratchet: {e}");
            ExitCode::from(EXIT_INTERNAL)
        }
    }
}
