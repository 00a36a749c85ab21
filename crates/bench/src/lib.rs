//! Shared plumbing for the experiment driver and the remaining standalone
//! binaries.
//!
//! Figure/table regeneration goes through the unified [`driver`] (the
//! `experiments` binary); `--full` selects paper-fidelity runs (full
//! floor, year-scale populations — minutes of runtime) while the
//! default smoke scale regenerates the same rows in seconds.

pub mod driver;
pub mod obs_report;

/// Run fidelity selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Reduced scale: seconds of runtime, shapes preserved.
    Quick,
    /// Paper scale: full floor / year-scale populations.
    Full,
}

/// Parses the binary's command line (`--full` selects full fidelity).
pub fn fidelity() -> Fidelity {
    if std::env::args().any(|a| a == "--full") {
        Fidelity::Full
    } else {
        Fidelity::Quick
    }
}

/// Prints the standard header for a regeneration binary.
pub fn header(artifact: &str, fidelity: Fidelity) {
    println!(
        "[summit-repro] regenerating {artifact} ({} fidelity{})\n",
        match fidelity {
            Fidelity::Quick => "quick",
            Fidelity::Full => "paper",
        },
        if fidelity == Fidelity::Quick {
            "; pass --full for paper scale"
        } else {
            ""
        }
    );
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn default_fidelity_is_quick() {
        // The test harness passes no --full flag.
        assert_eq!(fidelity(), Fidelity::Quick);
    }
}
