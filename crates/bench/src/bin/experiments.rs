//! Unified driver over the experiment registry.
//!
//! ```text
//! cargo run --release -p summit-bench --bin experiments -- --list
//! cargo run --release -p summit-bench --bin experiments -- --all
//! cargo run --release -p summit-bench --bin experiments -- fig08 --scale 0.1
//! cargo run --release -p summit-bench --bin experiments -- table4 --json \
//!     --config '{"weeks": 12}'
//! ```

use std::io::Write;
use std::process::ExitCode;
use summit_bench::driver::{self, Invocation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Invocation::parse(args).and_then(|inv| driver::run(&inv));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            // A reader that closes stderr early (`2>&1 | head -1`) must
            // not turn the rejection into a panic: the status stays 1.
            let _ = writeln!(std::io::stderr(), "error: {err}\n\n{}", driver::USAGE);
            ExitCode::FAILURE
        }
    }
}
