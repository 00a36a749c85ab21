//! Library surface of the `xtask` developer tool.
//!
//! The lint rules live here (rather than in the binary) so the fixture
//! integration tests in `xtask/tests/` can point each rule at a
//! miniature violating/clean workspace and assert exactly where it
//! fires. See `src/main.rs` for the CLI.

pub mod ast;
pub mod expr;
pub mod json_report;
pub mod lex;
pub mod ratchet;
pub mod rules;
pub mod source;
pub mod toml_lite;
pub mod trace_validate;
pub mod violation;
pub mod workspace;
