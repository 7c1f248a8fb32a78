//! `pcr-analyze`: repo-invariant static analysis for the PCR workspace.
//!
//! The workspace carries three classes of invariants that ordinary tests
//! cannot enforce mechanically: decode/parse layers consume untrusted
//! bytes and must fail with `Error::Corrupt`-style values instead of
//! panicking; the clocked read path depends on virtual-time code never
//! observing the wall clock; and allocation sizes must not be driven by
//! unvalidated wire integers. This crate checks those invariants as
//! *lexical* lint rules over the workspace's own source — a hand-rolled
//! comment/string/raw-string-aware lexer ([`lexer`]) feeds a small rule
//! engine ([`rules`]) that emits a machine-readable JSON report.
//!
//! The companion runtime layer is the `pcr-debug-sync` feature on the
//! vendored `parking_lot` shim, whose `Mutex` every lock in the workspace
//! uses: a lock-order graph with cycle detection, exercised by running
//! the test suite with the feature enabled.
//!
//! See `ARCHITECTURE.md` ("Static analysis & invariants") for each
//! rule's rationale and the `// pcr-lint: allow(<rule>)` convention.
//!
//! ```
//! use pcr_analyze::rules::analyze_source;
//!
//! let report = analyze_source(
//!     "crates/core/src/wire.rs",
//!     "fn f(v: &[u8]) -> u8 { v[0] }",
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, "no-panic-in-hot-path");
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
