//! # pcr-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! PCR paper (see `DESIGN.md` for the experiment index). The `experiments`
//! binary dispatches to the modules here; the catalog-scale gate lives
//! under `benches/` (the wall-clock worker-scaling sweep is `pcr bench`).
//!
//! ```
//! use pcr_bench::{Ctx, STANDARD_GROUPS};
//!
//! let ctx = Ctx::from_arg(Some("tiny"));
//! assert_eq!(ctx.scale, pcr_datasets::Scale::Tiny);
//! assert_eq!(STANDARD_GROUPS, [1, 2, 5, 10]);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod context;
pub mod exp_fluctuate;
pub mod exp_micro;
pub mod exp_sizes;
pub mod exp_tables;
pub mod exp_tta;
pub mod exp_tuning;

pub use context::{Ctx, STANDARD_GROUPS};
