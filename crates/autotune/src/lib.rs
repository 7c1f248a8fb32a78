//! # pcr-autotune
//!
//! Scan-group tuning policies from the paper's section 4.5 and Appendix
//! A.6: loss-plateau detection (the dynamic tuning trigger), threshold
//! selection of the cheapest qualifying scan group (gradient cosine or
//! MSSIM), and mixture training distributions over scan groups.
//!
//! These are pure policies over numbers, independently testable. Their
//! live consumers are `pcr-loader`'s `FidelityController` — which wires
//! plateau detection and lowest-qualifying-group selection into the
//! wall-clock parallel loader to adjust the scan-group prefix online —
//! and the simulated training loops in `pcr-sim`.
//!
//! ```
//! use pcr_autotune::{
//!     select_lowest_qualifying, MixturePolicy, PlateauDetector, DEFAULT_COSINE_THRESHOLD,
//! };
//!
//! // Flat losses trip the plateau detector, triggering the tuning phase.
//! let mut detector = PlateauDetector::new(2, 0.01);
//! let mut plateaued = false;
//! for loss in [1.0, 0.6, 0.41, 0.40, 0.401, 0.399] {
//!     plateaued = detector.push(loss);
//! }
//! assert!(plateaued);
//!
//! // Gradient-cosine selection: the cheapest group clearing 90%.
//! let scores = [(1, 0.62), (2, 0.85), (5, 0.93), (10, 1.0)];
//! let chosen = select_lowest_qualifying(&scores, DEFAULT_COSINE_THRESHOLD);
//! assert_eq!(chosen, 5);
//!
//! // Hedge with a mixture biased toward the selected group (A.6.3).
//! let mix = MixturePolicy::selected(&[1, 2, 5, 10], chosen, 7.0);
//! assert_eq!(mix.probability(5), 0.7);
//! assert_eq!(mix.probability(1), 0.1);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod mixture;
pub mod plateau;
pub mod select;

pub use mixture::MixturePolicy;
pub use plateau::PlateauDetector;
pub use select::{select_lowest_qualifying, DEFAULT_COSINE_THRESHOLD, DEFAULT_MSSIM_THRESHOLD};
