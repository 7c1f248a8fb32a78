//! # pcr-metrics
//!
//! Image-quality metrics and statistics for the PCR reproduction:
//! single-scale SSIM and multiscale SSIM (the paper's compression-tolerance
//! estimator), summary statistics (means, quartiles, cosine similarity),
//! ordinary-least-squares regression with slope p-values (Figure 7), log2
//! histograms (Figure 12), and the JSON [`FidelityTrace`] export that
//! records a fidelity-controlled run's per-epoch trajectory.
//!
//! ```
//! use pcr_metrics::{quartiles, ssim, Log2Histogram, Plane};
//!
//! // SSIM is 1 for identical planes and degrades with distortion.
//! let a = Plane::from_u8(32, 32, &[120u8; 32 * 32]);
//! let b = Plane::from_u8(32, 32, &[180u8; 32 * 32]);
//! assert!((ssim(&a, &a) - 1.0).abs() < 1e-9);
//! assert!(ssim(&a, &b) < 1.0);
//!
//! // Quartiles of repeated measurements (Figures 16-17 style).
//! let (q1, median, q3) = quartiles(&[10.0, 11.0, 9.0, 10.5, 9.5]);
//! assert_eq!((q1, median, q3), (9.5, 10.0, 10.5));
//!
//! // Log2 histogram of image sizes (Figure 12).
//! let mut h = Log2Histogram::image_sizes();
//! h.add(100_000);
//! h.add(110_000);
//! assert_eq!(h.total(), 2);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod histogram;
pub mod json;
#[cfg(test)]
mod reference;
pub mod regression;
pub mod ssim;
pub mod stats;
pub mod trace;

pub use histogram::Log2Histogram;
pub use json::JsonValue;
pub use regression::{linear_regression, student_t_sf, LinearFit};
pub use ssim::{msssim, ssim, MsssimReference, Plane};
pub use stats::{cosine_similarity, cosine_similarity_f32, mean, quantile, quartiles};
pub use trace::{EpochFaultCounters, FidelityEpoch, FidelityTrace, TriggerKind};
