//! # pcr-metrics
//!
//! Image-quality metrics and statistics for the PCR reproduction:
//! single-scale SSIM and multiscale SSIM (the paper's compression-tolerance
//! estimator), summary statistics with 95% confidence intervals,
//! ordinary-least-squares regression with slope p-values (Figure 7), log2
//! histograms (Figure 12), and the JSON [`FidelityTrace`] export that
//! records a fidelity-controlled run's per-epoch trajectory.
//!
//! ```
//! use pcr_metrics::{mean_ci95, ssim, Log2Histogram, Plane};
//!
//! // SSIM is 1 for identical planes and degrades with distortion.
//! let a = Plane::from_u8(32, 32, &[120u8; 32 * 32]);
//! let b = Plane::from_u8(32, 32, &[180u8; 32 * 32]);
//! assert!((ssim(&a, &a) - 1.0).abs() < 1e-9);
//! assert!(ssim(&a, &b) < 1.0);
//!
//! // Summary statistics with a 95% confidence interval (Table 2 style).
//! let (mean, ci) = mean_ci95(&[10.0, 11.0, 9.0, 10.5, 9.5]);
//! assert!((mean - 10.0).abs() < 1e-9 && ci > 0.0);
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
pub use ssim::{msssim, msssim_u8, ssim, MsssimReference, Plane};
pub use stats::{
    cosine_similarity, cosine_similarity_f32, mean, mean_ci95, quantile, quartiles, std_dev,
};
pub use trace::{EpochFaultCounters, FidelityEpoch, FidelityTrace, TriggerKind};
