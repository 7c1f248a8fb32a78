//! # pcr-sim
//!
//! The experiment engine for the PCR reproduction: the paper's Appendix
//! A.2 queueing lemmas as executable code, the closed-system loader model
//! ([`model_epoch`]: a greedy N-lane timeline of virtual-clock reads) and
//! its coupling to the compute unit with per-iteration data-stall
//! accounting (Appendix A.1 / Figure 11), scan-group featurization of synthetic datasets, and the
//! end-to-end time-to-accuracy trainer with static and dynamic
//! (loss-probe, gradient-cosine, mixture) scan-group control.
//!
//! The queueing lemmas alone predict the paper's headline result — halving
//! bytes per image doubles a storage-bound loader, but the end-to-end win
//! is clipped by the compute roof:
//!
//! ```
//! use pcr_sim::{loader_throughput, pipeline_speedup, system_throughput};
//! use pcr_storage::DeviceProfile;
//!
//! let hdd = DeviceProfile::hdd_7200rpm();
//! let (full, half) = (110.0 * 1024.0, 55.0 * 1024.0); // bytes/image
//! let x_full = loader_throughput(&hdd, full, 1024); // Lemma A.2
//! let x_half = loader_throughput(&hdd, half, 1024);
//! assert!(x_half > 1.9 * x_full, "storage-bound: ~2x from half the bytes");
//! assert_eq!(pipeline_speedup(full, half), 2.0); // Lemma A.3
//!
//! // Lemma A.4: a 800 img/s compute unit caps the delivered rate.
//! let delivered = system_throughput(800.0, x_half);
//! assert_eq!(delivered, x_half.min(800.0));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

#![warn(missing_docs)]

pub mod dynamic;
pub mod features;
pub mod pipeline;
pub mod queueing;
pub mod trainer;

pub use dynamic::{train_dynamic_cosine, train_dynamic_loss, DynamicConfig};
pub use features::{featurize, FeaturizedDataset};
pub use pipeline::{
    model_epoch, run_pipeline, ComputeUnit, IterationTiming, ModeledEpoch, ModeledRecord,
    PipelineTrace, BASELINE_DECODE_S_PER_BYTE, PROGRESSIVE_DECODE_S_PER_BYTE,
};
pub use queueing::{
    expected_item_read_time, loader_throughput, max_system_speedup, pipeline_speedup,
    roofline_sweep, system_throughput, RooflinePoint,
};
pub use trainer::{train_fixed_group, TracePoint, TrainConfig, Trainer, TrainingTrace};
