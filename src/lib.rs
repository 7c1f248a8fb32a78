//! # pcr — Progressive Compressed Records
//!
//! A Rust implementation of *"Progressive Compressed Records: Taking a
//! Byte out of Deep Learning Data"* (Kuchnik, Amvrosiadis, Smith — VLDB
//! 2021), including every substrate the paper depends on: a pure-Rust
//! progressive JPEG codec, the PCR storage format, simulated storage
//! devices, a prefetching data loader, synthetic evaluation datasets, a
//! small neural-network trainer, scan-group autotuning policies, and the
//! experiment harness that regenerates the paper's tables and figures.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`jpeg`] | `pcr-jpeg` | baseline + progressive JPEG, transcode, scan splitting |
//! | [`core`] | `pcr-core` | the PCR record/dataset format and baseline layouts |
//! | [`storage`] | `pcr-storage` | device models, page cache, object store |
//! | [`loader`] | `pcr-loader` | the prefetching loader, fault recovery, fidelity control |
//! | [`datasets`] | `pcr-datasets` | synthetic ImageNet/HAM/Cars/CelebA stand-ins |
//! | [`nn`] | `pcr-nn` | MLP models, SGD, LR schedules, gradient probes |
//! | [`metrics`] | `pcr-metrics` | MSSIM, statistics, regression, histograms |
//! | [`sim`] | `pcr-sim` | queueing lemmas, loader model, pipeline sim, time-to-accuracy |
//! | [`autotune`] | `pcr-autotune` | plateau detection, selection rules, mixtures |
//!
//! ## Quickstart
//!
//! ```
//! use pcr::core::{PcrRecordBuilder, PcrRecord, SampleMeta};
//! use pcr::jpeg::ImageBuf;
//!
//! // Encode two images into one PCR record.
//! let img = ImageBuf::from_raw(32, 32, 3, vec![120; 32 * 32 * 3]).unwrap();
//! let mut builder = PcrRecordBuilder::with_default_groups();
//! builder.add_image(SampleMeta { label: 0, id: "a".into() }, &img, 85).unwrap();
//! builder.add_image(SampleMeta { label: 1, id: "b".into() }, &img, 85).unwrap();
//! let bytes = builder.build().unwrap();
//!
//! // Read only the prefix needed for scan group 2 — sequential I/O.
//! let record = PcrRecord::parse(&bytes).unwrap();
//! let prefix = &bytes[..record.offset_for_group(2)];
//! let view = PcrRecord::parse(prefix).unwrap();
//! let preview = view.decode_image(0, 2).unwrap();
//! assert_eq!(preview.width(), 32);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use pcr_autotune as autotune;
pub use pcr_core as core;
pub use pcr_datasets as datasets;
pub use pcr_jpeg as jpeg;
pub use pcr_loader as loader;
pub use pcr_metrics as metrics;
pub use pcr_nn as nn;
pub use pcr_sim as sim;
pub use pcr_storage as storage;
