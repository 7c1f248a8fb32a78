//! # pcr-loader
//!
//! The data-loading pipelines of the paper's Appendix A.1, in two
//! interchangeable flavors sharing one [`LoaderConfig`]:
//!
//! * [`loader::PcrLoader`] — the *virtual-time* loader: a closed system of
//!   prefetch workers whose reads and decodes are charged to a simulated
//!   clock, so experiments are deterministic and device-independent.
//! * [`parallel::ParallelLoader`] — the *wall-clock* loader: a real
//!   OS-thread worker pool over bounded crossbeam channels that reads
//!   record prefixes, decodes truncated progressive JPEGs, and yields
//!   [`Minibatch`]es with double-buffered prefetch.
//!
//! The baseline formats (fixed-quality record files and file-per-image)
//! are not separate loaders but another [`source::RecordSource`]: a
//! `[ObjectMeta]` slice plans whole-object reads, and
//! `PcrLoader::over(&store, &objects[..], config)` runs it on the same
//! worker/timing model, so end-to-end comparisons are apples-to-apples.
//!
//! Both loaders plan reads through one abstraction — [`source::RecordSource`]
//! (what to read) + [`source::ReadPlanner`] (how much, in which order) —
//! and read through the store's single clocked path
//! ([`pcr_storage::ObjectStore::read`]), so wall-clock workers share the
//! page cache, readahead, and device statistics with the virtual-time
//! loader. They deliver each record through one step (decode check,
//! fidelity ladder, retries, fault accounting; see [`retry`]) and report
//! each epoch in one [`EpochReport`], whose fields mean the same on
//! either clock. On top sits the policy layer: [`fidelity::FidelityController`]
//! adjusts the scan-group prefix online from loss plateaus and MSSIM
//! scores — the paper's *dynamic* compression knob — and
//! [`ParallelLoader::run_dynamic`] is the one epoch loop around both: it
//! hands each epoch's minibatches to the caller's training step, folds
//! the epoch into a trace entry ([`EpochStream::fold`]) and emits the
//! records the container's decision log is owed. `pcr train` is a caller
//! of that loop, not a copy of it.
//!
//! ```
//! use std::sync::Arc;
//! use pcr_core::{PcrDatasetBuilder, SampleMeta};
//! use pcr_jpeg::ImageBuf;
//! use pcr_loader::{populate_store, ParallelConfig, ParallelLoader, PcrLoader, LoaderConfig};
//! use pcr_storage::{DeviceProfile, ObjectStore};
//!
//! // A 6-image dataset in 2 records.
//! let mut b = PcrDatasetBuilder::new(3, 10);
//! for i in 0..6u32 {
//!     let img = ImageBuf::from_raw(16, 16, 3, vec![(40 * i) as u8; 16 * 16 * 3]).unwrap();
//!     b.add_image(SampleMeta { label: i % 2, id: format!("img{i}") }, &img, 85).unwrap();
//! }
//! let ds = b.finish().unwrap();
//! let store = Arc::new(ObjectStore::new(DeviceProfile::ssd_sata()));
//! populate_store(&store, &ds);
//! let db = Arc::new(ds.db.clone());
//!
//! // Virtual time: a modeled epoch at scan group 2 — its report and the
//! // per-record timeline.
//! let (modeled, records) =
//!     PcrLoader::new(&store, &db, LoaderConfig::at_group(2)).run_epoch(0, 0.0);
//! assert_eq!((modeled.images, records.len()), (6, 2));
//!
//! // Wall clock: the same records through real worker threads, in the
//! // same report.
//! let measured = ParallelLoader::new(store, db, ParallelConfig::real(2, 2)).run_epoch(0);
//! assert_eq!(measured.images, 6);
//! assert_eq!(measured.bytes, modeled.bytes);
//! assert_eq!(measured.faults, modeled.faults);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod config;
pub mod fidelity;
mod handoff;
pub mod loader;
pub mod order;
pub mod parallel;
mod report;
pub mod retry;
pub mod sharded;
pub mod source;
pub mod timing;

pub use config::{DecodeMode, LoaderConfig};
pub use fidelity::{probe_source_scores, FidelityConfig, FidelityController, FidelityDecision};
pub use loader::{populate_store, LoadedRecord, PcrLoader};
pub use order::EpochOrder;
pub use parallel::{EpochStream, IoModel, Minibatch, ParallelConfig, ParallelLoader, ParallelStats};
pub use report::{Bottleneck, EpochReport};
pub use retry::{FaultReport, QuarantineEntry, RetryPolicy, QUARANTINE_DETAIL_CAP};
pub use sharded::{open_container_store, OpenedContainer, ShardStoreConfig, ShardedSource};
pub use source::{ObjectMeta, ReadPlan, ReadPlanner, RecordSource};
