//! # pcr-loader
//!
//! The data-loading pipeline of the paper's Appendix A.1:
//! [`parallel::ParallelLoader`], a real OS-thread pipeline of fetchers, a
//! decode pool and an assembler, joined by bounded in-order windows, that
//! reads record prefixes, decodes truncated progressive JPEGs, and yields
//! [`Minibatch`]es through a bounded `std::sync::mpsc` channel with
//! double-buffered prefetch. Every delivered record comes out of it; the paper's
//! closed-system *model* of a loader (a timeline on a virtual clock, for
//! experiments that must be deterministic and device-independent) is a
//! function in `pcr-sim`, not a second loader.
//!
//! The loader plans reads through one abstraction —
//! [`source::RecordSource`] (what to read: a [`MetaDb`](pcr_core::MetaDb)
//! of per-record objects or a packed container's [`ShardedSource`]) +
//! [`source::ReadPlanner`] (how much, in which order) — and reads through
//! the store's single clocked path ([`pcr_storage::ObjectStore::read`]),
//! so its workers share the page cache, readahead, and device statistics
//! with every other reader. It delivers each record through one step
//! (decode check, fidelity ladder, retries, fault accounting; see
//! [`retry`]) and reports each epoch in one [`EpochReport`]. On top sits
//! the policy layer: [`fidelity::FidelityController`] adjusts the
//! scan-group prefix online from loss plateaus and MSSIM scores — the
//! paper's *dynamic* compression knob — and
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
//! use pcr_loader::{populate_store, ParallelConfig, ParallelLoader};
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
//! // A pool of at least two decode threads at scan group 2: every image,
//! // decoded, in epoch order, and the group-2 prefix of every record
//! // read once.
//! let loader = ParallelLoader::new(store, db, ParallelConfig::real(2, 2));
//! let (images, report) =
//!     loader.spawn_epoch(0).fold(|batches| batches.map(|b| b.images.len()).sum::<usize>());
//! assert_eq!((images, report.images), (6, 6));
//! assert_eq!(report.bytes, ds.db.bytes_at_group(2));
//! assert!(report.faults.is_clean());
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod config;
mod crew;
pub mod fidelity;
mod handoff;
pub mod order;
pub mod parallel;
mod report;
pub mod retry;
pub mod sharded;
pub mod source;
pub mod timing;

pub use config::{DecodeMode, LoaderConfig};
pub use fidelity::{probe_source_scores, FidelityConfig, FidelityController, FidelityDecision};
pub use order::EpochOrder;
pub use parallel::{EpochStream, IoModel, Minibatch, ParallelConfig, ParallelLoader, ParallelStats};
pub use report::{Bottleneck, EpochReport};
pub use retry::{FaultReport, QuarantineEntry, RetryPolicy, QUARANTINE_DETAIL_CAP};
pub use sharded::{open_container_store, OpenedContainer, ShardStoreConfig, ShardedSource};
pub use source::{populate_store, ReadPlan, ReadPlanner, RecordSource};
