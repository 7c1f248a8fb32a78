//! # pcr-storage
//!
//! Simulated storage substrate for the PCR reproduction: parametric device
//! models (7200RPM HDD, SATA SSD, Ceph-like aggregate cluster), a
//! thread-safe shared device with sequential-access detection that queues
//! concurrent requests, a page-cache model, and an object store combining
//! them.
//!
//! The paper's systems results depend only on the ratio between compute
//! throughput and storage bandwidth (its Appendix A.2 queueing analysis);
//! these models let experiments sweep that ratio deterministically instead
//! of requiring the authors' 16-node cluster.
//!
//! There is one read path, [`ObjectStore::read`], parameterized by a
//! [`Clock`]: virtual-clock readers queue against the simulated device
//! ([`Clock::Virtual`]), wall-clock workers get the modeled service time
//! back as a duration ([`Clock::Wall`]) — and *both* share the page cache,
//! readahead, and device/cache statistics. Reads return
//! `Result<ReadResult, ReadError>`: a missing object is
//! [`ReadError::NotFound`], and an installed [`FaultPlan`]
//! ([`ObjectStore::set_fault_plan`]) injects deterministic, seed-keyed
//! failures — transient errors, torn reads, corrupt ranges, timeouts,
//! silent bit flips, latency spikes — for chaos testing. An object is
//! either a blob held in memory ([`ObjectStore::put`]) or a file left on
//! disk ([`ObjectStore::put_file`]) and read range by range with
//! positional reads, whose real failures surface as the same
//! [`ReadError`]s. Successful reads return [`ByteView`]s —
//! reference-counted windows into the stored blob (zero-copy), or the
//! recycled buffer a file's range was read into — so loaders never
//! duplicate record bytes:
//!
//! ```
//! use pcr_storage::{Clock, DeviceProfile, ObjectStore};
//!
//! let store = ObjectStore::new(DeviceProfile::ssd_sata());
//! store.put("rec0", (0u8..100).collect());
//! // A simulated-time read: data plus virtual start/finish timestamps.
//! let read = store.read(Clock::Virtual(0.0), "rec0", 0, 10).unwrap();
//! assert_eq!(&read.data[..], &(0u8..10).collect::<Vec<u8>>()[..]);
//! assert!(read.finish > read.start);
//! // A wall-clock read: same bytes, same statistics; `finish` is the
//! // modeled service duration, for the caller to sleep or ignore.
//! let view = store.read(Clock::Wall, "rec0", 90, 100).unwrap();
//! assert_eq!(view.data.len(), 10);
//! assert_eq!(store.device_stats().reads, 2);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod bytes;
pub mod cache;
pub mod device;
pub mod fault;
pub mod profile;
pub mod store;

pub use bytes::ByteView;
pub use cache::{PageCache, PAGE_SIZE};
pub use device::{DeviceStats, SharedDevice};
pub use fault::{FaultDecision, FaultPlan, FaultStats, FaultStatsSnapshot, ReadError};
pub use profile::DeviceProfile;
pub use store::{Clock, ObjectStore, ReadResult};
