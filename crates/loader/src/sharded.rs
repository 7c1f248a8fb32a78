//! Streaming packed shard containers: [`ShardedSource`] plans *ranged*
//! reads into shard objects so the loader —
//! [`crate::parallel::ParallelLoader`] and its fidelity-controlled
//! [`ParallelLoader::run_dynamic`](crate::parallel::ParallelLoader::run_dynamic),
//! and the modeled timeline in `pcr-sim` — streams a `pcr-core` container
//! ([`PcrContainer`]) exactly as it streams per-record objects.
//!
//! The container's shard footers give every record an `(offset, length)`
//! inside its shard file plus per-scan-group offsets; [`ShardedSource`]
//! turns a global record index and a scan group into
//! `ReadPlan { shard object, record offset, prefix length }`. Epoch order
//! comes from the same [`crate::source::ReadPlanner`] as every other
//! source, so the shuffle is *cross-shard* by construction — records are
//! permuted globally, not shard-by-shard — and fidelity decisions change
//! only how many bytes each visit reads.
//!
//! [`open_container_store`] is the one-call path from a packed directory
//! to a running loader: open + integrity-verify the container, register
//! each shard *file* with an [`ObjectStore`] fronting a device profile
//! (NVMe-class by default), and configure per-shard readahead so a
//! loader's adjacent ranged reads within a shard coalesce in the modeled
//! page cache. Nothing is loaded: the store keeps one descriptor per
//! shard and every planned range becomes one positional read of exactly
//! that range, so resident memory follows the reads in flight, not the
//! dataset's size.

use crate::source::{ReadPlan, RecordSource};
use pcr_core::container::{PcrContainer, ShardRecord};
use pcr_core::{Error, Result};
use pcr_storage::{DeviceProfile, ObjectStore};
use std::path::Path;
use std::sync::Arc;

/// A [`RecordSource`] over a packed shard container: global record
/// indices map to ranged reads `[record offset, record offset +
/// prefix_len(g))` inside shard objects. Records are the container's
/// own [`ShardRecord`] footer entries (offset, group offsets, labels,
/// CRC), flattened with their shard index for O(1) global lookup.
#[derive(Debug, Clone)]
pub struct ShardedSource {
    /// Object names of the shards, in container order.
    shard_names: Vec<String>,
    /// `(shard index, footer entry)` for every record, in container
    /// (dataset) order.
    records: Vec<(u32, ShardRecord)>,
    /// Scan groups per record.
    num_groups: usize,
}

impl ShardedSource {
    /// Builds a source from an opened container's shard indexes,
    /// materializing every footer entry (for a lazily-opened columnar
    /// container this is the one place the footer columns are read).
    pub fn from_container(container: &PcrContainer) -> Result<Self> {
        let shard_names: Vec<String> =
            container.manifest.shards.iter().map(|s| s.file_name.clone()).collect();
        let mut records = Vec::with_capacity(container.num_records());
        for (si, shard) in container.shards.iter().enumerate() {
            for rec in shard.entries() {
                records.push((si as u32, rec?));
            }
        }
        Ok(Self { shard_names, records, num_groups: container.num_groups() })
    }

    /// Scan groups per record.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Total images across all records.
    pub fn num_images(&self) -> usize {
        self.records.iter().map(|(_, r)| r.labels.len()).sum()
    }

    /// Name of record `idx` (as carried in the shard footer).
    pub fn record_name(&self, idx: usize) -> &str {
        &self.records[idx].1.name
    }

    /// Bytes an epoch reads at scan group `g` — matches
    /// `MetaDb::bytes_at_group` for the same records.
    pub fn bytes_at_group(&self, g: usize) -> u64 {
        self.records.iter().map(|(_, r)| r.prefix_len(g)).sum()
    }
}

impl RecordSource for ShardedSource {
    fn num_records(&self) -> usize {
        self.records.len()
    }

    fn plan(&self, idx: usize, scan_group: usize) -> ReadPlan<'_> {
        let (shard, rec) = &self.records[idx];
        ReadPlan {
            name: &self.shard_names[*shard as usize],
            offset: rec.offset,
            len: rec.prefix_len(scan_group),
        }
    }

    fn labels(&self, idx: usize) -> &[u32] {
        &self.records[idx].1.labels
    }
}

/// How [`open_container_store`] presents a container as an object
/// store.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStoreConfig {
    /// Simulated device fronting the shard objects.
    pub profile: DeviceProfile,
    /// Size in bytes of the *modeled* page cache (0 disables it): which
    /// reads are charged device time. It holds no data — what is
    /// resident is the store's recycled read buffers
    /// ([`ObjectStore::resident_bytes`]) and whatever the operating
    /// system caches of the shard files.
    pub cache_bytes: u64,
    /// Per-shard readahead granularity in bytes (0 disables): ranged
    /// reads are extended to the next boundary so a loader revisiting
    /// adjacent records — or the same record at a higher scan group —
    /// hits cache instead of the device.
    pub readahead: u64,
    /// Verify every shard in full before registering it
    /// ([`PcrContainer::verify_shard`]: footer and every record's CRC-32,
    /// streamed); corrupted containers are rejected before any loader
    /// runs. This vouches for the bytes as they are *at open*: a file
    /// damaged afterwards surfaces per read, as a read error or a decode
    /// failure, and the loader degrades or quarantines the records it
    /// touches.
    pub verify: bool,
}

impl Default for ShardStoreConfig {
    fn default() -> Self {
        Self {
            profile: DeviceProfile::nvme_local(),
            cache_bytes: 256 << 20,
            readahead: 256 << 10,
            verify: true,
        }
    }
}

/// An opened, store-backed container ready to stream.
#[derive(Debug)]
pub struct OpenedContainer {
    /// The parsed container (manifest + shard indexes).
    pub container: PcrContainer,
    /// Object store with one registered file object per shard.
    pub store: Arc<ObjectStore>,
    /// Read-planning source over the shard objects.
    pub source: Arc<ShardedSource>,
}

/// Opens the container at `dir` and registers its shard files with an
/// [`ObjectStore`] under their manifest file names
/// ([`ObjectStore::put_file`]), verifying them first (unless disabled)
/// by streaming each through a 64 KiB buffer, the shards fanned out over
/// the machine's cores ([`PcrContainer::verify_shards`]: a failure is the
/// lowest-index failing shard's), and configuring readahead. Each shard
/// is opened once, by [`PcrContainer::open`]: the
/// index, the verification and the store all read that one handle
/// ([`PcrContainer::shard_file`]), so the bytes verified are the bytes
/// served. No shard is read into memory, so the open allocates
/// O(footer + 64 KiB) per shard and holds one descriptor per shard
/// afterwards. The returned [`OpenedContainer`] plugs directly into any
/// loader:
///
/// ```no_run
/// use pcr_loader::sharded::{open_container_store, ShardStoreConfig};
/// use pcr_loader::{ParallelConfig, ParallelLoader};
/// use std::sync::Arc;
///
/// let opened = open_container_store(std::path::Path::new("data/derm"), &ShardStoreConfig::default())?;
/// let loader = ParallelLoader::new(
///     Arc::clone(&opened.store),
///     Arc::clone(&opened.source),
///     ParallelConfig::real(4, 2),
/// );
/// let epoch = loader.run_epoch(0);
/// println!("{} images from {} shards", epoch.images, opened.container.shards.len());
/// # Ok::<(), pcr_core::Error>(())
/// ```
pub fn open_container_store(dir: &Path, config: &ShardStoreConfig) -> Result<OpenedContainer> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    open_with_workers(dir, config, cores)
}

/// [`open_container_store`] verifying on up to `workers` threads.
fn open_with_workers(dir: &Path, config: &ShardStoreConfig, workers: usize) -> Result<OpenedContainer> {
    let container = PcrContainer::open(dir)?;
    if config.verify {
        container.verify_shards(workers)?;
    }
    let store = Arc::new(ObjectStore::with_cache(config.profile.clone(), config.cache_bytes));
    store.set_readahead(config.readahead);
    for (i, shard) in container.manifest.shards.iter().enumerate() {
        store
            .put_file(&shard.file_name, Arc::clone(container.shard_file(i)))
            .map_err(|e| Error::BadInput(format!("open shard {}: {e}", shard.file_name)))?;
    }
    let source = Arc::new(ShardedSource::from_container(&container)?);
    Ok(OpenedContainer { container, store, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DecodeMode, LoaderConfig};
    use crate::parallel::{ParallelConfig, ParallelLoader};
    use crate::source::populate_store;
    use crate::retry::FaultReport;
    use pcr_core::container::write_container;
    use std::sync::atomic::Ordering;

    fn dataset(n: usize) -> pcr_core::PcrDataset {
        crate::source::test_dataset(n, 3, |i| (i % 4) as u32)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcr-sharded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The open verifies the shards fanned out, and fails as a pass over
    /// one shard after another does: with the lowest-index corrupted
    /// shard's error, at any worker count; a clean container opens.
    #[test]
    fn open_reports_the_lowest_failing_shard_at_any_worker_count() {
        let dir = tmpdir("verify-fan-out");
        write_container(&dataset(24), &dir, 2).unwrap(); // 4 shards of 2 records
        let config = ShardStoreConfig::default();
        for workers in [1, 2, 16] {
            let opened = open_with_workers(&dir, &config, workers).unwrap();
            assert_eq!(opened.container.shards.len(), 4);
        }
        let container = PcrContainer::open(&dir).unwrap();
        for idx in [7, 2] {
            let (shard, rec) = container.record(idx).unwrap();
            let path = container.shard_path(shard);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[rec.offset as usize + 1] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
        }
        let serial = (0..4).find_map(|i| container.verify_shard(i).err()).unwrap().to_string();
        assert!(serial.contains(&container.manifest.shards[1].file_name), "{serial}");
        for workers in [1, 2, 16] {
            let err = open_with_workers(&dir, &config, workers).unwrap_err().to_string();
            assert_eq!(err, serial, "{workers} workers");
        }
        assert_eq!(open_container_store(&dir, &config).unwrap_err().to_string(), serial);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_plans_are_ranged_reads() {
        let dir = tmpdir("plans");
        let ds = dataset(9); // 3 records of 3 images
        write_container(&ds, &dir, 2).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();
        let src = &opened.source;
        assert_eq!(src.num_records(), 3);
        assert_eq!(src.num_images(), 9);
        // Record 1 lives in shard 0 *after* record 0: nonzero offset.
        let plan = src.plan(1, 2);
        assert_eq!(plan.name, "shard-00000.pcrshard");
        assert!(plan.offset > pcr_core::container::SHARD_HEADER_LEN);
        assert_eq!(plan.len, ds.db.records[1].prefix_len(2));
        // Record 2 lives in shard 1.
        assert_eq!(src.plan(2, 2).name, "shard-00001.pcrshard");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The delivered label sequence and report of one `Skip` epoch at
    /// group `g`, one read at a time; labels arrive in epoch order.
    fn skip_epoch<S: RecordSource + ?Sized + 'static>(
        store: &Arc<ObjectStore>,
        source: &Arc<S>,
        g: usize,
    ) -> (Vec<u32>, crate::EpochReport) {
        let loader =
            LoaderConfig { threads: 1, decode: DecodeMode::Skip, ..LoaderConfig::at_group(g) };
        let cfg = ParallelConfig { loader, prefetch_records: 1, ..ParallelConfig::default() };
        let loader = ParallelLoader::new(Arc::clone(store), Arc::clone(source), cfg);
        loader.spawn_epoch(0).fold(|batches| batches.flat_map(|b| b.labels).collect())
    }

    #[test]
    fn epoch_over_shards_matches_metadb_bytes_and_labels() {
        let dir = tmpdir("memory");
        let ds = dataset(12);
        write_container(&ds, &dir, 2).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();

        let mem_store = Arc::new(ObjectStore::new(DeviceProfile::nvme_local()));
        populate_store(&mem_store, &ds);
        let db = Arc::new(ds.db.clone());

        for g in [1usize, 5, 10] {
            let (sharded_labels, sharded) = skip_epoch(&opened.store, &opened.source, g);
            let (memory_labels, memory) = skip_epoch(&mem_store, &db, g);
            assert_eq!(sharded.bytes, memory.bytes, "group {g}");
            assert_eq!(sharded.bytes, ds.db.bytes_at_group(g), "group {g}");
            assert_eq!(sharded.images, memory.images);
            assert_eq!(sharded_labels, memory_labels, "same records in the same order");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_loader_streams_shards_with_real_decode() {
        let dir = tmpdir("parallel");
        let ds = dataset(10);
        write_container(&ds, &dir, 2).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();
        let loader = ParallelLoader::new(
            Arc::clone(&opened.store),
            Arc::clone(&opened.source),
            ParallelConfig { batch_size: 4, ..ParallelConfig::real(3, 2) },
        );
        let stream = loader.spawn_epoch(0);
        let mut images = 0usize;
        for b in stream.batches.iter() {
            assert_eq!(b.images.len(), b.labels.len());
            for img in &b.images {
                assert_eq!(img.width(), 32);
            }
            images += b.images.len();
        }
        let stats = Arc::clone(&stream.stats);
        stream.join();
        assert_eq!(images, 10);
        // Group-2 prefix reads: well under the full container size.
        let read = stats.bytes_read.load(Ordering::Relaxed);
        assert_eq!(read, opened.source.bytes_at_group(2));
        assert!(read < opened.container.total_data_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_shard_is_rejected_before_streaming() {
        let dir = tmpdir("reject");
        let ds = dataset(6);
        write_container(&ds, &dir, 2).unwrap();
        // Corrupt one data byte (CRC still in footer).
        let container = PcrContainer::open(&dir).unwrap();
        let path = container.shard_path(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let (_, rec) = container.record(0).unwrap();
        bytes[rec.offset as usize + 40] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let err = open_container_store(&dir, &ShardStoreConfig::default()).unwrap_err();
        assert!(matches!(err, pcr_core::Error::Corrupt(_)), "{err:?}");
        // Opting out of verification loads anyway (for forensics).
        let cfg = ShardStoreConfig { verify: false, ..ShardStoreConfig::default() };
        assert!(open_container_store(&dir, &cfg).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readahead_coalesces_within_a_shard() {
        let dir = tmpdir("readahead");
        let ds = dataset(12);
        write_container(&ds, &dir, 4).unwrap();
        let cfg = ShardStoreConfig { readahead: 1 << 20, ..ShardStoreConfig::default() };
        let opened = open_container_store(&dir, &cfg).unwrap();
        assert_eq!(opened.store.readahead(), 1 << 20);
        // A low-group epoch touches every record; with 1 MiB readahead the
        // first read per shard pulls the whole (small) shard into cache.
        let (labels, _) = skip_epoch(&opened.store, &opened.source, 1);
        assert_eq!(labels.len(), 12);
        let stats = opened.store.device_stats();
        assert!(
            stats.reads < opened.source.num_records() as u64,
            "readahead should collapse per-record device reads ({} reads)",
            stats.reads
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    type Labels = std::collections::BTreeMap<u32, u64>;

    fn count(into: &mut Labels, labels: &[u32]) {
        for &l in labels {
            *into.entry(l).or_insert(0) += 1;
        }
    }

    fn dataset_labels(ds: &pcr_core::PcrDataset) -> Labels {
        let mut all = Labels::new();
        ds.db.records.iter().for_each(|r| count(&mut all, &r.labels));
        all
    }

    /// One wall-clock epoch with real decode and one read in flight, so
    /// its records meet their faults in epoch order: delivered labels,
    /// fault report.
    fn wall_epoch(opened: &OpenedContainer) -> (Labels, FaultReport) {
        let cfg =
            ParallelConfig { batch_size: 4, prefetch_records: 1, ..ParallelConfig::real(1, 10) };
        let loader =
            ParallelLoader::new(Arc::clone(&opened.store), Arc::clone(&opened.source), cfg);
        let (delivered, report) = loader.spawn_epoch(0).fold(|batches| {
            let mut delivered = Labels::new();
            batches.for_each(|b| count(&mut delivered, &b.labels));
            delivered
        });
        (delivered, report.faults)
    }

    #[test]
    fn shard_truncated_after_open_degrades_and_quarantines_what_it_cut() {
        let dir = tmpdir("cut");
        let ds = dataset(18); // 6 records of 3 images, 3 records a shard
        write_container(&ds, &dir, 3).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();
        // Cut shard 0 inside its second record, right after scan group 3:
        // record 0 is whole, record 1 keeps an intact 3-group prefix,
        // record 2 lies wholly beyond the cut.
        let (_, rec1) = opened.container.entry(1).unwrap();
        let cut = rec1.offset + rec1.prefix_len(3);
        std::fs::OpenOptions::new()
            .write(true)
            .open(opened.container.shard_path(0))
            .unwrap()
            .set_len(cut)
            .unwrap();
        let (mut labels, faults) = wall_epoch(&opened);
        let rerun = wall_epoch(&opened);
        assert_eq!(rerun, (labels.clone(), faults.clone()), "a rerun repeats to the bit");
        let quarantined: Vec<usize> = faults.quarantine.iter().map(|q| q.record).collect();
        assert_eq!(quarantined, vec![2], "exactly the record beyond the cut");
        assert_eq!(faults.quarantined_records, 1);
        assert_eq!(faults.degraded_records, 1, "record 1 steps down to group 3");
        assert!(faults.retries > 0, "short reads are retried before degrading");
        assert!(faults.quarantine[0].reason.contains("short read"), "{faults:?}");
        let mut cut_labels = Labels::new();
        count(&mut cut_labels, &ds.db.records[2].labels);
        assert_eq!(faults.quarantined_labels, cut_labels);
        count(&mut labels, &ds.db.records[2].labels);
        assert_eq!(labels, dataset_labels(&ds), "delivered + quarantined");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_removed_after_open_still_conserves_the_epoch() {
        let dir = tmpdir("unlink");
        let ds = dataset(12);
        write_container(&ds, &dir, 2).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();
        std::fs::remove_file(opened.container.shard_path(1)).unwrap();
        let (mut labels, faults) = wall_epoch(&opened);
        for (&label, &n) in &faults.quarantined_labels {
            *labels.entry(label).or_insert(0) += n;
        }
        assert_eq!(labels, dataset_labels(&ds), "delivered + quarantined");
        // The store's descriptor keeps an unlinked file's bytes readable
        // on Unix, so nothing is lost there at all.
        #[cfg(unix)]
        assert!(faults.is_clean(), "{faults:?}");
        // A later open has no file to register.
        assert!(open_container_store(&dir, &ShardStoreConfig::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_bytes_follow_reads_in_flight_not_container_size() {
        let resident_after_epoch = |images: usize, tag: &str| {
            let dir = tmpdir(tag);
            // One label for every image: records differ only by index.
            let ds = crate::source::test_dataset(images, 3, |_| 0);
            write_container(&ds, &dir, 4).unwrap();
            let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();
            assert_eq!(opened.store.resident_bytes(), 0, "open loads nothing");
            assert_eq!(opened.store.total_bytes(), opened.container.manifest.total_file_bytes());
            let (labels, faults) = wall_epoch(&opened);
            assert!(faults.is_clean());
            assert_eq!(labels.values().sum::<u64>(), images as u64);
            let largest =
                opened.container.shards.iter().map(|s| s.record_len_bounds().1).max().unwrap();
            let resident = opened.store.resident_bytes();
            assert!(resident > 0, "the epoch's buffers are parked for the next one");
            assert!(
                resident <= pcr_storage::bytes::POOL_CAP as u64 * largest,
                "{resident} resident bytes for records of at most {largest}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            opened.store.total_bytes()
        };
        // Same-sized records, 16 and 128 of them: the bound above holds at
        // both sizes, so it is the free list and not the container that
        // sets what stays resident.
        let total_small = resident_after_epoch(48, "resident-1x");
        let total_big = resident_after_epoch(384, "resident-8x");
        assert!(total_big > 7 * total_small, "{total_small} -> {total_big} addressable bytes");
    }
}
