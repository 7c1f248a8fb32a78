//! Streaming packed shard containers: [`ShardedSource`] plans *ranged*
//! reads into shard objects so every loader — the virtual-time
//! [`crate::loader::PcrLoader`], the wall-clock
//! [`crate::parallel::ParallelLoader`], and the fidelity-controlled
//! [`ParallelLoader::run_dynamic`](crate::parallel::ParallelLoader::run_dynamic)
//! — streams a `pcr-core` container ([`PcrContainer`]) exactly as it
//! streams per-record objects.
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
//! to a running loader: open + integrity-verify the container, load each
//! shard into an [`ObjectStore`] fronting a file-backed device profile
//! (NVMe-class by default), and configure per-shard readahead so a
//! loader's adjacent ranged reads within a shard coalesce in the page
//! cache.

use crate::source::{ReadPlan, RecordSource};
use pcr_core::container::{PcrContainer, ShardRecord};
use pcr_core::{RecordScratch, Result};
use pcr_jpeg::ImageBuf;
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

    fn decode_real(
        &self,
        _idx: usize,
        bytes: &[u8],
        scan_group: usize,
        scratch: &mut RecordScratch,
    ) -> Option<Vec<ImageBuf>> {
        // Identical to the MetaDb path by construction: the planned range
        // *is* a `.pcr` record prefix, wherever in the shard it came from.
        crate::source::decode_pcr_prefix(bytes, scan_group, scratch)
    }
}

/// How [`open_container_store`] materializes a container as an object
/// store.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStoreConfig {
    /// Simulated device fronting the shard objects.
    pub profile: DeviceProfile,
    /// Page-cache size in bytes (0 disables caching).
    pub cache_bytes: u64,
    /// Per-shard readahead granularity in bytes (0 disables): ranged
    /// reads are extended to the next boundary so a loader revisiting
    /// adjacent records — or the same record at a higher scan group —
    /// hits cache instead of the device.
    pub readahead: u64,
    /// Verify every record's CRC-32 while loading shards; corrupted
    /// containers are rejected before any loader runs.
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
    /// Object store holding one object per shard file.
    pub store: Arc<ObjectStore>,
    /// Read-planning source over the shard objects.
    pub source: Arc<ShardedSource>,
}

/// Opens the container at `dir` and loads its shards into an
/// [`ObjectStore`] under their manifest file names, verifying record
/// checksums (unless disabled) and configuring readahead. The returned
/// [`OpenedContainer`] plugs directly into any loader:
///
/// ```no_run
/// use pcr_loader::sharded::{open_container_store, ShardStoreConfig};
/// use pcr_loader::{LoaderConfig, PcrLoader};
///
/// let opened = open_container_store(std::path::Path::new("data/derm"), &ShardStoreConfig::default())?;
/// let epoch = PcrLoader::over(&opened.store, &*opened.source, LoaderConfig::at_group(2))
///     .run_epoch(0, 0.0);
/// println!("{} images from {} shards", epoch.images, opened.container.shards.len());
/// # Ok::<(), pcr_core::Error>(())
/// ```
pub fn open_container_store(dir: &Path, config: &ShardStoreConfig) -> Result<OpenedContainer> {
    let container = PcrContainer::open(dir)?;
    let store = Arc::new(ObjectStore::with_cache(config.profile.clone(), config.cache_bytes));
    store.set_readahead(config.readahead);
    for i in 0..container.shards.len() {
        let bytes = if config.verify {
            container.read_shard_verified(i)?
        } else {
            container.read_shard(i)?
        };
        store.put(&container.manifest.shards[i].file_name, bytes);
    }
    let source = Arc::new(ShardedSource::from_container(&container)?);
    Ok(OpenedContainer { container, store, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DecodeMode, LoaderConfig};
    use crate::loader::{populate_store, PcrLoader};
    use crate::parallel::{ParallelConfig, ParallelLoader};
    use pcr_core::container::write_container;
    use std::sync::atomic::Ordering;

    fn dataset(n: usize) -> pcr_core::PcrDataset {
        crate::loader::test_dataset(n, 3, |i| (i % 4) as u32)
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

    #[test]
    fn virtual_epoch_over_shards_matches_metadb_bytes_and_labels() {
        let dir = tmpdir("virtual");
        let ds = dataset(12);
        write_container(&ds, &dir, 2).unwrap();
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).unwrap();

        let mem_store = ObjectStore::new(DeviceProfile::nvme_local());
        populate_store(&mem_store, &ds);

        for g in [1usize, 5, 10] {
            let cfg = LoaderConfig { decode: DecodeMode::Skip, ..LoaderConfig::at_group(g) };
            let sharded =
                PcrLoader::over(&opened.store, &*opened.source, cfg.clone()).run_epoch(0, 0.0);
            let memory = PcrLoader::new(&mem_store, &ds.db, cfg).run_epoch(0, 0.0);
            assert_eq!(sharded.bytes, memory.bytes, "group {g}");
            assert_eq!(sharded.images, memory.images);
            let labels = |r: &crate::loader::EpochResult| {
                let mut l: Vec<u32> =
                    r.records.iter().flat_map(|rec| rec.labels.clone()).collect();
                l.sort_unstable();
                l
            };
            assert_eq!(labels(&sharded), labels(&memory));
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
        assert_eq!(stats.images_decoded.load(Ordering::Relaxed), 10);
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
        let cfg = LoaderConfig { decode: DecodeMode::Skip, ..LoaderConfig::at_group(1) };
        let _ = PcrLoader::over(&opened.store, &*opened.source, cfg.clone()).run_epoch(0, 0.0);
        let stats = opened.store.device_stats();
        assert!(
            stats.reads < opened.source.num_records() as u64,
            "readahead should collapse per-record device reads ({} reads)",
            stats.reads
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
