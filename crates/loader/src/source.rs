//! The shared record-source abstraction behind every loader: *what* to
//! read ([`RecordSource`]), *how much* of it and in *which order*
//! ([`ReadPlanner`]).
//!
//! The prefix-length math and epoch-order plumbing live here and nowhere
//! else: the [`crate::parallel`] workers and the modeled loader timeline
//! in `pcr-sim` both plan against these two types, so a policy layer (the
//! [`crate::fidelity::FidelityController`]) can change the scan-group
//! prefix online and every reader obeys without further plumbing.

use crate::config::LoaderConfig;
use crate::order::EpochOrder;
use pcr_core::{MetaDb, PcrRecord};

/// One planned read: which object, and which byte range of it.
///
/// A `len` past the object's end is clamped by the store, so "the whole
/// object" is expressed as `len == u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPlan<'a> {
    /// Object name in the store.
    pub name: &'a str,
    /// Byte offset of the read.
    pub offset: u64,
    /// Byte length of the read (clamped to the object size by the store).
    pub len: u64,
}

/// A collection of records a loader can plan reads over: the PCR metadata
/// DB ([`MetaDb`], records stored one object each) or a packed container
/// ([`crate::sharded::ShardedSource`]).
///
/// The trait answers two questions per record index: what bytes to read
/// for a given scan group ([`RecordSource::plan`]) and what labels it
/// carries ([`RecordSource::labels`]). The loader decodes every read as
/// a `.pcr` record prefix (`prefix_group`), so a source has no decode
/// of its own.
pub trait RecordSource: Send + Sync {
    /// Number of records.
    fn num_records(&self) -> usize;

    /// The read covering record `idx` at scan group `scan_group`.
    fn plan(&self, idx: usize, scan_group: usize) -> ReadPlan<'_>;

    /// Labels of the record's images, in order.
    fn labels(&self, idx: usize) -> &[u32];
}

/// The group a prefix decode of `rec` runs at: `scan_group`, clamped to
/// the groups the bytes contain (at least 1) — the one clamp every
/// source's reads decode with, so the per-record and sharded layouts can
/// never diverge.
pub(crate) fn prefix_group(rec: &PcrRecord<'_>, scan_group: usize) -> usize {
    rec.available_groups().min(scan_group).max(1)
}

impl RecordSource for MetaDb {
    fn num_records(&self) -> usize {
        self.records.len()
    }

    fn plan(&self, idx: usize, scan_group: usize) -> ReadPlan<'_> {
        let meta = &self.records[idx];
        ReadPlan { name: &meta.name, offset: 0, len: meta.prefix_len(scan_group) }
    }

    fn labels(&self, idx: usize) -> &[u32] {
        &self.records[idx].labels
    }
}

/// Loads every record of a PCR dataset into an object store under its DB
/// name, so the dataset's [`MetaDb`] plans reads against it.
pub fn populate_store(store: &pcr_storage::ObjectStore, dataset: &pcr_core::PcrDataset) {
    for (meta, bytes) in dataset.db.records.iter().zip(&dataset.records) {
        store.put(&meta.name, bytes.clone());
    }
}

/// The dataset this crate's unit tests load: `n` patterned 32x32 images,
/// `images_per_record` to a record, 10 scan groups, labeled by `label`.
#[cfg(test)]
pub(crate) fn test_dataset(
    n: usize,
    images_per_record: usize,
    label: impl Fn(usize) -> u32,
) -> pcr_core::PcrDataset {
    let mut b = pcr_core::PcrDatasetBuilder::new(images_per_record, 10).with_name_prefix("t");
    for i in 0..n {
        let mut data = Vec::new();
        for y in 0..32u32 {
            for x in 0..32u32 {
                data.push(((x * 3 + y * 7 + i as u32 * 5) % 256) as u8);
                data.push(((x + y) % 256) as u8);
                data.push((y % 256) as u8);
            }
        }
        let img = pcr_jpeg::ImageBuf::from_raw(32, 32, 3, data).unwrap();
        let meta = pcr_core::SampleMeta { label: label(i), id: format!("s{i}") };
        b.add_image(meta, &img, 85).unwrap();
    }
    b.finish().unwrap()
}

/// The read-planning policy: which scan group to read and the per-epoch
/// record order. One `ReadPlanner` is the single owner of both pieces of
/// math; loaders never compute prefixes or shuffles themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlanner {
    /// Scan group to plan reads at.
    pub scan_group: usize,
    /// Shuffle record order each epoch.
    pub shuffle: bool,
    /// Shuffle seed.
    pub seed: u64,
}

impl ReadPlanner {
    /// Planner following a [`LoaderConfig`]'s scan group and shuffle.
    pub fn from_config(config: &LoaderConfig) -> Self {
        Self { scan_group: config.scan_group, shuffle: config.shuffle, seed: config.seed }
    }

    /// The same planner at a different scan group — how a fidelity
    /// controller overrides quality without touching the epoch order.
    pub fn at_group(mut self, scan_group: usize) -> Self {
        self.scan_group = scan_group;
        self
    }

    /// The record visitation order for `epoch` over `n` records as a
    /// streaming [`EpochOrder`]: a seeded Feistel bijection over `[0, n)`
    /// that allocates nothing proportional to `n`. A fixed `(seed, epoch)`
    /// pair names the same schedule for every loader and every scan group,
    /// so modeled, measured, and fidelity-controlled runs all visit
    /// identical data in identical order.
    pub fn epoch_iter(&self, n: usize, epoch: u64) -> EpochOrder {
        if self.shuffle {
            EpochOrder::shuffled(n, self.seed, epoch)
        } else {
            EpochOrder::identity(n)
        }
    }

    /// [`ReadPlanner::epoch_iter`] collected into a `Vec` — for consumers
    /// that genuinely need the whole order materialized (tests, small-n
    /// analysis). Loader hot paths stream [`ReadPlanner::epoch_iter`]
    /// instead; nothing on the epoch-start path allocates O(n).
    pub fn epoch_order(&self, n: usize, epoch: u64) -> Vec<usize> {
        self.epoch_iter(n, epoch).collect()
    }

    /// Plans the read for record `idx` of `source` at this planner's scan
    /// group.
    pub fn plan<'s, S: RecordSource + ?Sized>(&self, source: &'s S, idx: usize) -> ReadPlan<'s> {
        source.plan(idx, self.scan_group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_core::RecordMeta;

    fn db() -> MetaDb {
        MetaDb {
            records: vec![RecordMeta {
                name: "r0".into(),
                num_images: 2,
                group_offsets: vec![10, 100, 250, 400],
                labels: vec![3, 4],
            }],
        }
    }

    #[test]
    fn metadb_plans_prefix_reads() {
        let db = db();
        assert_eq!(db.plan(0, 2), ReadPlan { name: "r0", offset: 0, len: 250 });
        // Clamped to the record's group count.
        assert_eq!(db.plan(0, 99).len, 400);
        assert_eq!(db.labels(0), &[3, 4]);
    }

    #[test]
    fn epoch_order_is_scan_group_independent() {
        let planner = ReadPlanner { scan_group: 10, shuffle: true, seed: 7 };
        let a = planner.epoch_order(20, 3);
        let b = planner.clone().at_group(1).epoch_order(20, 3);
        assert_eq!(a, b, "fidelity decisions must never change the schedule");
        assert_ne!(a, planner.epoch_order(20, 4), "epochs differ");
    }

    #[test]
    fn planner_matches_loader_config_shuffle() {
        let cfg = LoaderConfig { seed: 42, ..LoaderConfig::at_group(3) };
        let planner = ReadPlanner::from_config(&cfg);
        assert_eq!(planner, ReadPlanner { scan_group: 3, shuffle: true, seed: 42 });
    }
}
