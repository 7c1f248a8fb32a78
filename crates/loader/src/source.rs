//! The shared record-source abstraction behind every loader: *what* to
//! read ([`RecordSource`]), *how much* of it and in *which order*
//! ([`ReadPlanner`]).
//!
//! The prefix-length math and epoch-order plumbing live here and nowhere
//! else: the virtual-time [`crate::loader::PcrLoader`] and the wall-clock
//! [`crate::parallel`] workers both implement against these two types —
//! over PCR records and baseline-format objects alike — so a policy layer
//! (the [`crate::fidelity::FidelityController`]) can change the
//! scan-group prefix online and every loader obeys without further
//! plumbing.

use crate::config::LoaderConfig;
use crate::order::EpochOrder;
use pcr_core::{MetaDb, PcrRecord, RecordScratch};
use pcr_jpeg::ImageBuf;

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
/// DB ([`MetaDb`]) or a list of baseline-format objects ([`[ObjectMeta]`]).
///
/// The trait answers three questions per record index: what bytes to read
/// for a given scan group ([`RecordSource::plan`]), what labels it carries
/// ([`RecordSource::labels`]), and how to turn read bytes into pixels
/// ([`RecordSource::decode_real`]).
pub trait RecordSource: Send + Sync {
    /// Number of records.
    fn num_records(&self) -> usize;

    /// The read covering record `idx` at scan group `scan_group`.
    fn plan(&self, idx: usize, scan_group: usize) -> ReadPlan<'_>;

    /// Labels of the record's images, in order.
    fn labels(&self, idx: usize) -> &[u32];

    /// Decodes the bytes of record `idx` (as planned by
    /// [`RecordSource::plan`]) into images at `scan_group`. Returns `None`
    /// when the bytes cannot be decoded; loaders skip such records.
    fn decode_real(
        &self,
        idx: usize,
        bytes: &[u8],
        scan_group: usize,
        scratch: &mut RecordScratch,
    ) -> Option<Vec<ImageBuf>>;
}

/// Decodes a planned `.pcr` record prefix into images at `scan_group`,
/// clamped to the groups the bytes actually contain — the one decode
/// implementation every PCR-format source (`MetaDb`,
/// [`crate::sharded::ShardedSource`]) shares, so clamping semantics can
/// never diverge between the per-record and sharded layouts.
pub(crate) fn decode_pcr_prefix(
    bytes: &[u8],
    scan_group: usize,
    scratch: &mut RecordScratch,
) -> Option<Vec<ImageBuf>> {
    let rec = PcrRecord::parse(bytes).ok()?;
    let g = rec.available_groups().min(scan_group).max(1);
    let mut images = Vec::with_capacity(rec.num_images());
    for i in 0..rec.num_images() {
        images.push(rec.decode_image_with(i, g, scratch).ok()?);
    }
    Some(images)
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

    fn decode_real(
        &self,
        _idx: usize,
        bytes: &[u8],
        scan_group: usize,
        scratch: &mut RecordScratch,
    ) -> Option<Vec<ImageBuf>> {
        decode_pcr_prefix(bytes, scan_group, scratch)
    }
}

/// Metadata of one baseline-format object — a fixed-quality record file
/// (TFRecord-style, read whole and sequentially) or a single image file
/// (the small random accesses of PyTorch's `ImageFolder`, paper Figure 1):
/// name and image labels. A `[ObjectMeta]` slice is a [`RecordSource`]
/// with no scan-group knob — every plan is the full object, which is
/// exactly the cost Figure 1 charges these formats with — so
/// `PcrLoader::over(&store, &objects[..], config)` loads them through the
/// same engine, page cache and device statistics as PCR traffic.
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// Object name in the store.
    pub name: String,
    /// Labels of images in the object (one for File-per-Image).
    pub labels: Vec<u32>,
}

impl RecordSource for [ObjectMeta] {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn plan(&self, idx: usize, _scan_group: usize) -> ReadPlan<'_> {
        // Baseline formats have no scan groups: always the whole object.
        ReadPlan { name: &self[idx].name, offset: 0, len: u64::MAX }
    }

    fn labels(&self, idx: usize) -> &[u32] {
        &self[idx].labels
    }

    fn decode_real(
        &self,
        _idx: usize,
        bytes: &[u8],
        _scan_group: usize,
        _scratch: &mut RecordScratch,
    ) -> Option<Vec<ImageBuf>> {
        // File-per-Image objects are single JPEGs; record-file blobs are
        // not decodable here and yield no images (byte/timing accounting
        // still applies).
        Some(pcr_jpeg::decode(bytes).map(|img| vec![img]).unwrap_or_default())
    }
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
    fn object_lists_plan_whole_object_reads() {
        let objects = [ObjectMeta { name: "img-0".into(), labels: vec![1] }];
        let plan = objects[..].plan(0, 3);
        assert_eq!(plan.name, "img-0");
        assert_eq!(plan.len, u64::MAX, "scan group is ignored: whole object");
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
