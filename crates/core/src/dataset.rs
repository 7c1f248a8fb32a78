//! Dataset-level PCR organisation: many `.pcr` records plus the metadata
//! database (the SQLite/RocksDB role in the paper's implementation) that
//! maps records to byte offsets per scan group so loaders can plan partial
//! reads without touching the records themselves.

use crate::error::{Error, Result};
use crate::record::{PcrRecord, PcrRecordBuilder, SampleMeta};
use pcr_jpeg::ImageBuf;

/// Metadata for one record, sufficient to plan reads at any scan group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// Record name (e.g. `train-00017.pcr`).
    pub name: String,
    /// Number of images in the record.
    pub num_images: u32,
    /// `group_offsets[g]` = bytes to read to decode at group `g`
    /// (`g == 0` covers metadata + headers only; length `num_groups + 1`).
    pub group_offsets: Vec<u64>,
    /// Labels of the record's images, in order.
    pub labels: Vec<u32>,
}

impl RecordMeta {
    /// Record length in bytes.
    pub fn total_len(&self) -> u64 {
        *self.group_offsets.last().expect("offsets nonempty")
    }

    /// Bytes to read to decode every image of this record at scan group
    /// `g`, clamped to the record's group count — the canonical
    /// prefix-length computation every loader plans reads with.
    pub fn prefix_len(&self, g: usize) -> u64 {
        self.group_offsets[g.min(self.group_offsets.len() - 1)]
    }
}

/// The PCR metadata database: one entry per record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaDb {
    /// Record entries in dataset order.
    pub records: Vec<RecordMeta>,
}

impl MetaDb {
    /// Number of scan groups (from the first record; uniform by construction).
    pub fn num_groups(&self) -> usize {
        self.records.first().map_or(0, |r| r.group_offsets.len() - 1)
    }

    /// Total images across all records.
    pub fn num_images(&self) -> usize {
        self.records.iter().map(|r| r.num_images as usize).sum()
    }

    /// Total dataset bytes at full quality.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.total_len()).sum()
    }

    /// Total bytes read per epoch when loading at scan group `g`,
    /// clamped to the group count like [`RecordMeta::prefix_len`].
    pub fn bytes_at_group(&self, g: usize) -> u64 {
        self.records.iter().map(|r| r.prefix_len(g)).sum()
    }

    /// Mean bytes per image at scan group `g` — the quantity whose ratio
    /// predicts the paper's speedups (Lemma A.3).
    pub fn mean_image_bytes_at_group(&self, g: usize) -> f64 {
        let n = self.num_images();
        if n == 0 {
            0.0
        } else {
            self.bytes_at_group(g) as f64 / n as f64
        }
    }
}

/// An in-memory PCR dataset "directory": record blobs plus the metadata DB.
#[derive(Debug, Default)]
pub struct PcrDataset {
    /// Serialized `.pcr` records.
    pub records: Vec<Vec<u8>>,
    /// The metadata database.
    pub db: MetaDb,
}

impl PcrDataset {
    /// Parses record `i` (full bytes).
    pub fn open_record(&self, i: usize) -> Result<PcrRecord<'_>> {
        PcrRecord::parse(&self.records[i])
    }

    /// Returns the byte prefix of record `i` sufficient for scan group `g` —
    /// what a loader would issue as a single sequential read.
    pub fn record_prefix(&self, i: usize, g: usize) -> &[u8] {
        let end = self.db.records[i].prefix_len(g) as usize;
        &self.records[i][..end.min(self.records[i].len())]
    }

    /// Number of records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }
}

/// Streams images into fixed-size records, building the dataset and its
/// metadata database in one pass (the paper's encoder component).
pub struct PcrDatasetBuilder {
    images_per_record: usize,
    num_groups: usize,
    name_prefix: String,
    current: PcrRecordBuilder,
    dataset: PcrDataset,
    bytes_flushed: u64,
}

impl PcrDatasetBuilder {
    /// Creates a builder emitting records of `images_per_record` images with
    /// `num_groups` scan groups.
    pub fn new(images_per_record: usize, num_groups: usize) -> Self {
        Self {
            images_per_record: images_per_record.max(1),
            num_groups,
            name_prefix: "record".to_string(),
            current: PcrRecordBuilder::new(num_groups),
            dataset: PcrDataset::default(),
            bytes_flushed: 0,
        }
    }

    /// Sets the record name prefix.
    pub fn with_name_prefix(mut self, prefix: &str) -> Self {
        self.name_prefix = prefix.to_string();
        self
    }

    /// Adds a raw image (progressive-encoded at `quality`).
    pub fn add_image(&mut self, meta: SampleMeta, img: &ImageBuf, quality: u8) -> Result<()> {
        self.current.add_image(meta, img, quality)?;
        self.maybe_flush()
    }

    /// Adds an existing progressive JPEG.
    pub fn add_progressive_jpeg(&mut self, meta: SampleMeta, jpeg: Vec<u8>) -> Result<()> {
        self.current.add_progressive_jpeg(meta, jpeg)?;
        self.maybe_flush()
    }

    /// Adds a baseline or progressive JPEG, losslessly re-scripted to the
    /// default progressive script (the `jpegtran` step).
    pub fn add_baseline_jpeg(&mut self, meta: SampleMeta, jpeg: &[u8]) -> Result<()> {
        self.current.add_baseline_jpeg(meta, jpeg)?;
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.current.len() >= self.images_per_record {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let builder =
            std::mem::replace(&mut self.current, PcrRecordBuilder::new(self.num_groups));
        let bytes = builder.build()?;
        let rec = PcrRecord::parse(&bytes)?;
        let name = format!("{}-{:05}.pcr", self.name_prefix, self.dataset.records.len());
        let meta = RecordMeta {
            name,
            num_images: rec.num_images() as u32,
            group_offsets: rec
                .cumulative_group_offsets()
                .into_iter()
                .map(|o| o as u64)
                .collect(),
            labels: rec.labels().to_vec(),
        };
        drop(rec);
        self.dataset.db.records.push(meta);
        self.bytes_flushed += bytes.len() as u64;
        self.dataset.records.push(bytes);
        Ok(())
    }

    /// Records flushed to the dataset so far (excludes the partial
    /// record still accumulating). Progress-reporting hook for packers.
    pub fn records_flushed(&self) -> usize {
        self.dataset.records.len()
    }

    /// Encoded bytes flushed to the dataset so far (excludes the partial
    /// record still accumulating). Progress-reporting hook for packers.
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed
    }

    /// Flushes any partial record and returns the dataset.
    pub fn finish(mut self) -> Result<PcrDataset> {
        self.flush()?;
        if self.dataset.records.is_empty() {
            return Err(Error::BadInput("dataset needs at least one image".into()));
        }
        Ok(self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_jpeg::ImageBuf;

    fn img(seed: u32) -> ImageBuf {
        let mut data = Vec::new();
        for y in 0..32u32 {
            for x in 0..32u32 {
                data.push(((x * 3 + y * 7 + seed * 13) % 256) as u8);
                data.push(((x + y + seed) % 256) as u8);
                data.push(((x * y) % 256) as u8);
            }
        }
        ImageBuf::from_raw(32, 32, 3, data).unwrap()
    }

    fn build(n_images: usize, per_record: usize) -> PcrDataset {
        let mut b = PcrDatasetBuilder::new(per_record, 10).with_name_prefix("train");
        for i in 0..n_images {
            b.add_image(
                SampleMeta { label: (i % 4) as u32, id: format!("i{i}") },
                &img(i as u32),
                85,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn records_are_chunked() {
        let ds = build(10, 4);
        assert_eq!(ds.num_records(), 3); // 4 + 4 + 2
        assert_eq!(ds.db.records[0].num_images, 4);
        assert_eq!(ds.db.records[2].num_images, 2);
        assert_eq!(ds.db.num_images(), 10);
        assert_eq!(ds.db.records[1].name, "train-00001.pcr");
    }

    #[test]
    fn progress_counters_track_flushed_records_only() {
        let mut b = PcrDatasetBuilder::new(4, 10);
        for i in 0..6u32 {
            assert_eq!((b.records_flushed(), b.bytes_flushed() > 0), (i as usize / 4, i >= 4));
            b.add_image(SampleMeta { label: 0, id: format!("i{i}") }, &img(i), 85).unwrap();
        }
        let flushed = b.bytes_flushed();
        let ds = b.finish().unwrap();
        // One full record was flushed before `finish` added the partial one.
        assert_eq!(flushed, ds.records[0].len() as u64);
    }

    #[test]
    fn db_offsets_match_records() {
        let ds = build(6, 3);
        for (i, meta) in ds.db.records.iter().enumerate() {
            let rec = ds.open_record(i).unwrap();
            let offs: Vec<u64> =
                rec.cumulative_group_offsets().into_iter().map(|o| o as u64).collect();
            assert_eq!(meta.group_offsets, offs);
            assert_eq!(meta.total_len() as usize, ds.records[i].len());
        }
    }

    #[test]
    fn prefix_reads_decode_via_db_plan() {
        let ds = build(4, 2);
        for g in [1usize, 2, 5] {
            for r in 0..ds.num_records() {
                let prefix = ds.record_prefix(r, g);
                assert_eq!(prefix.len() as u64, ds.db.records[r].group_offsets[g]);
                let rec = PcrRecord::parse(prefix).unwrap();
                assert_eq!(rec.available_groups(), g);
                let im = rec.decode_image(0, g).unwrap();
                assert_eq!(im.width(), 32);
            }
        }
    }

    #[test]
    fn bytes_at_group_monotone() {
        let ds = build(6, 3);
        let mut last = 0;
        for g in 0..=10 {
            let b = ds.db.bytes_at_group(g);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(last, ds.db.total_bytes());
        assert!(ds.db.mean_image_bytes_at_group(1) < ds.db.mean_image_bytes_at_group(10));
    }

    #[test]
    fn bytes_at_group_clamps_past_the_last_group() {
        let ds = build(6, 3);
        let g = ds.db.num_groups();
        assert_eq!(ds.db.bytes_at_group(g + 5), ds.db.bytes_at_group(g));
        assert_eq!(ds.db.bytes_at_group(usize::MAX), ds.db.total_bytes());
    }

    #[test]
    fn empty_dataset_rejected() {
        let b = PcrDatasetBuilder::new(4, 10);
        assert!(b.finish().is_err());
    }
}
