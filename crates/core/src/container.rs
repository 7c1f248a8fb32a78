//! The sharded on-disk PCR container — the canonical persistent layout.
//!
//! The paper's encoder "transforms a set of JPEG files into a directory";
//! at production scale that directory must be a real container tools can
//! pack, inspect, and stream, not one loose file per record. A container
//! is a directory of *shards* plus a manifest:
//!
//! ```text
//! <dir>/
//!   manifest.pcrm          # shard list: file names, counts, footer CRCs
//!   shard-00000.pcrshard   # concatenated .pcr records + footer index
//!   shard-00001.pcrshard
//!   ...
//! ```
//!
//! Each shard is self-describing: a fixed header, the record bytes
//! back-to-back, and a footer index (per-record byte offsets, scan-group
//! offsets, labels, CRC-32 checksums) found through a fixed-size trailer
//! at the end of the file — so a reader seeks to the tail, parses the
//! index, and can then serve any `[record_offset, record_offset +
//! prefix_len(g))` range with one ranged read. That range arithmetic is
//! exactly what `pcr-loader`'s `ShardedSource` feeds the
//! `ObjectStore`/`ByteView` read path.
//!
//! Two footer encodings exist. Version 1/2 shards store the index as
//! variable-length rows, parsed eagerly at open; they are a read-only
//! legacy format. Version 3 — the only one this crate writes — stores
//! it as fixed-stride *columns*
//! ([`crate::colfooter`]) plus zone-map stats in the manifest, so
//! [`PcrContainer::open`] reads only each shard's header and a 52-byte
//! tail and resolves record entries lazily by arithmetic
//! ([`ShardIndex::entry`]) — O(1) open regardless of catalog size.
//!
//! The normative byte-level specification (with a worked hexdump) lives
//! in `docs/FORMAT.md`; this module is its implementation.
//!
//! ```
//! use pcr_core::container::{write_container, PcrContainer};
//! use pcr_core::{PcrDatasetBuilder, SampleMeta};
//! use pcr_jpeg::ImageBuf;
//!
//! let mut b = PcrDatasetBuilder::new(2, 10);
//! for i in 0..6u32 {
//!     let img = ImageBuf::from_raw(16, 16, 3, vec![(i * 37) as u8; 16 * 16 * 3]).unwrap();
//!     b.add_image(SampleMeta { label: i % 2, id: format!("i{i}") }, &img, 85).unwrap();
//! }
//! let ds = b.finish().unwrap();
//!
//! let dir = std::env::temp_dir().join(format!("pcr-doc-container-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let manifest = write_container(&ds, &dir, 2).unwrap();
//! assert_eq!(manifest.shards.len(), 2, "3 records, 2 per shard");
//!
//! let container = PcrContainer::open(&dir).unwrap();
//! assert_eq!(container.num_records(), 3);
//! assert_eq!(container.num_images(), 6);
//! container.verify().unwrap();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A wire module: it moves integers between untrusted bytes and memory, so
// no cast may truncate and no allocation may be sized by an unchecked
// count (`clippy.toml` lists the banned allocation calls).
#![deny(clippy::cast_possible_truncation, clippy::disallowed_methods)]

use crate::colfooter::{self, ColumnarIndex, COLUMNAR_VERSION};
use crate::dataset::{PcrDataset, RecordMeta};
use crate::error::{Error, Result};
use crate::wire::{crc32, crc32_update, put_bytes, put_u16, put_u32, put_u64, to_usize, Reader};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of a shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"PCRS";
/// Magic suffix (last four bytes) of a shard file's trailer.
pub const FOOTER_MAGIC: &[u8; 4] = b"PCRF";
/// Magic prefix of the container manifest.
pub const MANIFEST_MAGIC: &[u8; 4] = b"PCRM";
/// File name of the manifest inside a container directory.
pub const MANIFEST_FILE: &str = "manifest.pcrm";
/// The container format version [`write_container`] writes: version 3,
/// the columnar footer of [`crate::colfooter`] plus zone-map stats in the
/// manifest.
pub const CONTAINER_VERSION: u16 = COLUMNAR_VERSION;
/// The original row-footer container version: a read-only legacy
/// format, no longer written but always readable.
pub const CONTAINER_VERSION_ROWS: u16 = 1;
/// Size in bytes of a shard file's fixed header.
pub const SHARD_HEADER_LEN: u64 = 12;
/// Size in bytes of a shard file's fixed trailer.
pub const SHARD_TRAILER_LEN: u64 = 12;
/// Size in bytes of the one buffer [`PcrContainer::verify_shard`] streams
/// a shard's record bytes through.
pub const VERIFY_CHUNK: usize = 64 << 10;

/// One record's entry in a shard footer: everything a loader needs to plan
/// a ranged prefix read, plus an integrity checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Record name (carried over from the metadata DB, e.g.
    /// `train-00017.pcr`).
    pub name: String,
    /// Absolute byte offset of the record's first byte in the shard file.
    pub offset: u64,
    /// Number of images in the record.
    pub num_images: u32,
    /// `group_offsets[g]` = bytes of this record needed to decode at scan
    /// group `g`, *relative to `offset`* (length `num_groups + 1`; the
    /// last entry is the full record length).
    pub group_offsets: Vec<u64>,
    /// Labels of the record's images, in order.
    pub labels: Vec<u32>,
    /// CRC-32 of the record's bytes.
    pub crc32: u32,
}

impl ShardRecord {
    /// Full record length in bytes.
    pub fn len(&self) -> u64 {
        // The parser always stores num_groups + 1 >= 1 offsets; a
        // hand-built empty Vec degrades to length 0 rather than panicking.
        self.group_offsets.last().copied().unwrap_or(0)
    }

    /// True when the record holds no bytes (never produced by the writer).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of this record needed to decode every image at scan group
    /// `g`, clamped to the record's group count — the same prefix math as
    /// [`crate::dataset::RecordMeta::prefix_len`].
    pub fn prefix_len(&self, g: usize) -> u64 {
        let last = self.group_offsets.len().saturating_sub(1);
        self.group_offsets.get(g.min(last)).copied().unwrap_or(0)
    }
}

/// How a [`ShardIndex`] holds its footer entries.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Backing {
    /// Row footer (versions 1 and 2): every entry parsed eagerly.
    Rows(Vec<ShardRecord>),
    /// Columnar footer (version 3): entries resolved lazily by column
    /// arithmetic — possibly straight off the open file.
    Columnar(ColumnarIndex),
}

/// The parsed index of one shard: header fields plus a row or columnar
/// view of the footer entries.
///
/// Entries are accessed through [`ShardIndex::entry`] /
/// [`ShardIndex::entries`]; for a columnar shard opened lazily these
/// perform a handful of small ranged reads per record, so resolving one
/// record is O(1) in the shard's record count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndex {
    /// Shard file name (relative to the container directory).
    pub file_name: String,
    /// Number of scan groups per record.
    pub num_groups: u16,
    /// Shard header format version (1/2 = row footer, 3 = columnar).
    pub version: u16,
    backing: Backing,
    /// Total shard file length in bytes (header + records + footer +
    /// trailer).
    pub file_len: u64,
    /// CRC-32 of the footer bytes, as stored in the trailer.
    pub footer_crc: u32,
}

/// Parses a version-1/2 row footer: length-prefixed name, offset, image
/// count, group offsets, labels, and CRC per record, back to back.
fn parse_row_footer(
    footer: &[u8],
    num_groups: u16,
    record_count: usize,
    footer_start: u64,
) -> Result<Vec<ShardRecord>> {
    // The header's record_count is not covered by any CRC: bound it by
    // what the footer could possibly hold (each entry is at least a
    // name length, offset, image count, G+1 offsets, and a CRC) before
    // trusting it with an allocation.
    let min_entry = 4 + 8 + 4 + (num_groups as usize + 1) * 8 + 4;
    if record_count > footer.len() / min_entry {
        return Err(Error::Malformed(format!(
            "shard claims {record_count} records but its footer is {} bytes",
            footer.len()
        )));
    }
    let mut f = Reader::new(footer);
    #[expect(clippy::disallowed_methods, reason = "record_count <= footer.len()/min_entry, \
              checked above")]
    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        let name = String::from_utf8(f.prefixed_bytes("record name")?.to_vec())
            .map_err(|_| Error::Malformed("record name not UTF-8".into()))?;
        let offset = f.u64("record offset")?;
        let num_images = f.u32("record image count")?;
        #[expect(clippy::disallowed_methods, reason = "num_groups is a u16, so at most 65536 \
                  entries")]
        let mut group_offsets = Vec::with_capacity(num_groups as usize + 1);
        for _ in 0..=num_groups {
            group_offsets.push(f.u64("record group offset")?);
        }
        // Prefix lengths must be cumulative: a decreasing sequence
        // would plan ranged reads past the record's end (or wrap the
        // per-group deltas every consumer computes).
        #[expect(clippy::indexing_slicing, reason = "windows(2) yields exactly 2 elements")]
        if group_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Malformed(
                "record group offsets are not non-decreasing".into(),
            ));
        }
        let mut labels = f.vec_for(num_images as usize, 4, "record labels")?;
        for _ in 0..num_images {
            labels.push(f.u32("record label")?);
        }
        let crc = f.u32("record crc")?;
        let rec = ShardRecord { name, offset, num_images, group_offsets, labels, crc32: crc };
        // Untrusted footer fields: checked add so a crafted offset
        // cannot wrap past the bounds check and panic at slice time.
        if rec.offset.checked_add(rec.len()).is_none_or(|end| end > footer_start) {
            return Err(Error::Malformed(format!(
                "record {} extends past the footer ({} + {} > {footer_start})",
                rec.name,
                rec.offset,
                rec.len()
            )));
        }
        records.push(rec);
    }
    if f.remaining() != 0 {
        return Err(Error::Malformed("trailing bytes in shard footer".into()));
    }
    Ok(records)
}

impl ShardIndex {
    /// Parses a complete shard file (header, trailer, footer; record
    /// bytes are *not* checksummed here — see
    /// [`PcrContainer::verify`]). This is the strict path: the footer
    /// CRC is always verified and every entry is validated, for row and
    /// columnar footers alike. [`PcrContainer::open`] uses the lazy path
    /// in [`crate::colfooter`] for columnar shards instead.
    pub fn parse(file_name: &str, bytes: &[u8]) -> Result<Self> {
        Self::parse_parts(file_name, bytes, bytes, bytes.len() as u64)
    }

    /// The strict parser over the parts of a shard file an index is made
    /// of, so a caller holding a file need not read — or allocate — the
    /// record region between them: `header` is any prefix of the file
    /// holding its first [`SHARD_HEADER_LEN`] bytes (fewer only when the
    /// file is shorter), `tail` any suffix long enough to hold footer and
    /// trailer, `file_len` the whole file's length. Same checks, error
    /// variants and offsets as [`ShardIndex::parse`], which is this
    /// function over a whole file.
    pub fn parse_parts(file_name: &str, header: &[u8], tail: &[u8], file_len: u64) -> Result<Self> {
        let mut r = Reader::new(header);
        if r.bytes(4, "shard magic")? != SHARD_MAGIC {
            return Err(Error::BadMagic);
        }
        let version = r.u16("shard version")?;
        if !matches!(version, 1 | 2 | COLUMNAR_VERSION) {
            return Err(Error::BadVersion(version));
        }
        let num_groups = r.u16("shard group count")?;
        let record_count = r.u32("shard record count")?;
        if file_len < SHARD_HEADER_LEN + SHARD_TRAILER_LEN {
            return Err(Error::Truncated { context: "shard trailer" });
        }
        // Trailer: footer_len (u32), footer_crc (u32), "PCRF".
        let trailer_at = tail
            .len()
            .checked_sub(to_usize(SHARD_TRAILER_LEN))
            .ok_or(Error::Truncated { context: "shard trailer" })?;
        let (before_trailer, trailer) = tail.split_at(trailer_at);
        let mut t = Reader::new(trailer);
        let footer_len = t.u32("footer length")? as u64;
        let footer_crc = t.u32("footer crc")?;
        if t.bytes(4, "footer magic")? != FOOTER_MAGIC {
            return Err(Error::BadMagic);
        }
        let footer_start = file_len
            .checked_sub(SHARD_TRAILER_LEN + footer_len)
            .ok_or(Error::Truncated { context: "shard footer" })?;
        if footer_start < SHARD_HEADER_LEN {
            return Err(Error::Malformed("shard footer overlaps header".into()));
        }
        // A whole-file `tail` always holds the footer once the two checks
        // above pass; a shorter one is the caller's to size.
        let footer = before_trailer
            .len()
            .checked_sub(to_usize(footer_len))
            .and_then(|at| before_trailer.get(at..))
            .ok_or(Error::Truncated { context: "shard footer" })?;
        if crc32(footer) != footer_crc {
            return Err(Error::corrupt_at(file_name, footer_start, "shard footer CRC mismatch"));
        }
        let backing = if version == COLUMNAR_VERSION {
            Backing::Columnar(ColumnarIndex::from_footer(
                num_groups,
                record_count,
                footer,
                footer_start,
                file_len,
            )?)
        } else {
            Backing::Rows(parse_row_footer(
                footer,
                num_groups,
                record_count as usize,
                footer_start,
            )?)
        };
        Ok(Self {
            file_name: file_name.to_string(),
            num_groups,
            version,
            backing,
            file_len,
            footer_crc,
        })
    }

    /// Records in the shard.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Rows(v) => v.len(),
            Backing::Columnar(c) => c.len(),
        }
    }

    /// True when the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves record `k`'s index entry. O(1) in the shard's record
    /// count for both backings; for a lazily-opened columnar shard this
    /// issues a handful of small ranged reads.
    pub fn entry(&self, k: usize) -> Result<ShardRecord> {
        match &self.backing {
            Backing::Rows(v) => v.get(k).cloned().ok_or_else(|| {
                Error::BadInput(format!("record {k} out of range ({} records in shard)", v.len()))
            }),
            Backing::Columnar(c) => c.entry(k),
        }
    }

    /// Iterates all entries in on-disk order.
    pub fn entries(&self) -> impl Iterator<Item = Result<ShardRecord>> + '_ {
        (0..self.len()).map(move |k| self.entry(k))
    }

    /// Total images across the shard's records — O(1) for columnar
    /// shards (descriptor field).
    pub fn num_images(&self) -> usize {
        match &self.backing {
            Backing::Rows(v) => v.iter().map(|r| r.num_images as usize).sum(),
            Backing::Columnar(c) => c.num_images(),
        }
    }

    /// Total record-data bytes (excluding header, footer, and trailer) —
    /// O(1) for columnar shards (records are packed back to back).
    pub fn data_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Rows(v) => v.iter().map(|r| r.len()).sum(),
            Backing::Columnar(c) => c.data_bytes(),
        }
    }

    /// Record-data bytes a loader reads per epoch at scan group `g`.
    /// Prefer the manifest's zone-map stats where present — for a lazy
    /// columnar shard this reads the whole group-offset column.
    pub fn bytes_at_group(&self, g: usize) -> Result<u64> {
        match &self.backing {
            Backing::Rows(v) => Ok(v.iter().map(|r| r.prefix_len(g)).sum()),
            Backing::Columnar(c) => c.bytes_at_group(g),
        }
    }

    /// Smallest and largest full record length in the shard — O(1) for
    /// columnar shards (descriptor zone map), computed for row shards.
    pub fn record_len_bounds(&self) -> (u64, u64) {
        match &self.backing {
            Backing::Rows(v) if v.is_empty() => (0, 0),
            Backing::Rows(v) => v.iter().fold((u64::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            }),
            Backing::Columnar(c) => c.record_len_bounds(),
        }
    }

    /// True when this shard uses the columnar (version 3) footer.
    pub fn is_columnar(&self) -> bool {
        matches!(self.backing, Backing::Columnar(_))
    }

    /// Footer bytes read by lazy entry resolution since open (always 0
    /// for row shards, whose footer is parsed up front).
    pub fn index_bytes_read(&self) -> u64 {
        match &self.backing {
            Backing::Rows(_) => 0,
            Backing::Columnar(c) => c.index_bytes_read(),
        }
    }
}

/// Maximum distinct labels recorded in a shard's manifest histogram.
/// Beyond this the histogram is truncated and marked incomplete.
pub const LABEL_HIST_CAP: usize = 64;

/// Per-shard zone-map statistics carried in a version-3 manifest, so a
/// reader can answer byte-budget questions (`bytes_at_group`, totals)
/// without touching any shard footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Total record-data bytes in the shard.
    pub data_bytes: u64,
    /// Smallest full record length.
    pub min_record_len: u64,
    /// Largest full record length.
    pub max_record_len: u64,
    /// `bytes_at_group[g]` = record-data bytes an epoch reads at scan
    /// group `g` (length `num_groups + 1`).
    pub bytes_at_group: Vec<u64>,
    /// `(label, count)` pairs, ascending by label, capped at
    /// [`LABEL_HIST_CAP`] distinct labels.
    pub label_hist: Vec<(u32, u64)>,
    /// False when the shard had more distinct labels than the cap.
    pub hist_complete: bool,
}

impl ShardStats {
    /// Computes the stats for one shard's records at write time.
    fn compute(num_groups: u16, metas: &[&RecordMeta]) -> Self {
        #[expect(clippy::disallowed_methods, reason = "writer side; u16 bounds it at 512KiB")]
        let mut bytes_at_group = vec![0u64; num_groups as usize + 1];
        let mut hist = std::collections::BTreeMap::new();
        let (mut data_bytes, mut min_len, mut max_len) = (0u64, u64::MAX, 0u64);
        for m in metas {
            let len = m.total_len();
            data_bytes += len;
            min_len = min_len.min(len);
            max_len = max_len.max(len);
            for (g, slot) in bytes_at_group.iter_mut().enumerate() {
                *slot += m.prefix_len(g);
            }
            for &label in &m.labels {
                *hist.entry(label).or_insert(0u64) += 1;
            }
        }
        if metas.is_empty() {
            min_len = 0;
        }
        let hist_complete = hist.len() <= LABEL_HIST_CAP;
        let label_hist = hist.into_iter().take(LABEL_HIST_CAP).collect();
        Self {
            data_bytes,
            min_record_len: min_len,
            max_record_len: max_len,
            bytes_at_group,
            label_hist,
            hist_complete,
        }
    }
}

/// One shard's summary line in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard file name, relative to the container directory.
    pub file_name: String,
    /// Expected shard file length in bytes.
    pub file_len: u64,
    /// Records in the shard.
    pub records: u32,
    /// Images in the shard.
    pub images: u32,
    /// Expected CRC-32 of the shard's footer — ties the manifest to the
    /// exact shard files it was written with.
    pub footer_crc: u32,
    /// Zone-map statistics (version-3 manifests; `None` in version 1).
    pub stats: Option<ShardStats>,
}

/// The container manifest: shard enumeration plus shared parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerManifest {
    /// Container format version.
    pub version: u16,
    /// Scan groups per record (uniform across the container).
    pub num_groups: u16,
    /// Shards in order.
    pub shards: Vec<ShardSummary>,
}

impl ContainerManifest {
    /// Total records across all shards.
    pub fn num_records(&self) -> usize {
        self.shards.iter().map(|s| s.records as usize).sum()
    }

    /// Total images across all shards.
    pub fn num_images(&self) -> usize {
        self.shards.iter().map(|s| s.images as usize).sum()
    }

    /// Total bytes of all shard files.
    pub fn total_file_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.file_len).sum()
    }

    /// Serializes the manifest (ending in a CRC-32 of all prior bytes).
    /// Version-3 manifests append each shard's zone-map stats block.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u16(&mut out, self.version);
        put_u16(&mut out, self.num_groups);
        debug_assert!(self.shards.len() <= u32::MAX as usize);
        #[expect(clippy::cast_possible_truncation, reason = "writer side; a container cannot \
                  reach 2^32 shard files, asserted above")]
        put_u32(&mut out, self.shards.len() as u32);
        for s in &self.shards {
            put_bytes(&mut out, s.file_name.as_bytes());
            put_u64(&mut out, s.file_len);
            put_u32(&mut out, s.records);
            put_u32(&mut out, s.images);
            put_u32(&mut out, s.footer_crc);
            if self.version >= COLUMNAR_VERSION {
                match &s.stats {
                    None => out.push(0),
                    Some(st) => {
                        out.push(1);
                        put_u64(&mut out, st.data_bytes);
                        put_u64(&mut out, st.min_record_len);
                        put_u64(&mut out, st.max_record_len);
                        debug_assert!(st.bytes_at_group.len() <= u16::MAX as usize);
                        #[expect(clippy::cast_possible_truncation,
                                 reason = "writer side; num_groups+1 fits u16, asserted above")]
                        put_u16(&mut out, st.bytes_at_group.len() as u16);
                        for &b in &st.bytes_at_group {
                            put_u64(&mut out, b);
                        }
                        out.push(u8::from(st.hist_complete));
                        debug_assert!(st.label_hist.len() <= LABEL_HIST_CAP);
                        #[expect(clippy::cast_possible_truncation,
                                 reason = "writer side; capped at LABEL_HIST_CAP above")]
                        put_u16(&mut out, st.label_hist.len() as u16);
                        for &(label, count) in &st.label_hist {
                            put_u32(&mut out, label);
                            put_u64(&mut out, count);
                        }
                    }
                }
            }
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Parses a serialized manifest, verifying its checksum. Accepts
    /// version 1 (no stats) and version 3 (zone-map stats per shard).
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        if data.len() < 4 {
            return Err(Error::Truncated { context: "manifest checksum" });
        }
        let (body, tail) = data.split_at(data.len() - 4);
        let stored = <[u8; 4]>::try_from(tail)
            .map(u32::from_le_bytes)
            .map_err(|_| Error::Truncated { context: "manifest checksum" })?;
        if crc32(body) != stored {
            return Err(Error::corrupt_at(MANIFEST_FILE, body.len() as u64, "CRC mismatch"));
        }
        let mut r = Reader::new(body);
        if r.bytes(4, "manifest magic")? != MANIFEST_MAGIC {
            return Err(Error::BadMagic);
        }
        let version = r.u16("manifest version")?;
        if !matches!(version, CONTAINER_VERSION_ROWS | COLUMNAR_VERSION) {
            return Err(Error::BadVersion(version));
        }
        let num_groups = r.u16("manifest group count")?;
        let n = r.u32("manifest shard count")? as usize;
        // Bound the claimed count by the bytes actually present (each
        // entry is at least a name length + file_len + three u32s).
        if n > r.remaining() / (4 + 8 + 4 + 4 + 4) {
            return Err(Error::Malformed(format!(
                "manifest claims {n} shards in {} bytes",
                r.remaining()
            )));
        }
        #[expect(clippy::disallowed_methods, reason = "n bounded by remaining/24 above")]
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let file_name = String::from_utf8(r.prefixed_bytes("shard file name")?.to_vec())
                .map_err(|_| Error::Malformed("shard file name not UTF-8".into()))?;
            let file_len = r.u64("shard file length")?;
            let records = r.u32("shard record count")?;
            let images = r.u32("shard image count")?;
            let footer_crc = r.u32("shard footer crc")?;
            let stats = if version >= COLUMNAR_VERSION {
                parse_shard_stats(&mut r)?
            } else {
                None
            };
            shards.push(ShardSummary { file_name, file_len, records, images, footer_crc, stats });
        }
        if r.remaining() != 0 {
            return Err(Error::Malformed("trailing bytes in manifest".into()));
        }
        Ok(Self { version, num_groups, shards })
    }
}

/// Parses one shard's optional stats block from a version-3 manifest.
fn parse_shard_stats(r: &mut Reader<'_>) -> Result<Option<ShardStats>> {
    let present = r.u8("shard stats flag")?;
    if present == 0 {
        return Ok(None);
    }
    let data_bytes = r.u64("shard data bytes")?;
    let min_record_len = r.u64("shard min record length")?;
    let max_record_len = r.u64("shard max record length")?;
    let glen = r.u16("shard group byte count")? as usize;
    let mut bytes_at_group = r.vec_for(glen, 8, "shard group bytes")?;
    for _ in 0..glen {
        bytes_at_group.push(r.u64("shard group bytes")?);
    }
    let hist_complete = r.u8("shard histogram flag")? != 0;
    let hist_len = r.u16("shard histogram length")? as usize;
    if hist_len > LABEL_HIST_CAP || hist_len > r.remaining() / 12 {
        return Err(Error::Malformed(format!(
            "shard histogram claims {hist_len} entries"
        )));
    }
    #[expect(clippy::disallowed_methods, reason = "hist_len capped at LABEL_HIST_CAP just above")]
    let mut label_hist = Vec::with_capacity(hist_len);
    for _ in 0..hist_len {
        let label = r.u32("shard histogram label")?;
        let count = r.u64("shard histogram count")?;
        label_hist.push((label, count));
    }
    Ok(Some(ShardStats {
        data_bytes,
        min_record_len,
        max_record_len,
        bytes_at_group,
        label_hist,
        hist_complete,
    }))
}

/// Serializes one version-3 shard (header + records + columnar footer +
/// trailer) from record byte blobs and their metadata into `out`,
/// replacing its contents.
fn build_shard(out: &mut Vec<u8>, num_groups: u16, records: &[(&RecordMeta, &[u8])]) {
    let data_len: usize = records.iter().map(|(_, b)| b.len()).sum();
    out.clear();
    #[expect(clippy::disallowed_methods, reason = "writer side: data_len is the sum of in-memory \
              record buffers already held by the caller")]
    out.reserve(to_usize(SHARD_HEADER_LEN) + data_len);
    out.extend_from_slice(SHARD_MAGIC);
    put_u16(out, COLUMNAR_VERSION);
    put_u16(out, num_groups);
    debug_assert!(records.len() <= u32::MAX as usize);
    #[expect(clippy::cast_possible_truncation, reason = "writer side; asserted above")]
    put_u32(out, records.len() as u32);
    debug_assert_eq!(out.len() as u64, SHARD_HEADER_LEN);
    #[expect(clippy::disallowed_methods, reason = "len of caller's slice")]
    let mut offsets = Vec::with_capacity(records.len());
    for (_, bytes) in records {
        offsets.push(out.len() as u64);
        out.extend_from_slice(bytes);
    }
    let metas: Vec<&RecordMeta> = records.iter().map(|(m, _)| *m).collect();
    let crcs: Vec<u32> = records.iter().map(|(_, b)| crc32(b)).collect();
    let footer = colfooter::build_footer(num_groups, &metas, &offsets, &crcs, out.len() as u64);
    let footer_crc = crc32(&footer);
    debug_assert!(footer.len() <= u32::MAX as usize);
    #[expect(clippy::cast_possible_truncation, reason = "writer side; asserted above")]
    let footer_len = footer.len() as u32;
    out.extend_from_slice(&footer);
    put_u32(out, footer_len);
    put_u32(out, footer_crc);
    out.extend_from_slice(FOOTER_MAGIC);
}

/// Writes `dataset` as a sharded container under `dir` with
/// `records_per_shard` records per shard file, in the columnar format
/// ([`CONTAINER_VERSION`]). Creates the directory if needed; refuses to
/// overwrite an existing manifest. Returns the manifest that was written.
pub fn write_container(
    dataset: &PcrDataset,
    dir: &Path,
    records_per_shard: usize,
) -> Result<ContainerManifest> {
    if dataset.records.is_empty() {
        return Err(Error::BadInput("container needs at least one record".into()));
    }
    let records_per_shard = records_per_shard.max(1);
    fs::create_dir_all(dir).map_err(io_err("create container directory"))?;
    let manifest_path = dir.join(MANIFEST_FILE);
    if manifest_path.exists() {
        return Err(Error::BadInput(format!(
            "{} already contains a PCR container",
            dir.display()
        )));
    }
    let num_groups = u16::try_from(dataset.db.num_groups())
        .map_err(|_| Error::BadInput("group count exceeds u16".into()))?;
    let mut shards = Vec::new();
    let entries: Vec<(&RecordMeta, &[u8])> = dataset
        .db
        .records
        .iter()
        .zip(dataset.records.iter().map(Vec::as_slice))
        .collect();
    // One buffer serves every shard: allocating and freeing a shard-sized
    // vector per shard leaves the first one's pages parked in the
    // allocator (glibc stops trimming once a large block has been freed),
    // where they count against the process for the rest of its life.
    let mut bytes = Vec::new();
    for (i, chunk) in entries.chunks(records_per_shard).enumerate() {
        let file_name = format!("shard-{i:05}.pcrshard");
        build_shard(&mut bytes, num_groups, chunk);
        let index = ShardIndex::parse(&file_name, &bytes).map_err(|e| {
            Error::Malformed(format!("freshly written shard does not parse back: {e}"))
        })?;
        fs::write(dir.join(&file_name), &bytes).map_err(io_err("write shard"))?;
        let records = u32::try_from(chunk.len())
            .map_err(|_| Error::BadInput("too many records per shard".into()))?;
        let images = u32::try_from(index.num_images())
            .map_err(|_| Error::BadInput("too many images per shard".into()))?;
        let metas: Vec<&RecordMeta> = chunk.iter().map(|(m, _)| *m).collect();
        let stats = Some(ShardStats::compute(num_groups, &metas));
        shards.push(ShardSummary {
            file_name,
            file_len: bytes.len() as u64,
            records,
            images,
            footer_crc: index.footer_crc,
            stats,
        });
    }
    let manifest = ContainerManifest { version: CONTAINER_VERSION, num_groups, shards };
    fs::write(manifest_path, manifest.to_bytes()).map_err(io_err("write manifest"))?;
    Ok(manifest)
}

/// An opened container: the manifest, every shard's parsed index, and
/// one open handle per shard file.
///
/// Opening reads only the manifest and each shard's header and footer
/// (one tail read per shard); record bytes are read later, when a loader
/// streams them through an object store or [`PcrContainer::verify`]
/// checksums them. Every later read of a shard — lazy index columns,
/// records, verification, the object store the loader registers it with
/// ([`PcrContainer::shard_file`]) — is a positional read on the handle
/// opened here, so a shard is opened exactly once and the bytes verified
/// are the bytes served.
#[derive(Debug, Clone)]
pub struct PcrContainer {
    /// Directory the container lives in.
    pub dir: PathBuf,
    /// The parsed manifest.
    pub manifest: ContainerManifest,
    /// Parsed shard indexes, parallel to `manifest.shards`.
    pub shards: Vec<ShardIndex>,
    /// Open shard files, parallel to `manifest.shards`.
    files: Vec<Arc<fs::File>>,
}

impl PcrContainer {
    /// Opens a container directory: parses the manifest, then opens each
    /// shard once and parses its header and footer index, cross-checking
    /// file lengths and footer CRCs against the manifest.
    pub fn open(dir: &Path) -> Result<Self> {
        let manifest_bytes =
            fs::read(dir.join(MANIFEST_FILE)).map_err(io_err("read manifest"))?;
        let manifest = ContainerManifest::from_bytes(&manifest_bytes)?;
        #[expect(clippy::disallowed_methods, reason = "len of an already-parsed, size-validated \
                  Vec")]
        let mut shards = Vec::with_capacity(manifest.shards.len());
        #[expect(clippy::disallowed_methods, reason = "len of an already-parsed, size-validated \
                  Vec")]
        let mut files = Vec::with_capacity(manifest.shards.len());
        for summary in &manifest.shards {
            let path = dir.join(&summary.file_name);
            let file = Arc::new(fs::File::open(&path).map_err(io_err("open shard"))?);
            shards.push(read_shard_index(&path, &file, summary)?);
            files.push(file);
        }
        Ok(Self { dir: dir.to_path_buf(), manifest, shards, files })
    }

    /// The open handle of shard `i`, shared with every reader of it.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i` is not a valid shard index.
    pub fn shard_file(&self, i: usize) -> &Arc<fs::File> {
        #[expect(clippy::indexing_slicing, reason = "documented index contract")]
        &self.files[i]
    }

    /// Scan groups per record.
    pub fn num_groups(&self) -> usize {
        self.manifest.num_groups as usize
    }

    /// Total records across all shards.
    pub fn num_records(&self) -> usize {
        self.manifest.num_records()
    }

    /// Total images across all shards.
    pub fn num_images(&self) -> usize {
        self.manifest.num_images()
    }

    /// Total record-data bytes at full quality — O(shards) for both
    /// formats (columnar shards answer from descriptor arithmetic).
    pub fn total_data_bytes(&self) -> u64 {
        self.shards.iter().map(ShardIndex::data_bytes).sum()
    }

    /// Record-data bytes a loader reads per epoch at scan group `g` — the
    /// fidelity byte breakdown `pcr inspect` prints. Answered from the
    /// manifest's zone-map stats where present (O(shards), no footer
    /// reads); otherwise falls back to the shard indexes.
    pub fn bytes_at_group(&self, g: usize) -> Result<u64> {
        let mut total = 0u64;
        for (summary, shard) in self.manifest.shards.iter().zip(&self.shards) {
            total += match &summary.stats {
                Some(st) if !st.bytes_at_group.is_empty() => {
                    let last = st.bytes_at_group.len() - 1;
                    #[expect(clippy::indexing_slicing, reason = "index clamped to last just above")]
                    st.bytes_at_group[g.min(last)]
                }
                _ => shard.bytes_at_group(g)?,
            };
        }
        Ok(total)
    }

    /// Footer bytes read by lazy index resolution across all shards
    /// since open (0 for row-format containers).
    pub fn index_bytes_read(&self) -> u64 {
        self.shards.iter().map(ShardIndex::index_bytes_read).sum()
    }

    /// Path of shard `i`.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i` is not a valid shard index.
    pub fn shard_path(&self, i: usize) -> PathBuf {
        #[expect(clippy::indexing_slicing, reason = "documented index contract")]
        self.dir.join(&self.manifest.shards[i].file_name)
    }

    /// Resolves a global record index (dataset order: shard by shard) to
    /// `(shard index, record entry)` — O(shards) arithmetic plus one
    /// O(1) entry resolution, never a catalog walk.
    pub fn entry(&self, global: usize) -> Result<(usize, ShardRecord)> {
        let mut idx = global;
        for (s, shard) in self.shards.iter().enumerate() {
            if idx < shard.len() {
                return Ok((s, shard.entry(idx)?));
            }
            idx -= shard.len();
        }
        Err(Error::BadInput(format!(
            "record {global} out of range ({} records in container)",
            self.num_records()
        )))
    }

    /// Like [`PcrContainer::entry`], with errors (out of range, I/O,
    /// corrupt entry) collapsed to `None`.
    pub fn record(&self, global: usize) -> Option<(usize, ShardRecord)> {
        self.entry(global).ok()
    }

    /// Reads one record's bytes with a single ranged read and verifies
    /// them against the entry's CRC-32 — O(record), not O(shard).
    pub fn read_record(&self, shard: usize, rec: &ShardRecord) -> Result<Vec<u8>> {
        #[expect(clippy::disallowed_methods, reason = "record length validated against the \
                  shard's data region when the entry was parsed")]
        let mut bytes = vec![0u8; to_usize(rec.len())];
        read_exact_at(self.shard_file(shard), &mut bytes, rec.offset)
            .map_err(io_err("read record"))?;
        let actual = crc32(&bytes);
        if actual != rec.crc32 {
            return Err(Error::corrupt_at(
                self.shard_path(shard).display(),
                rec.offset,
                format!(
                    "record {} CRC mismatch (stored {:#010x}, computed {actual:#010x})",
                    rec.name, rec.crc32
                ),
            ));
        }
        Ok(bytes)
    }

    /// Reads shard `i`'s full file from disk.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i` is not a valid shard index.
    pub fn read_shard(&self, i: usize) -> Result<Vec<u8>> {
        let file_len = self.checked_shard_len(i)?;
        #[expect(clippy::disallowed_methods, reason = "file_len equals the manifest's file_len, \
                  checked just above")]
        let mut bytes = vec![0u8; to_usize(file_len)];
        read_exact_at(self.shard_file(i), &mut bytes, 0).map_err(io_err("read shard"))?;
        Ok(bytes)
    }

    /// Shard `i`'s length on disk now, if it is the length its manifest
    /// entry records.
    fn checked_shard_len(&self, i: usize) -> Result<u64> {
        let file_len = self.shard_file(i).metadata().map_err(io_err("stat shard"))?.len();
        #[expect(clippy::indexing_slicing, reason = "documented index contract")]
        let expected = self.manifest.shards[i].file_len;
        if file_len != expected {
            return Err(len_mismatch(&self.shard_path(i), file_len, expected));
        }
        Ok(file_len)
    }

    /// Reads shard `i` whole and verifies it in full — every check of
    /// [`PcrContainer::verify_shard`], made on the bytes it returns. Kept
    /// for callers that want the verified bytes in hand; a caller that
    /// only wants the verdict should stream with `verify_shard` instead
    /// of allocating a shard.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i` is not a valid shard index.
    pub fn read_shard_verified(&self, i: usize) -> Result<Vec<u8>> {
        let bytes = self.read_shard(i)?;
        self.check_shard(i, &bytes, &bytes, bytes.len() as u64, &mut |rec| {
            // `check_shard` has bounded the range by the file length.
            let range = to_usize(rec.offset)..to_usize(rec.offset + rec.len());
            Ok(crc32(bytes.get(range).unwrap_or_default()))
        })?;
        Ok(bytes)
    }

    /// Verifies shard `i` in full without holding it: the file's length
    /// against the manifest, a strict re-parse of the footer (including
    /// the footer CRC the lazy columnar open defers), that footer CRC
    /// against the one seen at open, and every record's bounds and CRC-32
    /// against the footer index — streaming the record bytes through one
    /// [`VERIFY_CHUNK`]-sized buffer, so memory is O(footer + 64 KiB)
    /// whatever the shard's size.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i` is not a valid shard index.
    pub fn verify_shard(&self, i: usize) -> Result<()> {
        let file_len = self.checked_shard_len(i)?;
        if file_len < SHARD_HEADER_LEN + SHARD_TRAILER_LEN {
            return Err(Error::Truncated { context: "shard trailer" });
        }
        let file = self.shard_file(i);
        let mut header = [0u8; to_usize(SHARD_HEADER_LEN)];
        read_exact_at(file, &mut header, 0).map_err(io_err("read shard header"))?;
        let tail = read_shard_tail(file, file_len)?;
        #[expect(clippy::disallowed_methods, reason = "a constant 64 KiB")]
        let mut chunk = vec![0u8; VERIFY_CHUNK];
        self.check_shard(i, &header, &tail, file_len, &mut |rec| {
            let mut crc = 0u32;
            let mut at = rec.offset;
            let end = rec.offset + rec.len();
            while at < end {
                let n = to_usize((end - at).min(VERIFY_CHUNK as u64));
                let part = chunk.get_mut(..n).unwrap_or_default();
                read_exact_at(file, part, at).map_err(io_err("read record"))?;
                crc = crc32_update(crc, part);
                at += n as u64;
            }
            Ok(crc)
        })
    }

    /// The checks behind [`PcrContainer::verify_shard`] and
    /// [`PcrContainer::read_shard_verified`], over the index parts of
    /// shard `i` (as [`ShardIndex::parse_parts`] takes them) and a
    /// `record_crc` that checksums one record's bytes wherever the caller
    /// keeps them.
    fn check_shard(
        &self,
        i: usize,
        header: &[u8],
        tail: &[u8],
        file_len: u64,
        record_crc: &mut dyn FnMut(&ShardRecord) -> Result<u32>,
    ) -> Result<()> {
        #[expect(clippy::indexing_slicing, reason = "documented index contract")]
        let file_name = &self.manifest.shards[i].file_name;
        let index = ShardIndex::parse_parts(file_name, header, tail, file_len)?;
        #[expect(clippy::indexing_slicing, reason = "documented index contract")]
        if index.footer_crc != self.shards[i].footer_crc {
            return Err(Error::corrupt_at(
                file_name,
                file_len.saturating_sub(SHARD_TRAILER_LEN) + 4,
                "footer CRC changed since open",
            ));
        }
        for rec in index.entries() {
            let rec = rec?;
            // Record ranges were validated against the footer start at
            // parse time, but re-check here so a hand-built index cannot
            // send the integrity pass out of bounds.
            if rec.offset.checked_add(rec.len()).is_none_or(|end| end > file_len) {
                return Err(Error::corrupt_at(
                    file_name,
                    rec.offset,
                    format!("record {} out of shard bounds", rec.name),
                ));
            }
            let (stored, actual) = (rec.crc32, record_crc(&rec)?);
            if actual != stored {
                return Err(Error::corrupt_at(
                    file_name,
                    rec.offset,
                    format!(
                        "record {} CRC mismatch (stored {stored:#010x}, \
                         computed {actual:#010x})",
                        rec.name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Streams every shard through [`PcrContainer::verify_shard`], the
    /// shards fanned out over up to `workers` threads (the caller's among
    /// them). A failure is the lowest-index failing shard's, exactly the
    /// error a one-shard-at-a-time pass would stop at.
    pub fn verify_shards(&self, workers: usize) -> Result<()> {
        let shards = (0..self.shards.len()).collect();
        crate::dataset::map_in_order(shards, workers, |i| self.verify_shard(i)).into_iter().collect()
    }

    /// Full integrity pass: [`PcrContainer::verify_shards`] on every core,
    /// then — when a decision log is present — the log's CRC chain.
    /// `Ok(())` means every byte of record data matches the footers the
    /// manifest vouches for. For columnar containers this is where the
    /// footer CRC deferred by the O(1) open is actually checked.
    pub fn verify(&self) -> Result<()> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        self.verify_shards(cores)?;
        if let Some(log) = self.decision_log()? {
            log.verify()?;
        }
        Ok(())
    }

    /// Path of the container's append-only fidelity decision log
    /// (FORMAT.md §7). The file exists only after a logged run.
    pub fn decision_log_path(&self) -> PathBuf {
        self.dir.join(crate::declog::DECISION_LOG_FILE)
    }

    /// Reads the container's fidelity decision log, if present.
    /// `Ok(None)` for containers that never ran a logged training
    /// session (every pre-audit-plane container). Parsing is lenient —
    /// call [`DecisionLog::verify`](crate::declog::DecisionLog::verify)
    /// (or [`PcrContainer::verify`]) for the strict chain check.
    pub fn decision_log(&self) -> Result<Option<crate::declog::DecisionLog>> {
        let path = self.decision_log_path();
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(crate::declog::DecisionLog::parse(&bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::BadInput(format!("read decision log: {e}"))),
        }
    }
}

/// Reads and parses the index of the shard open as `file` (at `path`),
/// cross-checking it against the manifest summary. For columnar
/// (version 3) shards this reads only the 12-byte header and the 52-byte
/// descriptor + trailer tail and defers every entry to lazy column reads
/// on `file` — O(1) in the shard's record count. Row shards (versions
/// 1/2) still read and parse their whole footer.
fn read_shard_index(
    path: &Path,
    file: &Arc<fs::File>,
    summary: &ShardSummary,
) -> Result<ShardIndex> {
    let file_len = file.metadata().map_err(io_err("stat shard"))?.len();
    if file_len != summary.file_len {
        return Err(len_mismatch(path, file_len, summary.file_len));
    }
    if file_len < SHARD_HEADER_LEN + SHARD_TRAILER_LEN {
        return Err(Error::Truncated { context: "shard trailer" });
    }
    let file_name =
        path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let mut head = [0u8; to_usize(SHARD_HEADER_LEN)];
    read_exact_at(file, &mut head, 0).map_err(io_err("read shard header"))?;
    let mut h = Reader::new(&head);
    if h.bytes(4, "shard magic")? != SHARD_MAGIC {
        return Err(Error::BadMagic);
    }
    let version = h.u16("shard version")?;
    let num_groups = h.u16("shard group count")?;
    let record_count = h.u32("shard record count")?;
    if version == COLUMNAR_VERSION {
        // O(1) open: descriptor + trailer only; the footer CRC is noted
        // for verify() but not checked here (that would read the footer).
        let (col, footer_crc) =
            ColumnarIndex::open_lazy(Arc::clone(file), num_groups, record_count, file_len)?;
        if footer_crc != summary.footer_crc {
            return Err(Error::corrupt_at(
                path.display(),
                file_len.saturating_sub(SHARD_TRAILER_LEN) + 4,
                format!(
                    "footer CRC {footer_crc:#010x} does not match manifest {:#010x}",
                    summary.footer_crc
                ),
            ));
        }
        return Ok(ShardIndex {
            file_name,
            num_groups,
            version,
            backing: Backing::Columnar(col),
            file_len,
            footer_crc,
        });
    }
    // Row formats: the strict parser over header + footer + trailer.
    let tail = read_shard_tail(file, file_len)?;
    let index = ShardIndex::parse_parts(&file_name, &head, &tail, file_len)?;
    if index.footer_crc != summary.footer_crc {
        return Err(Error::corrupt_at(
            path.display(),
            file_len.saturating_sub(SHARD_TRAILER_LEN) + 4,
            format!(
                "footer CRC {:#010x} does not match manifest {:#010x}",
                index.footer_crc, summary.footer_crc
            ),
        ));
    }
    Ok(index)
}

/// Reads a shard file's footer + trailer tail — with the fixed header,
/// the parts its index is parsed from — leaving the record region on
/// disk. `file_len` must be at least header + trailer. The trailer's
/// footer length is untrusted: the tail is clamped to the bytes after the
/// header, and [`ShardIndex::parse_parts`] rejects a footer that cannot
/// fit.
fn read_shard_tail(file: &fs::File, file_len: u64) -> Result<Vec<u8>> {
    let mut trailer = [0u8; to_usize(SHARD_TRAILER_LEN)];
    read_exact_at(file, &mut trailer, file_len - SHARD_TRAILER_LEN)
        .map_err(io_err("read shard trailer"))?;
    let footer_len = u64::from(Reader::new(&trailer).u32("footer length")?);
    let tail_len =
        (SHARD_TRAILER_LEN + footer_len).min(file_len.saturating_sub(SHARD_HEADER_LEN));
    #[expect(clippy::disallowed_methods, reason = "tail_len clamped to the on-disk file size \
              just above")]
    let mut tail = vec![0u8; to_usize(tail_len)];
    read_exact_at(file, &mut tail, file_len - tail_len).map_err(io_err("read shard footer"))?;
    Ok(tail)
}

/// Fills `buf` from `file` at `offset` without moving (or depending on)
/// the file's cursor, so every reader of a shard shares its one handle.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
pub(crate) fn read_exact_at(file: &fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut filled = 0usize;
    while let Some(rest) = buf.get_mut(filled..).filter(|r| !r.is_empty()) {
        match std::os::windows::fs::FileExt::seek_read(file, rest, offset + filled as u64) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A shard file whose length is not the one its manifest entry records.
fn len_mismatch(path: &Path, on_disk: u64, expected: u64) -> Error {
    Error::Malformed(format!("{}: {on_disk} bytes on disk, manifest says {expected}", path.display()))
}

fn io_err(context: &'static str) -> impl Fn(std::io::Error) -> Error {
    move |e| Error::BadInput(format!("{context}: {e}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation, clippy::disallowed_methods,
             reason = "test fixtures: small literal sizes and values")]
    use super::*;
    use crate::dataset::PcrDatasetBuilder;
    use crate::record::{PcrRecord, SampleMeta};
    use pcr_jpeg::ImageBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcr-container-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Path of a committed legacy fixture (`tests/fixtures/legacy`):
    /// containers and records in formats this crate reads but no longer
    /// writes.
    fn legacy(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy").join(name)
    }

    /// A scratch copy of legacy fixture container `name`, for tests that
    /// damage it.
    fn legacy_copy(name: &str, tag: &str) -> PathBuf {
        let dir = tmpdir(tag);
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(legacy(name)).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        dir
    }

    fn build(n_images: usize, per_record: usize) -> PcrDataset {
        let mut b = PcrDatasetBuilder::new(per_record, 10).with_name_prefix("train");
        for i in 0..n_images as u32 {
            let mut data = Vec::new();
            for y in 0..24u32 {
                for x in 0..24u32 {
                    data.push(((x * 5 + y * 3 + i * 11) % 256) as u8);
                    data.push(((x + y) % 256) as u8);
                    data.push((x % 256) as u8);
                }
            }
            let img = ImageBuf::from_raw(24, 24, 3, data).unwrap();
            b.add_image(SampleMeta { label: i % 3, id: format!("f{i}") }, &img, 85).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn pack_open_roundtrip_preserves_all_metadata() {
        let dir = tmpdir("roundtrip");
        let ds = build(10, 2); // 5 records
        let manifest = write_container(&ds, &dir, 2).unwrap();
        assert_eq!(manifest.shards.len(), 3); // 2 + 2 + 1 records
        assert_eq!(manifest.version, COLUMNAR_VERSION, "default format is columnar");
        let c = PcrContainer::open(&dir).unwrap();
        assert!(c.shards.iter().all(ShardIndex::is_columnar));
        assert_eq!(c.num_records(), 5);
        assert_eq!(c.num_images(), 10);
        assert_eq!(c.num_groups(), 10);
        assert_eq!(c.total_data_bytes(), ds.db.total_bytes());
        for g in 0..=10 {
            assert_eq!(c.bytes_at_group(g).unwrap(), ds.db.bytes_at_group(g), "group {g}");
        }
        // Record names, labels, and group offsets survive byte-for-byte.
        for (i, meta) in ds.db.records.iter().enumerate() {
            let (_, rec) = c.record(i).unwrap();
            assert_eq!(rec.name, meta.name);
            assert_eq!(rec.labels, meta.labels);
            assert_eq!(rec.group_offsets, meta.group_offsets);
        }
        c.verify().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_and_columnar_containers_agree() {
        // The same records behind a row footer and a columnar one.
        let c1 = PcrContainer::open(&legacy("rows-v2")).unwrap();
        let c3 = PcrContainer::open(&legacy("columnar-v2")).unwrap();
        assert!(!c1.shards[0].is_columnar());
        assert!(c3.shards[0].is_columnar());
        assert_eq!(c1.num_records(), c3.num_records());
        assert_eq!(c1.total_data_bytes(), c3.total_data_bytes());
        for g in 0..=10 {
            assert_eq!(c1.bytes_at_group(g).unwrap(), c3.bytes_at_group(g).unwrap());
        }
        for shard in 0..c1.shards.len() {
            assert_eq!(
                c1.shards[shard].record_len_bounds(),
                c3.shards[shard].record_len_bounds()
            );
            assert_eq!(c1.shards[shard].num_images(), c3.shards[shard].num_images());
        }
        for i in 0..c1.num_records() {
            let (s1, r1) = c1.entry(i).unwrap();
            let (s3, r3) = c3.entry(i).unwrap();
            assert_eq!(s1, s3);
            assert_eq!(r1, r3, "record {i} entries must agree across formats");
        }
        c1.verify().unwrap();
        c3.verify().unwrap();
    }

    #[test]
    fn lazy_entry_resolution_reads_o1_bytes() {
        let dir_small = tmpdir("lazy-small");
        let dir_big = tmpdir("lazy-big");
        let small = build(4, 1); // 4 records
        let big = build(40, 1); // 40 records
        write_container(&small, &dir_small, 64).unwrap();
        write_container(&big, &dir_big, 64).unwrap();
        let cs = PcrContainer::open(&dir_small).unwrap();
        let cb = PcrContainer::open(&dir_big).unwrap();
        cs.entry(1).unwrap();
        cb.entry(1).unwrap();
        let (rs, rb) = (cs.index_bytes_read(), cb.index_bytes_read());
        assert!(rs > 0, "lazy columnar entry must issue footer reads");
        assert_eq!(rs, rb, "entry cost must not grow with shard size ({rs} vs {rb})");
        fs::remove_dir_all(&dir_small).unwrap();
        fs::remove_dir_all(&dir_big).unwrap();
    }

    #[test]
    fn shard_ranges_decode_as_records() {
        let dir = tmpdir("decode");
        let ds = build(6, 3);
        write_container(&ds, &dir, 1).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let bytes = c.read_shard_verified(0).unwrap();
        let (_, rec_meta) = c.record(0).unwrap();
        let start = rec_meta.offset as usize;
        // Full record parses; a scan-group-2 prefix decodes at group 2.
        let full = PcrRecord::parse(&bytes[start..start + rec_meta.len() as usize]).unwrap();
        assert_eq!(full.num_images(), 3);
        let prefix = &bytes[start..start + rec_meta.prefix_len(2) as usize];
        let view = PcrRecord::parse(prefix).unwrap();
        assert_eq!(view.available_groups(), 2);
        assert_eq!(view.decode_image(0, 2).unwrap().width(), 24);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_fails_verification() {
        let dir = tmpdir("corrupt");
        let ds = build(4, 2);
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        // Flip one byte in the middle of the first record's data.
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        let (_, rec) = c.record(0).unwrap();
        let victim = rec.offset as usize + rec.len() as usize / 2;
        bytes[victim] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = c.verify().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips one byte in the middle of global record `idx`'s data.
    fn corrupt_record(c: &PcrContainer, idx: usize) {
        let (shard, rec) = c.record(idx).unwrap();
        let path = c.shard_path(shard);
        let mut bytes = fs::read(&path).unwrap();
        bytes[rec.offset as usize + rec.len() as usize / 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
    }

    /// Verification fans out over the shards, yet fails as a pass over
    /// one shard after another stops: with the lowest-index corrupted
    /// shard's error, its file and offset, at any worker count.
    #[test]
    fn fanned_out_verification_reports_the_lowest_failing_shard() {
        let dir = tmpdir("verify-fan-out");
        write_container(&build(16, 2), &dir, 2).unwrap(); // 4 shards of 2 records
        let c = PcrContainer::open(&dir).unwrap();
        assert_eq!(c.shards.len(), 4);
        for workers in [1, 2, 16] {
            c.verify_shards(workers).unwrap();
        }
        c.verify().unwrap();
        // Shard 3's first record and shard 1's second: different offsets.
        corrupt_record(&c, 6);
        corrupt_record(&c, 3);
        let serial = (0..c.shards.len()).find_map(|i| c.verify_shard(i).err()).unwrap().to_string();
        let (_, rec) = c.record(3).unwrap();
        let at = format!("{} @ byte {}", c.manifest.shards[1].file_name, rec.offset);
        assert!(serial.contains(&at), "{serial}");
        for workers in [1, 2, 16] {
            let err = c.verify_shards(workers).unwrap_err().to_string();
            assert_eq!(err, serial, "{workers} workers");
        }
        assert_eq!(c.verify().unwrap_err().to_string(), serial);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_row_footer_is_rejected_at_open() {
        let dir = legacy_copy("rows-v1", "footer-v1");
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a label inside the footer (between data end and trailer).
        let n = bytes.len();
        bytes[n - SHARD_TRAILER_LEN as usize - 5] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = PcrContainer::open(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_columnar_footer_is_caught_by_verify() {
        let dir = tmpdir("footer-v3");
        let ds = build(4, 2);
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte at the very start of the footer (the name blob).
        let n = bytes.len();
        let footer_len =
            u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        let footer_start = n - 12 - footer_len;
        bytes[footer_start] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        // The O(1) open never reads the tampered column, so it succeeds;
        // the deferred footer CRC check in verify() catches it.
        let c = PcrContainer::open(&dir).unwrap();
        let err = c.verify().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_columnar_descriptor_is_rejected_at_open() {
        let dir = tmpdir("desc-v3");
        let ds = build(4, 2);
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        // Corrupt the descriptor's record count: geometry no longer
        // tiles the footer, which the O(1) open itself detects.
        let n = bytes.len();
        let desc = n - 12 - 40;
        bytes[desc + 4..desc + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = PcrContainer::open(&dir).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crafted_columnar_offset_is_malformed_at_entry() {
        let dir = tmpdir("colcraft");
        let ds = build(2, 2);
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        let footer_len =
            u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        let footer_start = n - 12 - footer_len;
        // Offsets column follows name_blob + name_ends; patch record 0's
        // offset to near-u64::MAX. The lazy open cannot see this (it
        // reads no columns), but entry(0) must reject, not panic.
        let desc = n - 12 - 40;
        let name_blob_len =
            u32::from_le_bytes(bytes[desc + 12..desc + 16].try_into().unwrap()) as usize;
        let record_count =
            u32::from_le_bytes(bytes[desc + 4..desc + 8].try_into().unwrap()) as usize;
        let off_col = footer_start + name_blob_len + 4 * record_count;
        bytes[off_col..off_col + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let err = c.shards[0].entry(0).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The tail `read_shard_tail` would hand `parse_parts` for `bytes`.
    fn minimal_tail(bytes: &[u8]) -> &[u8] {
        let n = bytes.len();
        let footer_len = u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        &bytes[n - (12 + footer_len).min(n - 12)..]
    }

    /// Rewrites the trailer's footer CRC to match the (patched) footer.
    fn reseal_footer(bytes: &mut [u8]) {
        let n = bytes.len();
        let footer_len = u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[n - 12 - footer_len..n - 12]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn parse_parts_agrees_with_whole_file_parse_on_every_fixture() {
        let v1 = fs::read(legacy("rows-v1/shard-00000.pcrshard")).unwrap();
        let mut v2 = v1.clone();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes()); // header version: not CRC-covered
        let v3 = {
            let dir = tmpdir("parts-v3");
            write_container(&build(4, 2), &dir, 2).unwrap();
            let bytes = fs::read(PcrContainer::open(&dir).unwrap().shard_path(0)).unwrap();
            fs::remove_dir_all(&dir).unwrap();
            bytes
        };
        for (version, clean) in [(1u16, v1), (2, v2), (3, v3)] {
            let n = clean.len();
            let footer_len =
                u32::from_le_bytes(clean[n - 12..n - 8].try_into().unwrap()) as usize;
            let footer_start = n - 12 - footer_len;
            let patched = |at: usize, with: &[u8], reseal: bool| {
                let mut b = clean.clone();
                b[at..at + with.len()].copy_from_slice(with);
                if reseal {
                    reseal_footer(&mut b);
                }
                b
            };
            // Record 0's offset: after the prefixed name in a row footer,
            // in the offsets column (name blob + name ends) of a columnar.
            let offset_at = if version == 3 {
                let desc = n - 12 - 40;
                let blob = u32::from_le_bytes(clean[desc + 12..desc + 16].try_into().unwrap());
                let count = u32::from_le_bytes(clean[desc + 4..desc + 8].try_into().unwrap());
                footer_start + blob as usize + 4 * count as usize
            } else {
                let name_len = u32::from_le_bytes(
                    clean[footer_start..footer_start + 4].try_into().unwrap(),
                );
                footer_start + 4 + name_len as usize
            };
            let fixtures: Vec<(&str, Vec<u8>, &str)> = vec![
                ("clean", clean.clone(), "Ok"),
                ("tampered footer", patched(n - 12 - 5, &[clean[n - 17] ^ 1], false), "Corrupt"),
                ("truncated", clean[..n / 2].to_vec(), "BadMagic"),
                ("shorter than header + trailer", clean[..20].to_vec(), "Truncated"),
                ("shorter than the header", clean[..7].to_vec(), "Truncated"),
                (
                    "footer overlapping the header",
                    patched(n - 12, &((n - 12 - 4) as u32).to_le_bytes(), false),
                    "Malformed",
                ),
                (
                    "footer longer than the file",
                    patched(n - 12, &(n as u32).to_le_bytes(), false),
                    "Truncated",
                ),
                ("crafted offset", patched(offset_at, &u64::MAX.to_le_bytes(), true), "Malformed"),
                ("bad version", patched(4, &0xFEu16.to_le_bytes(), false), "BadVersion"),
                ("oversized record count", patched(8, &u32::MAX.to_le_bytes(), false), "Malformed"),
            ];
            for (what, bytes, expect) in fixtures {
                let whole = ShardIndex::parse("s.pcrshard", &bytes);
                let header = &bytes[..bytes.len().min(SHARD_HEADER_LEN as usize)];
                let tail = if bytes.len() >= 24 { minimal_tail(&bytes) } else { &bytes[..] };
                let parts = ShardIndex::parse_parts("s.pcrshard", header, tail, bytes.len() as u64);
                let shown = format!("{whole:?}");
                assert!(shown.starts_with(expect) || shown.starts_with(&format!("Err({expect}")),
                    "v{version} {what}: {shown}");
                assert_eq!(format!("{parts:?}"), shown, "v{version} {what}");
                if let (Ok(w), Ok(p)) = (&whole, &parts) {
                    let entries = |i: &ShardIndex| i.entries().collect::<Result<Vec<_>>>().unwrap();
                    assert_eq!(entries(w), entries(p), "v{version} {what}");
                }
            }
        }
    }

    #[test]
    fn streamed_verify_makes_the_same_calls_as_read_shard_verified() {
        for version in [CONTAINER_VERSION_ROWS, COLUMNAR_VERSION] {
            // Two shards of two records each, in both footer formats.
            let dir = if version == CONTAINER_VERSION_ROWS {
                legacy_copy("rows-v1", "streamed-v1")
            } else {
                let dir = tmpdir("streamed-v3");
                write_container(&build(8, 2), &dir, 2).unwrap();
                dir
            };
            let c = PcrContainer::open(&dir).unwrap();
            let path = c.shard_path(1);
            let clean = fs::read(&path).unwrap();
            let both = |what: &str| {
                let streamed = c.verify_shard(1);
                let whole = c.read_shard_verified(1).map(drop);
                assert_eq!(format!("{streamed:?}"), format!("{whole:?}"), "v{version} {what}");
                streamed
            };
            both("clean").unwrap();
            let (_, rec) = c.entry(3).unwrap(); // second record of shard 1
            let n = clean.len();
            type Damage<'a> = Box<dyn Fn(&mut Vec<u8>) + 'a>;
            let damage: [(&str, Damage<'_>, &str); 5] = [
                ("record bit flip", Box::new(|b| b[rec.offset as usize + 9] ^= 0x10), "Corrupt"),
                ("last record byte", Box::new(|b| b[(rec.offset + rec.len()) as usize - 1] ^= 1), "Corrupt"),
                ("footer byte", Box::new(|b| b[n - 12 - 45] ^= 1), "Corrupt"),
                ("footer crc", Box::new(|b| b[n - 6] ^= 1), "Corrupt"),
                ("shorter on disk", Box::new(|b| b.truncate(n - 1)), "Malformed"),
            ];
            for (what, apply, expect) in damage {
                let mut bytes = clean.clone();
                apply(&mut bytes);
                fs::write(&path, &bytes).unwrap();
                let err = format!("{:?}", both(what).unwrap_err());
                assert!(err.starts_with(expect), "v{version} {what}: {err}");
                assert!(c.verify().is_err(), "verify() goes through the streamed verifier");
            }
            fs::write(&path, &clean).unwrap();
            c.verify().unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn streamed_verify_spans_many_chunks() {
        // One record several times VERIFY_CHUNK, not a multiple of it.
        let len = 3 * VERIFY_CHUNK + 1234;
        let blob: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let meta = RecordMeta {
            name: "big".into(),
            num_images: 1,
            group_offsets: vec![8, len as u64],
            labels: vec![0],
        };
        let ds = PcrDataset {
            records: vec![blob.clone(), blob[..VERIFY_CHUNK].to_vec()],
            db: crate::dataset::MetaDb {
                records: vec![
                    meta.clone(),
                    RecordMeta { name: "exact".into(), group_offsets: vec![8, VERIFY_CHUNK as u64], ..meta },
                ],
            },
        };
        let dir = tmpdir("chunks");
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        c.verify_shard(0).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[SHARD_HEADER_LEN as usize + 2 * VERIFY_CHUNK + 17] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = c.verify_shard(0).unwrap_err().to_string();
        assert!(err.contains("record big CRC mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_rejected_at_open() {
        let dir = tmpdir("trunc");
        let ds = build(4, 4);
        write_container(&ds, &dir, 4).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(PcrContainer::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crafted_offset_overflow_is_malformed_not_panic() {
        let mut bytes = fs::read(legacy("rows-v1/shard-00000.pcrshard")).unwrap();
        let n = bytes.len();
        let footer_len =
            u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        let footer_start = n - 12 - footer_len;
        // Patch the first record's offset (right after its prefixed name)
        // to near-u64::MAX, then recompute the footer CRC so only the
        // bounds check can reject it.
        let name_len =
            u32::from_le_bytes(bytes[footer_start..footer_start + 4].try_into().unwrap())
                as usize;
        let off_pos = footer_start + 4 + name_len;
        bytes[off_pos..off_pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[footer_start..n - 12]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let err = ShardIndex::parse("shard-00000.pcrshard", &bytes).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
    }

    #[test]
    fn decreasing_group_offsets_are_malformed_not_panic() {
        let mut bytes = fs::read(legacy("rows-v1/shard-00000.pcrshard")).unwrap();
        let n = bytes.len();
        let footer_len =
            u32::from_le_bytes(bytes[n - 12..n - 8].try_into().unwrap()) as usize;
        let footer_start = n - 12 - footer_len;
        // Patch group_offsets[1] of the first record (after name, offset,
        // and image count) to exceed group_offsets[2], recomputing the
        // footer CRC so only the monotonicity check can reject it.
        let name_len =
            u32::from_le_bytes(bytes[footer_start..footer_start + 4].try_into().unwrap())
                as usize;
        let go1 = footer_start + 4 + name_len + 8 + 4 + 8;
        bytes[go1..go1 + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let crc = crc32(&bytes[footer_start..n - 12]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let err = ShardIndex::parse("shard-00000.pcrshard", &bytes).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
    }

    #[test]
    fn oversized_record_count_is_malformed_not_abort() {
        let mut bytes = fs::read(legacy("rows-v1/shard-00000.pcrshard")).unwrap();
        // The header's record_count is not covered by any CRC; a flipped
        // bit there must not drive a giant allocation.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ShardIndex::parse("shard-00000.pcrshard", &bytes).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = tmpdir("manifest");
        let ds = build(6, 2);
        let manifest = write_container(&ds, &dir, 2).unwrap();
        let bytes = manifest.to_bytes();
        assert_eq!(ContainerManifest::from_bytes(&bytes).unwrap(), manifest);
        let mut bad = bytes.clone();
        bad[6] ^= 0x10;
        assert!(matches!(ContainerManifest::from_bytes(&bad), Err(Error::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_double_pack() {
        let dir = tmpdir("double");
        let ds = build(4, 2);
        write_container(&ds, &dir, 2).unwrap();
        assert!(write_container(&ds, &dir, 2).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = tmpdir("version");
        let ds = build(2, 2);
        write_container(&ds, &dir, 2).unwrap();
        let c = PcrContainer::open(&dir).unwrap();
        let path = c.shard_path(0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 0xFE; // version low byte
        fs::write(&path, &bytes).unwrap();
        // The shard index parse rejects the version before any CRC check.
        let err = ShardIndex::parse("shard-00000.pcrshard", &bytes).unwrap_err();
        assert!(matches!(err, Error::BadVersion(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
