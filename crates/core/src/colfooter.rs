//! The columnar (version 3) shard footer: fixed-stride columns instead of
//! variable-length rows, so a reader can resolve any record's index entry
//! by arithmetic without parsing the entries before it.
//!
//! The row footer of container version 1 interleaves variable-length
//! fields (name, labels), which forces `PcrContainer::open` to walk every
//! entry of every shard before it can serve record *k* — an O(catalog)
//! open that dominates start-up at tens of millions of records. Version 3
//! re-specifies the same information as columns:
//!
//! ```text
//! footer := name_blob                      # concatenated record names
//!           name_ends      N x u32         # cumulative end offsets into name_blob
//!           offsets        N x u64         # record byte offsets in the shard
//!           group_offsets  N x (G+1) x u64 # per-record scan-group prefix table
//!           label_starts   (N+1) x u32     # cumulative label counts
//!           labels         L x u32         # all labels, record-major
//!           crcs           N x u32         # per-record CRC-32
//!           descriptor     40 bytes        # "PCRC", counts, zone-map stats
//! ```
//!
//! Every column's position is a closed-form function of the descriptor
//! fields (`N`, `L`, `name_blob_len`) and the header's group count, so
//! opening a shard reads only the 12-byte header and the 52-byte
//! descriptor + trailer tail; record entries are materialized lazily by
//! [`ColumnarIndex::entry`] with a handful of small ranged reads. The
//! footer CRC in the trailer still covers the whole footer region but is
//! *not* verified at open (that would read the footer); it is checked by
//! the strict full-bytes parse path ([`crate::container::ShardIndex::parse`])
//! and by `PcrContainer::verify`/`read_shard_verified`.
//!
//! The normative byte-level specification lives in `docs/FORMAT.md` §6;
//! this module is its implementation.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A wire module: it moves integers between untrusted bytes and memory, so
// no cast may truncate and no allocation may be sized by an unchecked
// count (`clippy.toml` lists the banned allocation calls).
#![deny(clippy::cast_possible_truncation, clippy::disallowed_methods)]

use crate::container::{
    read_exact_at, ShardRecord, FOOTER_MAGIC, SHARD_HEADER_LEN, SHARD_TRAILER_LEN,
};
use crate::dataset::RecordMeta;
use crate::error::{Error, Result};
use crate::wire::{put_u32, put_u64, to_usize, Reader};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Container format version whose shards carry a columnar footer.
pub const COLUMNAR_VERSION: u16 = 3;
/// Magic prefix of the fixed-size descriptor at the end of a columnar
/// footer (directly before the trailer).
pub const DESCRIPTOR_MAGIC: &[u8; 4] = b"PCRC";
/// Size in bytes of the columnar footer descriptor.
pub const DESCRIPTOR_LEN: u64 = 40;

/// The descriptor + derived geometry of one columnar footer. All column
/// offsets are relative to the footer start and follow in closed form
/// from the counts, so none of them are stored on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColumnarLayout {
    /// Records in the shard (cross-checked against the header).
    pub record_count: u32,
    /// Scan groups per record (from the shard header).
    pub num_groups: u16,
    /// Total labels (= total images) across the shard.
    pub total_labels: u32,
    /// Bytes of concatenated record names at the start of the footer.
    pub name_blob_len: u32,
    /// End of the record-data region == absolute footer start. Stored in
    /// the descriptor as a cross-check against the trailer geometry.
    pub data_end: u64,
    /// Smallest full record length in the shard (zone-map stat).
    pub min_record_len: u64,
    /// Largest full record length in the shard (zone-map stat).
    pub max_record_len: u64,
    /// Absolute byte offset of the footer region in the shard file.
    pub footer_start: u64,
}

// Column arithmetic. No checked math needed: record_count, total_labels,
// and name_blob_len are u32 and num_groups is u16, so the largest term is
// bounded by 2^32 * 8 * (2^16 + 1) < 2^52 and sums stay far below u64.
impl ColumnarLayout {
    fn n(&self) -> u64 {
        u64::from(self.record_count)
    }

    /// Bytes of one record's group-offset row.
    fn group_stride(&self) -> u64 {
        8 * (u64::from(self.num_groups) + 1)
    }

    fn col_name_ends(&self) -> u64 {
        u64::from(self.name_blob_len)
    }

    fn col_offsets(&self) -> u64 {
        self.col_name_ends() + 4 * self.n()
    }

    fn col_groups(&self) -> u64 {
        self.col_offsets() + 8 * self.n()
    }

    fn col_label_starts(&self) -> u64 {
        self.col_groups() + self.n() * self.group_stride()
    }

    fn col_labels(&self) -> u64 {
        self.col_label_starts() + 4 * (self.n() + 1)
    }

    fn col_crcs(&self) -> u64 {
        self.col_labels() + 4 * u64::from(self.total_labels)
    }

    fn col_descriptor(&self) -> u64 {
        self.col_crcs() + 4 * self.n()
    }

    /// Total footer length implied by the counts — must equal the
    /// trailer's `footer_len` for the geometry to be trusted.
    pub fn expected_footer_len(&self) -> u64 {
        self.col_descriptor() + DESCRIPTOR_LEN
    }
}

/// The raw fields of a 40-byte descriptor.
struct Descriptor {
    record_count: u32,
    total_labels: u32,
    name_blob_len: u32,
    data_end: u64,
    min_record_len: u64,
    max_record_len: u64,
}

fn parse_descriptor(bytes: &[u8]) -> Result<Descriptor> {
    let mut r = Reader::new(bytes);
    if r.bytes(4, "columnar descriptor magic")? != DESCRIPTOR_MAGIC {
        return Err(Error::BadMagic);
    }
    Ok(Descriptor {
        record_count: r.u32("descriptor record count")?,
        total_labels: r.u32("descriptor label count")?,
        name_blob_len: r.u32("descriptor name blob length")?,
        data_end: r.u64("descriptor data end")?,
        min_record_len: r.u64("descriptor min record length")?,
        max_record_len: r.u64("descriptor max record length")?,
    })
}

/// Where the footer bytes come from.
#[derive(Debug, Clone)]
enum ColSrc {
    /// Lazy: the shard's one open handle; columns are read on demand
    /// with small positional reads. This is what `PcrContainer::open`
    /// produces.
    File(Arc<fs::File>),
    /// Eager: an in-memory copy of the footer region, already covered by
    /// a verified footer CRC (the strict `ShardIndex::parse` path).
    Mem(Arc<[u8]>),
}

/// A lazily-resolved columnar shard index: geometry plus a byte source.
///
/// Cloning shares the underlying file handle / footer buffer and the
/// bytes-read counter.
#[derive(Debug, Clone)]
pub struct ColumnarIndex {
    layout: ColumnarLayout,
    src: ColSrc,
    /// Footer bytes read by lazy entry resolution since open (the open
    /// itself reads only header + descriptor + trailer, not counted
    /// here). Lets tests assert `entry` stays O(1) in shard size.
    bytes_read: Arc<AtomicU64>,
}

/// Equality compares the footer geometry only: two indexes over the same
/// on-disk layout are equal regardless of lazy/eager backing.
impl PartialEq for ColumnarIndex {
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout
    }
}

impl Eq for ColumnarIndex {}

impl ColumnarIndex {
    /// Validates descriptor-vs-trailer geometry and builds the layout.
    fn build_layout(
        num_groups: u16,
        header_records: u32,
        desc: Descriptor,
        footer_len: u64,
        file_len: u64,
    ) -> Result<ColumnarLayout> {
        if desc.record_count != header_records {
            return Err(Error::Malformed(format!(
                "columnar descriptor claims {} records, shard header says {header_records}",
                desc.record_count
            )));
        }
        let footer_start = file_len
            .checked_sub(SHARD_TRAILER_LEN + footer_len)
            .ok_or(Error::Truncated { context: "columnar footer" })?;
        if footer_start < SHARD_HEADER_LEN {
            return Err(Error::Malformed("columnar footer overlaps header".into()));
        }
        let layout = ColumnarLayout {
            record_count: desc.record_count,
            num_groups,
            total_labels: desc.total_labels,
            name_blob_len: desc.name_blob_len,
            data_end: desc.data_end,
            min_record_len: desc.min_record_len,
            max_record_len: desc.max_record_len,
            footer_start,
        };
        // The implied column geometry must tile the footer exactly and
        // the descriptor's data end must meet the footer start; together
        // these pin every column boundary without reading the columns.
        if layout.expected_footer_len() != footer_len {
            return Err(Error::Malformed(format!(
                "columnar footer is {footer_len} bytes but its counts imply {}",
                layout.expected_footer_len()
            )));
        }
        if layout.data_end != footer_start {
            return Err(Error::Malformed(format!(
                "columnar data end {} does not meet footer start {footer_start}",
                layout.data_end
            )));
        }
        if layout.min_record_len > layout.max_record_len {
            return Err(Error::Malformed(
                "columnar min record length exceeds max".into(),
            ));
        }
        Ok(layout)
    }

    /// Opens a columnar index lazily over `file`: reads only the 52-byte
    /// descriptor + trailer tail (the caller has already read the header).
    /// Returns the index and the trailer's footer CRC — which is *not*
    /// verified here; integrity is deferred to `verify()`.
    pub(crate) fn open_lazy(
        file: Arc<fs::File>,
        num_groups: u16,
        header_records: u32,
        file_len: u64,
    ) -> Result<(Self, u32)> {
        const TAIL: u64 = DESCRIPTOR_LEN + SHARD_TRAILER_LEN;
        if file_len < SHARD_HEADER_LEN + TAIL {
            return Err(Error::Truncated { context: "columnar descriptor" });
        }
        let mut tail = [0u8; to_usize(TAIL)];
        read_exact_at(&file, &mut tail, file_len - TAIL)
            .map_err(|e| Error::BadInput(format!("read shard tail: {e}")))?;
        let (desc_bytes, trailer) = tail.split_at(to_usize(DESCRIPTOR_LEN));
        let mut t = Reader::new(trailer);
        let footer_len = u64::from(t.u32("footer length")?);
        let footer_crc = t.u32("footer crc")?;
        if t.bytes(4, "footer magic")? != FOOTER_MAGIC {
            return Err(Error::BadMagic);
        }
        let desc = parse_descriptor(desc_bytes)?;
        let layout = Self::build_layout(num_groups, header_records, desc, footer_len, file_len)?;
        let index = Self {
            layout,
            src: ColSrc::File(file),
            bytes_read: Arc::new(AtomicU64::new(0)),
        };
        Ok((index, footer_crc))
    }

    /// Builds an eager index from a complete footer region whose CRC the
    /// caller has already verified, then walks every entry once so the
    /// strict parse path validates exactly as much as the row parser did.
    pub(crate) fn from_footer(
        num_groups: u16,
        header_records: u32,
        footer: &[u8],
        footer_start: u64,
        file_len: u64,
    ) -> Result<Self> {
        let flen = footer.len() as u64;
        if flen < DESCRIPTOR_LEN {
            return Err(Error::Truncated { context: "columnar descriptor" });
        }
        #[expect(clippy::indexing_slicing, reason = "DESCRIPTOR_LEN <= footer.len() checked above")]
        let desc = parse_descriptor(&footer[to_usize(flen - DESCRIPTOR_LEN)..])?;
        let layout = Self::build_layout(num_groups, header_records, desc, flen, file_len)?;
        if layout.footer_start != footer_start {
            return Err(Error::Malformed(format!(
                "columnar footer start {} does not match caller's {footer_start}",
                layout.footer_start
            )));
        }
        let index = Self {
            layout,
            src: ColSrc::Mem(Arc::from(footer.to_vec().into_boxed_slice())),
            bytes_read: Arc::new(AtomicU64::new(0)),
        };
        for k in 0..index.len() {
            index.entry(k)?;
        }
        index.bytes_read.store(0, Ordering::Relaxed);
        Ok(index)
    }

    /// Records in the shard.
    pub fn len(&self) -> usize {
        self.layout.record_count as usize
    }

    /// True when the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.layout.record_count == 0
    }

    /// Total labels (= images) across the shard — O(1) from the
    /// descriptor.
    pub fn num_images(&self) -> usize {
        self.layout.total_labels as usize
    }

    /// Total record-data bytes — O(1): records are packed back-to-back
    /// between the header and the footer.
    pub fn data_bytes(&self) -> u64 {
        self.layout.data_end - SHARD_HEADER_LEN
    }

    /// Smallest and largest full record length (descriptor zone map).
    pub fn record_len_bounds(&self) -> (u64, u64) {
        (self.layout.min_record_len, self.layout.max_record_len)
    }

    /// Footer bytes read by lazy entry resolution so far.
    pub fn index_bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Reads `buf.len()` footer bytes starting `rel` bytes into the
    /// footer region.
    fn read_at(&self, rel: u64, buf: &mut [u8]) -> Result<()> {
        let end = rel + buf.len() as u64;
        if end > self.layout.expected_footer_len() {
            return Err(Error::Truncated { context: "columnar footer column" });
        }
        match &self.src {
            ColSrc::Mem(bytes) => {
                let src = bytes
                    .get(to_usize(rel)..to_usize(end))
                    .ok_or(Error::Truncated { context: "columnar footer column" })?;
                buf.copy_from_slice(src);
            }
            ColSrc::File(file) => read_exact_at(file, buf, self.layout.footer_start + rel)
                .map_err(|e| Error::BadInput(format!("read shard footer: {e}")))?,
        }
        self.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read_u32_at(&self, rel: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_at(rel, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64_at(&self, rel: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_at(rel, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Resolves record `k`'s full index entry with a handful of small
    /// column reads — O(1) in the number of records in the shard.
    pub fn entry(&self, k: usize) -> Result<ShardRecord> {
        let l = &self.layout;
        if k >= self.len() {
            return Err(Error::BadInput(format!(
                "record {k} out of range ({} records in shard)",
                self.len()
            )));
        }
        let k64 = k as u64;
        // Name span: cumulative ends, entry 0 starts at blob offset 0.
        let name_end = self.read_u32_at(l.col_name_ends() + 4 * k64)?;
        let name_start =
            if k == 0 { 0 } else { self.read_u32_at(l.col_name_ends() + 4 * (k64 - 1))? };
        if name_start > name_end || name_end > l.name_blob_len {
            return Err(Error::Malformed(format!(
                "record {k} name span {name_start}..{name_end} outside name blob"
            )));
        }
        #[expect(clippy::disallowed_methods, reason = "span bounded by name_blob_len, which the \
                  validated footer geometry bounds by the footer length")]
        let mut name_bytes = vec![0u8; (name_end - name_start) as usize];
        self.read_at(u64::from(name_start), &mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| Error::Malformed("record name not UTF-8".into()))?;
        let offset = self.read_u64_at(l.col_offsets() + 8 * k64)?;
        // Group-offset row: one contiguous read of (G+1) u64s.
        #[expect(clippy::disallowed_methods, reason = "num_groups is a u16, so at most 512 KiB")]
        let mut row = vec![0u8; to_usize(l.group_stride())];
        self.read_at(l.col_groups() + k64 * l.group_stride(), &mut row)?;
        #[expect(clippy::disallowed_methods, reason = "num_groups is a u16, so at most 65537 \
                  entries")]
        let mut group_offsets = Vec::with_capacity(row.len() / 8);
        for chunk in row.chunks_exact(8) {
            group_offsets.push(u64::from_le_bytes(chunk.try_into().map_err(
                |_| Error::Truncated { context: "columnar group offsets" },
            )?));
        }
        #[expect(clippy::indexing_slicing, reason = "windows(2) yields exactly 2 elements")]
        if group_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Malformed(
                "record group offsets are not non-decreasing".into(),
            ));
        }
        // Label span: cumulative starts, one extra entry past the end.
        let ls0 = self.read_u32_at(l.col_label_starts() + 4 * k64)?;
        let ls1 = self.read_u32_at(l.col_label_starts() + 4 * (k64 + 1))?;
        if ls0 > ls1 || ls1 > l.total_labels {
            return Err(Error::Malformed(format!(
                "record {k} label span {ls0}..{ls1} outside label column"
            )));
        }
        let num_images = ls1 - ls0;
        #[expect(clippy::disallowed_methods, reason = "span bounded by total_labels, which the \
                  validated footer geometry bounds by the footer length")]
        let mut label_bytes = vec![0u8; (num_images as usize) * 4];
        self.read_at(l.col_labels() + 4 * u64::from(ls0), &mut label_bytes)?;
        #[expect(clippy::disallowed_methods, reason = "same bound as label_bytes above")]
        let mut labels = Vec::with_capacity(num_images as usize);
        for chunk in label_bytes.chunks_exact(4) {
            labels.push(u32::from_le_bytes(chunk.try_into().map_err(|_| {
                Error::Truncated { context: "columnar labels" }
            })?));
        }
        let crc32 = self.read_u32_at(l.col_crcs() + 4 * k64)?;
        let rec = ShardRecord { name, offset, num_images, group_offsets, labels, crc32 };
        // Untrusted footer fields: checked add so a crafted offset cannot
        // wrap past the bounds check.
        if rec.offset.checked_add(rec.len()).is_none_or(|end| end > l.data_end) {
            return Err(Error::Malformed(format!(
                "record {} extends past the footer ({} + {} > {})",
                rec.name,
                rec.offset,
                rec.len(),
                l.data_end
            )));
        }
        Ok(rec)
    }

    /// Record-data bytes a loader reads per epoch at scan group `g`, via
    /// one bulk read of the group-offset column. Prefer the manifest's
    /// zone-map stats where present — this still reads O(records) footer
    /// bytes (though far fewer syscalls than per-entry resolution).
    pub fn bytes_at_group(&self, g: usize) -> Result<u64> {
        let l = &self.layout;
        if self.is_empty() {
            return Ok(0);
        }
        let stride = to_usize(l.group_stride());
        let g = g.min(l.num_groups as usize);
        #[expect(clippy::disallowed_methods, reason = "n * stride equals the group column's \
                  size, bounded by the validated footer length")]
        let mut col = vec![0u8; to_usize(l.n() * l.group_stride())];
        self.read_at(l.col_groups(), &mut col)?;
        let mut total = 0u64;
        for row in col.chunks_exact(stride) {
            let cell = row.get(8 * g..8 * g + 8).ok_or(Error::Truncated {
                context: "columnar group offsets",
            })?;
            total += u64::from_le_bytes(
                cell.try_into()
                    .map_err(|_| Error::Truncated { context: "columnar group offsets" })?,
            );
        }
        Ok(total)
    }
}

/// Serializes a columnar footer (columns + descriptor, no trailer) for
/// records laid out at `offsets` with per-record data CRCs `crcs`.
/// `metas`, `offsets`, and `crcs` are parallel; `data_end` is the
/// absolute offset where the footer will start.
pub(crate) fn build_footer(
    num_groups: u16,
    metas: &[&RecordMeta],
    offsets: &[u64],
    crcs: &[u32],
    data_end: u64,
) -> Vec<u8> {
    debug_assert_eq!(metas.len(), offsets.len());
    debug_assert_eq!(metas.len(), crcs.len());
    let mut out = Vec::new();
    // name_blob + cumulative name_ends.
    #[expect(clippy::disallowed_methods, reason = "len of caller's slice")]
    let mut name_ends = Vec::with_capacity(metas.len());
    for meta in metas {
        out.extend_from_slice(meta.name.as_bytes());
        debug_assert!(out.len() <= u32::MAX as usize);
        #[expect(clippy::cast_possible_truncation, reason = "writer side; asserted above")]
        name_ends.push(out.len() as u32);
    }
    let name_blob_len = name_ends.last().copied().unwrap_or(0);
    for end in name_ends {
        put_u32(&mut out, end);
    }
    for &offset in offsets {
        put_u64(&mut out, offset);
    }
    for meta in metas {
        debug_assert_eq!(meta.group_offsets.len(), num_groups as usize + 1);
        for &o in &meta.group_offsets {
            put_u64(&mut out, o);
        }
    }
    // label_starts: N+1 cumulative counts, starting at 0.
    let mut running = 0u32;
    put_u32(&mut out, 0);
    for meta in metas {
        running += meta.num_images;
        put_u32(&mut out, running);
    }
    let total_labels = running;
    for meta in metas {
        for &label in &meta.labels {
            put_u32(&mut out, label);
        }
    }
    for &crc in crcs {
        put_u32(&mut out, crc);
    }
    // Descriptor.
    let min_len = metas.iter().map(|m| m.total_len()).min().unwrap_or(0);
    let max_len = metas.iter().map(|m| m.total_len()).max().unwrap_or(0);
    out.extend_from_slice(DESCRIPTOR_MAGIC);
    debug_assert!(metas.len() <= u32::MAX as usize);
    #[expect(clippy::cast_possible_truncation, reason = "writer side; asserted above")]
    put_u32(&mut out, metas.len() as u32);
    put_u32(&mut out, total_labels);
    put_u32(&mut out, name_blob_len);
    put_u64(&mut out, data_end);
    put_u64(&mut out, min_len);
    put_u64(&mut out, max_len);
    out
}
