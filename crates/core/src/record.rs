//! The `.pcr` record format: label metadata, per-image JPEG headers, then
//! scan groups — deltas of the same quality from every image stored
//! together so a single sequential read of a byte *prefix* yields the whole
//! record at a chosen quality (paper section 3).
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic "PCR1" | version u16 | num_images u32 | num_groups u16 |
//! restart_interval u16 (version 2 only) | index_len u64
//! index: per image {
//!     label u32 | id bytes (u32-prefixed) | header_len u32 |
//!     group_len u32 x num_groups
//! }
//! headers: concatenated JPEG header chunks (SOI..SOF, global tables)
//! group 1: image 0 scan-1 chunk | image 1 scan-1 chunk | ...
//! group 2: ...
//! ...
//! group N
//! ```
//!
//! Reading quality `g` = reading bytes `[0, offset_for_group(g))` — strictly
//! sequential I/O, no holes, no duplication.

use crate::error::{Error, Result};
use crate::wire::{put_bytes, put_u16, put_u32, put_u64, Reader};
use pcr_jpeg::scansplit::{scan_chunks, split_scans};
use pcr_jpeg::{EncodeConfig, ImageBuf, ScanLayout};

/// Magic prefix of every `.pcr` stream.
pub const MAGIC: &[u8; 4] = b"PCR1";
/// The format version [`PcrRecordBuilder`] writes: no restart metadata.
pub const VERSION: u16 = 1;
/// Read-only legacy format version carrying a `restart_interval u16`
/// header field — the requested JPEG restart interval the record's
/// images were encoded with (decoders read the segments in sequence).
/// No writer produces it any more; [`PcrRecord::parse`] still reads it.
pub const VERSION_RESTART: u16 = 2;
/// Scan groups produced by the default progressive script for color images.
pub const DEFAULT_NUM_GROUPS: usize = 10;

/// Per-sample metadata stored in the record index ("scan group 0").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleMeta {
    /// Class label.
    pub label: u32,
    /// Free-form sample identifier (e.g. original file name).
    pub id: String,
}

/// Borrowed per-sample metadata, viewing the record buffer directly (the
/// zero-copy counterpart of [`SampleMeta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleMetaRef<'a> {
    /// Class label.
    pub label: u32,
    /// Sample identifier, borrowed from the record bytes.
    pub id: &'a str,
}

/// Reusable buffers for [`PcrRecord::decode_image_with`]: the assembled
/// JPEG byte stream plus the decoder's [`pcr_jpeg::DecodeScratch`]. One
/// `RecordScratch` per worker thread removes every per-image intermediate
/// allocation from a data-loading hot loop; [`PcrRecord::decode_image`]
/// makes a fresh one per call.
#[derive(Debug, Default)]
pub struct RecordScratch {
    jpeg: Vec<u8>,
    decode: pcr_jpeg::DecodeScratch,
}

impl RecordScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Splits a progressive JPEG into scans and checks that they fit in
/// `num_groups` scan groups — what [`PcrRecordBuilder::add_progressive_jpeg`]
/// validates before it accepts an image.
pub(crate) fn fit_scans(jpeg: &[u8], num_groups: usize) -> Result<ScanLayout> {
    let layout = split_scans(jpeg)?;
    if layout.num_scans() > num_groups {
        return Err(Error::BadInput(format!(
            "image has {} scans but record has {num_groups} groups",
            layout.num_scans(),
        )));
    }
    Ok(layout)
}

/// Builds a `.pcr` record from progressive JPEG images.
#[derive(Debug)]
pub struct PcrRecordBuilder {
    num_groups: usize,
    entries: Vec<(SampleMeta, Vec<u8>, ScanLayout)>,
}

impl PcrRecordBuilder {
    /// Creates a builder with the given number of scan groups (each scan of
    /// the default script maps to one group).
    pub fn new(num_groups: usize) -> Self {
        Self { num_groups: num_groups.max(1), entries: Vec::new() }
    }

    /// Builder with the standard 10 groups.
    pub fn with_default_groups() -> Self {
        Self::new(DEFAULT_NUM_GROUPS)
    }

    /// Adds an already-progressive JPEG byte stream.
    pub fn add_progressive_jpeg(&mut self, meta: SampleMeta, jpeg: Vec<u8>) -> Result<()> {
        let layout = fit_scans(&jpeg, self.num_groups)?;
        self.push_split(meta, jpeg, layout);
        Ok(())
    }

    /// Appends an image whose `layout` came from [`fit_scans`] over `jpeg`
    /// with this builder's group count.
    pub(crate) fn push_split(&mut self, meta: SampleMeta, jpeg: Vec<u8>, layout: ScanLayout) {
        self.entries.push((meta, jpeg, layout));
    }

    /// Encodes raw pixels as progressive JPEG at `quality` and adds them.
    pub fn add_image(&mut self, meta: SampleMeta, img: &ImageBuf, quality: u8) -> Result<()> {
        let jpeg = pcr_jpeg::encode(img, &EncodeConfig::progressive(quality))?;
        self.add_progressive_jpeg(meta, jpeg)
    }

    /// Adds a JPEG by losslessly transcoding it to the default progressive
    /// scan script first — the `jpegtran` conversion step of the paper.
    /// Despite the name the input may be baseline *or* progressive: any
    /// stream that decodes to coefficients is re-scripted, so scan group
    /// *k* holds the same scans for every image of a dataset.
    pub fn add_baseline_jpeg(&mut self, meta: SampleMeta, jpeg: &[u8]) -> Result<()> {
        let prog = pcr_jpeg::to_progressive(jpeg)?;
        self.add_progressive_jpeg(meta, prog)
    }

    /// Number of images added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no images were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the record.
    pub fn build(self) -> Result<Vec<u8>> {
        if self.entries.is_empty() {
            return Err(Error::BadInput("record needs at least one image".into()));
        }
        let num_groups = self.num_groups;

        let too_big = |what: &str| Error::BadInput(format!("{what} exceeds format limit"));

        // Index section.
        let mut index = Vec::new();
        for (meta, jpeg, layout) in &self.entries {
            put_u32(&mut index, meta.label);
            put_bytes(&mut index, meta.id.as_bytes());
            put_u32(&mut index, u32::try_from(layout.header_len).map_err(|_| too_big("JPEG header"))?);
            let _ = jpeg;
            for g in 0..num_groups {
                let len = if g < layout.num_scans() { layout.scan_size(g) } else { 0 };
                put_u32(&mut index, u32::try_from(len).map_err(|_| too_big("scan group"))?);
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, VERSION);
        put_u32(&mut out, u32::try_from(self.entries.len()).map_err(|_| too_big("image count"))?);
        put_u16(&mut out, u16::try_from(num_groups).map_err(|_| too_big("group count"))?);
        put_u64(&mut out, index.len() as u64);
        out.extend_from_slice(&index);

        // Headers.
        for (_, jpeg, layout) in &self.entries {
            // pcr-lint: allow(no-panic-in-hot-path) — header_len came from
            // split_scans over this same jpeg buffer, so the slice is in bounds.
            out.extend_from_slice(&jpeg[..layout.header_len]);
        }
        // Scan groups.
        for g in 0..num_groups {
            for (_, jpeg, layout) in &self.entries {
                if g < layout.num_scans() {
                    let chunks = scan_chunks(jpeg, layout);
                    // pcr-lint: allow(no-panic-in-hot-path) — g < num_scans()
                    // and scan_chunks returns one chunk per scan.
                    out.extend_from_slice(chunks[g]);
                }
            }
        }
        Ok(out)
    }
}

/// A parsed `.pcr` record over a (possibly prefix-truncated) byte buffer.
///
/// Parsing is zero-copy: sample ids are borrowed `&str` views of the
/// buffer, image headers and scan chunks are returned as `&[u8]` slices,
/// and all section offsets are precomputed so every accessor is O(1) —
/// the properties the wall-clock parallel loader's hot loop relies on.
#[derive(Debug, Clone)]
pub struct PcrRecord<'a> {
    data: &'a [u8],
    num_groups: usize,
    restart_interval: u16,
    labels: Vec<u32>,
    ids: Vec<&'a str>,
    /// `header_starts[i]..header_starts[i + 1]` is image `i`'s JPEG header;
    /// length `num_images + 1`.
    header_starts: Vec<usize>,
    /// Absolute chunk offsets: `chunk_starts[(g - 1) * (num_images + 1) + i]`
    /// is where image `i`'s group-`g` chunk begins; the final entry of each
    /// group row is the group's end offset, so adjacent deltas within a row
    /// are the chunk lengths.
    chunk_starts: Vec<usize>,
}

impl<'a> PcrRecord<'a> {
    /// Parses a record from bytes. The buffer may be a prefix of the full
    /// record (the PCR partial-read path) as long as the index section is
    /// complete; [`PcrRecord::available_groups`] reports how much quality
    /// the prefix actually covers.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(data);
        if r.bytes(4, "magic")? != MAGIC {
            return Err(Error::BadMagic);
        }
        let version = r.u16("version")?;
        if version != VERSION && version != VERSION_RESTART {
            return Err(Error::BadVersion(version));
        }
        let num_images = r.u32("num_images")? as usize;
        let num_groups = r.u16("num_groups")? as usize;
        let restart_interval =
            if version == VERSION_RESTART { r.u16("restart_interval")? } else { 0 };
        let index_len = r.u64("index_len")? as usize;
        let index_start = r.pos();
        if num_groups == 0 {
            return Err(Error::Malformed("zero scan groups".into()));
        }
        // Every index entry occupies at least label + id-length prefix +
        // header_len + one u32 per group, so an absurd declared image count
        // in a short buffer must fail here rather than drive the capacity
        // of the allocations below.
        let min_entry_bytes = 4 + 4 + 4 + 4 * num_groups;
        if num_images.saturating_mul(min_entry_bytes) > r.remaining() {
            return Err(Error::Truncated { context: "record index" });
        }
        // The four allocations below are bounded by the min_entry_bytes check
        // above: num_images is at most remaining/16, and
        // num_groups*(num_images+1) is at most remaining/4 + u16::MAX — both
        // linear in the actual buffer size.
        let mut labels = Vec::with_capacity(num_images); // pcr-lint: allow(bounded-alloc)
        let mut ids = Vec::with_capacity(num_images); // pcr-lint: allow(bounded-alloc)
        let mut header_starts = Vec::with_capacity(num_images + 1); // pcr-lint: allow(bounded-alloc)
        // Filled with raw chunk lengths during the scan, then prefix-summed
        // into absolute offsets so every later slice is O(1).
        let mut chunk_starts = vec![0usize; num_groups * (num_images + 1)]; // pcr-lint: allow(bounded-alloc)
        let mut header_end = 0usize; // running sum; rebased below
        header_starts.push(0);
        for i in 0..num_images {
            labels.push(r.u32("label")?);
            // Borrow the id bytes directly out of the record buffer.
            let id = std::str::from_utf8(r.prefixed_bytes("sample id")?)
                .map_err(|_| Error::Malformed("sample id not UTF-8".into()))?;
            ids.push(id);
            header_end += r.u32("header_len")? as usize;
            header_starts.push(header_end);
            for g in 0..num_groups {
                // pcr-lint: allow(no-panic-in-hot-path) — g < num_groups and
                // i < num_images, so the flat index is within the row grid.
                chunk_starts[g * (num_images + 1) + i + 1] = r.u32("group_len")? as usize;
            }
        }
        if r.pos() != index_start + index_len {
            return Err(Error::Malformed(format!(
                "index length {} != declared {}",
                r.pos() - index_start,
                index_len
            )));
        }
        let headers_start = r.pos();
        for h in &mut header_starts {
            *h += headers_start;
        }
        // Groups are laid out back to back after the headers; turn each
        // row of lengths into absolute offsets.
        // `header_starts` always holds num_images + 1 >= 1 entries (0 is
        // pushed before the loop), so `last()` cannot be empty.
        let mut base = header_starts.last().copied().unwrap_or(headers_start);
        for row in chunk_starts.chunks_exact_mut(num_images + 1) {
            row[0] = base; // pcr-lint: allow(no-panic-in-hot-path) — row.len() == num_images + 1 >= 1
            for k in 1..row.len() {
                row[k] += row[k - 1]; // pcr-lint: allow(no-panic-in-hot-path) — k in 1..row.len()
            }
            base = row[num_images]; // pcr-lint: allow(no-panic-in-hot-path) — row.len() == num_images + 1
        }
        Ok(Self { data, num_groups, restart_interval, labels, ids, header_starts, chunk_starts })
    }

    /// Number of images in the record.
    pub fn num_images(&self) -> usize {
        self.labels.len()
    }

    /// Number of scan groups the record was built with.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Requested restart interval the record's images were encoded with
    /// (0 for version-1 records, the only version written today).
    pub fn restart_interval(&self) -> u16 {
        self.restart_interval
    }

    /// Number of restart-entropy segments in image `i`'s group-`g` chunk:
    /// `RSTn` markers + 1 for chunks holding a scan, 0 for empty chunks
    /// (grayscale images pad unused color groups with zero-length chunks).
    /// Marker-less streams therefore report 1 per non-empty chunk.
    pub fn segment_count(&self, i: usize, g: usize) -> Result<usize> {
        let chunk = self.chunk(i, g)?;
        let sos = chunk
            .windows(2)
            .position(|w| w == [0xFF, 0xDA])
            .map(|p| p + 2);
        let Some(sos) = sos else { return Ok(0) };
        let hdr_len = match chunk.get(sos..sos + 2) {
            // pcr-lint: allow(no-panic-in-hot-path) — l is the 2-byte slice just matched
            Some(l) => usize::from(u16::from_be_bytes([l[0], l[1]])),
            None => return Err(Error::Truncated { context: "scan header" }),
        };
        let entropy = chunk
            .get(sos + hdr_len..)
            .ok_or(Error::Truncated { context: "scan entropy" })?;
        Ok(pcr_jpeg::bitio::split_restart_segments(entropy).len())
    }

    /// Metadata of image `i`, borrowed from the record buffer.
    ///
    /// # Panics
    /// Like slice indexing, panics when `i >= num_images()`.
    pub fn meta(&self, i: usize) -> SampleMetaRef<'a> {
        // pcr-lint: allow(no-panic-in-hot-path) — documented index contract;
        // labels and ids both have num_images entries by parse invariant.
        SampleMetaRef { label: self.labels[i], id: self.ids[i] }
    }

    /// All labels in image order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Index of image `i`'s group-`g` row start in `chunk_starts`.
    #[inline]
    fn chunk_index(&self, i: usize, g: usize) -> usize {
        (g - 1) * (self.num_images() + 1) + i
    }

    /// Total bytes of scan group `g` (1-based) across all images.
    pub fn group_size(&self, g: usize) -> usize {
        assert!(g >= 1 && g <= self.num_groups, "group out of range");
        // pcr-lint: allow(no-panic-in-hot-path) — the assert above keeps both
        // flat indices inside the num_groups * (num_images + 1) grid.
        self.chunk_starts[self.chunk_index(self.num_images(), g)]
            // pcr-lint: allow(no-panic-in-hot-path) — same bound as above
            - self.chunk_starts[self.chunk_index(0, g)]
    }

    /// Bytes that must be read (from offset 0) to decode every image at scan
    /// group `g`. `g == 0` covers just metadata + headers.
    pub fn offset_for_group(&self, g: usize) -> usize {
        assert!(g <= self.num_groups, "group out of range");
        if g == 0 {
            // header_starts holds num_images + 1 >= 1 entries by parse invariant.
            self.header_starts.last().copied().unwrap_or(0)
        } else {
            // pcr-lint: allow(no-panic-in-hot-path) — the assert above keeps
            // the flat index inside the chunk_starts grid.
            self.chunk_starts[self.chunk_index(self.num_images(), g)]
        }
    }

    /// Full record length in bytes.
    pub fn total_len(&self) -> usize {
        self.offset_for_group(self.num_groups)
    }

    /// Highest scan group fully contained in the supplied buffer.
    pub fn available_groups(&self) -> usize {
        let mut g = 0usize;
        while g < self.num_groups && self.data.len() >= self.offset_for_group(g + 1) {
            g += 1;
        }
        g
    }

    fn image_header(&self, i: usize) -> Result<&'a [u8]> {
        let (off, end) = match (self.header_starts.get(i), self.header_starts.get(i + 1)) {
            (Some(&off), Some(&end)) => (off, end),
            _ => return Err(Error::BadInput(format!("image index {i} out of range"))),
        };
        self.data.get(off..end).ok_or(Error::Truncated { context: "image header" })
    }

    fn chunk(&self, i: usize, g: usize) -> Result<&'a [u8]> {
        let idx = self.chunk_index(i, g);
        let (off, end) = match (self.chunk_starts.get(idx), self.chunk_starts.get(idx + 1)) {
            (Some(&off), Some(&end)) => (off, end),
            _ => return Err(Error::BadInput(format!("image {i} group {g} out of range"))),
        };
        self.data.get(off..end).ok_or(Error::Truncated { context: "scan group chunk" })
    }

    /// Reassembles a decodable JPEG for image `i` using scans up to group
    /// `g` (clamped to the image's own scan count), appending it to `out`
    /// (which is cleared first). The allocation-free path: `out` retains
    /// its capacity across calls.
    pub fn jpeg_at_group_into(&self, i: usize, g: usize, out: &mut Vec<u8>) -> Result<()> {
        if g == 0 || g > self.num_groups {
            return Err(Error::BadInput(format!("scan group {g} out of range")));
        }
        if g > self.available_groups() {
            return Err(Error::GroupUnavailable { requested: g, available: self.available_groups() });
        }
        out.clear();
        out.extend_from_slice(self.image_header(i)?);
        for gg in 1..=g {
            out.extend_from_slice(self.chunk(i, gg)?);
        }
        out.extend_from_slice(&[0xFF, 0xD9]); // EOI
        Ok(())
    }

    /// Reassembles a decodable JPEG for image `i` using scans up to group
    /// `g` (clamped to the image's own scan count).
    pub fn jpeg_at_group(&self, i: usize, g: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.jpeg_at_group_into(i, g, &mut out)?;
        Ok(out)
    }

    /// Decodes image `i` at scan group `g`: [`PcrRecord::decode_image_with`]
    /// on a fresh scratch.
    pub fn decode_image(&self, i: usize, g: usize) -> Result<ImageBuf> {
        self.decode_image_with(i, g, &mut RecordScratch::new())
    }

    /// Decodes image `i` at scan group `g`, reusing `scratch` for the
    /// assembled JPEG stream and the decoder's working planes — the one
    /// record decode path. The only allocation that escapes is the
    /// returned image's pixel buffer.
    pub fn decode_image_with(&self, i: usize, g: usize, scratch: &mut RecordScratch) -> Result<ImageBuf> {
        let mut jpeg = std::mem::take(&mut scratch.jpeg);
        let assembled = self.jpeg_at_group_into(i, g, &mut jpeg);
        let decoded = assembled.and_then(|()| {
            pcr_jpeg::decode_with(&jpeg, &mut scratch.decode).map_err(Error::from)
        });
        scratch.jpeg = jpeg;
        decoded
    }

    /// Decodes image `i` at each scan group of `groups` (ascending):
    /// `emit(k, image)` is called once for every `groups[k]`, with what
    /// [`PcrRecord::decode_image_with`] gives at that group, to the byte.
    /// The image's stream up to the last group is entropy-decoded once, and
    /// pixels are rebuilt from the coefficients at each group's end
    /// ([`pcr_jpeg::decode_prefixes_with`]); a group that pass cannot serve
    /// (its chunk does not end between two segments, or the stream fails
    /// before it) is decoded on its own.
    pub fn decode_groups_with(
        &self,
        i: usize,
        groups: &[usize],
        scratch: &mut RecordScratch,
        mut emit: impl FnMut(usize, Result<ImageBuf>),
    ) {
        // pcr-lint: allow(bounded-alloc) — one flag per group the caller passed
        let mut served = vec![false; groups.len()];
        if let Some(&top) = groups.last() {
            let mut jpeg = std::mem::take(&mut scratch.jpeg);
            if self.jpeg_at_group_into(i, top, &mut jpeg).is_ok() {
                // Group g's stream is the first `ends[k]` bytes of this one
                // and an EOI. An end of 0 is never served.
                let ends: Vec<usize> =
                    groups.iter().map(|&g| self.stream_len(i, g).unwrap_or(0)).collect();
                // A stream error leaves its groups unserved, and they fail
                // on their own below.
                let _ = pcr_jpeg::decode_prefixes_with(&jpeg, &ends, &mut scratch.decode, |k, img| {
                    if let Some(served) = served.get_mut(k) {
                        *served = true;
                    }
                    emit(k, img.map_err(Error::from));
                });
            }
            scratch.jpeg = jpeg;
        }
        for (k, (&g, served)) in groups.iter().zip(served).enumerate() {
            if !served {
                emit(k, self.decode_image_with(i, g, scratch));
            }
        }
    }

    /// Length of image `i`'s stream at group `g` before its EOI: its
    /// header and its chunks of groups `1..=g`.
    fn stream_len(&self, i: usize, g: usize) -> Option<usize> {
        if g == 0 || g > self.num_groups {
            return None;
        }
        let chunks: Result<usize> = (1..=g).map(|gg| self.chunk(i, gg).map(<[u8]>::len)).sum();
        Some(self.image_header(i).ok()?.len() + chunks.ok()?)
    }

    /// Per-group cumulative read sizes `[offset_for_group(0..=N)]` — the
    /// series plotted in the paper's Figure 16.
    pub fn cumulative_group_offsets(&self) -> Vec<usize> {
        (0..=self.num_groups).map(|g| self.offset_for_group(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(seed: u32, w: u32, h: u32) -> ImageBuf {
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        let mut s = seed.wrapping_mul(2654435761).max(1);
        for y in 0..h {
            for x in 0..w {
                s = s.wrapping_mul(48271) % 0x7FFF_FFFF;
                let base = ((x * 5 + y * 3 + seed * 17) % 256) as u8;
                data.push(base);
                data.push(base.wrapping_add((s & 0x1F) as u8));
                data.push((255 - base).wrapping_sub((s & 0x0F) as u8));
            }
        }
        ImageBuf::from_raw(w, h, 3, data).unwrap()
    }

    fn build_record(n: usize) -> Vec<u8> {
        let mut b = PcrRecordBuilder::with_default_groups();
        for i in 0..n {
            let img = test_image(i as u32 + 1, 48, 32);
            b.add_image(
                SampleMeta { label: (i % 3) as u32, id: format!("img{i:04}") },
                &img,
                85,
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn build_and_parse_roundtrip() {
        let bytes = build_record(4);
        let rec = PcrRecord::parse(&bytes).unwrap();
        assert_eq!(rec.num_images(), 4);
        assert_eq!(rec.num_groups(), 10);
        assert_eq!(rec.available_groups(), 10);
        assert_eq!(rec.total_len(), bytes.len());
        assert_eq!(rec.meta(2).id, "img0002");
        assert_eq!(rec.labels(), vec![0, 1, 2, 0]);
    }

    #[test]
    fn full_group_decode_matches_direct_decode() {
        let mut b = PcrRecordBuilder::with_default_groups();
        let img = test_image(7, 40, 40);
        let jpeg = pcr_jpeg::encode(&img, &EncodeConfig::progressive(85)).unwrap();
        b.add_progressive_jpeg(SampleMeta { label: 0, id: "x".into() }, jpeg.clone()).unwrap();
        let bytes = b.build().unwrap();
        let rec = PcrRecord::parse(&bytes).unwrap();
        let from_record = rec.decode_image(0, 10).unwrap();
        let direct = pcr_jpeg::decode(&jpeg).unwrap();
        assert_eq!(from_record, direct);
    }

    #[test]
    fn prefix_read_yields_lower_groups() {
        let bytes = build_record(3);
        let rec = PcrRecord::parse(&bytes).unwrap();
        for g in [1usize, 2, 5] {
            let prefix = &bytes[..rec.offset_for_group(g)];
            let view = PcrRecord::parse(prefix).unwrap();
            assert_eq!(view.available_groups(), g, "group {g}");
            for i in 0..3 {
                let img = view.decode_image(i, g).unwrap();
                assert_eq!(img.width(), 48);
            }
            // One more group must be refused.
            assert!(matches!(
                view.jpeg_at_group(0, g + 1),
                Err(Error::GroupUnavailable { .. })
            ));
        }
    }

    #[test]
    fn prefix_quality_increases_with_groups() {
        let img = test_image(3, 64, 64);
        let mut b = PcrRecordBuilder::with_default_groups();
        b.add_image(SampleMeta { label: 0, id: "a".into() }, &img, 90).unwrap();
        let bytes = b.build().unwrap();
        let rec = PcrRecord::parse(&bytes).unwrap();
        let reference = rec.decode_image(0, 10).unwrap();
        let mut last = 0f64;
        for g in [1usize, 2, 5, 10] {
            let out = rec.decode_image(0, g).unwrap();
            let p = pcr_jpeg::psnr(&reference, &out);
            assert!(p >= last - 0.75, "group {g}: psnr {p} < {last}");
            last = p;
        }
        assert!(last.is_infinite());
    }

    /// `decode_image` is `decode_image_with` on a fresh scratch, so a
    /// reused scratch is also held to the stream each image was built
    /// from: the JPEG the record assembles at group `g` is that stream's
    /// `g`-scan prefix, byte for byte, and `pcr-jpeg` checks `decode_with`
    /// on every such prefix against its reference decoder.
    #[test]
    fn scratch_decode_matches_plain_decode_across_records() {
        let mut scratch = RecordScratch::new();
        for n in [3u32, 2] {
            let mut b = PcrRecordBuilder::with_default_groups();
            let sources: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let img = test_image(i + 1, 48, 32);
                    let jpeg = pcr_jpeg::encode(&img, &EncodeConfig::progressive(85)).unwrap();
                    let meta = SampleMeta {
                        label: i,
                        id: format!("img{i}"),
                    };
                    b.add_progressive_jpeg(meta, jpeg.clone()).unwrap();
                    jpeg
                })
                .collect();
            let bytes = b.build().unwrap();
            let rec = PcrRecord::parse(&bytes).unwrap();
            for g in [1usize, 4, 10] {
                for (i, source) in sources.iter().enumerate() {
                    let layout = split_scans(source).unwrap();
                    let prefix = pcr_jpeg::assemble_prefix(source, &layout, g).unwrap();
                    assert_eq!(
                        rec.jpeg_at_group(i, g).unwrap(),
                        prefix,
                        "image {i} group {g}"
                    );
                    let plain = rec.decode_image(i, g).unwrap();
                    let pooled = rec.decode_image_with(i, g, &mut scratch).unwrap();
                    assert_eq!(plain, pooled, "image {i} group {g}");
                }
            }
        }
    }

    /// Every group is emitted once, as a decode of that group alone
    /// gives it — also the ones the one pass cannot serve: out of range,
    /// repeated, out of order, or past a prefix-truncated buffer.
    #[test]
    fn group_decode_emits_each_group_as_its_own_decode_would() {
        let bytes = build_record(2);
        let full = PcrRecord::parse(&bytes).unwrap();
        let cut = PcrRecord::parse(&bytes[..full.offset_for_group(6)]).unwrap();
        let mut scratch = RecordScratch::new();
        for rec in [full, cut] {
            for groups in [vec![1, 2, 5, 10], vec![0, 3, 3, 7, 11], vec![9, 4, 6]] {
                let mut got = vec![None; groups.len()];
                rec.decode_groups_with(1, &groups, &mut scratch, |k, img| {
                    assert!(got[k].replace(img.ok()).is_none(), "group {} twice", groups[k]);
                });
                for (k, &g) in groups.iter().enumerate() {
                    assert_eq!(got[k], Some(rec.decode_image(1, g).ok()), "{groups:?}: group {g}");
                }
            }
        }
    }

    #[test]
    fn meta_borrows_record_bytes() {
        let bytes = build_record(2);
        let rec = PcrRecord::parse(&bytes).unwrap();
        let m = rec.meta(1);
        assert_eq!(m.label, 1);
        assert_eq!(m.id, "img0001");
        // The id is a view into the buffer, not a copy.
        let range = bytes.as_ptr_range();
        assert!(range.contains(&m.id.as_ptr()));
    }

    #[test]
    fn offsets_are_monotone_and_match_total() {
        let bytes = build_record(5);
        let rec = PcrRecord::parse(&bytes).unwrap();
        let offs = rec.cumulative_group_offsets();
        assert_eq!(offs.len(), 11);
        for w in offs.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(*offs.last().unwrap(), bytes.len());
    }

    #[test]
    fn group_sizes_sum_to_payload() {
        let bytes = build_record(2);
        let rec = PcrRecord::parse(&bytes).unwrap();
        let groups_total: usize = (1..=10).map(|g| rec.group_size(g)).sum();
        assert_eq!(rec.offset_for_group(0) + groups_total, bytes.len());
    }

    #[test]
    fn rejects_garbage_and_truncated_index() {
        assert!(matches!(PcrRecord::parse(b"nope"), Err(Error::BadMagic)));
        let bytes = build_record(2);
        // Cut inside the index.
        assert!(PcrRecord::parse(&bytes[..20]).is_err());
    }

    /// The committed legacy version-2 record: one 16×24 grayscale image
    /// encoded with restart interval 1 (`tests/fixtures/legacy/README.md`).
    const RECORD_V2: &[u8] = include_bytes!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/legacy/record-v2.pcr"
    ));

    /// The fixture record's image.
    fn record_v2_image() -> ImageBuf {
        let gray = (0..24u32)
            .flat_map(|y| {
                (0..16u32).map(move |x| ((x * 13 + y * 7 + (x * y) % 11 * 9) % 256) as u8)
            })
            .collect();
        ImageBuf::from_raw(16, 24, 1, gray).unwrap()
    }

    #[test]
    fn legacy_restart_record_is_v2_and_reports_segments() {
        assert_eq!(u16::from_le_bytes([RECORD_V2[4], RECORD_V2[5]]), VERSION_RESTART);
        let rec = PcrRecord::parse(RECORD_V2).unwrap();
        assert_eq!(rec.restart_interval(), 1);
        // At least one scan group splits into multiple entropy segments.
        let max_segs = (1..=10).map(|g| rec.segment_count(0, g).unwrap()).max().unwrap();
        assert!(max_segs > 1, "expected multi-segment groups, got max {max_segs}");
        // Restart framing never changes pixels: decode equals today's
        // marker-less record of the same image at every group level.
        let mut plain = PcrRecordBuilder::with_default_groups();
        let meta = SampleMeta { label: 0, id: "img0".into() };
        plain.add_image(meta, &record_v2_image(), 85).unwrap();
        let plain_bytes = plain.build().unwrap();
        let plain_rec = PcrRecord::parse(&plain_bytes).unwrap();
        for g in 1..=10 {
            assert_eq!(
                rec.decode_image(0, g).unwrap(),
                plain_rec.decode_image(0, g).unwrap(),
                "group {g}"
            );
        }
    }

    #[test]
    fn builder_writes_v1_with_one_segment_per_chunk() {
        let bytes = build_record(1);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        let rec = PcrRecord::parse(&bytes).unwrap();
        assert_eq!(rec.restart_interval(), 0);
        // Marker-less chunks report exactly one entropy segment each.
        for g in 1..=10 {
            assert_eq!(rec.segment_count(0, g).unwrap(), 1, "group {g}");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = build_record(1);
        bytes[4] = 9;
        assert!(matches!(PcrRecord::parse(&bytes), Err(Error::BadVersion(9))));
    }

    #[test]
    fn empty_builder_rejected() {
        assert!(PcrRecordBuilder::with_default_groups().build().is_err());
    }

    #[test]
    fn baseline_jpeg_transcoded_on_add() {
        let img = test_image(9, 32, 32);
        let base = pcr_jpeg::encode(&img, &EncodeConfig::baseline(80)).unwrap();
        let mut b = PcrRecordBuilder::with_default_groups();
        b.add_baseline_jpeg(SampleMeta { label: 1, id: "b".into() }, &base).unwrap();
        let bytes = b.build().unwrap();
        let rec = PcrRecord::parse(&bytes).unwrap();
        // Full-quality decode equals the baseline decode (lossless transcode).
        assert_eq!(rec.decode_image(0, 10).unwrap(), pcr_jpeg::decode(&base).unwrap());
    }

    /// `add_baseline_jpeg` takes progressive input too and re-scripts it:
    /// a 4-scan progressive source lands in the record as the same ten
    /// scans its baseline twin does, so scan group k means one fidelity.
    #[test]
    fn progressive_input_is_rescripted_to_the_default_script() {
        use pcr_jpeg::frame::ScanComponent;
        let img = test_image(11, 40, 24);
        let base = pcr_jpeg::encode(&img, &EncodeConfig::baseline(80)).unwrap();
        let dc_table = |i: usize| u8::from(i > 0);
        let mut script = vec![pcr_jpeg::ScanInfo {
            components: (0..3)
                .map(|i| ScanComponent { comp_index: i, dc_table: dc_table(i), ac_table: 0 })
                .collect(),
            ss: 0,
            se: 0,
            ah: 0,
            al: 0,
        }];
        script.extend((0..3).map(|i| pcr_jpeg::ScanInfo {
            components: vec![ScanComponent { comp_index: i, dc_table: 0, ac_table: dc_table(i) }],
            ss: 1,
            se: 63,
            ah: 0,
            al: 0,
        }));
        let four_scans = pcr_jpeg::transcode(&base, true, Some(script)).unwrap();
        assert_eq!(pcr_jpeg::split_scans(&four_scans).unwrap().num_scans(), 4);
        let packed = |jpeg: &[u8]| {
            let mut b = PcrRecordBuilder::with_default_groups();
            b.add_baseline_jpeg(SampleMeta { label: 1, id: "p".into() }, jpeg).unwrap();
            b.build().unwrap()
        };
        let bytes = packed(&four_scans);
        let full = PcrRecord::parse(&bytes).unwrap().jpeg_at_group(0, 10).unwrap();
        assert_eq!(pcr_jpeg::split_scans(&full).unwrap().num_scans(), 10);
        assert_eq!(bytes, packed(&base));
    }

    #[test]
    fn grayscale_images_have_six_scans_padded_groups() {
        let img = test_image(4, 32, 32).to_luma();
        let mut b = PcrRecordBuilder::with_default_groups();
        b.add_image(SampleMeta { label: 0, id: "g".into() }, &img, 85).unwrap();
        let bytes = b.build().unwrap();
        let rec = PcrRecord::parse(&bytes).unwrap();
        // Groups 7..=10 are empty for the grayscale image.
        for g in 7..=10 {
            assert_eq!(rec.group_size(g), 0);
        }
        let full = rec.decode_image(0, 10).unwrap();
        let at6 = rec.decode_image(0, 6).unwrap();
        assert_eq!(full, at6);
    }
}
