//! The baseline record layout the paper compares PCRs against (TFRecord /
//! MXNet ImageRecord style): images at a *fixed* quality batched into large
//! records, giving sequential reads but requiring one full dataset copy per
//! quality level.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A wire module: it moves integers between untrusted bytes and memory, so
// no cast may truncate and no allocation may be sized by an unchecked
// count (`clippy.toml` lists the banned allocation calls).
#![deny(clippy::cast_possible_truncation, clippy::disallowed_methods)]

use crate::error::{Error, Result};
use crate::record::SampleMeta;
use crate::wire::{put_bytes, put_u32, put_u64, Reader};
use pcr_jpeg::{EncodeConfig, ImageBuf};

/// Magic prefix of a record file.
pub const RECORD_MAGIC: &[u8; 4] = b"TREC";

/// Builds a TFRecord-like record file: `[magic][count u32]` then per image
/// `[label u32][id bytes][jpeg bytes]` with u32 length prefixes, plus a
/// trailing u64 payload checksum (FNV-1a) in the TFRecord spirit.
#[derive(Debug, Default)]
pub struct RecordFileBuilder {
    entries: Vec<(SampleMeta, Vec<u8>)>,
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl RecordFileBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an encoded image.
    pub fn add_jpeg(&mut self, meta: SampleMeta, jpeg: Vec<u8>) {
        self.entries.push((meta, jpeg));
    }

    /// Encodes raw pixels at a fixed (static) quality and adds them — this
    /// is the "re-encode the dataset per quality level" workflow PCRs avoid.
    pub fn add_image(&mut self, meta: SampleMeta, img: &ImageBuf, quality: u8) -> Result<()> {
        let jpeg = pcr_jpeg::encode(img, &EncodeConfig::baseline(quality))?;
        self.add_jpeg(meta, jpeg);
        Ok(())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the record file.
    pub fn build(self) -> Result<Vec<u8>> {
        if self.entries.is_empty() {
            return Err(Error::BadInput("record needs at least one image".into()));
        }
        let mut payload = Vec::new();
        for (meta, jpeg) in &self.entries {
            put_u32(&mut payload, meta.label);
            put_bytes(&mut payload, meta.id.as_bytes());
            put_bytes(&mut payload, jpeg);
        }
        let count = u32::try_from(self.entries.len())
            .map_err(|_| Error::BadInput("record holds more than u32::MAX images".into()))?;
        #[expect(clippy::disallowed_methods, reason = "writer side: sized by the payload in \
                  memory")]
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(RECORD_MAGIC);
        put_u32(&mut out, count);
        out.extend_from_slice(&payload);
        put_u64(&mut out, fnv1a(&payload));
        Ok(out)
    }
}

/// A parsed record file.
#[derive(Debug)]
pub struct RecordFile<'a> {
    entries: Vec<(SampleMeta, &'a [u8])>,
}

impl<'a> RecordFile<'a> {
    /// Parses and checksums a record file.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(data);
        if r.bytes(4, "magic")? != RECORD_MAGIC {
            return Err(Error::BadMagic);
        }
        let count = r.u32("count")? as usize;
        let payload_start = r.pos();
        // Each entry is at least a label and two length prefixes.
        let mut entries = r.vec_for(count, 12, "record file entries")?;
        for _ in 0..count {
            let label = r.u32("label")?;
            let id = String::from_utf8(r.prefixed_bytes("id")?.to_vec())
                .map_err(|_| Error::Malformed("id not UTF-8".into()))?;
            let jpeg = r.prefixed_bytes("jpeg")?;
            entries.push((SampleMeta { label, id }, jpeg));
        }
        let payload_end = r.pos();
        let checksum = r.u64("checksum")?;
        #[expect(clippy::indexing_slicing, reason = "both ends are reader positions, so start <= \
                  end <= data.len()")]
        let payload = &data[payload_start..payload_end];
        if fnv1a(payload) != checksum {
            return Err(Error::Malformed("record checksum mismatch".into()));
        }
        Ok(Self { entries })
    }

    /// Number of images.
    pub fn num_images(&self) -> usize {
        self.entries.len()
    }

    /// Metadata of entry `i`. Panics if `i >= num_images()`.
    #[expect(clippy::indexing_slicing, reason = "documented index contract")]
    pub fn meta(&self, i: usize) -> &SampleMeta {
        &self.entries[i].0
    }

    /// Raw JPEG bytes of entry `i`. Panics if `i >= num_images()`.
    #[expect(clippy::indexing_slicing, reason = "documented index contract")]
    pub fn jpeg(&self, i: usize) -> &'a [u8] {
        self.entries[i].1
    }

    /// Decodes entry `i`. Panics if `i >= num_images()`.
    #[expect(clippy::indexing_slicing, reason = "documented index contract")]
    pub fn decode(&self, i: usize) -> Result<ImageBuf> {
        Ok(pcr_jpeg::decode(self.entries[i].1)?)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation, clippy::disallowed_methods,
             reason = "test fixtures: small literal sizes and values")]
    use super::*;

    fn img(seed: u8) -> ImageBuf {
        let mut data = Vec::new();
        for y in 0..24u32 {
            for x in 0..24u32 {
                data.push(((x * 7 + y + u32::from(seed) * 31) % 256) as u8);
                data.push(((x + y * 5) % 256) as u8);
                data.push(((x * y + u32::from(seed)) % 256) as u8);
            }
        }
        ImageBuf::from_raw(24, 24, 3, data).unwrap()
    }

    #[test]
    fn record_file_roundtrip() {
        let mut b = RecordFileBuilder::new();
        for i in 0..5u8 {
            b.add_image(SampleMeta { label: u32::from(i), id: format!("s{i}") }, &img(i), 80)
                .unwrap();
        }
        let bytes = b.build().unwrap();
        let rf = RecordFile::parse(&bytes).unwrap();
        assert_eq!(rf.num_images(), 5);
        assert_eq!(rf.meta(3).label, 3);
        assert_eq!(rf.meta(3).id, "s3");
        let decoded = rf.decode(2).unwrap();
        assert_eq!(decoded.width(), 24);
    }

    #[test]
    fn record_file_detects_corruption() {
        let mut b = RecordFileBuilder::new();
        b.add_image(SampleMeta { label: 0, id: "a".into() }, &img(1), 80).unwrap();
        let mut bytes = b.build().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(RecordFile::parse(&bytes).is_err());
    }

    #[test]
    fn empty_record_rejected() {
        assert!(RecordFileBuilder::new().build().is_err());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    }
}
