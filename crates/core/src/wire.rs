//! Little-endian wire helpers for the hand-rolled binary formats.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A wire module: it moves integers between untrusted bytes and memory, so
// no cast may truncate and no allocation may be sized by an unchecked
// count (`clippy.toml` lists the banned allocation calls).
#![deny(clippy::cast_possible_truncation, clippy::disallowed_methods)]

use crate::error::{Error, Result};

/// Appends a `u16` in little-endian order.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string (u32 length).
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    debug_assert!(v.len() <= u32::MAX as usize, "payload exceeds u32 length prefix");
    #[expect(clippy::cast_possible_truncation, reason = "writer side; record payloads are \
              bounded far below 4 GiB by the container format, asserted above")]
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// A `u64` length or offset from the wire as a `usize`. Saturates where
/// `usize` is narrower, so an out-of-range value fails the bounds check
/// that follows it instead of wrapping to a small one.
#[inline]
pub(crate) const fn to_usize(v: u64) -> usize {
    if v > usize::MAX as u64 {
        return usize::MAX;
    }
    #[expect(clippy::cast_possible_truncation, reason = "v <= usize::MAX, checked just above")]
    let n = v as usize;
    n
}

/// CRC-32 lookup tables for the reflected polynomial `0xEDB88320`,
/// computed at compile time. Table 0 is the classic byte-at-a-time
/// table; table `k` advances a byte's contribution `k` further bytes
/// through the register, which is what lets [`crc32_update`] fold 16
/// input bytes per step (slice-by-16).
#[expect(clippy::indexing_slicing, clippy::cast_possible_truncation,
         reason = "evaluated at compile time, where an out-of-bounds index fails the build; i < \
                   256")]
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Table `k`'s entry for the low byte of `x`.
#[inline(always)]
fn crc_table(k: usize, x: u32) -> u32 {
    #[expect(clippy::indexing_slicing, reason = "every caller passes a literal k < 16; index \
              masked to 0..=255")]
    CRC32_TABLES[k][(x & 0xFF) as usize]
}

/// One input byte through the CRC register.
#[inline(always)]
fn crc_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ crc_table(0, crc ^ u32::from(byte))
}

/// Four table lookups for the little-endian word `w` whose lowest byte
/// is `top` table steps from the end of a 16-byte block.
#[inline(always)]
fn crc_word(w: u32, top: usize) -> u32 {
    crc_table(top, w) ^ crc_table(top - 1, w >> 8) ^ crc_table(top - 2, w >> 16) ^ crc_table(top - 3, w >> 24)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data` — the
/// checksum the sharded container format stores per record and per shard
/// footer. Container opens verify every record by default, so this runs
/// over whole datasets, not just at pack time.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 over more bytes: `crc32_update(crc32(a), b)` is
/// `crc32(a ‖ b)`, and `crc32_update(0, d)` is `crc32(d)` — so a stream
/// can be checksummed through a small buffer, chunk by chunk.
/// Slice-by-16: 16 bytes per step through 16 tables, then the tail a
/// byte at a time; no alignment requirement on `data`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // `chunks_exact(16)` yields 16-byte slices, so the conversion
        // cannot fail; destructuring reads the bytes without indexing.
        let Ok(&[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15]) =
            <&[u8; 16]>::try_from(block)
        else {
            continue;
        };
        let a = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let b = u32::from_le_bytes([b4, b5, b6, b7]);
        let c = u32::from_le_bytes([b8, b9, b10, b11]);
        let d = u32::from_le_bytes([b12, b13, b14, b15]);
        crc = crc_word(a, 15) ^ crc_word(b, 11) ^ crc_word(c, 7) ^ crc_word(d, 3);
    }
    for &byte in blocks.remainder() {
        crc = crc_byte(crc, byte);
    }
    !crc
}

/// The byte-at-a-time loop `crc32` used to be: the reference the
/// slice-by-16 form is tested against.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFFu32, |crc, &byte| crc_byte(crc, byte))
}

/// Sequential reader with context-tagged truncation errors.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(Error::Truncated { context })?;
        let s = self.data.get(self.pos..end).ok_or(Error::Truncated { context })?;
        self.pos = end;
        Ok(s)
    }

    /// An empty `Vec` with room for `count` entries read from the input.
    /// Refused as truncated unless `count` entries of at least
    /// `min_entry_bytes` each fit in the bytes left, so a forged count
    /// cannot size an allocation past what the input could fill.
    pub(crate) fn vec_for<T>(
        &self,
        count: usize,
        min_entry_bytes: usize,
        context: &'static str,
    ) -> Result<Vec<T>> {
        if count.saturating_mul(min_entry_bytes) > self.remaining() {
            return Err(Error::Truncated { context });
        }
        #[expect(clippy::disallowed_methods, reason = "bounded by the bytes left, checked above")]
        Ok(Vec::with_capacity(count))
    }

    /// Reads `N` bytes as a fixed array (panic-free: the conversion is
    /// checked, not indexed).
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N]> {
        let b = self.bytes(N, context)?;
        <[u8; N]>::try_from(b).map_err(|_| Error::Truncated { context })
    }

    /// Reads a `u8`.
    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array(context)?))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array(context)?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn prefixed_bytes(&mut self, context: &'static str) -> Result<&'a [u8]> {
        let n = self.u32(context)? as usize;
        self.bytes(n, context)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation, clippy::disallowed_methods,
             reason = "test fixtures: small literal sizes and values")]
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEADBEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_bytes(&mut buf, b"hello");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u16("a").unwrap(), 0xBEEF);
        assert_eq!(r.u32("b").unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64("c").unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.prefixed_bytes("d").unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_tables_chain_from_the_bytewise_table() {
        // Table k applied to byte b equals the bytewise CRC register after
        // b followed by k zero bytes (no pre/post inversion).
        for b in [0u8, 1, 0x80, 0xFF] {
            let mut reg = CRC32_TABLES[0][b as usize];
            for table in &CRC32_TABLES[1..] {
                reg = (reg >> 8) ^ CRC32_TABLES[0][(reg & 0xFF) as usize];
                assert_eq!(table[b as usize], reg);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Slice-by-16 equals the byte loop at every length 0..=4096 it
        /// draws and at every start alignment within a 16-byte line.
        #[test]
        fn crc32_equals_bytewise_at_every_alignment(
            len in 0usize..=4096,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut x = seed | 1;
            let backing: Vec<u8> = (0..len + 16)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u8
                })
                .collect();
            for align in 0..16 {
                let data = &backing[align..align + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data), "len {} align {}", len, align);
            }
        }

        /// Feeding a buffer in pieces gives the one-shot value, wherever
        /// the cuts fall.
        #[test]
        fn crc32_update_over_any_split_equals_one_shot(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = 0u32;
            let mut from = 0usize;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc = crc32_update(crc, &data[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(crc, crc32(&data));
            proptest::prop_assert_eq!(crc, crc32_bytewise(&data));
        }
    }

    #[test]
    fn crc32_every_short_length_matches_bytewise() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn truncation_reports_context() {
        let mut r = Reader::new(&[1, 2]);
        match r.u32("frobnicator") {
            Err(Error::Truncated { context }) => assert_eq!(context, "frobnicator"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
