//! Bit-level I/O for entropy-coded JPEG segments, including 0xFF byte
//! stuffing (writer) and stuffing removal / marker detection (reader).
//!
//! The reader is the decode hot path's innermost primitive, so it is
//! *batched*: a 64-bit accumulator is refilled 32 bits at a time from the
//! underlying slice (a word-at-a-time scan locates the next 0xFF once, and
//! every byte before it is appended without per-byte stuffing checks).
//! The entropy decoders consume it through the branch-light
//! [`BitSource::peek_bits`] / [`BitSource::consume`] pair: one refill
//! check, one shift, one mask per probe. The same 0xFF scanner
//! ([`find_ff`]) backs `SegmentReader::skip_entropy`, which is how
//! `scansplit` walks scan boundaries without decoding.
//!
//! The writer is the same shape turned round: [`BitWriter`] gathers up
//! to 32 bits per call (a Huffman code with its magnitude bits fused) in
//! a 64-bit word and moves it to the output eight bytes at a time,
//! taking the per-byte stuffing loop only for a word that the same
//! has-zero-byte test finds an 0xFF in.

use crate::error::{Error, Result};

/// Index of the first `0xFF` byte at or after `from` (returns
/// `data.len()` if there is none). Word-at-a-time: eight bytes are tested
/// per iteration with the classic "has zero byte" trick applied to the
/// complement, so entropy segments are scanned at memory speed. Shared by
/// the [`BitReader`] refill (run length of stuffing-free bytes) and the
/// marker-level entropy skip behind `scansplit`.
#[inline]
pub fn find_ff(data: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut p = from;
    while p + 8 <= data.len() {
        // pcr-lint: allow(no-panic-in-hot-path) — p + 8 <= len guards the slice, so the 8-byte conversion cannot fail
        let w = u64::from_ne_bytes(data[p..p + 8].try_into().expect("8 bytes"));
        // A byte equals 0xFF iff its complement is zero.
        if (!w).wrapping_sub(LO) & w & HI != 0 {
            break; // an 0xFF is among these 8 bytes: pinpoint it below
        }
        p += 8;
    }
    while p < data.len() && data[p] != 0xFF { // pcr-lint: allow(no-panic-in-hot-path) — p < len checked first
        p += 1;
    }
    p
}

/// Splits an entropy-coded segment at its restart markers, returning the
/// byte range of each restart interval in order (always at least one
/// range, possibly empty). The `RSTn` marker bytes themselves belong to
/// no segment. Stuffed `0xFF 0x00` pairs are entropy data and never
/// split. A lone `0xFF` as the final byte is kept inside the last
/// segment (it is an incomplete marker; [`BitReader`] treats it as
/// end-of-data, matching `SegmentReader::skip_entropy`). A real
/// non-restart marker terminates the scan: the final segment ends at its
/// `0xFF` and the remainder is ignored, mirroring how the reader stops
/// there.
///
/// Uses the same word-at-a-time [`find_ff`] scan as the reader refill,
/// so a marker whose `0xFF` lands on the last byte of an 8-byte scan
/// window is still paired with its marker byte from the next window —
/// the offset pins in this module's tests cover exactly that boundary.
pub fn split_restart_segments(data: &[u8]) -> Vec<(usize, usize)> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut p = 0usize;
    loop {
        p = find_ff(data, p);
        if p + 1 >= data.len() {
            // End of data (including a trailing lone 0xFF): last segment.
            segments.push((start, data.len()));
            return segments;
        }
        // pcr-lint: allow(no-panic-in-hot-path) — p + 1 < len checked above
        let m = data[p + 1];
        if m == 0x00 {
            p += 2; // stuffed 0xFF: entropy data, keep scanning
        } else if (0xD0..=0xD7).contains(&m) {
            segments.push((start, p));
            start = p + 2;
            p += 2;
        } else {
            // Real marker: entropy data ends here.
            segments.push((start, p));
            return segments;
        }
    }
}

/// Writes bits MSB-first into a byte buffer, inserting a 0x00 stuff byte
/// after every literal 0xFF as required by T.81 section B.1.1.5.
///
/// Batched like the reader, in the shape of libjpeg-turbo's `put_buffer`
/// (`jchuff.c`): bits gather at the low end of a 64-bit word. A code that
/// fits is shifted in; one that does not completes the word, which
/// leaves as eight bytes, and its spilled low bits start the next word.
/// A word that holds no `0xFF` — the same has-zero-byte test as
/// [`find_ff`] — is appended with a single 8-byte copy; only a word that
/// does takes the per-byte stuffing loop. Output is byte-identical to
/// emitting one byte at a time (the retained reference writer the tests
/// compare against).
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Low `nbits` bits are pending output; everything above is stale
    /// and shifts out before the word completes.
    acc: u64,
    /// Pending bits, always below 64.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose output has room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Self { out: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Appends the low `n` bits of `value` (MSB first). `n` must be <= 32.
    #[inline]
    pub fn put_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        let value = u64::from(value) & ((1u64 << n) - 1);
        if self.nbits + n < 64 {
            self.acc = self.acc << n | value;
            self.nbits += n;
        } else {
            // `32 <= nbits`: the word takes the top `64 - nbits` bits of
            // the code, the other `spill` bits start the next word.
            let spill = self.nbits + n - 64;
            self.put_word(self.acc << (64 - self.nbits) | value >> spill);
            self.acc = value;
            self.nbits = spill;
        }
    }

    /// Appends a complete 64-bit word, most significant byte first.
    #[inline]
    fn put_word(&mut self, word: u64) {
        const LO: u64 = 0x0101_0101_0101_0101;
        const HI: u64 = 0x8080_8080_8080_8080;
        // A byte equals 0xFF iff its complement is zero.
        if (!word).wrapping_sub(LO) & word & HI == 0 {
            self.out.extend_from_slice(&word.to_be_bytes());
        } else {
            self.put_bytes_stuffed(word, 8);
        }
    }

    /// Appends the low `count` bytes of `word`, most significant first,
    /// stuffing a 0x00 after each 0xFF.
    #[cold]
    fn put_bytes_stuffed(&mut self, word: u64, count: u32) {
        for i in (0..count).rev() {
            let byte = (word >> (8 * i)) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00);
            }
        }
    }

    /// Pads the final partial byte with 1-bits (T.81 B.1.1.5) and returns the
    /// completed entropy-coded segment.
    pub fn finish(mut self) -> Vec<u8> {
        let pad = (8 - self.nbits % 8) % 8;
        let word = self.acc << pad | ((1u64 << pad) - 1);
        self.put_bytes_stuffed(word, (self.nbits + pad) / 8);
        self.out
    }

    /// Number of full bytes emitted so far (excluding the bits of a
    /// partial byte): whole bytes still in the word count, with the
    /// stuffing they will get.
    pub fn len(&self) -> usize {
        let pending = self.nbits / 8;
        let word = self.acc >> (self.nbits % 8);
        let stuffed = (0..pending).filter(|i| (word >> (8 * i)) as u8 == 0xFF).count();
        self.out.len() + pending as usize + stuffed
    }

    /// True if nothing has been emitted or buffered.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.nbits == 0
    }
}

/// The bit-level source entropy decoders read from.
///
/// Implemented by the batched [`BitReader`] (production) and by the
/// retained per-byte reference reader (tests), so the scan-decoding logic
/// in [`crate::dentropy`] is written exactly once and the bit-exactness
/// suite can run it against both primitives.
///
/// Contract shared by all implementations (the *refill contract*):
///
/// * bits are delivered MSB-first;
/// * `peek_bits(n)`/`get_bits(n)` support `n <= 16` and transparently
///   refill from the underlying slice, removing `0xFF 0x00` stuffing;
/// * encountering a real marker (`0xFF` followed by anything but `0x00`)
///   or the end of the slice ends the entropy data: all further bits read
///   as zero (T.81 behaviour, which truncated progressive streams rely
///   on) and the reader reports itself exhausted;
/// * `consume(n)` discards bits previously made available by a peek and
///   never refills.
pub trait BitSource {
    /// Reads `n` bits (`n <= 16`) MSB-first.
    fn get_bits(&mut self, n: u32) -> Result<u32>;
    /// Peeks `n` bits (`n <= 16`) without consuming them (zero-padded past
    /// the end of the entropy data).
    fn peek_bits(&mut self, n: u32) -> Result<u32>;
    /// Consumes `n` bits previously peeked.
    fn consume(&mut self, n: u32) -> Result<()>;
    /// Reads a single bit.
    #[inline]
    fn get_bit(&mut self) -> Result<u32> {
        self.get_bits(1)
    }
    /// Hint that a multi-peek decode step is about to run: tops the
    /// buffer up so the following `peek_bits`/`consume` calls hit their
    /// never-taken refill branches. Default: no-op (correctness never
    /// depends on it — peeks refill on demand).
    #[inline]
    fn prefetch(&mut self) {}
    /// Peeks a 32-bit window (MSB-first, zero-padded past the end of the
    /// entropy data) without consuming anything, or `None` when the
    /// implementation cannot serve one. The AC-refinement walk resolves a
    /// step's code, sign bit and correction bits from a single window and
    /// then issues one `consume`; callers must fall back to the 16-bit
    /// peek path on `None`. After `Some(w)` the source guarantees
    /// at least 32 buffered bits, so a following `consume(n)` with
    /// `n <= 32` cannot fail. Default: `None` (the per-byte reference
    /// reader's 32-bit accumulator cannot hold a 32-bit lookahead).
    #[inline]
    fn peek_wide(&mut self) -> Option<u32> {
        None
    }
    /// Tops the buffer up and returns all of it without consuming
    /// anything: `Some((word, n))` holds the next `n >= 32` stream bits
    /// MSB-first at the top of `word` (zero-padded past the end of the
    /// entropy data, like every peek), and a following `consume(m)` with
    /// `m <= n` cannot fail. The fast-AC scan loop takes as many short
    /// coefficient steps as the buffer holds before one consume. Default:
    /// `None`, as for [`BitSource::peek_wide`].
    #[inline]
    fn peek_buffered(&mut self) -> Option<(u64, u32)> {
        None
    }
}

/// Reads bits MSB-first from an entropy-coded segment, transparently
/// removing 0xFF 0x00 stuffing and stopping at any real marker.
///
/// Batched: the accumulator keeps its valid bits *top-aligned* in a
/// `u64` (everything below them is zero), so inside a stuffing-free run
/// — located once per run by [`find_ff`] — a refill is branch-free: one
/// unaligned 8-byte big-endian load, one shift, one `or`, topping the
/// buffer up to at least 56 bits. Peek is a single shift from the top;
/// consume is a shift up. Only bytes at the scanner's 0xFF mark (or past
/// the end) take the per-byte slow path. After any refill at least 56
/// valid bits are buffered, so a two-probe Huffman lookup (8 + 16 bits)
/// never refills twice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next unread byte (bytes before `pos` are in `acc` or consumed).
    pos: usize,
    /// Index of the next 0xFF at or after `pos` (`data.len()` if none).
    ff_ahead: usize,
    /// Top `nbits` bits are valid; all lower bits are zero.
    acc: u64,
    nbits: u32,
    /// Set when a non-stuffed 0xFF marker byte was encountered; entropy data
    /// is exhausted at that point.
    marker_hit: Option<u8>,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`, which should start at the first
    /// entropy-coded byte (just after an SOS header).
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, ff_ahead: find_ff(data, 0), acc: 0, nbits: 0, marker_hit: None }
    }

    /// Byte offset of the next byte not yet pulled into the accumulator.
    /// Refills are batched, so this can run ahead of the logical bit
    /// position by up to 8 bytes.
    pub fn byte_pos(&self) -> usize {
        self.pos
    }

    /// The marker byte that terminated this segment, if any was seen.
    pub fn marker(&self) -> Option<u8> {
        self.marker_hit
    }

    /// Byte-at-a-time refill for the cases the branch-free path cannot
    /// handle: near an 0xFF (stuffing or marker) or near the end of the
    /// slice. Zero bits flow once a marker/EOF is hit.
    #[cold]
    fn refill_slow(&mut self) {
        // Stops in 56..=63: a 64-bit fill would leave the next `refill`
        // shifting a word by the full width.
        while self.nbits < 56 {
            if self.marker_hit.is_some() {
                // Zero-padding: the bits below the top are already zero.
                self.nbits += 8;
            } else if self.pos < self.ff_ahead {
                // pcr-lint: allow(no-panic-in-hot-path) — pos < ff_ahead <= data.len()
                self.acc |= u64::from(self.data[self.pos]) << (56 - self.nbits);
                self.pos += 1;
                self.nbits += 8;
            } else if self.pos >= self.data.len() {
                // Truncated stream: treat like marker-hit and pad with
                // zeros so callers can finish the current MCU then notice
                // exhaustion.
                self.marker_hit = Some(0x00);
                self.nbits += 8;
            } else {
                // pcr-lint: allow(no-panic-in-hot-path) — debug-only; pos < len by the else-if chain
                debug_assert_eq!(self.data[self.pos], 0xFF);
                match self.data.get(self.pos + 1) {
                    Some(0x00) => {
                        self.acc |= 0xFFu64 << (56 - self.nbits);
                        self.pos += 2; // stuffed 0xFF
                        self.ff_ahead = find_ff(self.data, self.pos);
                        self.nbits += 8;
                    }
                    Some(&m) => {
                        self.marker_hit = Some(m);
                        // Leave `pos` at the 0xFF; feed zero bits from here.
                        self.nbits += 8;
                    }
                    None => {
                        self.marker_hit = Some(0x00);
                        self.nbits += 8;
                    }
                }
            }
        }
    }

    /// Refills the accumulator to at least 56 valid bits. Safe at any
    /// `nbits < 64`: inside a stuffing-free run the top-up is branch-free
    /// (one unaligned load, shift, or), so callers may invoke it
    /// unconditionally rather than branching on the buffer level.
    #[inline]
    fn refill(&mut self) {
        if self.pos + 8 <= self.ff_ahead {
            let w = u64::from_be_bytes(
                // pcr-lint: allow(no-panic-in-hot-path) — pos + 8 <= ff_ahead <= data.len() guards the 8-byte slice
                self.data[self.pos..self.pos + 8].try_into().expect("8 bytes"),
            );
            self.acc |= w >> self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else if self.nbits < 32 {
            self.refill_slow();
        }
    }

    /// Reads `n` bits (n <= 16) MSB-first.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u32> {
        if n == 0 {
            return Ok(0);
        }
        debug_assert!(n <= 16);
        if self.nbits < n {
            self.refill();
        }
        let v = (self.acc >> (64 - n)) as u32;
        self.acc <<= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Reads a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<u32> {
        if self.nbits == 0 {
            self.refill();
        }
        let v = (self.acc >> 63) as u32;
        self.acc <<= 1;
        self.nbits -= 1;
        Ok(v)
    }

    /// Peeks up to 16 bits without consuming them (zero-padded past EOF).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!((1..=16).contains(&n));
        if self.nbits < n {
            self.refill();
        }
        Ok((self.acc >> (64 - n)) as u32)
    }

    /// Consumes `n` bits previously peeked.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if self.nbits < n {
            return Err(Error::CorruptData("consume past fill".into()));
        }
        self.acc <<= n;
        self.nbits -= n;
        Ok(())
    }

    /// True once the reader has hit a marker or the end of the data;
    /// every bit from that point on reads as zero.
    pub fn exhausted(&self) -> bool {
        self.marker_hit.is_some()
    }
}

impl BitSource for BitReader<'_> {
    #[inline]
    fn get_bits(&mut self, n: u32) -> Result<u32> {
        BitReader::get_bits(self, n)
    }
    #[inline]
    fn peek_bits(&mut self, n: u32) -> Result<u32> {
        BitReader::peek_bits(self, n)
    }
    #[inline]
    fn consume(&mut self, n: u32) -> Result<()> {
        BitReader::consume(self, n)
    }
    #[inline]
    fn get_bit(&mut self) -> Result<u32> {
        BitReader::get_bit(self)
    }
    #[inline]
    fn prefetch(&mut self) {
        self.refill();
    }
    #[inline]
    fn peek_wide(&mut self) -> Option<u32> {
        if self.nbits < 32 {
            self.refill();
        }
        // `refill` tops up to >= 56 bits on either path (zero-padding past
        // markers/EOF), and the `nbits >= 32` case needs no refill at all,
        // so the top 32 bits of `acc` are always a valid window here.
        Some((self.acc >> 32) as u32)
    }
    #[inline]
    fn peek_buffered(&mut self) -> Option<(u64, u32)> {
        if self.nbits < 32 {
            self.refill();
        }
        // As in `peek_wide`: at least 32 valid bits from here on.
        Some((self.acc, self.nbits))
    }
}

/// Sign-extends an `n`-bit magnitude per T.81 F.2.2.1 `EXTEND`.
///
/// Branch-free: whether the magnitude is in the negative half is a
/// random data bit in real streams, so a conditional here would
/// mispredict constantly in the per-coefficient hot loop.
#[inline]
pub fn extend(v: u32, n: u32) -> i32 {
    if n == 0 {
        return 0;
    }
    let v = v as i32;
    let vt = 1i32 << (n - 1);
    // v < vt  =>  add (1 - 2^n); otherwise add 0.
    v + (((v < vt) as i32) * (1i32.wrapping_sub(1i32 << n)))
}

/// Number of bits needed to represent `|v|` (the JPEG "size" category).
#[inline]
pub fn bit_size(v: i32) -> u32 {
    let a = v.unsigned_abs();
    32 - a.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceBitReader;

    #[test]
    fn roundtrip_simple_bits() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0b0110_1001, 8);
        w.put_bits(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(8).unwrap(), 0b0110_1001);
        assert_eq!(r.get_bit().unwrap(), 1);
    }

    #[test]
    fn writer_stuffs_ff() {
        let mut w = BitWriter::new();
        w.put_bits(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00]);
    }

    #[test]
    fn writer_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1111, 0x00]); // 0xFF gets stuffed too
    }

    #[test]
    fn reader_unstuffs_ff() {
        let data = [0xFF, 0x00, 0xAB];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0xFF);
        assert_eq!(r.get_bits(8).unwrap(), 0xAB);
        // Batched refill reads eagerly, so the end-of-data sentinel is
        // already visible; no *real* marker was seen.
        assert_ne!(r.marker(), Some(0xD9));
    }

    #[test]
    fn reader_stops_at_marker() {
        let data = [0x12, 0xFF, 0xD9];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(8).unwrap(), 0x12);
        // Next read crosses into the marker: zero-padded.
        assert_eq!(r.get_bits(8).unwrap(), 0x00);
        assert_eq!(r.marker(), Some(0xD9));
    }

    #[test]
    fn reader_zero_pads_truncated_stream() {
        let data = [0b1010_0000];
        let mut r = BitReader::new(&data);
        assert_eq!(r.get_bits(4).unwrap(), 0b1010);
        assert_eq!(r.get_bits(8).unwrap(), 0);
        assert!(r.exhausted());
    }

    #[test]
    fn find_ff_scans_words() {
        assert_eq!(find_ff(&[], 0), 0);
        assert_eq!(find_ff(&[0xFF], 0), 0);
        let mut data = vec![0u8; 100];
        assert_eq!(find_ff(&data, 0), 100);
        for at in [0usize, 3, 7, 8, 9, 63, 64, 65, 99] {
            data.fill(0x11);
            data[at] = 0xFF;
            assert_eq!(find_ff(&data, 0), at, "position {at}");
            if at > 0 {
                assert_eq!(find_ff(&data, at + 1), 100);
            }
        }
    }

    /// Regression pin for the word-at-a-time scanner's window boundary:
    /// an `0xFF` on the *last* byte of an 8-byte scan window (position
    /// ≡ 7 mod 8) must be found at its exact offset, and a marker split
    /// across the boundary (`0xFF` in one window, the marker byte in the
    /// next) must still be paired correctly by every `find_ff` caller.
    #[test]
    fn find_ff_every_alignment_and_window_boundary() {
        // Every position mod 8, at several window indices, under every
        // starting offset `from` in 0..16.
        for at in 0..40usize {
            let mut data = vec![0x11u8; 48];
            data[at] = 0xFF;
            for from in 0..16usize {
                let expect = if from <= at { at } else { 48 };
                assert_eq!(find_ff(&data, from), expect, "at={at} from={from}");
            }
        }
        // 0xFF as the final byte of the slice, for slice lengths around
        // the 8-byte step (tail loop takes over exactly at len - len%8).
        for len in 1..=24usize {
            let mut data = vec![0x22u8; len];
            data[len - 1] = 0xFF;
            assert_eq!(find_ff(&data, 0), len - 1, "len={len}");
        }
    }

    /// A marker whose 0xFF is the last byte of one 8-byte refill window
    /// and whose marker byte opens the next window must terminate the
    /// batched reader at the same bit position as the reference reader.
    #[test]
    fn marker_split_across_refill_window_boundary() {
        for ff_at in [7usize, 15, 23, 31] {
            let mut data = vec![0x5Au8; ff_at];
            data.push(0xFF);
            data.push(0xD9);
            let mut fast = BitReader::new(&data);
            let mut reference = ReferenceBitReader::new(&data);
            for _ in 0..ff_at {
                assert_eq!(
                    fast.get_bits(8).unwrap(),
                    reference.get_bits(8).unwrap(),
                    "ff_at={ff_at}"
                );
            }
            assert_eq!(fast.get_bits(8).unwrap(), 0);
            assert_eq!(reference.get_bits(8).unwrap(), 0);
            assert_eq!(fast.marker(), Some(0xD9));
            assert_eq!(fast.marker(), reference.marker());
        }
    }

    /// Pins the batched refill's offset arithmetic
    /// (`pos += (63 - nbits) >> 3`, `nbits |= 56`) as a conservation
    /// law: over stuffing-free data, bits pulled from the slice equal
    /// bits delivered to the caller plus bits still buffered — at every
    /// possible pre-refill fill level.
    #[test]
    fn refill_offset_arithmetic_is_exact() {
        let data: Vec<u8> = (0u8..64).collect();
        for pre_bits in 0..32u32 {
            let mut r = BitReader::new(&data);
            r.prefetch();
            let delivered = r.nbits - pre_bits;
            r.consume(delivered).unwrap();
            assert_eq!(r.nbits, pre_bits);
            let pos_before = r.byte_pos();
            r.prefetch(); // the batched refill under test
            assert!(r.nbits >= 56, "pre_bits={pre_bits}");
            assert_eq!(
                (r.byte_pos() - pos_before) as u32 * 8,
                r.nbits - pre_bits,
                "refill pulled partial bytes at pre_bits={pre_bits}"
            );
            assert_eq!(r.byte_pos() as u32 * 8, delivered + r.nbits);
        }
    }

    /// `peek_wide` must agree with two chained 16-bit peeks on the
    /// reference reader — including across stuffing, markers, and EOF
    /// zero padding.
    #[test]
    fn wide_peek_matches_reference_reader_bytes() {
        let mut data = Vec::new();
        for i in 0..48u32 {
            data.push((i.wrapping_mul(151) & 0xFF) as u8);
            if data.last() == Some(&0xFF) {
                data.push(0x00);
            }
        }
        data.extend_from_slice(&[0xFF, 0xD9]);
        for cut in [data.len(), data.len() - 3, 9, 1, 0] {
            let data = &data[..cut];
            let mut fast = BitReader::new(data);
            let mut reference = ReferenceBitReader::new(data);
            for step in 0..80 {
                let w = fast.peek_wide().expect("batched reader serves wide peeks");
                let hi = reference.peek_bits(16).unwrap();
                reference.consume(16).unwrap();
                let lo = reference.peek_bits(16).unwrap();
                assert_eq!(w, (hi << 16) | lo, "cut={cut} step={step}");
                // Advance both readers 16 bits; the windows stay phased.
                fast.consume(16).unwrap();
            }
        }
    }

    /// Repeated `prefetch` / `peek_wide` with nothing consumed in between
    /// must leave the window unchanged, at every fill level and with a
    /// stuffed byte at every distance ahead — the peek-then-fall-back
    /// shape of the refinement decoder. A slow refill that buffered a
    /// full 64 bits made the next fast refill shift a word by 64.
    #[test]
    fn repeated_wide_peeks_without_consume_match_reference() {
        // The minimal case: three bytes, a stuffed 0xFF, then a long run.
        let mut data = vec![0x12; 3];
        data.extend_from_slice(&[0xFF, 0x00]);
        data.extend((0..40u8).map(|i| i.wrapping_mul(37) | 1));
        let mut r = BitReader::new(&data);
        r.prefetch();
        r.prefetch();
        assert_eq!(r.peek_wide(), Some(0x1212_12FF));

        for ff_at in 0..12usize {
            let mut data: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(73) ^ 0x5A).collect();
            data.retain(|&b| b != 0xFF);
            data.insert(ff_at, 0xFF);
            data.insert(ff_at + 1, 0x00);
            for skip in 0..96u32 {
                let mut fast = BitReader::new(&data);
                let mut reference = ReferenceBitReader::new(&data);
                let mut left = skip;
                while left > 0 {
                    let n = left.min(13);
                    assert_eq!(fast.get_bits(n).unwrap(), reference.get_bits(n).unwrap());
                    left -= n;
                }
                let hi = reference.get_bits(16).unwrap();
                let lo = reference.get_bits(16).unwrap();
                for round in 0..4 {
                    fast.prefetch();
                    let w = fast.peek_wide().expect("batched reader serves wide peeks");
                    assert_eq!(w, (hi << 16) | lo, "ff_at={ff_at} skip={skip} round={round}");
                }
                // The reader keeps delivering the reference's bits after.
                fast.consume(32).unwrap();
                for step in 0..24 {
                    assert_eq!(
                        fast.get_bits(11).unwrap(),
                        reference.get_bits(11).unwrap(),
                        "ff_at={ff_at} skip={skip} step={step}"
                    );
                }
            }
        }
    }

    /// The test-only writer that frames restart streams: a mid-byte pad
    /// is 1-bits and an all-ones pad byte gets stuffed; the marker itself
    /// is written raw.
    #[test]
    fn reference_writer_restart_aligns_and_emits_marker() {
        use crate::reference::ReferenceBitWriter;
        let mut w = ReferenceBitWriter::default();
        w.put_bits(0b1, 1);
        w.restart(2);
        w.put_bits(0xA5, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0xD2, 0xA5]);
        // Byte-aligned already: no pad byte at all.
        let mut w = ReferenceBitWriter::default();
        w.put_bits(0x3C, 8);
        w.restart(9); // index reduced mod 8
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x3C, 0xFF, 0xD1]);
    }

    #[test]
    fn split_restart_segments_pins_boundaries() {
        // No markers: one segment covering everything.
        assert_eq!(split_restart_segments(&[1, 2, 3]), vec![(0, 3)]);
        assert_eq!(split_restart_segments(&[]), vec![(0, 0)]);
        // Simple split; marker bytes excluded.
        assert_eq!(
            split_restart_segments(&[0xAA, 0xFF, 0xD0, 0xBB]),
            vec![(0, 1), (3, 4)]
        );
        // Stuffed 0xFF00 is data; RST right after still splits.
        assert_eq!(
            split_restart_segments(&[0xFF, 0x00, 0xFF, 0xD7, 0xFF, 0x00]),
            vec![(0, 2), (4, 6)]
        );
        // Back-to-back restarts produce an empty middle segment.
        assert_eq!(
            split_restart_segments(&[0x01, 0xFF, 0xD0, 0xFF, 0xD1, 0x02]),
            vec![(0, 1), (3, 3), (5, 6)]
        );
        // Lone trailing 0xFF stays inside the final segment.
        assert_eq!(
            split_restart_segments(&[0x01, 0xFF, 0xD0, 0xFF]),
            vec![(0, 1), (3, 4)]
        );
        // A real (non-RST) marker ends the scan: remainder ignored.
        assert_eq!(
            split_restart_segments(&[0x01, 0xFF, 0xD9, 0x02, 0xFF, 0xD0]),
            vec![(0, 1)]
        );
        // RST 0xFF on the last byte of an 8-byte scan window (offset 7),
        // marker byte in the next window: exact offsets pinned.
        let mut data = vec![0x33u8; 7];
        data.extend_from_slice(&[0xFF, 0xD4]);
        data.extend_from_slice(&[0x44; 5]);
        assert_eq!(split_restart_segments(&data), vec![(0, 7), (9, 14)]);
    }

    #[test]
    fn extend_matches_spec() {
        // From T.81 Table F.1 semantics.
        assert_eq!(extend(0, 1), -1);
        assert_eq!(extend(1, 1), 1);
        assert_eq!(extend(0b00, 2), -3);
        assert_eq!(extend(0b01, 2), -2);
        assert_eq!(extend(0b10, 2), 2);
        assert_eq!(extend(0b11, 2), 3);
        assert_eq!(extend(0, 0), 0);
    }

    #[test]
    fn bit_size_categories() {
        assert_eq!(bit_size(0), 0);
        assert_eq!(bit_size(1), 1);
        assert_eq!(bit_size(-1), 1);
        assert_eq!(bit_size(2), 2);
        assert_eq!(bit_size(-3), 2);
        assert_eq!(bit_size(255), 8);
        assert_eq!(bit_size(-1024), 11);
    }

    #[test]
    fn many_values_roundtrip() {
        let vals: Vec<(u32, u32)> = (0u32..1000)
            .map(|i| (i.wrapping_mul(2654435761) & 0x3FF, (i % 10) + 1))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &vals {
            w.put_bits(v & ((1 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &vals {
            assert_eq!(r.get_bits(n).unwrap(), v & ((1 << n) - 1));
        }
    }

    /// Drives the batched reader and the retained per-byte reference
    /// reader through an identical schedule of mixed peek / consume /
    /// get_bits calls and asserts every returned value and the final
    /// marker state agree. Streams include heavy 0xFF stuffing and a
    /// terminating marker.
    fn assert_readers_agree(data: &[u8], schedule_seed: u32) {
        let mut fast = BitReader::new(data);
        let mut reference = ReferenceBitReader::new(data);
        let mut s = schedule_seed | 1;
        for step in 0..4000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = (s >> 7) % 17; // 0..=16
            match s % 3 {
                0 => {
                    let a = fast.peek_bits(n.max(1)).unwrap();
                    let b = reference.peek_bits(n.max(1)).unwrap();
                    assert_eq!(a, b, "peek({n}) at step {step}");
                }
                1 => {
                    let a = fast.get_bits(n).unwrap();
                    let b = reference.get_bits(n).unwrap();
                    assert_eq!(a, b, "get_bits({n}) at step {step}");
                }
                _ => {
                    let m = (n % 8).min(8);
                    let a = fast.peek_bits(8).unwrap();
                    let b = reference.peek_bits(8).unwrap();
                    assert_eq!(a, b, "peek(8) at step {step}");
                    fast.consume(m).unwrap();
                    reference.consume(m).unwrap();
                }
            }
            if fast.exhausted() && reference.exhausted() && step > 600 {
                break;
            }
        }
        assert_eq!(fast.exhausted(), reference.exhausted());
        assert_eq!(fast.marker(), reference.marker());
    }

    #[test]
    fn batched_reader_matches_reference_on_stuffed_streams() {
        // Stuffed-heavy stream: long 0xFF 0x00 runs, clean runs, marker tail.
        let mut data = Vec::new();
        for i in 0..96u32 {
            if i % 5 == 0 {
                data.extend_from_slice(&[0xFF, 0x00]);
            } else {
                data.push((i.wrapping_mul(97) & 0xFF) as u8);
                if data.last() == Some(&0xFF) {
                    data.push(0x00);
                }
            }
        }
        data.extend_from_slice(&[0xFF, 0xD9]);
        for seed in [1u32, 7, 1234, 99991] {
            assert_readers_agree(&data, seed);
        }
        // Truncated (no marker) and empty streams.
        assert_readers_agree(&data[..data.len().saturating_sub(7)], 5);
        assert_readers_agree(&[], 3);
        assert_readers_agree(&[0xFF], 11); // lone 0xFF at end
    }
}
