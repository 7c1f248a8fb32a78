//! Huffman coding: canonical table representation (the DHT wire format),
//! encoder/decoder table derivation, and optimal table construction from
//! symbol frequencies (the libjpeg `jpeg_gen_optimal_table` algorithm used
//! by `jpegtran -optimize`, which progressive encoding relies on).
//!
//! Decoding is table-driven and two-level: a 10-bit first-level lookup
//! resolves every code of that length or shorter (the overwhelming
//! majority in real streams) to its symbol *and* length in a single
//! probe; longer codes escape to a compact per-prefix second-level table
//! indexed by the remaining bits, so any legal JPEG code (<= 16 bits)
//! decodes in at most two probes with no bit-at-a-time loop.

use crate::bitio::{extend, BitSource, BitWriter};
use crate::error::{Error, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A Huffman table in canonical (DHT) form: `bits[l]` = number of codes of
/// length `l + 1`, and `vals` lists symbols in code order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffTable {
    /// Count of codes per code length 1..=16.
    pub bits: [u8; 16],
    /// Symbols ordered by increasing code length / code value.
    pub vals: Vec<u8>,
}

impl HuffTable {
    /// Builds a table from DHT-format arrays, validating counts.
    pub fn new(bits: [u8; 16], vals: Vec<u8>) -> Result<Self> {
        let total: usize = bits.iter().map(|&b| b as usize).sum();
        if total != vals.len() {
            return Err(Error::BadHuffman(format!(
                "bits declare {total} codes but {} values supplied",
                vals.len()
            )));
        }
        if total > 256 {
            return Err(Error::BadHuffman("more than 256 codes".into()));
        }
        // Kraft inequality check: the code must be realizable.
        let mut kraft = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            kraft += (b as u64) << (16 - (i + 1));
        }
        if kraft > 1 << 16 {
            return Err(Error::BadHuffman("code lengths violate Kraft inequality".into()));
        }
        Ok(Self { bits, vals })
    }

    /// The standard table constructors (T.81 Annex K).
    pub fn std_dc_luma() -> Self {
        Self::new(crate::consts::STD_DC_LUMA_BITS, crate::consts::STD_DC_LUMA_VALS.to_vec())
            .expect("standard table is valid") // pcr-lint: allow(no-panic-in-hot-path) — Annex K constants
    }
    /// Standard DC chroma table.
    pub fn std_dc_chroma() -> Self {
        Self::new(crate::consts::STD_DC_CHROMA_BITS, crate::consts::STD_DC_CHROMA_VALS.to_vec())
            .expect("standard table is valid") // pcr-lint: allow(no-panic-in-hot-path) — Annex K constants
    }
    /// Standard AC luma table.
    pub fn std_ac_luma() -> Self {
        Self::new(crate::consts::STD_AC_LUMA_BITS, crate::consts::STD_AC_LUMA_VALS.to_vec())
            .expect("standard table is valid") // pcr-lint: allow(no-panic-in-hot-path) — Annex K constants
    }
    /// Standard AC chroma table.
    pub fn std_ac_chroma() -> Self {
        Self::new(crate::consts::STD_AC_CHROMA_BITS, crate::consts::STD_AC_CHROMA_VALS.to_vec())
            .expect("standard table is valid") // pcr-lint: allow(no-panic-in-hot-path) — Annex K constants
    }
}

/// Per-symbol (code, length) lookup used while encoding.
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    code: [u16; 256],
    len: [u8; 256],
}

impl HuffEncoder {
    /// Derives canonical codes from a table (T.81 Annex C).
    pub fn from_table(t: &HuffTable) -> Result<Self> {
        let mut code = [0u16; 256];
        let mut len = [0u8; 256];
        let mut next_code = 0u32;
        let mut k = 0usize;
        for l in 1..=16u32 {
            // pcr-lint: allow(no-panic-in-hot-path) — l in 1..=16 indexes [u8; 16]
            for _ in 0..t.bits[(l - 1) as usize] {
                // `bits` and `vals` are pub, so a hand-built table may
                // declare more codes than it has values: checked lookup.
                let sym = *t.vals.get(k).ok_or_else(|| {
                    Error::BadHuffman("bits declare more codes than vals holds".into())
                })? as usize;
                if len[sym] != 0 { // pcr-lint: allow(no-panic-in-hot-path) — sym is a u8, arrays are [_; 256]
                    return Err(Error::BadHuffman(format!("duplicate symbol {sym}")));
                }
                if next_code >= 1 << l {
                    return Err(Error::BadHuffman("code overflow".into()));
                }
                code[sym] = next_code as u16; // pcr-lint: allow(no-panic-in-hot-path) — sym < 256
                len[sym] = l as u8; // pcr-lint: allow(no-panic-in-hot-path) — sym < 256
                next_code += 1;
                k += 1;
            }
            next_code <<= 1;
        }
        Ok(Self { code, len })
    }

    /// Emits the code for `symbol`.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: u8) {
        let l = self.len[symbol as usize]; // pcr-lint: allow(no-panic-in-hot-path) — u8 indexes [_; 256]
        debug_assert!(l > 0, "symbol {symbol:#04x} has no code");
        // pcr-lint: allow(no-panic-in-hot-path) — u8 indexes [_; 256]
        w.put_bits(u32::from(self.code[symbol as usize]), u32::from(l));
    }

    /// Code length for a symbol (0 if absent).
    #[inline]
    pub fn code_len(&self, symbol: u8) -> u8 {
        self.len[symbol as usize] // pcr-lint: allow(no-panic-in-hot-path) — u8 indexes [_; 256]
    }

    /// Code bits for a symbol, right-aligned (0 if absent).
    #[inline]
    pub(crate) fn code(&self, symbol: u8) -> u16 {
        self.code[symbol as usize] // pcr-lint: allow(no-panic-in-hot-path) — u8 indexes [_; 256]
    }
}

/// First-level lookup width in bits: covers the overwhelming majority of
/// codes in one probe (canonical JPEG tables put their hot symbols in
/// short codes; dense high-quality scans still mostly stay <= 10 bits).
const LOOKUP_BITS: u32 = 10;
/// Longest legal JPEG code; the second level indexes the remaining
/// `MAX_CODE_BITS - LOOKUP_BITS` bits.
const MAX_CODE_BITS: u32 = 16;
/// Marks a first-level entry as an escape into the second-level table.
const ESCAPE: u16 = 0x8000;

/// A fast-AC table (stb_image's `fast_ac`): one entry per 10-bit window,
/// `value << 8 | run << 4 | (len + size)`, for windows that start with a
/// coefficient step — a code of `len` bits for `run << 4 | size` with
/// `size >= 1`, then `size` magnitude bits, `len + size <= 10` in all —
/// whose sign-extended value fits an `i8`. Every other window (EOB, ZRL,
/// a long code, a large magnitude) is `0`, a miss, which the scan loop
/// decodes with one fused [`SymbolDecoder::decode_then_bits`] step.
pub type FastAc = [i16; 1 << LOOKUP_BITS];

/// A symbol resolver the scan decoder pulls coefficients through:
/// implemented by the table-driven [`HuffDecoder`] (production) and the
/// retained canonical decoder (tests), so `dentropy`'s scan logic is
/// written once and the bit-exactness suite can swap the primitive.
pub trait SymbolDecoder {
    /// Decodes one Huffman symbol from `r`.
    fn decode_symbol<R: BitSource>(&self, r: &mut R) -> Result<u8>;

    /// Decodes one symbol, then immediately reads `size_of(symbol)` raw
    /// bits (the JPEG magnitude / EOB-run pattern). Semantically
    /// identical to [`SymbolDecoder::decode_symbol`] followed by
    /// `r.get_bits(size_of(sym))` — which is exactly what this default
    /// does; the production decoder overrides it to serve the symbol and
    /// its trailing bits from a single 16-bit peek. `size_of` must return
    /// at most 16.
    #[inline]
    fn decode_then_bits<R: BitSource>(
        &self,
        r: &mut R,
        size_of: impl Fn(u8) -> u32,
    ) -> Result<(u8, u32)> {
        let sym = self.decode_symbol(r)?;
        let v = r.get_bits(size_of(sym))?;
        Ok((sym, v))
    }

    /// Resolves the Huffman code at the top of `w16` — the high half of a
    /// [`BitSource::peek_wide`] window, so bits 15..0 are the next 16
    /// stream bits — to `(symbol, code length)` without touching the
    /// stream. Lets a caller size a whole decode step (code, raw bits,
    /// and whatever else rides after them) against the 32-bit window
    /// before taking it with one `consume`.
    ///
    /// `None` means "take the stepwise path": the decoder cannot resolve
    /// codes from a window (the default, which keeps the reference
    /// decoder on the fallback the exactness suite pins), or `w16` starts
    /// with no valid code — [`SymbolDecoder::decode_then_bits`] then
    /// reports the error. A `Some` must name exactly the symbol and length
    /// `decode_symbol` would read from the same bits.
    #[inline]
    fn peek_code(&self, w16: u32) -> Option<(u8, u32)> {
        let _ = w16;
        None
    }

    /// The table's [`FastAc`] lookup, when one was built for it: the AC
    /// first and sequential scan loops take coefficient steps from it, and
    /// decode each miss with one [`SymbolDecoder::decode_then_bits`] step.
    /// `None` (the default, which keeps the reference decoder on the
    /// stepwise path) means every step goes through `decode_then_bits`.
    #[inline]
    fn fast_ac(&self) -> Option<&FastAc> {
        None
    }
}

/// Fast two-level table-driven Huffman decoder.
///
/// `lut1` has one `u16` entry per `LOOKUP_BITS`-bit (10-bit) window:
/// `(len << 8) | symbol` for codes of up to `LOOKUP_BITS` bits, `0` for
/// bit patterns that are no code's prefix, or `ESCAPE | offset` pointing
/// at a second-level block in `lut2` indexed by the following
/// `MAX_CODE_BITS - LOOKUP_BITS` bits (entries again `(len << 8) |
/// symbol` with the *full* code length). Decoding is one peek + one probe
/// for short codes, two for long ones — never a per-bit loop.
///
/// A table that AC first or sequential scans read also carries a
/// [`FastAc`] table, built on demand by [`HuffDecoder::enable_fast_ac`];
/// DC and refinement tables never build one.
#[derive(Debug, Clone)]
pub struct HuffDecoder {
    lut1: [u16; 1 << LOOKUP_BITS],
    lut2: Vec<u16>,
    fast_ac: Option<Box<FastAc>>,
}

impl HuffDecoder {
    /// Builds the two-level lookup from a canonical table.
    pub fn from_table(t: &HuffTable) -> Result<Self> {
        let mut lut1 = [0u16; 1 << LOOKUP_BITS];
        let mut lut2: Vec<u16> = Vec::new();
        let mut c = 0u32;
        let mut idx = 0usize;
        for l in 1..=16u32 {
            // pcr-lint: allow(no-panic-in-hot-path) — l in 1..=16 indexes [u8; 16]
            for _ in 0..t.bits[(l - 1) as usize] {
                if c >= 1 << l {
                    return Err(Error::BadHuffman("code overflow".into()));
                }
                // Checked for the same hand-built-table reason as the encoder.
                let val = *t.vals.get(idx).ok_or_else(|| {
                    Error::BadHuffman("bits declare more codes than vals holds".into())
                })?;
                let entry = (l as u16) << 8 | u16::from(val);
                if l <= LOOKUP_BITS {
                    // All windows starting with this code resolve to it.
                    let first = (c << (LOOKUP_BITS - l)) as usize;
                    let span = 1usize << (LOOKUP_BITS - l);
                    // pcr-lint: allow(no-panic-in-hot-path) — c < 1<<l, so first + span <= 1<<LOOKUP_BITS
                    lut1[first..first + span].fill(entry);
                } else {
                    // Long code: route its first-level prefix to a
                    // second-level block (allocated on first use), then
                    // fill the block's windows for the remaining bits.
                    let prefix = (c >> (l - LOOKUP_BITS)) as usize;
                    // pcr-lint: allow(no-panic-in-hot-path) — prefix < 1<<LOOKUP_BITS since c < 1<<l
                    let base = if lut1[prefix] & ESCAPE != 0 {
                        (lut1[prefix] & !ESCAPE) as usize // pcr-lint: allow(no-panic-in-hot-path) — same prefix bound
                    } else {
                        let base = lut2.len();
                        if base >= (ESCAPE as usize) {
                            return Err(Error::BadHuffman("second-level overflow".into()));
                        }
                        lut2.resize(base + (1 << (MAX_CODE_BITS - LOOKUP_BITS)), 0);
                        lut1[prefix] = ESCAPE | base as u16; // pcr-lint: allow(no-panic-in-hot-path) — same prefix bound
                        base
                    };
                    let rem = c & ((1 << (l - LOOKUP_BITS)) - 1);
                    let first = (rem << (MAX_CODE_BITS - l)) as usize;
                    let span = 1usize << (MAX_CODE_BITS - l);
                    // pcr-lint: allow(no-panic-in-hot-path) — first + span <= the 64-entry block at base
                    lut2[base + first..base + first + span].fill(entry);
                }
                c += 1;
                idx += 1;
            }
            c <<= 1;
        }
        Ok(Self {
            lut1,
            lut2,
            fast_ac: None,
        })
    }

    /// Builds this table's [`FastAc`] lookup (once; later calls keep it).
    /// Only codes the first level resolves can hit. Each code's windows
    /// form one aligned span of `lut1`; a coefficient code's span splits
    /// into one run of windows per magnitude pattern.
    pub fn enable_fast_ac(&mut self) {
        if self.fast_ac.is_some() {
            return;
        }
        let mut fast = Box::new([0i16; 1 << LOOKUP_BITS]);
        let mut w = 0;
        while let Some(&entry) = self.lut1.get(w) {
            if entry == 0 || entry & ESCAPE != 0 {
                w += 1;
                continue;
            }
            let (rs, len) = (entry as u8, u32::from(entry >> 8));
            let size = u32::from(rs & 0x0F);
            let span = 1 << (LOOKUP_BITS - len);
            if size != 0 && len + size <= LOOKUP_BITS {
                let windows = fast.get_mut(w..w + span).unwrap_or_default();
                let step = i16::from(rs >> 4) << 4 | (len + size) as i16;
                for (bits, run) in (0..).zip(windows.chunks_exact_mut(span >> size)) {
                    if let Ok(value) = i8::try_from(extend(bits, size)) {
                        run.fill(i16::from(value) << 8 | step);
                    }
                }
            }
            w += span;
        }
        self.fast_ac = Some(fast);
    }

    /// Resolves the code at the top of a 16-bit window through both
    /// table levels, returning `(symbol, code_len)`.
    #[inline]
    fn resolve16(&self, w: u32) -> Result<(u8, u32)> {
        self.lookup16(w).ok_or_else(|| Error::CorruptData("invalid Huffman code".into()))
    }

    /// [`HuffDecoder::resolve16`] without the error: `None` for a window
    /// that starts with no code.
    #[inline]
    fn lookup16(&self, w: u32) -> Option<(u8, u32)> {
        debug_assert!(w < 1 << MAX_CODE_BITS);
        // pcr-lint: allow(no-panic-in-hot-path) — a 16-bit window shifted right by 6 is < 1024
        let entry = self.lut1[(w >> (MAX_CODE_BITS - LOOKUP_BITS)) as usize];
        let entry = if entry & ESCAPE == 0 {
            entry
        } else {
            // pcr-lint: allow(no-panic-in-hot-path) — base + 6 masked bits stays in the 64-entry block
            self.lut2[(entry & !ESCAPE) as usize
                + (w & ((1 << (MAX_CODE_BITS - LOOKUP_BITS)) - 1)) as usize]
        };
        (entry != 0).then_some((entry as u8, u32::from(entry >> 8)))
    }
}

impl SymbolDecoder for HuffDecoder {
    /// A [`SymbolDecoder::decode_then_bits`] step with no raw bits.
    #[inline]
    fn decode_symbol<R: BitSource>(&self, r: &mut R) -> Result<u8> {
        self.decode_then_bits(r, |_| 0).map(|(sym, _)| sym)
    }

    #[inline]
    fn peek_code(&self, w16: u32) -> Option<(u8, u32)> {
        self.lookup16(w16)
    }

    #[inline]
    fn fast_ac(&self) -> Option<&FastAc> {
        self.fast_ac.as_deref()
    }

    /// Fused fast path: one 16-bit peek resolves the code through both
    /// table levels *and*, whenever `len + size <= 16`, the symbol's
    /// trailing raw bits — one refill check and one consume for the whole
    /// decode-coefficient step.
    #[inline]
    fn decode_then_bits<R: BitSource>(
        &self,
        r: &mut R,
        size_of: impl Fn(u8) -> u32,
    ) -> Result<(u8, u32)> {
        r.prefetch();
        let w = r.peek_bits(MAX_CODE_BITS)?;
        let (sym, len) = self.resolve16(w)?;
        let size = size_of(sym);
        if len + size <= MAX_CODE_BITS {
            r.consume(len + size)?;
            let v = (w >> (MAX_CODE_BITS - len - size)) & ((1u32 << size) - 1);
            Ok((sym, v))
        } else {
            r.consume(len)?;
            let v = r.get_bits(size)?;
            Ok((sym, v))
        }
    }
}

/// Builds an optimal length-limited (<=16 bit) Huffman table from symbol
/// frequencies, following libjpeg's `jpeg_gen_optimal_table`.
///
/// `freq` has one slot per symbol (up to 256). Symbols with zero frequency
/// get no code. At least one symbol must have nonzero frequency.
///
/// libjpeg finds each merge's two rarest trees with two sweeps over all
/// 257 slots; here only the live trees sit in a min-heap ordered the way
/// those sweeps break ties (lowest frequency first, highest symbol index
/// among equals, the merged tree keeping the first one's index), so the
/// merge sequence — and with it every code length — is the same.
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — faithful port of
// libjpeg's jpeg_gen_optimal_table: every index is a symbol index below
// nsyms + 1 <= 257 (codesize/others have 257 slots) or a code length the
// MAX_CLEN check keeps inside bits' MAX_CLEN + 1 slots (the adjustment
// loops walk l in 1..=MAX_CLEN), and the function runs at pack time only.
pub fn gen_optimal_table(freq_in: &[u32]) -> Result<HuffTable> {
    const MAX_CLEN: usize = 32;
    const END: usize = usize::MAX;
    let nsyms = freq_in.len().min(256);
    let mut trees: BinaryHeap<Reverse<(u64, Reverse<usize>)>> = freq_in
        .iter()
        .take(nsyms)
        .enumerate()
        .filter(|&(_, &f)| f != 0)
        .map(|(sym, &f)| Reverse((u64::from(f), Reverse(sym))))
        .collect();
    // One extra pseudo-symbol (257th) with freq 1 guarantees no real symbol
    // gets the all-ones code and that at least two symbols exist.
    trees.push(Reverse((1, Reverse(nsyms))));

    let mut codesize = [0usize; 257];
    // A tree is the chain of its symbols, starting at the tree's index.
    let mut others = [END; 257];
    // Moves every symbol chained from `head` one level down; returns the
    // chain's last symbol.
    let mut deepen = |others: &[usize; 257], head: usize| -> Result<usize> {
        let mut n = head;
        loop {
            codesize[n] += 1;
            if codesize[n] > MAX_CLEN {
                return Err(Error::BadHuffman("code length explosion".into()));
            }
            if others[n] == END {
                return Ok(n);
            }
            n = others[n];
        }
    };
    while let Some(Reverse((f1, Reverse(c1)))) = trees.pop() {
        let Some(Reverse((f2, Reverse(c2)))) = trees.pop() else {
            break; // only one tree left
        };
        trees.push(Reverse((f1 + f2, Reverse(c1))));
        let tail = deepen(&others, c1)?;
        deepen(&others, c2)?;
        others[tail] = c2;
    }

    // Count codes per length.
    let mut bits = [0i32; MAX_CLEN + 1];
    for &cs in codesize.iter().filter(|&&cs| cs > 0) {
        bits[cs] += 1;
    }

    // JPEG limits code lengths to 16 bits; push overlong codes down
    // (libjpeg's adjustment loop).
    let mut i = MAX_CLEN;
    while i > 16 {
        while bits[i] > 0 {
            let mut j = i - 2;
            while bits[j] == 0 {
                j -= 1;
            }
            bits[i] -= 2;
            bits[i - 1] += 1;
            bits[j + 1] += 2;
            bits[j] -= 1;
        }
        i -= 1;
    }
    // Remove the pseudo-symbol's code (the longest one).
    let mut i = 16;
    while bits[i] == 0 {
        i -= 1;
    }
    bits[i] -= 1;

    let mut out_bits = [0u8; 16];
    for l in 1..=16 {
        out_bits[l - 1] = bits[l] as u8;
    }
    // Emit symbols sorted by (code length, symbol value); exclude the
    // pseudo-symbol (index nsyms). The sort is stable and starts from
    // ascending symbols.
    let mut vals: Vec<u8> =
        (0..nsyms).filter(|&sym| codesize[sym] > 0).map(|sym| sym as u8).collect();
    vals.sort_by_key(|&sym| codesize[usize::from(sym)]);
    HuffTable::new(out_bits, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;
    use crate::reference::ReferenceHuffDecoder;

    #[test]
    fn standard_tables_build() {
        for t in [
            HuffTable::std_dc_luma(),
            HuffTable::std_dc_chroma(),
            HuffTable::std_ac_luma(),
            HuffTable::std_ac_chroma(),
        ] {
            HuffEncoder::from_table(&t).unwrap();
            HuffDecoder::from_table(&t).unwrap();
        }
    }

    #[test]
    fn encode_decode_roundtrip_standard_table() {
        let t = HuffTable::std_ac_luma();
        let enc = HuffEncoder::from_table(&t).unwrap();
        let dec = HuffDecoder::from_table(&t).unwrap();
        let symbols: Vec<u8> = t.vals.clone();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.decode_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn optimal_table_roundtrip() {
        // Skewed frequency distribution over 20 symbols.
        let mut freq = vec![0u32; 256];
        for s in 0..20u32 {
            freq[s as usize] = 1 + (20 - s) * (20 - s) * 7;
        }
        let t = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&t).unwrap();
        let dec = HuffDecoder::from_table(&t).unwrap();
        let mut w = BitWriter::new();
        let msg: Vec<u8> = (0..20).cycle().take(500).collect();
        for &s in &msg {
            enc.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn optimal_table_assigns_shorter_codes_to_frequent_symbols() {
        let mut freq = vec![0u32; 256];
        freq[0] = 10_000;
        freq[1] = 100;
        freq[2] = 1;
        let t = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&t).unwrap();
        assert!(enc.code_len(0) <= enc.code_len(1));
        assert!(enc.code_len(1) <= enc.code_len(2));
    }

    #[test]
    fn optimal_table_single_symbol() {
        let mut freq = vec![0u32; 256];
        freq[42] = 5;
        let t = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&t).unwrap();
        assert!(enc.code_len(42) >= 1);
        let dec = HuffDecoder::from_table(&t).unwrap();
        let mut w = BitWriter::new();
        enc.encode(&mut w, 42);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), 42);
    }

    #[test]
    fn optimal_table_uniform_256_symbols_respects_length_limit() {
        let freq = vec![7u32; 256];
        let t = gen_optimal_table(&freq).unwrap();
        let total: usize = t.bits.iter().map(|&b| b as usize).sum();
        assert_eq!(total, 256);
        let enc = HuffEncoder::from_table(&t).unwrap();
        for s in 0..=255u8 {
            assert!(enc.code_len(s) >= 8 && enc.code_len(s) <= 16);
        }
    }

    #[test]
    fn rejects_inconsistent_table() {
        let mut bits = [0u8; 16];
        bits[0] = 3; // 3 codes of length 1 violates Kraft
        assert!(HuffTable::new(bits, vec![0, 1, 2]).is_err());
        let mut bits = [0u8; 16];
        bits[1] = 1;
        assert!(HuffTable::new(bits, vec![0, 1]).is_err()); // count mismatch
    }

    #[test]
    fn long_codes_use_second_level() {
        // Build a table with a 12-bit code (beyond the 8-bit first level)
        // by making a deep skew.
        let mut freq = vec![0u32; 64];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = 1u32 << (24u32.saturating_sub(i as u32)).min(24);
        }
        let t = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&t).unwrap();
        let dec = HuffDecoder::from_table(&t).unwrap();
        let longest = (0..64u8).max_by_key(|&s| enc.code_len(s)).unwrap();
        assert!(enc.code_len(longest) > 8, "need a long code for this test");
        let mut w = BitWriter::new();
        enc.encode(&mut w, longest);
        enc.encode(&mut w, 0);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), longest);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), 0);
    }

    /// The two-level LUT decoder and the retained canonical
    /// mincode/maxcode decoder must agree symbol-for-symbol on every
    /// table shape: standard tables, optimal skewed tables (long codes),
    /// and randomized frequency tables.
    #[test]
    fn lut_decode_matches_reference_decode() {
        let mut tables = vec![
            HuffTable::std_dc_luma(),
            HuffTable::std_dc_chroma(),
            HuffTable::std_ac_luma(),
            HuffTable::std_ac_chroma(),
        ];
        let mut seed = 0x2468_ACE1u32;
        for nsyms in [2usize, 17, 64, 200, 256] {
            let mut freq = vec![0u32; 256];
            for f in freq.iter_mut().take(nsyms) {
                seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                *f = 1 + (seed >> 16) % 10_000;
            }
            tables.push(gen_optimal_table(&freq).unwrap());
        }
        for t in &tables {
            let enc = HuffEncoder::from_table(t).unwrap();
            let fast = HuffDecoder::from_table(t).unwrap();
            let reference = ReferenceHuffDecoder::from_table(t).unwrap();
            // A message covering every symbol several times, shuffled-ish.
            let msg: Vec<u8> =
                (0..6).flat_map(|i| t.vals.iter().cycle().skip(i * 7).take(t.vals.len())).copied().collect();
            let mut w = BitWriter::new();
            for &s in &msg {
                enc.encode(&mut w, s);
            }
            let bytes = w.finish();
            let mut rf = BitReader::new(&bytes);
            let mut rr = BitReader::new(&bytes);
            for &s in &msg {
                assert_eq!(fast.decode_symbol(&mut rf).unwrap(), s);
                assert_eq!(reference.decode_symbol(&mut rr).unwrap(), s);
            }
        }
    }
}
