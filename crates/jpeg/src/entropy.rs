//! Entropy-coded segment generation for baseline and progressive scans.
//!
//! The write path mirrors the read path's shape:
//! [`ScanEncoder::encode_scan`] walks each scan's coefficients **once**.
//! The walk ([`tokenize_scan`]) counts symbol frequencies per Huffman
//! table *and* records what it would have emitted as a compact token
//! stream ([`ScanTokens`]: one `u32` per Huffman symbol
//! with up to 15 trailing raw bits fused in, or per group of raw bits).
//! Optimal tables are built from the counts — as
//! `jpegtran -optimize` does and progressive scans require in practice —
//! and emission ([`ScanTokens::replay`]) is a linear pass over the tokens
//! through one merged code table ([`CodeBook`]) into the
//! [`crate::bitio::BitWriter`]. Raw bits concatenate, so how the walk
//! groups them into tokens never shows in the output: the bytes equal
//! those of walking the scan twice, once for statistics and once for
//! bits (the retained reference encoder the tests compare against).
//!
//! [`CoeffPlanes`] stores every block in zigzag (scan) order, so a
//! spectral band is a contiguous slice and [`nonzero_mask64`] of a block
//! is already in scan order: the AC loops visit only the set bits and
//! take zero runs from bit distances.
//!
//! The progressive successive-approximation logic mirrors libjpeg's
//! `jcphuff.c` (`encode_mcu_AC_first` / `encode_mcu_AC_refine`), which is
//! the de-facto reference for the corner cases T.81 figure G.7 leaves
//! implicit.

use crate::bitio::{bit_size, BitWriter};
use crate::dentropy::{for_each_block, mcu_units, nonzero_mask64};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{gen_optimal_table, HuffEncoder, HuffTable};

/// Huffman table slots of a scan: DC tables 0..4, then AC tables 0..4.
pub(crate) const TABLE_SLOTS: usize = 8;
/// A scan's Huffman tables by slot.
pub(crate) type ScanTables = [Option<HuffTable>; TABLE_SLOTS];
/// Slot of AC table 0.
const AC_SLOT: usize = 4;
/// Most raw bits one token carries.
const TOKEN_BITS: u32 = 15;
/// Token code index (`slot * 256 + symbol` for symbols) of raw bits with
/// no symbol; [`CodeBook`] gives it a zero-length code.
const RAW: u32 = (TABLE_SLOTS * 256) as u32;

/// What one scan's walk produced: per-table symbol counts and the token
/// stream emission replays. One value serves every scan of an image
/// ([`ScanTokens::clear`] keeps the allocation).
///
/// Token layout (`u32`): bits 20.. hold the code index (`slot * 256 +
/// symbol` or [`RAW`]), bits 16..20 the raw-bit count
/// (at most [`TOKEN_BITS`]), bits 0..16 the raw bits that follow the code.
#[derive(Debug)]
struct ScanTokens {
    tokens: Vec<u32>,
    counts: [[u32; 256]; TABLE_SLOTS],
}

impl Default for ScanTokens {
    fn default() -> Self {
        Self { tokens: Vec::new(), counts: [[0; 256]; TABLE_SLOTS] }
    }
}

impl ScanTokens {
    /// Forgets the previous scan, keeping the token buffer's capacity.
    fn clear(&mut self) {
        self.tokens.clear();
        self.counts = [[0; 256]; TABLE_SLOTS];
    }

    /// Symbol frequencies of table slot `slot` (DC tables 0..4, then AC
    /// tables 0..4), if the scan coded a symbol with it.
    fn counts(&self, slot: usize) -> Option<&[u32; 256]> {
        self.counts.get(slot).filter(|c| c.iter().any(|&n| n > 0))
    }

    /// A Huffman symbol of table slot `slot` followed by the low `n` raw
    /// bits of `bits` (`n <= 64`).
    #[inline]
    fn symbol(&mut self, slot: usize, sym: u8, bits: u64, n: u32) {
        self.counts[slot][usize::from(sym)] += 1;
        let index = (slot * 256 + usize::from(sym)) as u32;
        if n <= TOKEN_BITS {
            self.tokens.push(index << 20 | n << 16 | bits as u32 & ((1 << n) - 1));
        } else {
            self.tokens.push(index << 20);
            self.raw(bits, n);
        }
    }

    /// The low `n` raw bits of `bits` (`n <= 64`), most significant first.
    #[inline]
    fn raw(&mut self, bits: u64, mut n: u32) {
        while n > TOKEN_BITS {
            n -= TOKEN_BITS;
            let group = (bits >> n) as u32 & ((1 << TOKEN_BITS) - 1);
            self.tokens.push(RAW << 20 | TOKEN_BITS << 16 | group);
        }
        if n > 0 {
            self.tokens.push(RAW << 20 | n << 16 | bits as u32 & ((1 << n) - 1));
        }
    }

    /// Emits the scan through `codes` into `writer`.
    fn replay(&self, codes: &CodeBook, writer: &mut BitWriter) {
        for &token in &self.tokens {
            let n = token >> 16 & 0xF;
            // Every index is at most RAW by construction, so the lookup
            // never misses; a miss would emit nothing rather than panic.
            if let Some(&(code, len)) = codes.codes.get((token >> 20) as usize) {
                // At most 16 code bits and 15 raw bits: one 31-bit write.
                writer.put_bits(u32::from(code) << n | token & 0xFFFF, u32::from(len) + n);
            }
        }
    }
}

/// The `(code, length)` of every symbol of a scan's tables, indexed like
/// token code indices, plus a zero-length entry at [`RAW`].
#[derive(Debug)]
struct CodeBook {
    codes: [(u16, u8); RAW as usize + 1],
}

impl CodeBook {
    /// Derives the codes of `tables` (DC tables 0..4, then AC tables
    /// 0..4). Fails if a table is malformed or a symbol `tokens` counted
    /// has no code — possible only with tables not built from `tokens`.
    fn new(tables: &ScanTables, tokens: &ScanTokens) -> Result<Self> {
        let mut codes = [(0u16, 0u8); RAW as usize + 1];
        let no_code = |slot: usize, sym: usize| {
            Error::BadHuffman(format!("symbol {sym:#04x} of table slot {slot} has no code"))
        };
        for (slot, (table, counts)) in tables.iter().zip(&tokens.counts).enumerate() {
            let Some(table) = table else {
                match counts.iter().position(|&n| n > 0) {
                    Some(sym) => return Err(no_code(slot, sym)),
                    None => continue,
                }
            };
            let encoder = HuffEncoder::from_table(table)?;
            for sym in 0..=255u8 {
                let len = encoder.code_len(sym);
                if len == 0 && counts[usize::from(sym)] > 0 {
                    return Err(no_code(slot, usize::from(sym)));
                }
                codes[slot * 256 + usize::from(sym)] = (encoder.code(sym), len);
            }
        }
        Ok(Self { codes })
    }
}

/// The entropy encoder of one image: its coefficients and the token
/// buffer every scan reuses.
#[derive(Debug)]
pub(crate) struct ScanEncoder<'a> {
    coeffs: &'a CoeffPlanes,
    tokens: ScanTokens,
}

impl<'a> ScanEncoder<'a> {
    /// Prepares `coeffs` for encoding.
    pub(crate) fn new(coeffs: &'a CoeffPlanes) -> Self {
        Self { coeffs, tokens: ScanTokens::default() }
    }

    /// Encodes one scan and returns its entropy-coded bytes. With
    /// `optimize`, `tables` is first replaced by the optimal table
    /// of every slot the scan uses (`None` elsewhere); without, the scan
    /// is coded with `tables` as given.
    pub(crate) fn encode_scan(
        &mut self,
        frame: &FrameInfo,
        scan: &ScanInfo,
        optimize: bool,
        tables: &mut ScanTables,
    ) -> Result<Vec<u8>> {
        self.tokens.clear();
        tokenize_scan(frame, self.coeffs, scan, &mut self.tokens)?;
        if optimize {
            for (slot, table) in tables.iter_mut().enumerate() {
                *table = self.tokens.counts(slot).map(|c| gen_optimal_table(c)).transpose()?;
            }
        }
        let mut writer = BitWriter::new();
        self.tokens.replay(&CodeBook::new(tables, &self.tokens)?, &mut writer);
        Ok(writer.finish())
    }
}

/// Magnitude coding: returns `(bit pattern, nbits)` for a signed value, with
/// the one's-complement convention for negatives (T.81 F.1.2.1).
#[inline]
fn magnitude(v: i32) -> (u32, u32) {
    let n = bit_size(v);
    let pattern = if v < 0 { (v - 1) as u32 } else { v as u32 };
    (pattern & ((1u32 << n) - 1), n)
}

/// Point-transformed magnitudes `|c| >> al` of a block.
/// The lanes keep the `u16` bit patterns (`|i16::MIN|` included), so
/// [`nonzero_mask64`] of the result marks the coefficients a scan at
/// point transform `al` sees as nonzero.
#[inline]
fn magnitudes(zz: &[i16; 64], al: u32) -> [i16; 64] {
    core::array::from_fn(|k| (u32::from(zz[k].unsigned_abs()) >> al) as i16)
}

/// Bits `ss..=se` of a block mask.
#[inline]
fn band_mask(scan: &ScanInfo) -> u64 {
    (u64::MAX >> (63 - u32::from(scan.se))) & (u64::MAX << scan.ss)
}

/// Walks one scan into `tokens`.
fn tokenize_scan(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    scan.validate(frame)?;
    // The counts and code tables are indexed by table slot.
    if scan.components.iter().any(|sc| sc.dc_table.max(sc.ac_table) as usize >= AC_SLOT) {
        return Err(Error::BadScan("Huffman table selector above 3".into()));
    }
    if !frame.progressive {
        return tokenize_sequential(frame, coeffs, scan, tokens);
    }
    match (scan.is_dc(), scan.is_refinement()) {
        (true, false) => tokenize_dc_first(frame, coeffs, scan, tokens),
        (true, true) => tokenize_dc_refine(frame, coeffs, scan, tokens),
        (false, false) => tokenize_ac_first(frame, coeffs, scan, tokens),
        (false, true) => tokenize_ac_refine(frame, coeffs, scan, tokens),
    }
}

/// Calls `f(comp_slot, block)` for every block of a whole scan, in the
/// decoder's block order ([`for_each_block`]).
fn scan_blocks(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    mut f: impl FnMut(usize, &[i16; 64]) -> Result<()>,
) -> Result<()> {
    for_each_block(frame, scan, 0..mcu_units(frame, scan), |slot, row, col| {
        f(slot, coeffs.block(frame, scan.components[slot].comp_index, row, col))
    })
}

/// One DC difference: the size-category symbol plus its magnitude bits.
#[inline]
fn tokenize_dc_diff(tokens: &mut ScanTokens, table: u8, dc: i32, pred: &mut i32) {
    let (pattern, n) = magnitude(dc - *pred);
    *pred = dc;
    tokens.symbol(usize::from(table), n as u8, u64::from(pattern), n);
}

fn tokenize_sequential(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    let mut preds = [0i32; 4];
    scan_blocks(frame, coeffs, scan, |slot, zz| {
        let sc = scan.components[slot];
        tokenize_dc_diff(tokens, sc.dc_table, i32::from(zz[0]), &mut preds[slot]);
        let ac = AC_SLOT + usize::from(sc.ac_table);
        let mut mask = nonzero_mask64(zz) & !1;
        let mut next = 1u32;
        while mask != 0 {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            let mut r = k - next;
            next = k + 1;
            while r > 15 {
                tokens.symbol(ac, 0xF0, 0, 0);
                r -= 16;
            }
            let (pattern, n) = magnitude(i32::from(zz[k as usize]));
            if n > 10 {
                return Err(Error::BadInput("AC coefficient out of range".into()));
            }
            tokens.symbol(ac, ((r as u8) << 4) | n as u8, u64::from(pattern), n);
        }
        if next < 64 {
            tokens.symbol(ac, 0x00, 0, 0); // EOB
        }
        Ok(())
    })
}

fn tokenize_dc_first(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    let al = u32::from(scan.al);
    let mut preds = [0i32; 4];
    scan_blocks(frame, coeffs, scan, |slot, zz| {
        let table = scan.components[slot].dc_table;
        tokenize_dc_diff(tokens, table, i32::from(zz[0]) >> al, &mut preds[slot]);
        Ok(())
    })
}

fn tokenize_dc_refine(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    let al = u32::from(scan.al);
    // One bit per block, packed into full tokens.
    let (mut bits, mut n) = (0u64, 0u32);
    scan_blocks(frame, coeffs, scan, |_slot, zz| {
        bits = bits << 1 | u64::from((i32::from(zz[0]) >> al) & 1 != 0);
        n += 1;
        if n == TOKEN_BITS {
            tokens.raw(bits, n);
            (bits, n) = (0, 0);
        }
        Ok(())
    })?;
    tokens.raw(bits, n);
    Ok(())
}

/// Correction bits buffered across the blocks of an end-of-band run
/// (libjpeg's `MAX_CORR_BITS` discipline keeps them under 1000), packed
/// most significant first.
struct CorrectionBits {
    words: [u64; 16],
    len: u32,
}

impl CorrectionBits {
    /// Appends the low `n` bits of `bits` (`n < 64`).
    #[inline]
    fn push(&mut self, bits: u64, n: u32) {
        if n == 0 {
            return;
        }
        let (word, used) = ((self.len / 64) as usize, self.len % 64);
        let free = 64 - used;
        if n <= free {
            self.words[word] |= bits << (free - n);
        } else {
            self.words[word] |= bits >> (n - free);
            self.words[word + 1] = bits << (64 - (n - free));
        }
        self.len += n;
    }

    /// Moves every buffered bit to `tokens`.
    fn drain(&mut self, tokens: &mut ScanTokens) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let n = self.len.saturating_sub(64 * i as u32).min(64);
            if n == 0 {
                break;
            }
            tokens.raw(*word >> (64 - n), n);
            *word = 0;
        }
        self.len = 0;
    }
}

/// Per-scan AC encoding state: the lazily flushed end-of-band run plus (for
/// refinement scans) buffered correction bits.
struct AcState {
    eobrun: u32,
    pending: CorrectionBits,
    slot: usize,
}

impl AcState {
    fn new(scan: &ScanInfo) -> Self {
        Self {
            eobrun: 0,
            pending: CorrectionBits { words: [0; 16], len: 0 },
            slot: AC_SLOT + usize::from(scan.components[0].ac_table),
        }
    }

    #[inline]
    fn flush_eobrun(&mut self, tokens: &mut ScanTokens) {
        if self.eobrun > 0 {
            let nbits = 31 - self.eobrun.leading_zeros();
            tokens.symbol(self.slot, (nbits << 4) as u8, u64::from(self.eobrun), nbits);
            self.eobrun = 0;
        }
        if self.pending.len > 0 {
            self.pending.drain(tokens);
        }
    }

    /// Counts a block that ends in an end-of-band, with its trailing
    /// correction bits.
    #[inline]
    fn end_of_band(&mut self, tokens: &mut ScanTokens, bits: u64, n: u32) {
        self.eobrun += 1;
        self.pending.push(bits, n);
        // Flush well before the correction-bit buffer could grow
        // unboundedly (libjpeg's MAX_CORR_BITS discipline).
        if self.eobrun == 0x7FFF || self.pending.len > 930 {
            self.flush_eobrun(tokens);
        }
    }
}

fn tokenize_ac_first(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    let al = u32::from(scan.al);
    let band = band_mask(scan);
    let mut st = AcState::new(scan);
    scan_blocks(frame, coeffs, scan, |_slot, zz| {
        let mag = magnitudes(zz, al);
        let mut mask = nonzero_mask64(&mag) & band;
        let mut next = u32::from(scan.ss);
        if mask != 0 {
            st.flush_eobrun(tokens);
        }
        while mask != 0 {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            let mut r = k - next;
            next = k + 1;
            while r > 15 {
                tokens.symbol(st.slot, 0xF0, 0, 0);
                r -= 16;
            }
            let t = u32::from(mag[k as usize] as u16);
            let nbits = 32 - t.leading_zeros();
            if nbits > 10 {
                return Err(Error::BadInput("AC coefficient out of range".into()));
            }
            let pattern = if zz[k as usize] < 0 { !t } else { t };
            tokens.symbol(st.slot, ((r as u8) << 4) | nbits as u8, u64::from(pattern), nbits);
        }
        if next <= u32::from(scan.se) {
            st.end_of_band(tokens, 0, 0);
        }
        Ok(())
    })?;
    st.flush_eobrun(tokens);
    Ok(())
}

fn tokenize_ac_refine(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tokens: &mut ScanTokens,
) -> Result<()> {
    let al = u32::from(scan.al);
    let band = band_mask(scan);
    let mut st = AcState::new(scan);
    scan_blocks(frame, coeffs, scan, |_slot, zz| {
        let mag = magnitudes(zz, al);
        // Coefficients earlier scans already made nonzero (`|c| >> al`
        // above 1) send one correction bit; those becoming nonzero now
        // (exactly 1) send a symbol and a sign.
        let known = nonzero_mask64(&magnitudes(zz, al + 1)) & band;
        let mut mask = nonzero_mask64(&mag) & band;
        let new = mask & !known;
        // Position of the last newly nonzero coefficient; a run of 16
        // zeros at or before it needs a ZRL, one after it folds into the
        // end-of-band.
        let eob = 63u32.saturating_sub(new.leading_zeros());
        let mut next = u32::from(scan.ss);
        let mut r = 0u32;
        // This block's correction bits since the last symbol.
        let (mut bits, mut n) = (0u64, 0u32);
        while mask != 0 {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            r += k - next;
            next = k + 1;
            while r > 15 && k <= eob {
                st.flush_eobrun(tokens);
                tokens.symbol(st.slot, 0xF0, bits, n);
                (bits, n) = (0, 0);
                r -= 16;
            }
            if known >> k & 1 != 0 {
                bits = bits << 1 | u64::from(mag[k as usize] as u16 & 1);
                n += 1;
                continue;
            }
            st.flush_eobrun(tokens);
            let sign = u64::from(zz[k as usize] >= 0);
            tokens.symbol(st.slot, ((r as u8) << 4) | 1, sign << n | bits, n + 1);
            (bits, n) = (0, 0);
            r = 0;
        }
        if r + (u32::from(scan.se) + 1 - next) > 0 || n > 0 {
            st.end_of_band(tokens, bits, n);
        }
        Ok(())
    })?;
    st.flush_eobrun(tokens);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ScanComponent, Subsampling};

    fn tiny_frame(progressive: bool) -> (FrameInfo, CoeffPlanes) {
        let frame = FrameInfo::for_encode(16, 16, 1, Subsampling::S444, progressive).unwrap();
        let mut coeffs = CoeffPlanes::new(&frame);
        // Deterministic pseudo-content.
        for row in 0..2 {
            for col in 0..2 {
                let b = coeffs.block_mut(&frame, 0, row, col);
                b[0] = 100 + (row * 2 + col) as i16 * 10;
                b[1] = 7;
                b[8] = -3;
                b[33] = 1;
                b[63] = -1;
            }
        }
        (frame, coeffs)
    }

    fn gray_scan(ss: u8, se: u8, ah: u8, al: u8) -> ScanInfo {
        ScanInfo {
            components: vec![ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 }],
            ss,
            se,
            ah,
            al,
        }
    }

    fn tokenize(frame: &FrameInfo, coeffs: &CoeffPlanes, scan: &ScanInfo) -> ScanTokens {
        let mut tokens = ScanTokens::default();
        tokenize_scan(frame, coeffs, scan, &mut tokens).unwrap();
        tokens
    }

    #[test]
    fn sequential_scan_produces_symbols() {
        let (frame, coeffs) = tiny_frame(false);
        let tokens = tokenize(&frame, &coeffs, &gray_scan(0, 63, 0, 0));
        // 4 blocks -> 4 DC symbols.
        assert_eq!(tokens.counts(0).unwrap().iter().sum::<u32>(), 4);
        assert!(tokens.counts(AC_SLOT).is_some());
        assert!(tokens.counts(1).is_none() && tokens.counts(AC_SLOT + 1).is_none());
    }

    #[test]
    fn dc_first_and_refine_symbol_counts() {
        let (frame, coeffs) = tiny_frame(true);
        let tokens = tokenize(&frame, &coeffs, &gray_scan(0, 0, 0, 1));
        assert_eq!(tokens.counts(0).unwrap().iter().sum::<u32>(), 4);
        // Refinement emits no Huffman symbols at all: four raw bits.
        let tokens = tokenize(&frame, &coeffs, &gray_scan(0, 0, 1, 0));
        assert!(tokens.counts(0).is_none());
        assert_eq!(tokens.tokens, [RAW << 20 | 4 << 16]);
    }

    #[test]
    fn ac_first_emits_eob_runs() {
        let (frame, coeffs) = tiny_frame(true);
        let tokens = tokenize(&frame, &coeffs, &gray_scan(1, 63, 0, 0));
        assert!(tokens.counts(AC_SLOT).is_some());
    }

    #[test]
    fn magnitude_coding_negative_is_ones_complement() {
        assert_eq!(magnitude(5), (0b101, 3));
        assert_eq!(magnitude(-5), (0b010, 3));
        assert_eq!(magnitude(1), (1, 1));
        assert_eq!(magnitude(-1), (0, 1));
        assert_eq!(magnitude(0), (0, 0));
    }

    #[test]
    fn long_bit_strings_split_into_tokens_in_order() {
        let mut tokens = ScanTokens::default();
        tokens.symbol(AC_SLOT, 0x21, 0x1_2345_6789, 33);
        tokens.raw(0b101, 3);
        let mut tables: ScanTables = Default::default();
        tables[AC_SLOT] = Some(HuffTable::std_ac_luma());
        let mut w = BitWriter::new();
        tokens.replay(&CodeBook::new(&tables, &tokens).unwrap(), &mut w);
        let mut expect = BitWriter::new();
        HuffEncoder::from_table(&HuffTable::std_ac_luma()).unwrap().encode(&mut expect, 0x21);
        expect.put_bits((0x1_2345_6789u64 >> 1) as u32, 32);
        expect.put_bits(1, 1);
        expect.put_bits(0b101, 3);
        assert_eq!(w.finish(), expect.finish());
    }

    #[test]
    fn uncoded_symbol_is_an_error_not_silence() {
        let (frame, coeffs) = tiny_frame(false);
        let tokens = tokenize(&frame, &coeffs, &gray_scan(0, 63, 0, 0));
        let mut tables: ScanTables = Default::default();
        tables[0] = Some(HuffTable::std_dc_luma());
        // AC slot left empty although the scan coded AC symbols.
        assert!(CodeBook::new(&tables, &tokens).is_err());
    }

    #[test]
    fn table_selector_above_three_is_refused() {
        let (frame, coeffs) = tiny_frame(false);
        let mut scan = gray_scan(0, 63, 0, 0);
        scan.components[0].dc_table = 4; // would alias AC table 0's slot
        let mut tokens = ScanTokens::default();
        assert!(tokenize_scan(&frame, &coeffs, &scan, &mut tokens).is_err());
    }

    #[test]
    fn interleaved_block_order_covers_all_components() {
        let frame = FrameInfo::for_encode(32, 32, 3, Subsampling::S420, false).unwrap();
        let scan = ScanInfo {
            components: (0..3)
                .map(|i| ScanComponent { comp_index: i, dc_table: 0, ac_table: 0 })
                .collect(),
            ss: 0,
            se: 63,
            ah: 0,
            al: 0,
        };
        let mut count = [0usize; 3];
        let coeffs = CoeffPlanes::new(&frame);
        scan_blocks(&frame, &coeffs, &scan, |slot, _block| {
            count[slot] += 1;
            Ok(())
        })
        .unwrap();
        // 2x2 MCUs: Y has 4 blocks per MCU, chroma 1 each.
        assert_eq!(count, [16, 4, 4]);
    }
}
