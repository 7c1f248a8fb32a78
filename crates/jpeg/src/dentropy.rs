//! Entropy decoding for baseline and progressive scans, mirroring
//! `entropy.rs` (encode side) and libjpeg's `jdhuff.c`/`jdphuff.c`.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::bitio::{extend, BitSource};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{FastAc, HuffDecoder, SymbolDecoder};
use std::ops::Range;

/// Huffman decoder tables available to a scan.
///
/// Generic over the symbol-decoder type `D` (defaulting to the production
/// two-level [`HuffDecoder`]) so the bit-exactness suite can run the
/// identical scan logic over the retained canonical decoder.
pub struct DecodeTables<'a, D = HuffDecoder> {
    /// DC decoders by table id.
    pub dc: &'a [Option<D>; 4],
    /// AC decoders by table id.
    pub ac: &'a [Option<D>; 4],
}

impl<D> DecodeTables<'_, D> {
    fn dc_table(&self, id: u8) -> Result<&D> {
        self.dc
            .get(id as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| Error::BadHuffman(format!("missing DC table {id}")))
    }
    fn ac_table(&self, id: u8) -> Result<&D> {
        self.ac
            .get(id as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| Error::BadHuffman(format!("missing AC table {id}")))
    }
}

/// Number of restart-interval units in a scan: MCUs for an interleaved
/// scan, blocks for a non-interleaved one (T.81 E.1.4 — in a
/// non-interleaved scan the MCU is a single block). Restart intervals
/// count in these units.
#[expect(clippy::indexing_slicing, reason = "comp_index is validated against frame.components \
          when the scan header is parsed")]
pub fn mcu_units(frame: &FrameInfo, scan: &ScanInfo) -> u32 {
    if scan.components.len() == 1 {
        let c = &frame.components[scan.components[0].comp_index];
        c.blocks_w * c.blocks_h
    } else {
        frame.mcus_x * frame.mcus_y
    }
}

/// Decodes the MCU-unit range `units` of a scan from `r` into `coeffs` —
/// the whole scan (`0..mcu_units(frame, scan)`), or one restart segment's
/// worth when the stream carries restart markers.
///
/// A truncated stream decodes zero bits for the remainder (graceful
/// degradation, which the PCR partial read path relies on between
/// scan-group boundaries). Decoder state (DC predictors, EOB run) starts
/// fresh, exactly the reset a restart marker demands, so decoding a whole
/// scan equals decoding its segments in sequence.
pub fn decode_scan_range<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    scan.validate(frame)?;
    if !frame.progressive {
        return decode_sequential(frame, coeffs, scan, tables, r, units);
    }
    if scan.is_dc() {
        if scan.is_refinement() {
            decode_dc_refine(frame, coeffs, scan, r, units)
        } else {
            decode_dc_first(frame, coeffs, scan, tables, r, units)
        }
    } else if scan.is_refinement() {
        decode_ac_refine(frame, coeffs, scan, tables, r, units)
    } else {
        decode_ac_first(frame, coeffs, scan, tables, r, units)
    }
}

/// Walks the blocks of the scan units `units` — interleaved scans in MCU
/// order, single-component scans in raster order — calling
/// `f(comp_slot, block_row, block_col)` where `comp_slot` indexes
/// `scan.components`. The one block walk of the decoder and the
/// tokenizer.
#[expect(clippy::indexing_slicing, reason = "scan.validate checks every comp_index; block \
          coordinates stay inside the component's blocks_w x blocks_h grid by construction of \
          the loops")]
pub(crate) fn for_each_block(
    frame: &FrameInfo,
    scan: &ScanInfo,
    units: Range<u32>,
    mut f: impl FnMut(usize, u32, u32) -> Result<()>,
) -> Result<()> {
    if scan.components.len() == 1 {
        let c = &frame.components[scan.components[0].comp_index];
        let bw = c.blocks_w;
        let mut row = units.start / bw;
        let mut col = units.start % bw;
        for _ in units {
            f(0, row, col)?;
            col += 1;
            if col == bw {
                col = 0;
                row += 1;
            }
        }
        return Ok(());
    }
    for m in units {
        let my = m / frame.mcus_x;
        let mx = m % frame.mcus_x;
        for (slot, sc) in scan.components.iter().enumerate() {
            let c = &frame.components[sc.comp_index];
            for by in 0..u32::from(c.v) {
                for bx in 0..u32::from(c.h) {
                    f(slot, my * u32::from(c.v) + by, mx * u32::from(c.h) + bx)?;
                }
            }
        }
    }
    Ok(())
}

#[expect(clippy::indexing_slicing, reason = "slot indexes the per-scan vectors sized from \
          scan.components; k is guarded <= 63 before block[k]")]
fn decode_sequential<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    let mut preds = vec![0i32; scan.components.len()];
    // Resolve Huffman tables once per scan, not once per block.
    let comp_tables: Vec<(&D, &D)> = scan
        .components
        .iter()
        .map(|sc| Ok((tables.dc_table(sc.dc_table)?, tables.ac_table(sc.ac_table)?)))
        .collect::<Result<_>>()?;
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        let (dctbl, actbl) = comp_tables[slot];
        let fast = actbl.fast_ac();
        preds[slot] = dc_step(dctbl, r, preds[slot])?;
        let block = coeffs.block_mut(frame, sc.comp_index, row, col);
        block[0] = preds[slot] as i16;
        let mut k = 1usize;
        while k < 64 {
            if let Some(fast) = fast {
                k = fast_ac_steps(fast, r, block, k, 63, 0)?;
                if k > 63 {
                    break;
                }
            }
            // Fused symbol + magnitude read: one peek serves both.
            let (rs, bits) = actbl.decode_then_bits(r, |rs| u32::from(rs & 0x0F))?;
            let run = usize::from(rs >> 4);
            let size = u32::from(rs & 0x0F);
            if size == 0 {
                if run == 15 {
                    k += 16; // ZRL
                    continue;
                }
                break; // EOB
            }
            k += run;
            if k > 63 {
                return Err(Error::CorruptData("AC run past block end".into()));
            }
            block[k] = extend(bits, size) as i16;
            k += 1;
        }
        Ok(())
    })
}

/// One DC-difference step of a sequential or first DC scan, the decoder
/// twin of the encoder's `tokenize_dc_diff`: the size category and its
/// magnitude bits in one fused read, then the predictor `pred` moved by
/// the difference. A crafted stream can push the predictor past `i32`:
/// it wraps, and only its low 16 bits reach the block.
#[inline]
fn dc_step<D: SymbolDecoder, R: BitSource>(table: &D, r: &mut R, pred: i32) -> Result<i32> {
    let (s, bits) = table.decode_then_bits(r, |s| u32::from(s.min(15)))?;
    let s = u32::from(s);
    if s > 15 {
        return Err(Error::CorruptData("DC size > 15".into()));
    }
    let diff = if s > 0 { extend(bits, s) } else { 0 };
    Ok(pred.wrapping_add(diff))
}

#[expect(clippy::indexing_slicing, reason = "slot indexes the per-scan vectors sized from \
          scan.components; DC writes touch index 0 only")]
fn decode_dc_first<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    let al = u32::from(scan.al);
    let mut preds = vec![0i32; scan.components.len()];
    let comp_tables: Vec<&D> = scan
        .components
        .iter()
        .map(|sc| tables.dc_table(sc.dc_table))
        .collect::<Result<_>>()?;
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        preds[slot] = dc_step(comp_tables[slot], r, preds[slot])?;
        coeffs.block_mut(frame, sc.comp_index, row, col)[0] = (preds[slot] << al) as i16;
        Ok(())
    })
}

#[expect(clippy::indexing_slicing, reason = "slot < scan.components.len() by for_each_block; DC \
          writes touch index 0 only")]
fn decode_dc_refine<R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    let p1 = 1i16 << scan.al;
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        if r.get_bit()? != 0 {
            let block = coeffs.block_mut(frame, sc.comp_index, row, col);
            block[0] |= p1;
        }
        Ok(())
    })
}

#[expect(clippy::indexing_slicing, reason = "AC scans have exactly one component \
          (scan.validate); k is guarded <= se <= 63 before block[k]")]
fn decode_ac_first<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    let sc = scan.components[0];
    let actbl = tables.ac_table(sc.ac_table)?;
    let fast = actbl.fast_ac();
    let al = u32::from(scan.al);
    let se = scan.se as usize;
    // Fused read sizing: magnitude bits for a coefficient symbol, EOB
    // run-length bits otherwise (0 for ZRL).
    let size_of = |rs: u8| {
        let size = u32::from(rs & 0x0F);
        let run = u32::from(rs >> 4);
        size + (u32::from(size == 0) & u32::from(run != 15)) * run
    };
    let mut eobrun = 0u32;
    for_each_block(frame, scan, units, |_slot, row, col| {
        if eobrun > 0 {
            eobrun -= 1;
            return Ok(());
        }
        let block = coeffs.block_mut(frame, sc.comp_index, row, col);
        let mut k = scan.ss as usize;
        while k <= se {
            if let Some(fast) = fast {
                k = fast_ac_steps(fast, r, block, k, se, al)?;
                if k > se {
                    break;
                }
            }
            let (rs, bits) = actbl.decode_then_bits(r, size_of)?;
            let run = usize::from(rs >> 4);
            let size = u32::from(rs & 0x0F);
            if size != 0 {
                k += run;
                if k > se {
                    return Err(Error::CorruptData("AC run past band end".into()));
                }
                block[k] = (extend(bits, size) << al) as i16;
                k += 1;
            } else if run == 15 {
                k += 16;
            } else {
                eobrun = (1 << run) + bits;
                eobrun -= 1; // this block ends the run
                break;
            }
        }
        Ok(())
    })
}

/// Takes the coefficient steps at the head of the stream that `fast`
/// resolves, as many as the bit buffer holds before each consume: step
/// by step, `block[k + run]` gets the value shifted left by `al` and `k`
/// moves past it. Stops at the first miss (EOB, ZRL, a long code, a large
/// magnitude), once `k` passes the band end `se`, or before a run that
/// would pass it — the stepwise path then decodes that step, error
/// included. Returns the new `k`; the bits taken are the ones the
/// stepwise path would have read for the same steps.
#[inline]
#[expect(clippy::indexing_slicing, reason = "the fast table has 1 << 10 entries and `(word << \
          used) >> 54` is a 10-bit index; a step is taken only while `k + run <= se <= 63`")]
fn fast_ac_steps<R: BitSource>(
    fast: &FastAc,
    r: &mut R,
    block: &mut [i16; 64],
    mut k: usize,
    se: usize,
    al: u32,
) -> Result<usize> {
    loop {
        let Some((word, buffered)) = r.peek_buffered() else {
            return Ok(k);
        };
        // A step is at most 10 bits, so every whole 10-bit window inside
        // the buffer is safe to resolve.
        let mut used = 0;
        while used + 10 <= buffered {
            let entry = fast[((word << used) >> 54) as usize];
            let run = usize::from((entry >> 4) as u8 & 0x0F);
            if entry == 0 || k + run > se {
                r.consume(used)?;
                return Ok(k);
            }
            k += run;
            block[k] = (i32::from(entry >> 8) << al) as i16;
            k += 1;
            used += (entry & 0x0F) as u32;
        }
        r.consume(used)?;
    }
}

/// Bit mask of positions `0..n` (saturating: `n >= 64` selects all).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Nonzero bitmap of a coefficient block: bit `k` is set iff
/// `block[k] != 0`. Blocks are stored in zigzag order, so this is the
/// scan-order mask both the decoder and the tokenizer walk.
///
/// The compare is a plain loop the compiler vectorises: coefficient
/// `8r + c` becomes byte `8r + c`, holding `1 << r` when nonzero. ORing
/// the eight 8-byte rows gives one word whose byte `c`, bit `r` marks
/// coefficient `8r + c` — the bitmap with its 8x8 bit matrix transposed —
/// and three rounds of bit swaps transpose it back (Hacker's Delight
/// 7-3).
#[inline]
pub(crate) fn nonzero_mask64(block: &[i16; 64]) -> u64 {
    let mut rows = [0u8; 64];
    for (i, (b, &v)) in rows.iter_mut().zip(block).enumerate() {
        *b = u8::from(v != 0) << (i / 8);
    }
    let (rows, _) = rows.as_chunks::<8>();
    let x = rows.iter().fold(0u64, |x, &row| x | u64::from_le_bytes(row));
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// `BIT_POSITIONS[b]`: the indices of the set bits of byte `b`, ascending,
/// one per byte from the low byte up (unused bytes zero).
const BIT_POSITIONS: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    #[expect(clippy::indexing_slicing, reason = "b < 256, at compile time")]
    while b < 256 {
        let (mut pos, mut count, mut bit) = (0u64, 0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                pos |= (bit as u64) << (8 * count);
                count += 1;
            }
            bit += 1;
        }
        table[b] = pos;
        b += 1;
    }
    table
};

/// Number of set bits in `nib < 16`, from a 16-entry table of nibbles.
#[inline]
fn pop4(nib: u64) -> u64 {
    (0x4332_3221_3221_2110u64 >> (4 * nib)) & 15
}

/// `DEPOSIT4[nib << 4 | top]`: the set bits of nibble `nib`, ascending,
/// take the bits of nibble `top` from its most significant end — a
/// four-bit `pdep`. The x86-64-v3 build has BMI2, but LLVM does not
/// form `pdep` from plain code and its intrinsic needs `unsafe`, which
/// the crate forbids; a portable build has no `pdep` at all.
const DEPOSIT4: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    #[expect(clippy::indexing_slicing, reason = "i < 256, at compile time")]
    while i < 256 {
        let (nib, top) = (i >> 4, i & 15);
        let (mut out, mut taken, mut bit) = (0u8, 0, 0);
        while bit < 4 {
            if nib >> bit & 1 == 1 {
                out |= ((top >> (3 - taken) & 1) as u8) << bit;
                taken += 1;
            }
            bit += 1;
        }
        table[i] = out;
        i += 1;
    }
    table
};

/// Reads `n <= 64` bits, MSB first, right-aligned in the result.
#[inline]
fn take_bits<R: BitSource>(r: &mut R, mut n: u32) -> Result<u64> {
    let mut v = 0u64;
    while n > 0 {
        let m = n.min(16);
        v = (v << m) | u64::from(r.get_bits(m)?);
        n -= m;
    }
    Ok(v)
}

/// Applies a block's correction bits (T.81 G.1.2.3): the `i`-th set
/// position of `nz`, in ascending zigzag order, takes bit `i` of the
/// `count`-bit value `corr`, counted from its most significant end.
/// `count` equals the number of positions set in `nz`.
///
/// The bits are first deposited onto their positions a nibble at a time
/// (`hits`), so the update itself is one branch-free pass over the 64
/// coefficients, which the compiler vectorises.
#[inline]
fn apply_corrections(block: &mut [i16; 64], nz: u64, corr: u64, count: u32, p1: i32, m1: i32) {
    debug_assert_eq!(nz.count_ones(), count);
    let Some(mut corr) = corr.checked_shl(64 - count) else { return };
    let mut hits = 0u64;
    for i in 0..16 {
        let nib = (nz >> (4 * i)) & 15;
        let top = corr >> 60;
        let deposit = DEPOSIT4.get((nib << 4 | top) as usize).copied().unwrap_or(0);
        hits |= u64::from(deposit) << (4 * i);
        corr <<= pop4(nib);
    }
    let (p1, m1) = (p1 as i16, m1 as i16);
    for (row, byte) in block.chunks_exact_mut(8).zip(hits.to_le_bytes()) {
        for (j, c) in row.iter_mut().enumerate() {
            let v = *c;
            let apply = (byte >> j) & 1 != 0 && v & p1 == 0;
            let delta = if v >= 0 { p1 } else { m1 };
            *c = if apply { v.wrapping_add(delta) } else { v };
        }
    }
}

/// Successive approximation of an AC band (T.81 G.1.2.3).
///
/// Correction bits never steer the walk: every already-nonzero position
/// the cursor passes takes the next one, in order. So the walk only
/// counts them, gathers them in one `u64` per block, and applies them
/// when the block ends. Zero runs are skipped by table: `zpos[j]` is the
/// band position of the block's `j`-th zero (band end past the last),
/// and the `zpos[j] - ss - j` nonzero positions before it are the
/// correction bits a cursor stopping there has passed.
///
/// Each step resolves its code from one [`BitSource::peek_wide`] window
/// ([`SymbolDecoder::peek_code`]). A coefficient or ZRL step whose code,
/// sign bit and correction bits fit the window is taken with one
/// `consume`, and so is an EOB with its run-length bits and the band's
/// remaining correction bits; a step that spills consumes its code from
/// the window and reads the correction bits 16 at a time. Without a
/// window or a code (the reference stack, a corrupt stream) and for an
/// illegal size, the step goes through the fused 16-bit
/// [`SymbolDecoder::decode_then_bits`] path instead.
#[expect(clippy::indexing_slicing, reason = "AC scans have one component (scan.validate)")]
fn decode_ac_refine<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    let sc = scan.components[0];
    let actbl = tables.ac_table(sc.ac_table)?;
    let p1 = 1i32 << scan.al;
    let m1 = -(1i32 << scan.al);
    let ss = scan.ss as usize;
    let se = scan.se as usize;
    let band = low_mask(se + 1) & !low_mask(ss);
    let mut eobrun = 0u32;
    for_each_block(frame, scan, units, |_slot, row, col| {
        let block = coeffs.block_mut(frame, sc.comp_index, row, col);
        // Already-nonzero band positions. Insertions only ever happen
        // behind the advancing cursor, so the snapshot stays valid for
        // the whole block.
        let nz = nonzero_mask64(block) & band;
        if eobrun > 0 {
            eobrun -= 1;
            let count = nz.count_ones();
            let corr = take_bits(r, count)?;
            apply_corrections(block, nz, corr, count, p1, m1);
            return Ok(());
        }
        // Eight bytes of the zero mask, eight positions per table entry;
        // each store's slots past the byte's last zero are overwritten by
        // the next byte's.
        let mut zpos = [0u8; 72];
        let mut nzeros = 0usize;
        let zeros = (!nz & band).to_le_bytes();
        for (i, &byte) in (0u64..).zip(&zeros) {
            let pos = BIT_POSITIONS.get(usize::from(byte)).copied().unwrap_or(0);
            if let Some(dst) = zpos.get_mut(nzeros..nzeros + 8) {
                dst.copy_from_slice(&(pos + 0x0808_0808_0808_0808 * i).to_le_bytes());
            }
            nzeros += (pop4(u64::from(byte & 15)) + pop4(u64::from(byte >> 4))) as usize;
        }
        // The band holds at most 63 positions, so a slot is left.
        if let Some(end) = zpos.get_mut(nzeros) {
            *end = (se + 1) as u8;
        }
        let at = |j: usize| zpos.get(j).map_or(se + 1, |&p| usize::from(p));
        let rank = |j: usize| at(j) - ss - j;
        let mut j = 0usize; // next zero the cursor has not passed
        let mut passed = 0usize; // correction bits gathered in `corr`
        let mut corr = 0u64;
        let mut k = ss;
        while k <= se {
            let peeked = r
                .peek_wide()
                .and_then(|w| actbl.peek_code(w >> 16).map(|(rs, len)| (w, rs, len)));
            // (symbol, sign bit, zero-table index of the stop, correction bits)
            let (rs, sign, jt, cbits) = match peeked {
                Some((w, rs, len)) if rs & 0x0F <= 1 => {
                    let run = usize::from(rs >> 4);
                    let size = u32::from(rs & 0x0F);
                    if size == 0 && run != 15 {
                        // EOB: its run-length bits, and the band's
                        // remaining correction bits when they fit too.
                        let tail = rank(nzeros) - passed;
                        let used = len + run as u32 + tail as u32;
                        let take = if used <= 32 { used } else { len + run as u32 };
                        r.consume(take)?;
                        let w = u64::from(w);
                        eobrun = (1 << run) + ((w >> (32 - len - run as u32)) & low_mask(run)) as u32;
                        if used <= 32 {
                            corr = (corr << tail) | ((w >> (32 - used)) & low_mask(tail));
                            passed += tail;
                        }
                        break;
                    }
                    let jt = (j + run).min(nzeros);
                    let ncorr = rank(jt) - passed;
                    let used = len + size + ncorr as u32;
                    let sign = (w >> (31 - len)) & 1;
                    if used <= 32 {
                        r.consume(used)?;
                        (rs, sign, jt, (u64::from(w) >> (32 - used)) & low_mask(ncorr))
                    } else {
                        r.consume(len + size)?;
                        (rs, sign, jt, take_bits(r, ncorr as u32)?)
                    }
                }
                _ => {
                    // Fused: the sign bit (size == 1) or EOB run-length
                    // bits (size == 0, run < 15) ride the symbol's peek.
                    let (rs, bits) = actbl.decode_then_bits(r, |rs| {
                        // Branch-free: 1 for a coefficient's sign bit, the
                        // run length for an EOB symbol, 0 otherwise.
                        let size = u32::from(rs & 0x0F);
                        let run = u32::from(rs >> 4);
                        u32::from(size == 1)
                            + (u32::from(size == 0) & u32::from(run != 15)) * run
                    })?;
                    let run = usize::from(rs >> 4);
                    let size = rs & 0x0F;
                    if size > 1 {
                        return Err(Error::CorruptData(
                            "refinement coefficient size must be 1".into(),
                        ));
                    }
                    if size == 0 && run != 15 {
                        eobrun = (1 << run) + bits;
                        break;
                    }
                    let jt = (j + run).min(nzeros);
                    (rs, bits, jt, take_bits(r, (rank(jt) - passed) as u32)?)
                }
            };
            let ncorr = rank(jt) - passed;
            corr = (corr << ncorr) | cbits;
            passed += ncorr;
            let target = at(jt);
            if rs & 0x0F != 0 {
                if target > se {
                    return Err(Error::CorruptData("refine run past band end".into()));
                }
                if let Some(c) = block.get_mut(target) {
                    *c = (if sign != 0 { p1 } else { m1 }) as i16;
                }
            }
            j = jt + 1;
            k = target + 1;
        }
        if eobrun > 0 {
            // The end-of-band: every nonzero position left takes its bit.
            let ncorr = rank(nzeros) - passed;
            corr = (corr << ncorr) | take_bits(r, ncorr as u32)?;
            passed += ncorr;
            eobrun -= 1;
        }
        apply_corrections(block, nz, corr, passed as u32, p1, m1);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitReader;
    use crate::entropy::{ScanEncoder, ScanTables};
    use crate::frame::{CoeffPlanes, ScanComponent, Subsampling};
    use crate::huffman::HuffDecoder;

    /// Runs encode (optimal tables) -> decode for one scan and returns
    /// the decoded coefficient planes.
    fn roundtrip_scan(
        frame: &FrameInfo,
        coeffs: &CoeffPlanes,
        scan: &ScanInfo,
        into: &mut CoeffPlanes,
    ) {
        let mut tables = ScanTables::default();
        let bytes =
            ScanEncoder::new(coeffs).encode_scan(frame, scan, true, &mut tables).unwrap();
        let decoders =
            tables.each_ref().map(|t| t.as_ref().map(|t| HuffDecoder::from_table(t).unwrap()));
        let mut reader = BitReader::new(&bytes);
        let (dc, ac) = decoders.split_at(4);
        let tables = DecodeTables { dc: dc.try_into().unwrap(), ac: ac.try_into().unwrap() };
        let units = 0..mcu_units(frame, scan);
        decode_scan_range(frame, into, scan, &tables, &mut reader, units).unwrap();
    }

    fn filled_frame(progressive: bool, w: u32, h: u32) -> (FrameInfo, CoeffPlanes) {
        let frame = FrameInfo::for_encode(w, h, 1, Subsampling::S444, progressive).unwrap();
        let mut coeffs = CoeffPlanes::new(&frame);
        let c = frame.components[0].clone();
        let mut seed = 0x12345u32;
        for row in 0..c.alloc_h {
            for col in 0..c.alloc_w {
                let b = coeffs.block_mut(&frame, 0, row, col);
                for (i, v) in b.iter_mut().enumerate() {
                    seed = seed.wrapping_mul(1103515245).wrapping_add(12345);
                    let r = (seed >> 16) as i32 % 32;
                    *v = match i {
                        0 => (r * 8 - 128) as i16,
                        _ if i < 6 => (r - 16).clamp(-30, 30) as i16,
                        _ if i < 20 && r % 3 == 0 => ((r % 7) - 3) as i16,
                        _ if r % 13 == 0 => 1,
                        _ => 0,
                    };
                }
            }
        }
        (frame, coeffs)
    }

    #[test]
    fn sequential_roundtrip_exact() {
        let (frame, coeffs) = filled_frame(false, 48, 32);
        let scan = ScanInfo {
            components: vec![ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 }],
            ss: 0,
            se: 63,
            ah: 0,
            al: 0,
        };
        let mut out = CoeffPlanes::new(&frame);
        roundtrip_scan(&frame, &coeffs, &scan, &mut out);
        assert_eq!(out, coeffs);
    }

    #[test]
    fn progressive_full_script_roundtrip_exact() {
        let (frame, coeffs) = filled_frame(true, 40, 40);
        let comp = |_i: usize| ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 };
        // DC first (Al=1), AC 1..63 first (Al=2), AC refine (Al=1), AC refine
        // (Al=0), DC refine (Al=0): full precision recovery.
        let scans = [
            ScanInfo { components: vec![comp(0)], ss: 0, se: 0, ah: 0, al: 1 },
            ScanInfo { components: vec![comp(0)], ss: 1, se: 63, ah: 0, al: 2 },
            ScanInfo { components: vec![comp(0)], ss: 1, se: 63, ah: 2, al: 1 },
            ScanInfo { components: vec![comp(0)], ss: 1, se: 63, ah: 1, al: 0 },
            ScanInfo { components: vec![comp(0)], ss: 0, se: 0, ah: 1, al: 0 },
        ];
        let mut out = CoeffPlanes::new(&frame);
        for scan in &scans {
            roundtrip_scan(&frame, &coeffs, scan, &mut out);
        }
        assert_eq!(out, coeffs);
    }

    #[test]
    fn progressive_partial_scans_approximate_dc() {
        let (frame, coeffs) = filled_frame(true, 24, 24);
        let comp = ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 };
        let dc_first = ScanInfo { components: vec![comp], ss: 0, se: 0, ah: 0, al: 1 };
        let mut out = CoeffPlanes::new(&frame);
        roundtrip_scan(&frame, &coeffs, &dc_first, &mut out);
        // After DC-first only: every DC matches to within the Al=1 precision,
        // all AC coefficients are still zero.
        let c = frame.components[0].clone();
        for row in 0..c.alloc_h {
            for col in 0..c.alloc_w {
                let got = out.block(&frame, 0, row, col);
                let want = coeffs.block(&frame, 0, row, col);
                assert_eq!(i32::from(got[0]) >> 1, i32::from(want[0]) >> 1);
                assert!(got[1..].iter().all(|&v| v == 0));
            }
        }
    }

    #[test]
    fn spectral_bands_compose() {
        let (frame, coeffs) = filled_frame(true, 32, 16);
        let comp = ScanComponent { comp_index: 0, dc_table: 0, ac_table: 0 };
        let scans = [
            ScanInfo { components: vec![comp], ss: 0, se: 0, ah: 0, al: 0 },
            ScanInfo { components: vec![comp], ss: 1, se: 5, ah: 0, al: 0 },
            ScanInfo { components: vec![comp], ss: 6, se: 63, ah: 0, al: 0 },
        ];
        let mut out = CoeffPlanes::new(&frame);
        for scan in &scans {
            roundtrip_scan(&frame, &coeffs, scan, &mut out);
        }
        assert_eq!(out, coeffs);
    }

    #[test]
    fn interleaved_color_sequential_roundtrip() {
        let frame = FrameInfo::for_encode(40, 24, 3, Subsampling::S420, false).unwrap();
        let mut coeffs = CoeffPlanes::new(&frame);
        let mut seed = 7u32;
        for ci in 0..3 {
            let c = frame.components[ci].clone();
            for row in 0..c.alloc_h {
                for col in 0..c.alloc_w {
                    let b = coeffs.block_mut(&frame, ci, row, col);
                    for (i, v) in b.iter_mut().enumerate().take(10) {
                        seed = seed.wrapping_mul(48271);
                        *v = ((seed >> 20) as i32 % 19 - 9 + i as i32 % 3) as i16;
                    }
                }
            }
        }
        let scan = ScanInfo {
            components: (0..3)
                .map(|i| ScanComponent {
                    comp_index: i,
                    dc_table: u8::from(i > 0),
                    ac_table: u8::from(i > 0),
                })
                .collect(),
            ss: 0,
            se: 63,
            ah: 0,
            al: 0,
        };
        let mut out = CoeffPlanes::new(&frame);
        roundtrip_scan(&frame, &coeffs, &scan, &mut out);
        assert_eq!(out, coeffs);
    }

    /// Every 8-bit pattern in every byte lane, with zero or nonzero
    /// neighbours and each extreme coefficient value: the transpose in
    /// [`nonzero_mask64`] puts every coefficient on its own bit.
    #[test]
    fn nonzero_mask_is_exact_in_every_lane() {
        for v in [1i16, -1, i16::MIN, i16::MAX] {
            for lane in 0..8 {
                let lane_bits = 0xFFu64 << (8 * lane);
                for pattern in 0..=255u64 {
                    for background in [0, v] {
                        let mut block = [background; 64];
                        for j in 0..8 {
                            block[8 * lane + j] = if pattern >> j & 1 == 1 { v } else { 0 };
                        }
                        let rest = if background == 0 { 0 } else { !lane_bits };
                        assert_eq!(
                            nonzero_mask64(&block),
                            pattern << (8 * lane) | rest,
                            "value {v}, lane {lane}, pattern {pattern:#010b}"
                        );
                    }
                }
            }
        }
    }
}
