//! Entropy decoding for baseline and progressive scans, mirroring
//! `entropy.rs` (encode side) and libjpeg's `jdhuff.c`/`jdphuff.c`.

use crate::bitio::{extend, BitSource};
use crate::consts::ZIGZAG;
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{HuffDecoder, SymbolDecoder};
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

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — comp_index is
// validated against frame.components when the scan header is parsed.
/// Number of restart-interval units in a scan: MCUs for an interleaved
/// scan, blocks for a non-interleaved one (T.81 E.1.4 — in a
/// non-interleaved scan the MCU is a single block). Restart intervals
/// count in these units.
pub fn mcu_units(frame: &FrameInfo, scan: &ScanInfo) -> u32 {
    if scan.components.len() == 1 {
        let c = &frame.components[scan.components[0].comp_index];
        c.blocks_w * c.blocks_h
    } else {
        frame.mcus_x * frame.mcus_y
    }
}

/// Decodes one scan's entropy data from `r` into `coeffs`.
///
/// Returns normally at the end of the scan's MCUs; a truncated stream decodes
/// zero bits for the remainder (graceful degradation, which the PCR partial
/// read path relies on between scan-group boundaries).
pub fn decode_scan<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
) -> Result<()> {
    decode_scan_range(frame, coeffs, scan, tables, r, 0..mcu_units(frame, scan))
}

/// Decodes the MCU-unit range `units` of a scan from `r` into `coeffs` —
/// one restart segment's worth when the stream carries restart markers.
///
/// Decoder state (DC predictors, EOB run) starts fresh, exactly the
/// reset a restart marker demands, so decoding a whole scan equals
/// decoding its segments in sequence.
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

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — scan.validate
// checks every comp_index; block coordinates stay inside the component's
// blocks_w x blocks_h grid by construction of the loops.
fn for_each_block(
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

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — slot indexes the
// per-scan vectors sized from scan.components; k is guarded <= 63 before
// ZIGZAG[k]; block_mut returns an 8x8 block so the try_into cannot fail.
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
        // Fused symbol + magnitude reads: one peek serves both.
        let (s_sym, dc_bits) = dctbl.decode_then_bits(r, |s| u32::from(s.min(15)))?;
        let s = u32::from(s_sym);
        let diff = if s > 0 {
            if s > 15 {
                return Err(Error::CorruptData("DC size > 15".into()));
            }
            extend(dc_bits, s)
        } else {
            0
        };
        preds[slot] += diff;
        let block: &mut [i16; 64] =
            coeffs.block_mut(frame, sc.comp_index, row, col).try_into().expect("8x8 block");
        block[0] = preds[slot] as i16;
        let mut k = 1usize;
        // Two coefficients per probe where possible: `decode_pair` pulls a
        // second symbol+magnitude step from the same 32-bit window iff
        // `more` proves the loop will immediately need it.
        let mut pending: Option<(u8, u32)> = None;
        while k < 64 {
            let (rs, bits) = match pending.take() {
                Some(step) => step,
                None => {
                    let more = |rs: u8| {
                        let run = usize::from(rs >> 4);
                        let size = rs & 0x0F;
                        if size != 0 {
                            k + run + 1 < 64
                        } else {
                            run == 15 && k + 16 < 64
                        }
                    };
                    let (first, second) =
                        actbl.decode_pair(r, |rs| u32::from(rs & 0x0F), more)?;
                    pending = second;
                    first
                }
            };
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
            block[ZIGZAG[k]] = extend(bits, size) as i16;
            k += 1;
        }
        debug_assert!(pending.is_none(), "speculative step without a consumer");
        Ok(())
    })
}

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — slot indexes the
// per-scan vectors sized from scan.components; DC writes touch index 0 only.
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
        let (s_sym, dc_bits) =
            comp_tables[slot].decode_then_bits(r, |s| u32::from(s.min(15)))?;
        let s = u32::from(s_sym);
        let diff = if s > 0 {
            if s > 15 {
                return Err(Error::CorruptData("DC size > 15".into()));
            }
            extend(dc_bits, s)
        } else {
            0
        };
        preds[slot] += diff;
        coeffs.block_mut(frame, sc.comp_index, row, col)[0] = (preds[slot] << al) as i16;
        Ok(())
    })
}

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — slot < 
// scan.components.len() by for_each_block; DC writes touch index 0 only.
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

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — AC scans have
// exactly one component (scan.validate); k is guarded <= se <= 63 before
// ZIGZAG[k]; block_mut returns an 8x8 block so the try_into cannot fail.
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
        let block: &mut [i16; 64] =
            coeffs.block_mut(frame, sc.comp_index, row, col).try_into().expect("8x8 block");
        let mut k = scan.ss as usize;
        // As in `decode_sequential`: two symbol+bits steps per 32-bit
        // window when `more` proves the second will be needed.
        let mut pending: Option<(u8, u32)> = None;
        while k <= se {
            let (rs, bits) = match pending.take() {
                Some(step) => step,
                None => {
                    let more = |rs: u8| {
                        let run = usize::from(rs >> 4);
                        let size = rs & 0x0F;
                        if size != 0 {
                            k + run < se
                        } else {
                            run == 15 && k + 16 <= se
                        }
                    };
                    let (first, second) = actbl.decode_pair(r, size_of, more)?;
                    pending = second;
                    first
                }
            };
            let run = usize::from(rs >> 4);
            let size = u32::from(rs & 0x0F);
            if size != 0 {
                k += run;
                if k > se {
                    return Err(Error::CorruptData("AC run past band end".into()));
                }
                block[ZIGZAG[k]] = (extend(bits, size) << al) as i16;
                k += 1;
            } else if run == 15 {
                k += 16;
            } else {
                eobrun = (1 << run) + bits;
                eobrun -= 1; // this block ends the run
                break;
            }
        }
        debug_assert!(pending.is_none(), "speculative step without a consumer");
        Ok(())
    })
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

/// Nonzero bitmap of a coefficient block: bit `i` is set iff
/// `block[i] != 0` (natural order in the decoder, zigzag order on the
/// encoder's zigzag-ordered blocks).
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

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — pos =
// trailing_zeros of a nonzero u64 is < 64, and ZIGZAG is a 64-entry
// permutation, so every index is in bounds.
/// Emits one correction bit (T.81 G.1.2.3) for every position set in
/// `corr` (ascending zigzag order), batching the bit reads through 16-bit
/// peeks: one refill check and one consume per batch instead of one per
/// bit.
#[inline]
fn apply_corrections<R: BitSource>(
    r: &mut R,
    block: &mut [i16; 64],
    mut corr: u64,
    p1: i32,
    m1: i32,
) -> Result<()> {
    while corr != 0 {
        let batch = corr.count_ones().min(16);
        let win = r.peek_bits(16)?;
        for i in 0..batch {
            let pos = corr.trailing_zeros() as usize;
            corr &= corr - 1;
            let bit = ((win >> (15 - i)) & 1) as i32;
            let idx = ZIGZAG[pos];
            let cur = i32::from(block[idx]);
            // Branch-free update: the correction bit is random data, and
            // a conditional store here would mispredict half the time.
            let apply = bit & i32::from(cur & p1 == 0);
            let delta = if cur >= 0 { p1 } else { m1 }; // cmov
            block[idx] = (cur + apply * delta) as i16;
        }
        r.consume(batch)?;
    }
    Ok(())
}

// pcr-lint: allow(no-panic-in-hot-path) for-next-item — AC scans have one
// component; ZIGZAG indices come from band positions k/target <= se <= 63
// (target > se errors first); block_mut's 8x8 block makes try_into total.
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
    let mut eobrun = 0u32;
    for_each_block(frame, scan, units, |_slot, row, col| {
        let block: &mut [i16; 64] =
            coeffs.block_mut(frame, sc.comp_index, row, col).try_into().expect("8x8 block");
        // Bitmap of already-nonzero band positions (bit k = zigzag index
        // k), built once per block from the natural-order nonzero mask
        // permuted through ZIGZAG — cheaper than 64 scattered 16-bit
        // loads. Insertions only ever happen behind the advancing cursor,
        // so the snapshot stays valid for every lookahead this block
        // performs.
        let natural = nonzero_mask64(block);
        let mut nz = 0u64;
        for (k, &z) in ZIGZAG.iter().enumerate().take(se + 1).skip(ss) {
            nz |= ((natural >> z) & 1) << k;
        }
        let mut k = ss;
        if eobrun == 0 {
            while k <= se {
                // Fused: the sign bit (size == 1) or EOB run-length bits
                // (size == 0, run < 15) ride the symbol's peek.
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
                let mut newval = 0i32;
                if size != 0 {
                    if size != 1 {
                        return Err(Error::CorruptData(
                            "refinement coefficient size must be 1".into(),
                        ));
                    }
                    newval = if bits != 0 { p1 } else { m1 };
                } else if run != 15 {
                    eobrun = (1 << run) + bits;
                    break; // remaining handled by EOB logic below
                }
                // The cursor stops at the (run+1)-th still-zero position
                // (or the band end): find it with bit math instead of a
                // per-position walk.
                let band = low_mask(se + 1) & !low_mask(k);
                let mut z = !nz & band;
                for _ in 0..run {
                    z &= z.wrapping_sub(1);
                }
                let target = if z == 0 { se + 1 } else { z.trailing_zeros() as usize };
                // Existing nonzero coefficients passed on the way receive
                // one correction bit each, in zigzag order.
                apply_corrections(r, block, nz & band & low_mask(target), p1, m1)?;
                if newval != 0 {
                    if target > se {
                        return Err(Error::CorruptData("refine run past band end".into()));
                    }
                    block[ZIGZAG[target]] = newval as i16;
                }
                k = target + 1;
            }
        }
        if eobrun > 0 {
            // Append correction bits to every remaining nonzero
            // coefficient of the block.
            if k <= se {
                apply_corrections(r, block, nz & low_mask(se + 1) & !low_mask(k), p1, m1)?;
            }
            eobrun -= 1;
        }
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
        decode_scan(frame, into, scan, &tables, &mut reader).unwrap();
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
