//! The retained two-pass entropy *encoder* (compiled only for tests): the
//! scan walk written against `&mut dyn EntropySink` and run twice per
//! scan — once into a statistics sink, once into a writing sink — with
//! libjpeg's sweep-per-merge optimal-table construction and the
//! byte-at-a-time bit writer. This is the code the token-replay encoder
//! in [`crate::entropy`] replaced; the exactness suite encodes random
//! scans through both and asserts identical tables and identical bytes.
//!
//! It is also the only code that still writes JPEG restart markers: the
//! production encoder never emits them, but the decoder must read them
//! (camera JPEGs carry DRI/RST), so [`reference_encode_restart`] builds
//! the restart streams the decode tests feed it.

use crate::bitio::bit_size;
use crate::consts::{EOI, SOI};
use crate::dentropy::mcu_units;
use crate::encoder::{default_progressive_script, qtables_for, sequential_scan, EncodeConfig};
use crate::entropy::ScanTables;
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{HuffEncoder, HuffTable};
use crate::image::ImageBuf;
use crate::marker;
use crate::reference::ReferenceBitWriter;
use crate::sample::{image_to_planes, planes_to_coeffs};
use std::ops::Range;

/// Encodes one scan the two-pass way: optimal tables (DC ids 0..4, then
/// AC ids 0..4) from a statistics walk, then the entropy-coded bytes from
/// a second walk.
pub(crate) fn reference_encode_scan(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    interval: u32,
) -> Result<(ScanTables, Vec<u8>)> {
    let mut stats = StatsSink::default();
    encode_scan_restart(frame, coeffs, scan, &mut stats, interval)?;
    let mut tables = ScanTables::default();
    for (slot, counts) in stats.dc_counts.iter().chain(&stats.ac_counts).enumerate() {
        if counts.iter().any(|&c| c > 0) {
            tables[slot] = Some(reference_gen_optimal_table(counts)?);
        }
    }
    let bytes = write_scan(frame, coeffs, scan, &tables, interval)?;
    Ok((tables, bytes))
}

/// The byte walk alone: one scan's entropy-coded bytes under `tables`.
fn write_scan(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    tables: &ScanTables,
    interval: u32,
) -> Result<Vec<u8>> {
    let encoder = |t: &Option<HuffTable>| t.as_ref().map(|t| HuffEncoder::from_table(t).unwrap());
    let mut writer = ReferenceBitWriter::default();
    let mut sink = WriteSink {
        writer: &mut writer,
        dc: core::array::from_fn(|id| encoder(&tables[id])),
        ac: core::array::from_fn(|id| encoder(&tables[4 + id])),
    };
    encode_scan_restart(frame, coeffs, scan, &mut sink, interval)?;
    Ok(writer.finish())
}

/// Receives Huffman symbols and raw bits during scan encoding.
trait EntropySink {
    /// A DC-class symbol coded with DC table `table`.
    fn dc_symbol(&mut self, table: u8, sym: u8);
    /// An AC-class symbol coded with AC table `table`.
    fn ac_symbol(&mut self, table: u8, sym: u8);
    /// `n` raw bits (magnitude/sign/correction bits).
    fn bits(&mut self, value: u32, n: u32);
    /// A restart boundary: `RSTn` where `n` cycles 0..8. Statistic sinks
    /// ignore this (the marker codes no symbols); byte sinks must pad to
    /// a byte boundary and emit the marker.
    fn restart(&mut self, n: u8) {
        let _ = n;
    }
}

/// Counts symbol frequencies per table; used to build optimal tables.
#[derive(Debug)]
struct StatsSink {
    dc_counts: [[u32; 256]; 4],
    ac_counts: [[u32; 256]; 4],
}

impl Default for StatsSink {
    fn default() -> Self {
        Self { dc_counts: [[0; 256]; 4], ac_counts: [[0; 256]; 4] }
    }
}

impl EntropySink for StatsSink {
    fn dc_symbol(&mut self, table: u8, sym: u8) {
        self.dc_counts[table as usize][sym as usize] += 1;
    }
    fn ac_symbol(&mut self, table: u8, sym: u8) {
        self.ac_counts[table as usize][sym as usize] += 1;
    }
    fn bits(&mut self, _value: u32, _n: u32) {}
}

/// Writes symbols/bits through Huffman encoders into the reference
/// byte-at-a-time writer.
struct WriteSink<'a> {
    writer: &'a mut ReferenceBitWriter,
    dc: [Option<HuffEncoder>; 4],
    ac: [Option<HuffEncoder>; 4],
}

impl WriteSink<'_> {
    fn encode(writer: &mut ReferenceBitWriter, table: &Option<HuffEncoder>, sym: u8) {
        let table = table.as_ref().expect("table present");
        assert!(table.code_len(sym) > 0, "symbol {sym:#04x} has no code");
        writer.put_bits(u32::from(table.code(sym)), u32::from(table.code_len(sym)));
    }
}

impl EntropySink for WriteSink<'_> {
    fn dc_symbol(&mut self, table: u8, sym: u8) {
        Self::encode(self.writer, &self.dc[table as usize], sym);
    }
    fn ac_symbol(&mut self, table: u8, sym: u8) {
        Self::encode(self.writer, &self.ac[table as usize], sym);
    }
    fn bits(&mut self, value: u32, n: u32) {
        self.writer.put_bits(value, n);
    }
    fn restart(&mut self, n: u8) {
        self.writer.restart(n);
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

/// Encodes one scan's entropy data into `sink`, emitting an `RSTn`
/// boundary every `interval` MCU units (0 disables restarts).
///
/// Per T.81 each restart fully resets the entropy state: DC predictors,
/// the end-of-band run, and buffered correction bits are flushed at the
/// boundary and start fresh in the next segment. Both the statistics and
/// byte sinks see the same segmented traversal, so optimized Huffman
/// tables account for the extra flush symbols restarts introduce.
fn encode_scan_restart(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    interval: u32,
) -> Result<()> {
    scan.validate(frame)?;
    let total = mcu_units(frame, scan);
    if interval == 0 || interval >= total {
        return encode_scan_units(frame, coeffs, scan, sink, 0..total);
    }
    let nseg = total.div_ceil(interval);
    for seg in 0..nseg {
        let start = seg * interval;
        let end = (start + interval).min(total);
        encode_scan_units(frame, coeffs, scan, sink, start..end)?;
        if seg + 1 < nseg {
            sink.restart((seg % 8) as u8);
        }
    }
    Ok(())
}

/// Encodes one restart segment (a contiguous MCU-unit range) with fresh
/// entropy state.
fn encode_scan_units(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    if !frame.progressive {
        return encode_sequential(frame, coeffs, scan, sink, units);
    }
    if scan.is_dc() {
        if scan.is_refinement() {
            encode_dc_refine(frame, coeffs, scan, sink, units)
        } else {
            encode_dc_first(frame, coeffs, scan, sink, units)
        }
    } else if scan.is_refinement() {
        encode_ac_refine(frame, coeffs, scan, sink, units)
    } else {
        encode_ac_first(frame, coeffs, scan, sink, units)
    }
}

/// Iterates the blocks of MCU units `units` — interleaved scans in MCU
/// order, single-component scans in row-major block order — calling
/// `f(comp_slot, row, col)` where `comp_slot` indexes `scan.components`.
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

fn encode_sequential(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    let mut preds = vec![0i32; scan.components.len()];
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        let block = coeffs.block(frame, sc.comp_index, row, col);
        // DC
        let dc = i32::from(block[0]);
        let diff = dc - preds[slot];
        preds[slot] = dc;
        let (pat, n) = magnitude(diff);
        sink.dc_symbol(sc.dc_table, n as u8);
        sink.bits(pat, n);
        // AC
        let mut r = 0u32;
        for &v in &block[1..] {
            let v = i32::from(v);
            if v == 0 {
                r += 1;
                continue;
            }
            while r > 15 {
                sink.ac_symbol(sc.ac_table, 0xF0);
                r -= 16;
            }
            let (pat, n) = magnitude(v);
            if n > 10 {
                return Err(Error::BadInput("AC coefficient out of range".into()));
            }
            sink.ac_symbol(sc.ac_table, ((r as u8) << 4) | n as u8);
            sink.bits(pat, n);
            r = 0;
        }
        if r > 0 {
            sink.ac_symbol(sc.ac_table, 0x00); // EOB
        }
        Ok(())
    })
}

fn encode_dc_first(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    let al = u32::from(scan.al);
    let mut preds = vec![0i32; scan.components.len()];
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        let dc = i32::from(coeffs.block(frame, sc.comp_index, row, col)[0]) >> al;
        let diff = dc - preds[slot];
        preds[slot] = dc;
        let (pat, n) = magnitude(diff);
        sink.dc_symbol(sc.dc_table, n as u8);
        sink.bits(pat, n);
        Ok(())
    })
}

fn encode_dc_refine(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    let al = u32::from(scan.al);
    for_each_block(frame, scan, units, |slot, row, col| {
        let sc = scan.components[slot];
        let dc = i32::from(coeffs.block(frame, sc.comp_index, row, col)[0]);
        sink.bits(((dc >> al) & 1) as u32, 1);
        Ok(())
    })
}

/// Per-scan AC encoding state: the lazily flushed end-of-band run plus (for
/// refinement scans) buffered correction bits.
struct AcState {
    eobrun: u32,
    pending: Vec<u8>,
    table: u8,
}

impl AcState {
    fn flush_eobrun(&mut self, sink: &mut dyn EntropySink) {
        if self.eobrun > 0 {
            let nbits = 31 - self.eobrun.leading_zeros();
            sink.ac_symbol(self.table, (nbits << 4) as u8);
            if nbits > 0 {
                sink.bits(self.eobrun & ((1 << nbits) - 1), nbits);
            }
            self.eobrun = 0;
        }
        self.flush_pending(sink);
    }

    fn flush_pending(&mut self, sink: &mut dyn EntropySink) {
        for &b in &self.pending {
            sink.bits(u32::from(b), 1);
        }
        self.pending.clear();
    }
}

fn encode_ac_first(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    let sc = scan.components[0];
    let al = u32::from(scan.al);
    let mut st = AcState { eobrun: 0, pending: Vec::new(), table: sc.ac_table };
    for_each_block(frame, scan, units, |_slot, row, col| {
        let block = coeffs.block(frame, sc.comp_index, row, col);
        let mut r = 0u32;
        for &raw in &block[scan.ss as usize..=scan.se as usize] {
            let raw = i32::from(raw);
            if raw == 0 {
                r += 1;
                continue;
            }
            let neg = raw < 0;
            let t = raw.unsigned_abs() >> al;
            if t == 0 {
                r += 1;
                continue;
            }
            st.flush_eobrun(sink);
            while r > 15 {
                sink.ac_symbol(sc.ac_table, 0xF0);
                r -= 16;
            }
            let nbits = 32 - t.leading_zeros();
            if nbits > 10 {
                return Err(Error::BadInput("AC coefficient out of range".into()));
            }
            sink.ac_symbol(sc.ac_table, ((r as u8) << 4) | nbits as u8);
            let pattern = if neg { !t } else { t } & ((1 << nbits) - 1);
            sink.bits(pattern, nbits);
            r = 0;
        }
        if r > 0 {
            st.eobrun += 1;
            if st.eobrun == 0x7FFF {
                st.flush_eobrun(sink);
            }
        }
        Ok(())
    })?;
    st.flush_eobrun(sink);
    Ok(())
}

fn encode_ac_refine(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    sink: &mut dyn EntropySink,
    units: Range<u32>,
) -> Result<()> {
    let sc = scan.components[0];
    let al = u32::from(scan.al);
    let mut st = AcState { eobrun: 0, pending: Vec::new(), table: sc.ac_table };
    for_each_block(frame, scan, units, |_slot, row, col| {
        let block = coeffs.block(frame, sc.comp_index, row, col);
        // Pass 1: point-transformed absolute values and the EOB position
        // (index of the last coefficient that becomes newly nonzero).
        let mut absval = [0u32; 64];
        let mut eob = scan.ss as usize; // any value < first 1 is fine
        let mut has_new = false;
        for k in scan.ss as usize..=scan.se as usize {
            let raw = i32::from(block[k]);
            let t = raw.unsigned_abs() >> al;
            absval[k] = t;
            if t == 1 {
                eob = k;
                has_new = true;
            }
        }
        if !has_new {
            eob = 0; // ensures `k <= eob` is false in the ZRL fold check
        }
        let mut r = 0u32;
        let mut br: Vec<u8> = Vec::new();
        for k in scan.ss as usize..=scan.se as usize {
            let t = absval[k];
            if t == 0 {
                r += 1;
                continue;
            }
            // Emit required ZRLs unless they fold into the trailing EOB.
            while r > 15 && k <= eob {
                st.flush_eobrun(sink);
                sink.ac_symbol(sc.ac_table, 0xF0);
                r -= 16;
                for &b in &br {
                    sink.bits(u32::from(b), 1);
                }
                br.clear();
            }
            if t > 1 {
                // Previously nonzero: just a correction bit.
                br.push((t & 1) as u8);
                continue;
            }
            // Newly nonzero coefficient.
            st.flush_eobrun(sink);
            sink.ac_symbol(sc.ac_table, ((r as u8) << 4) | 1);
            let sign = if i32::from(block[k]) < 0 { 0 } else { 1 };
            sink.bits(sign, 1);
            for &b in &br {
                sink.bits(u32::from(b), 1);
            }
            br.clear();
            r = 0;
        }
        if r > 0 || !br.is_empty() {
            st.eobrun += 1;
            st.pending.append(&mut br);
            // Flush well before the correction-bit buffer could grow
            // unboundedly (libjpeg's MAX_CORR_BITS discipline).
            if st.eobrun == 0x7FFF || st.pending.len() > 930 {
                st.flush_eobrun(sink);
            }
        }
        Ok(())
    })?;
    st.flush_eobrun(sink);
    Ok(())
}

/// `gen_optimal_table` as libjpeg writes it: two sweeps over all 257
/// frequency slots per merge. The heap version must return the same
/// `(bits, vals)` for every frequency vector.
pub(crate) fn reference_gen_optimal_table(freq_in: &[u32]) -> Result<HuffTable> {
    const MAX_CLEN: usize = 32;
    let nsyms = freq_in.len().min(256);
    // One extra pseudo-symbol (257th) with freq 1 guarantees no real symbol
    // gets the all-ones code and that at least two symbols exist.
    let mut freq = vec![0i64; nsyms + 1];
    for (f, &v) in freq.iter_mut().zip(freq_in.iter()) {
        *f = i64::from(v);
    }
    freq[nsyms] = 1;

    let mut codesize = vec![0usize; nsyms + 1];
    let mut others = vec![-1i64; nsyms + 1];

    loop {
        // Find the two smallest nonzero frequencies (c1 lowest, prefer
        // higher symbol index on ties like libjpeg).
        let mut c1: i64 = -1;
        let mut v = i64::MAX;
        for (i, &f) in freq.iter().enumerate() {
            if f != 0 && f <= v {
                v = f;
                c1 = i as i64;
            }
        }
        let mut c2: i64 = -1;
        v = i64::MAX;
        for (i, &f) in freq.iter().enumerate() {
            if f != 0 && f <= v && i as i64 != c1 {
                v = f;
                c2 = i as i64;
            }
        }
        if c2 < 0 {
            break; // only one tree left
        }
        let (c1u, c2u) = (c1 as usize, c2 as usize);
        freq[c1u] += freq[c2u];
        freq[c2u] = 0;
        // Increment codesize of everything in c1's tree.
        let mut n = c1u;
        loop {
            codesize[n] += 1;
            if codesize[n] > MAX_CLEN {
                return Err(Error::BadHuffman("code length explosion".into()));
            }
            match others[n] {
                -1 => break,
                next => n = next as usize,
            }
        }
        others[n] = c2;
        let mut n = c2u;
        loop {
            codesize[n] += 1;
            if codesize[n] > MAX_CLEN {
                return Err(Error::BadHuffman("code length explosion".into()));
            }
            match others[n] {
                -1 => break,
                next => n = next as usize,
            }
        }
    }

    // Count codes per length.
    let mut bits = [0i32; MAX_CLEN + 1];
    for (i, &cs) in codesize.iter().enumerate() {
        if cs > 0 {
            let _ = i;
            bits[cs] += 1;
        }
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
    // pseudo-symbol (index nsyms).
    let mut vals = Vec::new();
    for l in 1..=MAX_CLEN {
        for (sym, &cs) in codesize.iter().enumerate().take(nsyms) {
            if cs == l {
                vals.push(sym as u8);
            }
        }
    }
    HuffTable::new(out_bits, vals)
}

/// A complete JPEG stream carrying restart markers, assembled from the
/// retained two-pass scan encoder: SOI/JFIF/DQT/SOF, then per scan its
/// DHTs, a DRI whenever the scan's interval differs from the one in
/// force, SOS and the scan's entropy bytes. Each scan's interval is
/// `interval` rounded up to whole MCU rows. Progressive frames and
/// `config.optimize_huffman` get optimal tables per scan; other baseline
/// frames get the Annex K tables once, ahead of the first scan — the
/// camera-JPEG shape. Before the production encoder lost its restart
/// option this function's output was checked byte-identical to it in
/// both table modes, so these are the streams that encoder wrote.
pub(crate) fn reference_encode_restart(
    img: &ImageBuf,
    config: &EncodeConfig,
    interval: u16,
) -> Result<Vec<u8>> {
    let frame = FrameInfo::for_encode(
        img.width(),
        img.height(),
        img.channels(),
        config.subsampling,
        config.progressive,
    )?;
    let qtables = qtables_for(config, frame.components.len());
    let coeffs = planes_to_coeffs(&image_to_planes(img, &frame)?, &frame, &qtables)?;
    let mut out = vec![0xFF, SOI];
    marker::write_jfif(&mut out);
    for (id, q) in qtables.iter().enumerate() {
        if let Some(q) = q.filter(|_| frame.components.iter().any(|c| usize::from(c.tq) == id)) {
            marker::write_dqt(&mut out, id as u8, &q);
        }
    }
    marker::write_sof(&mut out, &frame);
    let scans = if frame.progressive {
        default_progressive_script(frame.components.len())
    } else {
        vec![sequential_scan(&frame)]
    };
    let optimize = config.optimize_huffman || frame.progressive;
    let mut standard = ScanTables::default();
    if !optimize {
        let luma = (HuffTable::std_dc_luma(), HuffTable::std_ac_luma());
        let chroma = (HuffTable::std_dc_chroma(), HuffTable::std_ac_chroma());
        let used = frame.components.len().min(2);
        for (id, (dc, ac)) in [luma, chroma].into_iter().take(used).enumerate() {
            marker::write_dht(&mut out, 0, id as u8, &dc);
            marker::write_dht(&mut out, 1, id as u8, &ac);
            (standard[id], standard[4 + id]) = (Some(dc), Some(ac));
        }
    }
    let mut in_force = 0u16;
    for scan in &scans {
        let row = match scan.components[..] {
            [sc] => frame.components[sc.comp_index].blocks_w,
            _ => frame.mcus_x,
        };
        let rounded = u32::from(interval).div_ceil(row) * row;
        let scan_interval = rounded.min(u32::from(u16::MAX) / row * row) as u16;
        let entropy = if optimize {
            let (tables, entropy) =
                reference_encode_scan(&frame, &coeffs, scan, u32::from(scan_interval))?;
            for (slot, table) in tables.iter().enumerate() {
                if let Some(table) = table {
                    marker::write_dht(&mut out, (slot / 4) as u8, (slot % 4) as u8, table);
                }
            }
            entropy
        } else {
            write_scan(&frame, &coeffs, scan, &standard, u32::from(scan_interval))?
        };
        if scan_interval != in_force {
            marker::write_dri(&mut out, scan_interval);
            in_force = scan_interval;
        }
        marker::write_sos(&mut out, &frame, scan);
        out.extend_from_slice(&entropy);
    }
    out.extend_from_slice(&[0xFF, EOI]);
    Ok(out)
}
