//! Retained reference implementations of the decode hot-path primitives
//! (compiled only for tests): the per-byte bit reader (and, for the write
//! path, the per-byte bit writer the two-pass encoder in
//! [`crate::reference_encoder`] emits through), the canonical
//! mincode/maxcode Huffman decoder, and the O(8³) basis-matrix DCT that
//! the AAN butterfly replaced. The bit-exactness suite decodes every
//! stream through both stacks and asserts *byte-identical* pixels — the
//! guarantee that the fast path is an optimization, not a behaviour
//! change.
//!
//! These are the pre-optimization algorithms for the three *replaced*
//! layers, with one deliberate alignment: the DCT oracle computes in
//! `f64` (the old code truncated its basis to `f32`) and pixels round
//! through the shared [`crate::dct::descale`] contract, because
//! cross-implementation byte identity is only well-defined when both
//! sides target the same arithmetic contract. Stages this PR changed
//! *for both stacks* — the fixed-point YCbCr conversion, the
//! `planes_to_image` upsampling, and the snap-rounding contract itself —
//! are intentionally shared rather than duplicated: the suite proves the
//! fast entropy/DCT primitives are exact substitutes, not that decoded
//! pixels match the pre-PR release bit for bit (rare ±1 rounding shifts
//! vs. the old f32 color math are expected and covered by the
//! tolerance-based quality tests).

use crate::bitio::BitSource;
use crate::consts::*;
use crate::decoder::DecodedCoeffs;
use crate::dentropy::{decode_scan_range, mcu_units, DecodeTables};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{HuffTable, SymbolDecoder};
use crate::image::ImageBuf;
use crate::marker::{self, Segment, SegmentReader};
use crate::sample::{reconstruct_planes_with, planes_to_image, BlockIdct};

/// The original byte-at-a-time bit reader: pulls one byte per `fill`,
/// resolving 0xFF stuffing as it goes. Semantically identical to the
/// batched [`crate::bitio::BitReader`]; kept as the oracle the reader
/// equivalence tests run against.
#[derive(Debug)]
pub(crate) struct ReferenceBitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
    marker_hit: Option<u8>,
}

impl<'a> ReferenceBitReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, acc: 0, nbits: 0, marker_hit: None }
    }

    pub(crate) fn marker(&self) -> Option<u8> {
        self.marker_hit
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.marker_hit.is_some()
    }

    fn fill(&mut self) {
        if self.marker_hit.is_some() {
            self.acc <<= 8;
            self.nbits += 8;
            return;
        }
        if self.pos >= self.data.len() {
            self.marker_hit = Some(0x00);
            self.acc <<= 8;
            self.nbits += 8;
            return;
        }
        let b = self.data[self.pos];
        self.pos += 1;
        if b == 0xFF {
            match self.data.get(self.pos) {
                Some(0x00) => {
                    self.pos += 1; // stuffed 0xFF
                    self.acc = (self.acc << 8) | 0xFF;
                }
                Some(&m) => {
                    self.marker_hit = Some(m);
                    self.pos -= 1; // leave reader at the 0xFF
                    self.acc <<= 8;
                }
                None => {
                    self.marker_hit = Some(0x00);
                    self.acc <<= 8;
                }
            }
        } else {
            self.acc = (self.acc << 8) | u32::from(b);
        }
        self.nbits += 8;
    }
}

impl BitSource for ReferenceBitReader<'_> {
    fn get_bits(&mut self, n: u32) -> Result<u32> {
        if n == 0 {
            return Ok(0);
        }
        debug_assert!(n <= 16);
        while self.nbits < n {
            self.fill();
        }
        self.nbits -= n;
        Ok((self.acc >> self.nbits) & ((1u32 << n) - 1))
    }

    fn peek_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 16);
        while self.nbits < n {
            self.fill();
        }
        Ok((self.acc >> (self.nbits - n)) & ((1u32 << n) - 1))
    }

    fn consume(&mut self, n: u32) -> Result<()> {
        if self.nbits < n {
            return Err(Error::CorruptData("consume past fill".into()));
        }
        self.nbits -= n;
        Ok(())
    }
}

/// The original byte-at-a-time bit writer: a 32-bit accumulator that
/// pushes one byte (and its stuffing) per loop turn. Semantically
/// identical to the batched [`crate::bitio::BitWriter`]; kept as the
/// oracle the writer equivalence tests and the reference encoder run
/// against.
#[derive(Debug, Default)]
pub(crate) struct ReferenceBitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl ReferenceBitWriter {
    /// Appends the low `n` bits of `value` (MSB first), `n <= 24`.
    pub(crate) fn put_bits(&mut self, value: u32, n: u32) {
        if n == 0 {
            return;
        }
        assert!(n <= 24);
        let mask = (1u32 << n) - 1;
        self.acc = (self.acc << n) | (value & mask);
        self.nbits += n;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xFF) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00);
            }
            self.nbits -= 8;
        }
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put_bits((1u32 << pad) - 1, pad);
        }
        self.out
    }

    pub(crate) fn restart(&mut self, n: u8) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put_bits((1u32 << pad) - 1, pad);
        }
        self.out.push(0xFF);
        self.out.push(0xD0 | (n & 7));
    }

    pub(crate) fn len(&self) -> usize {
        self.out.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.out.is_empty() && self.nbits == 0
    }
}

/// The canonical Huffman decoder (T.81 F.2.2.3): walks code lengths with
/// mincode/maxcode/valptr, one bit at a time past an initial probe — the
/// algorithm the two-level LUT replaced.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceHuffDecoder {
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [usize; 17],
    vals: Vec<u8>,
}

impl ReferenceHuffDecoder {
    pub(crate) fn from_table(t: &HuffTable) -> Result<Self> {
        let mut mincode = [0i32; 17];
        let mut maxcode = [-1i32; 17];
        let mut valptr = [0usize; 17];
        let mut code = 0i32;
        let mut k = 0usize;
        for l in 1..=16usize {
            if t.bits[l - 1] > 0 {
                valptr[l] = k;
                mincode[l] = code;
                code += i32::from(t.bits[l - 1]);
                k += t.bits[l - 1] as usize;
                maxcode[l] = code - 1;
            } else {
                maxcode[l] = -1;
            }
            code <<= 1;
        }
        Ok(Self { mincode, maxcode, valptr, vals: t.vals.clone() })
    }
}

impl SymbolDecoder for ReferenceHuffDecoder {
    fn decode_symbol<R: BitSource>(&self, r: &mut R) -> Result<u8> {
        let mut code = r.get_bit()? as i32;
        let mut l = 1usize;
        loop {
            if self.maxcode[l] >= 0 && code <= self.maxcode[l] {
                let off = (code - self.mincode[l]) as usize;
                return Ok(self.vals[self.valptr[l] + off]);
            }
            if l >= 16 {
                return Err(Error::CorruptData("invalid Huffman code".into()));
            }
            code = (code << 1) | r.get_bit()? as i32;
            l += 1;
        }
    }
}

/// `BASIS[u][x] = c(u) * cos((2x+1) u pi / 16) / 2`, the orthonormal 1-D
/// DCT-II basis — the old implementation's matrix, at f64 precision.
fn basis() -> &'static [[f64; 8]; 8] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0f64; 8]; 8];
        for (u, row) in b.iter_mut().enumerate() {
            let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
            for (x, v) in row.iter_mut().enumerate() {
                *v = 0.5
                    * cu
                    * ((2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0).cos();
            }
        }
        b
    })
}

/// Forward 8x8 DCT by basis-matrix multiplication (the retained oracle).
pub(crate) fn reference_forward_dct(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = basis();
    let mut tmp = [0f64; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut s = 0f64;
            for x in 0..8 {
                s += input[y * 8 + x] * b[u][x];
            }
            tmp[y * 8 + u] = s;
        }
    }
    for v in 0..8 {
        for u in 0..8 {
            let mut s = 0f64;
            for y in 0..8 {
                s += tmp[y * 8 + u] * b[v][y];
            }
            output[v * 8 + u] = s;
        }
    }
}

/// Inverse 8x8 DCT by basis-matrix multiplication (the retained oracle).
pub(crate) fn reference_inverse_dct(input: &[f64; 64], output: &mut [f64; 64]) {
    let b = basis();
    let mut tmp = [0f64; 64];
    for u in 0..8 {
        for y in 0..8 {
            let mut s = 0f64;
            for v in 0..8 {
                s += input[v * 8 + u] * b[v][y];
            }
            tmp[y * 8 + u] = s;
        }
    }
    for y in 0..8 {
        for x in 0..8 {
            let mut s = 0f64;
            for u in 0..8 {
                s += tmp[y * 8 + u] * b[u][x];
            }
            output[y * 8 + x] = s;
        }
    }
}

/// Basis-matrix pixel kernel: un-zigzag, plain f64 dequantization, then
/// the oracle IDCT, rounded to pixels through the same `descale` contract
/// as the fast kernel.
#[derive(Debug)]
struct ReferenceBlockIdct {
    q: [u16; 64],
}

impl Default for ReferenceBlockIdct {
    fn default() -> Self {
        Self { q: [0; 64] }
    }
}

impl BlockIdct for ReferenceBlockIdct {
    fn begin_table(&mut self, q: &[u16; 64]) {
        self.q = *q;
    }
    fn transform(&mut self, coeffs: &[i16; 64], out: &mut [u8; 64]) {
        let mut freq = [0f64; 64];
        for (k, &c) in coeffs.iter().enumerate() {
            freq[ZIGZAG[k]] = f64::from(c) * f64::from(self.q[ZIGZAG[k]]);
        }
        let mut spatial = [0f64; 64];
        reference_inverse_dct(&freq, &mut spatial);
        for i in 0..64 {
            out[i] = (crate::dct::descale(spatial[i]) + 128).clamp(0, 255) as u8;
        }
    }
}

/// Naive byte-at-a-time restart-segment splitter: walks the entropy
/// bytes one by one, treating `FF 00` as stuffing and `FF D0..=D7` as a
/// segment boundary, stopping at any other marker. The oracle the
/// word-at-a-time [`crate::bitio::split_restart_segments`] is tested
/// against.
pub(crate) fn reference_split_segments(data: &[u8]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        if data[i] != 0xFF {
            i += 1;
            continue;
        }
        match data.get(i + 1) {
            Some(0x00) => i += 2, // stuffed 0xFF is entropy data
            Some(&m) if (RST0..=RST0 + 7).contains(&m) => {
                ranges.push((start, i));
                i += 2;
                start = i;
            }
            Some(_) => {
                // A real (non-restart) marker terminates the entropy data.
                ranges.push((start, i));
                return ranges;
            }
            None => break, // lone trailing 0xFF belongs to the last segment
        }
    }
    ranges.push((start, data.len()));
    ranges
}

/// Decodes a stream to coefficients through the reference entropy stack:
/// per-byte reader + canonical Huffman decoder, driving the *shared* scan
/// logic in `dentropy`. Mirrors `decoder::decode_coeffs` segment by
/// segment, including per-restart-segment state resets.
pub(crate) fn reference_decode_coeffs(data: &[u8]) -> Result<DecodedCoeffs> {
    let mut reader = SegmentReader::new(data);
    match reader.next_segment()? {
        Segment::Soi => {}
        _ => return Err(Error::NotJpeg),
    }
    let mut qtables: [Option<[u16; 64]>; 4] = [None, None, None, None];
    let mut dc_tables: [Option<ReferenceHuffDecoder>; 4] = [None, None, None, None];
    let mut ac_tables: [Option<ReferenceHuffDecoder>; 4] = [None, None, None, None];
    let mut frame: Option<FrameInfo> = None;
    let mut coeffs: Option<CoeffPlanes> = None;
    let mut scans: Vec<ScanInfo> = Vec::new();
    let mut saw_eoi = false;
    let mut restart_interval: u16 = 0;

    loop {
        let seg = match reader.next_segment() {
            Ok(seg) => seg,
            Err(Error::UnexpectedEof) if frame.is_some() => break,
            Err(e) => return Err(e),
        };
        match seg {
            Segment::Soi => return Err(Error::CorruptData("nested SOI".into())),
            Segment::Eoi => {
                saw_eoi = true;
                break;
            }
            Segment::Marker { marker: m, payload } => match m {
                DQT => {
                    for (id, table) in marker::parse_dqt(payload)? {
                        qtables[id as usize] = Some(table);
                    }
                }
                DHT => {
                    for (class, id, table) in marker::parse_dht(payload)? {
                        let dec = ReferenceHuffDecoder::from_table(&table)?;
                        if class == 0 {
                            dc_tables[id as usize] = Some(dec);
                        } else {
                            ac_tables[id as usize] = Some(dec);
                        }
                    }
                }
                SOF0 | SOF1 | SOF2 => {
                    if frame.is_some() {
                        return Err(Error::CorruptData("multiple SOF".into()));
                    }
                    let f = marker::parse_sof(payload, m == SOF2)?;
                    coeffs = Some(CoeffPlanes::new(&f));
                    frame = Some(f);
                }
                DRI => {
                    if payload.len() != 2 {
                        return Err(Error::BadSegmentLength { marker: DRI });
                    }
                    restart_interval = u16::from_be_bytes([payload[0], payload[1]]);
                }
                _ => {}
            },
            Segment::Sos { payload, entropy_start } => {
                let f = frame
                    .as_ref()
                    .ok_or_else(|| Error::BadScan("SOS before SOF".into()))?;
                let scan = marker::parse_sos(payload, f)?;
                let (_, entropy_end) = reader.skip_entropy();
                let entropy = &data[entropy_start..entropy_end];
                let tables = DecodeTables { dc: &dc_tables, ac: &ac_tables };
                let planes = coeffs.as_mut().expect("coeffs with frame");
                let total = mcu_units(f, &scan);
                let interval = u32::from(restart_interval);
                if interval == 0 || interval >= total {
                    let mut bits = ReferenceBitReader::new(entropy);
                    decode_scan_range(f, planes, &scan, &tables, &mut bits, 0..total)?;
                } else {
                    let ranges = reference_split_segments(entropy);
                    let expected = total.div_ceil(interval) as usize;
                    let nseg = ranges.len().min(expected);
                    for (seg, &(s, e)) in ranges[..nseg].iter().enumerate() {
                        let start = seg as u32 * interval;
                        let units = start..(start + interval).min(total);
                        let mut bits = ReferenceBitReader::new(&entropy[s..e]);
                        decode_scan_range(f, planes, &scan, &tables, &mut bits, units)?;
                    }
                }
                scans.push(scan);
            }
        }
    }

    let frame = frame.ok_or(Error::UnsupportedFrame("no SOF in stream".into()))?;
    let coeffs = coeffs.expect("coeffs allocated with frame");
    Ok(DecodedCoeffs { frame, coeffs, qtables, scans, saw_eoi })
}

/// Full reference decode: reference entropy stack + basis-matrix IDCT.
/// The bit-exactness suite asserts `decoder::decode` equals this byte for
/// byte on every stream and truncation level it generates.
pub(crate) fn reference_decode(data: &[u8]) -> Result<ImageBuf> {
    let d = reference_decode_coeffs(data)?;
    let planes = reconstruct_planes_with(
        &d.coeffs,
        &d.frame,
        &d.qtables,
        &mut Vec::new(),
        &mut ReferenceBlockIdct::default(),
    )?;
    planes_to_image(&planes, &d.frame)
}
