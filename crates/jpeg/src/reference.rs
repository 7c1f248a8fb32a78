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
//! These are the pre-optimization algorithms for the *replaced* layers,
//! with one deliberate alignment: the DCT oracle computes in `f64` (the
//! old code truncated its basis to `f32`) and pixels round through the
//! shared [`crate::dct::descale`] contract, because cross-implementation
//! byte identity is only well-defined when both sides target the same
//! arithmetic contract. Colour has its own oracle too:
//! [`reference_planes_to_image`] maps every output pixel to its
//! component samples with the nearest-neighbour divisions `x·h/hmax` and
//! `y·v/vmax` and converts it with the 16.16 fixed-point multiplies
//! ([`reference_ycbcr_to_rgb`], no tables), so the production merged
//! upsample + colour pass is checked against the formula, not against
//! itself. What stays shared is the snap-rounding contract and the scan
//! logic of `dentropy` for every scan kind but AC refinement.

use crate::bitio::BitSource;
use crate::consts::*;
use crate::decoder::DecodedCoeffs;
use crate::dentropy::{decode_scan_range, mcu_units, DecodeTables};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::{HuffTable, SymbolDecoder};
use crate::image::ImageBuf;
use crate::marker::{self, Segment, SegmentReader};
use crate::sample::{reconstruct_planes_with, BlockIdct, SamplePlane};
use std::ops::Range;

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

/// The literal T.81 G.1.2.3 AC-refinement decoder, in the shape of
/// libjpeg's `decode_mcu_AC_refine`: a per-position walk that reads one
/// bit per correction, with no bitmap, table or batching — the
/// independent oracle for `dentropy`'s refinement walk. It differs from
/// libjpeg only where this crate's decoder is stricter, and in the same
/// way: a coefficient size other than 1 and a coefficient run past the
/// band end are errors (libjpeg warns and carries on).
pub(crate) fn reference_decode_ac_refine<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    scan.validate(frame)?;
    let sc = scan.components[0];
    let actbl = tables
        .ac
        .get(sc.ac_table as usize)
        .and_then(Option::as_ref)
        .ok_or_else(|| Error::BadHuffman(format!("missing AC table {}", sc.ac_table)))?;
    let p1 = 1i32 << scan.al;
    let m1 = -(1i32 << scan.al);
    let (ss, se) = (scan.ss as usize, scan.se as usize);
    let blocks_w = frame.components[sc.comp_index].blocks_w;
    // Appends a correction bit to an already-nonzero coefficient.
    let correct = |r: &mut R, coef: &mut i16| -> Result<()> {
        if r.get_bit()? != 0 && i32::from(*coef) & p1 == 0 {
            *coef = (i32::from(*coef) + if *coef >= 0 { p1 } else { m1 }) as i16;
        }
        Ok(())
    };
    let mut eobrun = 0u32;
    for unit in units {
        let block = coeffs.block_mut(frame, sc.comp_index, unit / blocks_w, unit % blocks_w);
        let mut k = ss;
        if eobrun == 0 {
            while k <= se {
                let rs = actbl.decode_symbol(r)?;
                let mut run = i32::from(rs >> 4);
                let mut s = 0i32;
                if rs & 0x0F != 0 {
                    if rs & 0x0F != 1 {
                        return Err(Error::CorruptData(
                            "refinement coefficient size must be 1".into(),
                        ));
                    }
                    s = if r.get_bit()? != 0 { p1 } else { m1 };
                } else if run != 15 {
                    eobrun = (1 << run) + r.get_bits(run as u32)?;
                    break;
                }
                // Advance over already-nonzero coefficients (one
                // correction bit each) and `run` still-zero ones.
                while k <= se {
                    if block[k] != 0 {
                        correct(r, &mut block[k])?;
                    } else {
                        run -= 1;
                        if run < 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                if s != 0 {
                    if k > se {
                        return Err(Error::CorruptData("refine run past band end".into()));
                    }
                    block[k] = s as i16;
                }
                k += 1;
            }
        }
        if eobrun > 0 {
            while k <= se {
                if block[k] != 0 {
                    correct(r, &mut block[k])?;
                }
                k += 1;
            }
            eobrun -= 1;
        }
    }
    Ok(())
}

/// One scan through the reference stack: AC-refinement scans take the
/// literal [`reference_decode_ac_refine`], every other kind the shared
/// scan logic in `dentropy`.
fn reference_decode_scan<D: SymbolDecoder, R: BitSource>(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, D>,
    r: &mut R,
    units: Range<u32>,
) -> Result<()> {
    if frame.progressive && !scan.is_dc() && scan.is_refinement() {
        reference_decode_ac_refine(frame, coeffs, scan, tables, r, units)
    } else {
        decode_scan_range(frame, coeffs, scan, tables, r, units)
    }
}

/// Decodes a stream to coefficients through the reference entropy stack:
/// per-byte reader + canonical Huffman decoder, driving the literal
/// refinement oracle for AC-refinement scans and the *shared* scan logic
/// in `dentropy` for the rest. Mirrors `decoder::decode_coeffs` segment by
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
                    reference_decode_scan(f, planes, &scan, &tables, &mut bits, 0..total)?;
                } else {
                    let ranges = reference_split_segments(entropy);
                    let expected = total.div_ceil(interval) as usize;
                    let nseg = ranges.len().min(expected);
                    for (seg, &(s, e)) in ranges[..nseg].iter().enumerate() {
                        let start = seg as u32 * interval;
                        let units = start..(start + interval).min(total);
                        let mut bits = ReferenceBitReader::new(&entropy[s..e]);
                        reference_decode_scan(f, planes, &scan, &tables, &mut bits, units)?;
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
    reference_planes_to_image(&planes, &d.frame)
}

/// YCbCr -> RGB by the 16.16 fixed-point formula (JFIF / BT.601 full
/// range), one multiply per term and no tables; rounds half up and
/// clamps.
pub(crate) fn reference_ycbcr_to_rgb(y: u8, cb: u8, cr: u8) -> [u8; 3] {
    let (y, cb, cr) = (i32::from(y) << 16, i32::from(cb) - 128, i32::from(cr) - 128);
    let round = |v: i32| ((v + (1 << 15)) >> 16).clamp(0, 255) as u8;
    [
        round(y + 91_881 * cr),               // 1.402
        round(y - 22_554 * cb - 46_802 * cr), // 0.344136, 0.714136
        round(y + 116_130 * cb),              // 1.772
    ]
}

/// The per-pixel colour pass: each output pixel reads component `c` at
/// `(x·h_c/hmax, y·v_c/vmax)` and converts through
/// [`reference_ycbcr_to_rgb`]. Grayscale copies the one plane; a fourth
/// component is ignored.
pub(crate) fn reference_planes_to_image(
    planes: &[SamplePlane],
    frame: &FrameInfo,
) -> Result<ImageBuf> {
    let (w, h) = (frame.width as usize, frame.height as usize);
    let (hmax, vmax) = (usize::from(frame.hmax), usize::from(frame.vmax));
    let channels = if frame.components.len() == 1 { 1 } else { 3 };
    let sample = |ci: usize, x: usize, y: usize| {
        let c = &frame.components[ci];
        let p = &planes[ci];
        p.data[y * usize::from(c.v) / vmax * p.width + x * usize::from(c.h) / hmax]
    };
    let mut data = Vec::with_capacity(w * h * channels);
    for y in 0..h {
        for x in 0..w {
            if channels == 1 {
                data.push(sample(0, x, y));
            } else {
                data.extend(reference_ycbcr_to_rgb(
                    sample(0, x, y),
                    sample(1, x, y),
                    sample(2, x, y),
                ));
            }
        }
    }
    ImageBuf::from_raw(frame.width, frame.height, channels as u8, data)
}
