//! Top-level JPEG decoding: complete or truncated streams -> coefficients
//! and pixels.
//!
//! Truncated progressive streams (a prefix of scans followed by EOI — the
//! PCR partial-read representation) decode to the best approximation the
//! present scans allow, exactly like libjpeg renders an interrupted
//! download.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::bitio::{split_restart_segments, BitReader};
use crate::consts::*;
use crate::dentropy::{decode_scan_range, mcu_units, DecodeTables};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanInfo};
use crate::huffman::HuffDecoder;
use crate::image::ImageBuf;
use crate::marker::{self, Segment, SegmentReader};
use crate::sample::{coeffs_to_planes_pooled, planes_to_image};

/// Callbacks around entropy-decode work units, letting callers outside
/// this crate attribute wall-clock time to scans and restart segments
/// (the decoder itself takes no timestamps). All methods default to
/// no-ops.
pub trait DecodeObserver {
    /// Restart segment `seg` covering `units` MCU units is about to decode.
    fn segment_begin(&mut self, scan_idx: usize, seg: usize, units: u32) {
        let _ = (scan_idx, seg, units);
    }
    /// Restart segment `seg` finished decoding.
    fn segment_end(&mut self, scan_idx: usize, seg: usize) {
        let _ = (scan_idx, seg);
    }
}

/// The default do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl DecodeObserver for NoopObserver {}

/// Reusable decode buffers: coefficient planes and sample planes survive
/// across calls to [`decode_with`], so a data-loading hot loop performs no
/// per-image plane allocations (the pixel buffer of the returned
/// [`ImageBuf`] is the only allocation that escapes). [`decode`] runs the
/// same path on a fresh scratch.
///
/// Buffers are keyed by nothing — any image geometry can reuse them, since
/// pooled vectors are resized (retaining capacity) to each frame's needs.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    coeff_pool: Vec<Vec<i16>>,
    plane_pool: Vec<Vec<u8>>,
}

impl DecodeScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything recovered from a JPEG stream before pixel reconstruction.
#[derive(Debug, Clone)]
pub struct DecodedCoeffs {
    /// Frame geometry.
    pub frame: FrameInfo,
    /// Quantized coefficients (partially filled for truncated streams).
    pub coeffs: CoeffPlanes,
    /// Quantization tables by id.
    pub qtables: [Option<[u16; 64]>; 4],
    /// Scan headers in stream order that were (at least partially) decoded.
    pub scans: Vec<ScanInfo>,
    /// True if the stream ended with EOI; false if it simply ran out.
    pub saw_eoi: bool,
}

impl DecodedCoeffs {
    /// Estimated source quality factor from the luma quantization table.
    pub fn estimated_quality(&self) -> Option<u8> {
        let tq = self.frame.components.first()?.tq;
        self.qtables
            .get(usize::from(tq))?
            .as_ref()
            .map(estimate_quality)
    }
}

/// Decodes a stream fully to an image: [`decode_with`] on a fresh
/// scratch.
pub fn decode(data: &[u8]) -> Result<ImageBuf> {
    decode_with(data, &mut DecodeScratch::new())
}

/// Decodes a stream fully to an image, reusing `scratch` buffers for the
/// coefficient and sample planes — the one pixel decode path; wall-clock
/// data loaders keep one scratch per worker.
pub fn decode_with(data: &[u8], scratch: &mut DecodeScratch) -> Result<ImageBuf> {
    let decoded = decode_coeffs_observed(data, &mut scratch.coeff_pool, &mut NoopObserver)?;
    let img = pixels(&decoded.frame, &decoded.coeffs, &decoded.qtables, &mut scratch.plane_pool);
    decoded.coeffs.recycle_into(&mut scratch.coeff_pool);
    img
}

/// Decodes a stream once and reconstructs pixels at each of several of
/// its byte prefixes — the multi-quality decode of a progressive image,
/// whose scans are entropy-decoded once instead of once per prefix.
///
/// `ends` are offsets into `data`, ascending. When the segment walk,
/// past the frame header, stands at `ends[k]` between two segments,
/// `emit(k, image)` receives the image [`decode_with`] gives for
/// `data[..ends[k]]` followed by an EOI marker, to the byte: the walk has
/// read exactly that prefix's segments, so the coefficients and tables
/// are that decode's. An end the walk does not stand at — inside a
/// segment, out of order, before the frame header or past where the
/// stream stops — gets no call; decode that prefix on its own. An error
/// in the stream ends the walk and is returned; the images already
/// emitted stand.
pub fn decode_prefixes_with(
    data: &[u8],
    ends: &[usize],
    scratch: &mut DecodeScratch,
    mut emit: impl FnMut(usize, Result<ImageBuf>),
) -> Result<()> {
    let DecodeScratch { coeff_pool, plane_pool } = scratch;
    let mut next = 0;
    let mut at_boundary = |pos: usize, frame: &FrameInfo, coeffs: &CoeffPlanes, qtables: &QTables| {
        while let Some(&end) = ends.get(next).filter(|&&end| end <= pos) {
            if end == pos {
                emit(next, pixels(frame, coeffs, qtables, plane_pool));
            }
            next += 1;
        }
    };
    let decoded = walk_segments(data, coeff_pool, &mut NoopObserver, &mut at_boundary)?;
    decoded.coeffs.recycle_into(coeff_pool);
    Ok(())
}

/// Quantization tables by id, as a stream defines them.
type QTables = [Option<[u16; 64]>; 4];

/// Pixel reconstruction from coefficients — the one place the decoder
/// turns coefficients into an image, with sample planes from `plane_pool`.
fn pixels(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    qtables: &QTables,
    plane_pool: &mut Vec<Vec<u8>>,
) -> Result<ImageBuf> {
    let planes = coeffs_to_planes_pooled(coeffs, frame, qtables, plane_pool)?;
    let img = planes_to_image(&planes, frame);
    for p in planes {
        p.recycle_into(plane_pool);
    }
    img
}

/// Decodes a stream to quantized coefficients plus tables and scan list.
pub fn decode_coeffs(data: &[u8]) -> Result<DecodedCoeffs> {
    decode_coeffs_observed(data, &mut Vec::new(), &mut NoopObserver)
}

/// Decodes a stream to coefficients — the one coefficient decode path.
/// Coefficient-plane storage is drawn from `pool` (recycle with
/// [`CoeffPlanes::recycle_into`]), and every restart segment is reported
/// to `obs`, the hook benchmarks use to time segments without this crate
/// owning a clock.
pub fn decode_coeffs_observed(
    data: &[u8],
    pool: &mut Vec<Vec<i16>>,
    obs: &mut dyn DecodeObserver,
) -> Result<DecodedCoeffs> {
    walk_segments(data, pool, obs, &mut |_, _, _, _| {})
}

/// The segment walk behind every decode: parses `data` segment by
/// segment, entropy-decoding each scan into coefficient planes drawn from
/// `pool`. Once the frame header has been read, `at_boundary` sees the
/// reader's offset and the decode state before each segment.
fn walk_segments(
    data: &[u8],
    pool: &mut Vec<Vec<i16>>,
    obs: &mut dyn DecodeObserver,
    at_boundary: &mut dyn FnMut(usize, &FrameInfo, &CoeffPlanes, &QTables),
) -> Result<DecodedCoeffs> {
    let mut reader = SegmentReader::new(data);
    match reader.next_segment()? {
        Segment::Soi => {}
        _ => return Err(Error::NotJpeg),
    }

    let mut qtables: QTables = [None, None, None, None];
    let mut dc_tables: [Option<HuffDecoder>; 4] = [None, None, None, None];
    let mut ac_tables: [Option<HuffDecoder>; 4] = [None, None, None, None];
    let mut image: Option<(FrameInfo, CoeffPlanes)> = None;
    let mut scans: Vec<ScanInfo> = Vec::new();
    let mut saw_eoi = false;
    let mut restart_interval: u16 = 0;

    loop {
        if let Some((f, planes)) = &image {
            at_boundary(reader.pos(), f, planes, &qtables);
        }
        let seg = match reader.next_segment() {
            Ok(seg) => seg,
            // A truncated stream (no EOI) still yields what was decoded.
            Err(Error::UnexpectedEof) if image.is_some() => break,
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
                    #[expect(clippy::indexing_slicing, reason = "parse_dqt rejects table id > 3")]
                    for (id, table) in marker::parse_dqt(payload)? {
                        qtables[usize::from(id)] = Some(table);
                    }
                }
                DHT => {
                    #[expect(clippy::indexing_slicing, reason = "parse_dht rejects table id > 3")]
                    for (class, id, table) in marker::parse_dht(payload)? {
                        let dec = HuffDecoder::from_table(&table)?;
                        let tables = if class == 0 {
                            &mut dc_tables
                        } else {
                            &mut ac_tables
                        };
                        tables[usize::from(id)] = Some(dec);
                    }
                }
                SOF0 | SOF1 | SOF2 => {
                    if image.is_some() {
                        return Err(Error::CorruptData("multiple SOF".into()));
                    }
                    let f = marker::parse_sof(payload, m == SOF2)?;
                    let planes = CoeffPlanes::with_pool(&f, pool);
                    image = Some((f, planes));
                }
                DRI => {
                    let &[hi, lo] = payload else {
                        return Err(Error::BadSegmentLength { marker: DRI });
                    };
                    restart_interval = u16::from_be_bytes([hi, lo]);
                }
                // APPn / COM and other informational segments: skipped.
                _ => {}
            },
            Segment::Sos { payload, entropy_start } => {
                let Some((f, planes)) = image.as_mut() else {
                    return Err(Error::BadScan("SOS before SOF".into()));
                };
                let scan = marker::parse_sos(payload, f)?;
                // Fast-AC tables only for the tables that read them: AC
                // first and sequential scans.
                if !f.progressive || (!scan.is_dc() && !scan.is_refinement()) {
                    for sc in &scan.components {
                        if let Some(Some(t)) = ac_tables.get_mut(usize::from(sc.ac_table)) {
                            t.enable_fast_ac();
                        }
                    }
                }
                let (_, entropy_end) = reader.skip_entropy();
                // An empty range decodes as a truncated scan.
                let entropy = data.get(entropy_start..entropy_end).unwrap_or_default();
                let tables = DecodeTables { dc: &dc_tables, ac: &ac_tables };
                decode_scan_entropy(
                    f,
                    planes,
                    &scan,
                    &tables,
                    entropy,
                    restart_interval,
                    scans.len(),
                    obs,
                )?;
                scans.push(scan);
            }
        }
    }

    let (frame, coeffs) = image.ok_or(Error::UnsupportedFrame("no SOF in stream".into()))?;
    Ok(DecodedCoeffs { frame, coeffs, qtables, scans, saw_eoi })
}

/// Decodes one scan's entropy data, splitting at restart markers when
/// the stream declared a DRI interval.
///
/// Fewer restart segments than the interval implies is treated exactly
/// like a truncated scan-list: present segments decode, missing ones
/// leave their blocks at the prior approximation. Extra segments beyond
/// the expected count are ignored.
#[expect(clippy::too_many_arguments, reason = "one scan's whole decode context, passed unbundled \
          on the hot path")]
fn decode_scan_entropy(
    frame: &FrameInfo,
    coeffs: &mut CoeffPlanes,
    scan: &ScanInfo,
    tables: &DecodeTables<'_, HuffDecoder>,
    entropy: &[u8],
    interval: u16,
    scan_idx: usize,
    obs: &mut dyn DecodeObserver,
) -> Result<()> {
    let total = mcu_units(frame, scan);
    let interval = u32::from(interval);
    if interval == 0 || interval >= total {
        obs.segment_begin(scan_idx, 0, total);
        let mut bits = BitReader::new(entropy);
        decode_scan_range(frame, coeffs, scan, tables, &mut bits, 0..total)?;
        obs.segment_end(scan_idx, 0);
        return Ok(());
    }
    let ranges = split_restart_segments(entropy);
    let expected = total.div_ceil(interval) as usize;
    for (seg, &(s, e)) in ranges.iter().take(expected).enumerate() {
        let start = seg as u32 * interval;
        let units = start..(start + interval).min(total);
        obs.segment_begin(scan_idx, seg, units.end - units.start);
        let mut bits = BitReader::new(entropy.get(s..e).unwrap_or_default());
        decode_scan_range(frame, coeffs, scan, tables, &mut bits, units)?;
        obs.segment_end(scan_idx, seg);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncodeConfig};
    use crate::frame::Subsampling;

    fn test_image(w: u32, h: u32) -> ImageBuf {
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        for y in 0..h {
            for x in 0..w {
                // Smooth gradients plus a block pattern: exercises both DC
                // and AC paths without being pathological for quantization.
                let base = ((x * 3 + y * 2) % 200) as u8;
                let block = if (x / 8 + y / 8) % 2 == 0 { 30 } else { 0 };
                data.push(base.saturating_add(block));
                data.push((255 - base).saturating_sub(block));
                data.push(((x * 2 + y * 5) % 256) as u8);
            }
        }
        ImageBuf::from_raw(w, h, 3, data).unwrap()
    }

    fn mean_abs_err(a: &ImageBuf, b: &ImageBuf) -> f64 {
        let s: u64 = a
            .data()
            .iter()
            .zip(b.data().iter())
            .map(|(x, y)| u64::from(x.abs_diff(*y)))
            .sum();
        s as f64 / a.data().len() as f64
    }

    #[test]
    fn baseline_roundtrip_quality() {
        let img = test_image(64, 48);
        let data = encode(&img, &EncodeConfig::baseline(90)).unwrap();
        let out = decode(&data).unwrap();
        assert_eq!(out.width(), 64);
        assert_eq!(out.height(), 48);
        // The pattern is deliberately harsh (checkerboard edges + per-pixel
        // chroma noise under 4:2:0); quality 90 should still keep mean
        // error moderate and PSNR reasonable.
        assert!(mean_abs_err(&img, &out) < 16.0, "mae {}", mean_abs_err(&img, &out));
        assert!(crate::metrics_psnr::psnr(&img, &out) > 22.0);
    }

    #[test]
    fn baseline_optimized_tables_match_standard_pixels() {
        let img = test_image(40, 40);
        let std = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let opt = encode(
            &img,
            &EncodeConfig { optimize_huffman: true, ..EncodeConfig::baseline(85) },
        )
        .unwrap();
        assert!(opt.len() <= std.len(), "optimized {} > standard {}", opt.len(), std.len());
        assert_eq!(decode(&std).unwrap(), decode(&opt).unwrap());
    }

    #[test]
    fn progressive_roundtrip_matches_baseline_pixels() {
        let img = test_image(56, 40);
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        // Same coefficients -> identical pixel output.
        assert_eq!(decode(&base).unwrap(), decode(&prog).unwrap());
    }

    #[test]
    fn progressive_s444_roundtrip() {
        let img = test_image(33, 17);
        let cfg = EncodeConfig { subsampling: Subsampling::S444, ..EncodeConfig::progressive(90) };
        let base_cfg = EncodeConfig { subsampling: Subsampling::S444, ..EncodeConfig::baseline(90) };
        let prog = encode(&img, &cfg).unwrap();
        let base = encode(&img, &base_cfg).unwrap();
        assert_eq!(decode(&prog).unwrap(), decode(&base).unwrap());
    }

    #[test]
    fn grayscale_progressive_roundtrip() {
        let img = test_image(48, 32).to_luma();
        let prog = encode(&img, &EncodeConfig::progressive(88)).unwrap();
        let base = encode(&img, &EncodeConfig::baseline(88)).unwrap();
        assert_eq!(decode(&prog).unwrap(), decode(&base).unwrap());
    }

    #[test]
    fn quality_estimate_from_stream() {
        let img = test_image(32, 32);
        for q in [60u8, 75, 91] {
            let data = encode(&img, &EncodeConfig::baseline(q)).unwrap();
            let d = decode_coeffs(&data).unwrap();
            let est = d.estimated_quality().unwrap();
            assert!((i16::from(est) - i16::from(q)).abs() <= 2, "q {q} est {est}");
        }
    }

    /// `decode` is `decode_with` on a fresh scratch, so the independent
    /// check is the reference decoder: one reused scratch must match it
    /// on every scan prefix of every geometry.
    #[test]
    fn scratch_decode_matches_fresh_decode() {
        let mut scratch = DecodeScratch::new();
        // Mixed geometries and modes through one scratch: pools must adapt.
        for (w, h, progressive) in [(40u32, 24u32, false), (64, 48, true), (17, 9, true)] {
            let img = test_image(w, h);
            let cfg = if progressive {
                EncodeConfig::progressive(87)
            } else {
                EncodeConfig::baseline(87)
            };
            let data = encode(&img, &cfg).unwrap();
            let layout = crate::scansplit::split_scans(&data).unwrap();
            for n in 1..=layout.num_scans() {
                let prefix = crate::scansplit::assemble_prefix(&data, &layout, n).unwrap();
                let pooled = decode_with(&prefix, &mut scratch).unwrap();
                assert_eq!(decode(&prefix).unwrap(), pooled, "{w}x{h}, {n} scans");
                let oracle = crate::reference::reference_decode(&prefix).unwrap();
                assert_eq!(oracle, pooled, "{w}x{h}, {n} scans");
            }
        }
        // After a color decode the pools hold the recycled buffers.
        assert_eq!(scratch.coeff_pool.len(), 3);
        assert_eq!(scratch.plane_pool.len(), 3);
    }

    /// The one-pass prefix decode against a decode of each prefix on its
    /// own and against the reference oracle: every scan boundary of
    /// progressive colour (4:2:0 and 4:4:4), grayscale and baseline
    /// streams, through one scratch. Ends inside a segment, before the
    /// frame header or out of order get no call.
    #[test]
    fn one_pass_prefix_decode_matches_each_prefix_decode() {
        let mut scratch = DecodeScratch::new();
        let s444 = EncodeConfig { subsampling: Subsampling::S444, ..EncodeConfig::progressive(90) };
        let streams = [
            encode(&test_image(64, 48), &EncodeConfig::progressive(87)).unwrap(),
            encode(&test_image(33, 17), &s444).unwrap(),
            encode(&test_image(40, 24).to_luma(), &EncodeConfig::progressive(75)).unwrap(),
            encode(&test_image(17, 9), &EncodeConfig::baseline(95)).unwrap(),
        ];
        for data in &streams {
            let layout = crate::scansplit::split_scans(data).unwrap();
            let mut ends = vec![2, layout.header_len];
            ends.extend(layout.scans.iter().map(|&(_, end)| end));
            // Mid-entropy, then a boundary already passed: neither is a
            // boundary the walk stands at.
            ends.extend([data.len() - 3, layout.header_len]);
            let mut emitted = Vec::new();
            decode_prefixes_with(data, &ends, &mut scratch, |k, img| emitted.push((k, img.unwrap())))
                .unwrap();
            let hit: Vec<usize> = emitted.iter().map(|&(k, _)| k).collect();
            assert_eq!(hit, (1..ends.len() - 2).collect::<Vec<_>>());
            for (k, img) in emitted {
                let prefix = [&data[..ends[k]], &[0xFF, EOI][..]].concat();
                assert_eq!(img, decode(&prefix).unwrap(), "end {}", ends[k]);
                assert_eq!(img, crate::reference::reference_decode(&prefix).unwrap(), "end {}", ends[k]);
            }
        }
        // A stream that fails after a boundary returns the error, with
        // the images before it emitted.
        let data = &streams[0];
        let layout = crate::scansplit::split_scans(data).unwrap();
        let (start, _) = layout.scans[3];
        let mut broken = data[..start].to_vec();
        broken.extend_from_slice(&[0xFF, SOS, 0x00, 0x02]);
        let mut calls = 0;
        let err = decode_prefixes_with(&broken, &[layout.scans[2].1, start + 4], &mut scratch, |_, img| {
            img.unwrap();
            calls += 1;
        });
        assert!(err.is_err());
        assert_eq!(calls, 1);
    }

    /// A 2064x2048 grayscale stream (66,048 blocks) whose every block
    /// sends the DC difference +32767 through a one-bit code for size 15
    /// — baseline (each block then ends on a one-bit EOB) and as a
    /// progressive DC-first scan. The predictor passes `i32::MAX` near
    /// block 65,538; it wraps, and each block keeps the low 16 bits of
    /// the running sum.
    #[test]
    fn dc_predictor_wraps_on_a_crafted_stream() {
        const BLOCKS: i64 = 258 * 256;
        let segment = |out: &mut Vec<u8>, marker: u8, payload: &[u8]| {
            out.extend_from_slice(&[0xFF, marker]);
            out.extend_from_slice(&(payload.len() as u16 + 2).to_be_bytes());
            out.extend_from_slice(payload);
        };
        // DHT payload: one table whose only code is the 1-bit `0`.
        let one_code = |class_id: u8, symbol: u8| {
            let mut p = vec![class_id, 1];
            p.extend_from_slice(&[0; 15]);
            p.push(symbol);
            p
        };
        for progressive in [false, true] {
            let mut data = vec![0xFF, SOI];
            segment(&mut data, DQT, &[[0u8].as_slice(), &[1; 64]].concat());
            let sof = if progressive { SOF2 } else { SOF0 };
            segment(&mut data, sof, &[8, 0x08, 0x00, 0x08, 0x10, 1, 1, 0x11, 0]);
            segment(&mut data, DHT, &one_code(0x00, 15));
            segment(&mut data, DHT, &one_code(0x10, 0x00));
            let se = if progressive { 0 } else { 63 };
            segment(&mut data, SOS, &[1, 1, 0x00, 0, se, 0]);
            let mut w = crate::bitio::BitWriter::new();
            for _ in 0..BLOCKS {
                w.put_bits(0x7FFF, 16); // code `0`, then 15 magnitude bits
                if !progressive {
                    w.put_bits(0, 1); // EOB
                }
            }
            data.extend_from_slice(&w.finish());
            data.extend_from_slice(&[0xFF, EOI]);

            let d = decode_coeffs(&data).unwrap();
            let c = &d.frame.components[0];
            assert_eq!((c.blocks_w, c.blocks_h), (258, 256));
            for n in 0..BLOCKS {
                let (row, col) = ((n / 258) as u32, (n % 258) as u32);
                let dc = d.coeffs.block(&d.frame, 0, row, col)[0];
                assert_eq!(
                    dc,
                    ((n + 1) * 32767) as i16,
                    "block {n}, progressive {progressive}"
                );
            }
        }
    }

    #[test]
    fn rejects_non_jpeg() {
        assert!(decode(b"not a jpeg").is_err());
        assert!(decode(&[0xFF, 0xD8]).is_err()); // SOI only
    }

    #[test]
    fn odd_dimensions_roundtrip() {
        for (w, h) in [(1u32, 1u32), (7, 3), (17, 9), (15, 16), (16, 15)] {
            let img = test_image(w, h);
            let data = encode(&img, &EncodeConfig::baseline(90)).unwrap();
            let out = decode(&data).unwrap();
            assert_eq!((out.width(), out.height()), (w, h));
            let data = encode(&img, &EncodeConfig::progressive(90)).unwrap();
            let out = decode(&data).unwrap();
            assert_eq!((out.width(), out.height()), (w, h));
        }
    }
}
