//! The bit-exactness suite: proves the fast decode hot path — two-level
//! LUT Huffman, batched bit reader, AAN butterfly DCT — produces
//! **byte-identical** pixels to the retained reference implementations
//! (canonical per-bit Huffman walk, per-byte reader, basis-matrix DCT)
//! on every stream shape the PCR read path produces, at *every*
//! scan-group truncation level.
//!
//! Structure:
//!
//! * golden corpus tests: encode a varied corpus (modes × subsampling ×
//!   quality × geometry), cut every scan prefix with `scansplit`, decode
//!   each through both stacks, compare pixels byte for byte;
//! * property tests over random coefficient blocks (decode kernel),
//!   random sample blocks (encode quantization), random Huffman tables
//!   (two-level LUT vs canonical walk), and random stuffed bitstreams
//!   (batched vs per-byte reader);
//! * the write path held to the same standard: the batched bit writer
//!   against the per-byte one, the heap-based `gen_optimal_table`
//!   against libjpeg's sweep, and the single-walk token-replay encoder
//!   against the retained two-pass `dyn EntropySink` encoder — identical
//!   tables and identical bytes over random planes and random legal
//!   scans, plus pinned corner cases (EOB runs across 0x7FFF, the
//!   correction-bit buffer flush, ZRLs folding into a trailing EOB);
//! * restart-marker streams, which the production encoder no longer
//!   writes, built by [`reference_encode_restart`] and decoded through
//!   both stacks;
//! * the merged upsample + colour pass against the per-pixel reference
//!   pass on every sampling geometry, and on all 65,536 chroma pairs;
//! * first AC and sequential scans through the fast-AC table against the
//!   stepwise canonical decoder, on hand-assembled steps at the table's
//!   edges, and first AC scans on cut streams.

use crate::bitio::{extend, BitReader, BitSource, BitWriter};
use crate::consts::ZIGZAG;
use crate::dct::{descale, forward_dct_raw, forward_quant_scales};
use crate::decoder::{decode, decode_coeffs, decode_prefixes_with, DecodeScratch};
use crate::dentropy::{decode_scan_range, mcu_units, DecodeTables};
use crate::encoder::{encode, encode_from_coeffs, qtables_for, EncodeConfig};
use crate::entropy::{ScanEncoder, ScanTables};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo, ScanComponent, ScanInfo, Subsampling};
use crate::huffman::{gen_optimal_table, HuffDecoder, HuffEncoder, HuffTable, SymbolDecoder};
use crate::image::ImageBuf;
use crate::reference;
use crate::reference::{
    reference_planes_to_image, reference_ycbcr_to_rgb, ReferenceBitReader, ReferenceBitWriter,
    ReferenceHuffDecoder,
};
use crate::reference_encoder::{
    reference_encode_restart, reference_encode_scan, reference_gen_optimal_table,
};
use crate::sample::{
    image_to_planes, planes_to_coeffs, planes_to_image, BlockIdct, FastBlockIdct, SamplePlane,
};
use crate::scansplit::{assemble_prefix, split_scans};
use proptest::prelude::*;

/// A deliberately varied image: smooth gradients, block edges, and
/// per-pixel noise whose mix depends on `kind`.
fn test_image(w: u32, h: u32, channels: u8, kind: u32) -> ImageBuf {
    let mut data = Vec::with_capacity((w * h * u32::from(channels)) as usize);
    let mut seed = kind.wrapping_mul(0x9E37_79B9).wrapping_add(w * 31 + h);
    for y in 0..h {
        for x in 0..w {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            let noise = (seed >> 24) as i32 - 128;
            let base = match kind % 3 {
                0 => ((x * 3 + y * 2) % 256) as i32,
                1 => (((x / 8 + y / 8) % 2) * 220) as i32 + 18,
                _ => (128.0 + 90.0 * ((x as f32) * 0.21).sin() * ((y as f32) * 0.13).cos()) as i32,
            };
            let mix = (base + noise * (kind as i32 % 4) / 3).clamp(0, 255) as u8;
            data.push(mix);
            if channels == 3 {
                data.push(mix.wrapping_add(55));
                data.push(200u8.wrapping_sub(mix / 2));
            }
        }
    }
    ImageBuf::from_raw(w, h, channels, data).unwrap()
}

/// The golden corpus: both frame modes, both subsamplings, gray and
/// color, low through maximum quality, MCU-unaligned geometries — plus
/// restart-marker streams with optimised and Annex K tables.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut streams = Vec::new();
    let cases: &[(u32, u32, u8, Subsampling, u8, bool, u16)] = &[
        (48, 32, 3, Subsampling::S420, 85, true, 0),
        (41, 23, 3, Subsampling::S444, 100, true, 0),
        (64, 64, 3, Subsampling::S420, 100, true, 0),
        (33, 57, 1, Subsampling::S444, 92, true, 0),
        (40, 40, 3, Subsampling::S420, 60, true, 0),
        (48, 32, 3, Subsampling::S420, 90, false, 0),
        (17, 9, 1, Subsampling::S444, 100, false, 0),
        // Restart-marker streams: scan-group-aligned entropy segments.
        (48, 32, 3, Subsampling::S420, 85, true, 1),
        (33, 57, 1, Subsampling::S444, 92, true, 5),
        (48, 32, 3, Subsampling::S420, 90, false, 2),
    ];
    for (i, &(w, h, ch, sub, q, progressive, restart)) in cases.iter().enumerate() {
        let img = test_image(w, h, ch, i as u32);
        let cfg = EncodeConfig {
            quality: q,
            subsampling: sub,
            progressive,
            optimize_huffman: progressive,
        };
        let name = format!(
            "{w}x{h} ch{ch} q{q} {} rst{restart}",
            if progressive { "prog" } else { "base" }
        );
        let stream = match restart {
            0 => encode(&img, &cfg),
            _ => reference_encode_restart(&img, &cfg, restart),
        };
        streams.push((name, stream.unwrap()));
    }
    streams
}

/// The acceptance property: for every corpus stream and every scan-group
/// truncation level, the fast decoder's pixels equal the reference
/// decoder's pixels byte for byte — decoded prefix by prefix, and rebuilt
/// at every scan end by one pass over the whole stream.
#[test]
fn fast_decoder_matches_reference_at_every_truncation_level() {
    let mut scratch = DecodeScratch::new();
    for (name, stream) in corpus() {
        let layout = split_scans(&stream).unwrap();
        let ends: Vec<usize> = layout.scans.iter().map(|&(_, end)| end).collect();
        let mut one_pass = Vec::new();
        decode_prefixes_with(&stream, &ends, &mut scratch, |_, img| one_pass.push(img.unwrap()))
            .unwrap();
        assert_eq!(one_pass.len(), layout.num_scans(), "{name}: one image per scan end");
        for n in 1..=layout.num_scans() {
            let prefix = assemble_prefix(&stream, &layout, n).unwrap();
            let fast = decode(&prefix).unwrap();
            let oracle = reference::reference_decode(&prefix).unwrap();
            assert_eq!(
                fast.data(),
                oracle.data(),
                "pixel mismatch: {name}, scans 1..={n}"
            );
            assert_eq!(one_pass[n - 1], oracle, "one-pass mismatch: {name}, scans 1..={n}");
        }
    }
}

/// Byte-truncated streams (mid-scan cuts, not just scan boundaries)
/// decode identically through both stacks — the zero-padding semantics
/// of the two readers agree everywhere, not only at clean boundaries.
#[test]
fn fast_decoder_matches_reference_on_ragged_truncations() {
    let corpus = corpus();
    // 41x23 S444 q100 progressive, and 48x32 S420 progressive with a
    // restart marker per MCU row (cuts land inside restart segments).
    for (name, stream) in [&corpus[1], &corpus[7]] {
        for frac in [30usize, 55, 71, 83, 97] {
            let cut = stream.len() * frac / 100;
            let fast = decode(&stream[..cut]);
            let oracle = reference::reference_decode(&stream[..cut]);
            match (fast, oracle) {
                (Ok(f), Ok(o)) => assert_eq!(f.data(), o.data(), "{name}: cut at {frac}%"),
                (Err(_), Err(_)) => {}
                (f, o) => {
                    panic!("{name}: divergent outcome at {frac}%: fast={f:?} oracle={o:?}")
                }
            }
        }
    }
}

/// Coefficient-level identity: decoding to coefficients through the fast
/// entropy stack equals the reference entropy stack exactly (i16), for
/// every truncation level of a dense progressive stream.
#[test]
fn coefficients_match_reference_exactly() {
    let img = test_image(56, 48, 3, 7);
    let stream = encode(&img, &EncodeConfig::progressive(100)).unwrap();
    let layout = split_scans(&stream).unwrap();
    for n in 1..=layout.num_scans() {
        let prefix = assemble_prefix(&stream, &layout, n).unwrap();
        let fast = crate::decoder::decode_coeffs(&prefix).unwrap();
        let oracle = reference::reference_decode_coeffs(&prefix).unwrap();
        assert_eq!(fast.coeffs, oracle.coeffs, "coefficients at scans 1..={n}");
    }
}

/// Restart markers change the entropy *framing*, never the pixels: an
/// image encoded with restart intervals decodes byte-identically to the
/// marker-less encode, and the stream really does carry DRI + RSTn.
#[test]
fn restart_encode_decodes_identically_to_markerless() {
    use crate::consts::{DRI, RST0};
    for &(w, h, ch, progressive, interval) in
        &[(48u32, 32u32, 3u8, true, 1u16), (33, 57, 1, true, 3), (40, 40, 3, false, 2)]
    {
        let img = test_image(w, h, ch, w + h);
        let base_cfg = EncodeConfig {
            quality: 90,
            subsampling: Subsampling::S420,
            progressive,
            optimize_huffman: progressive,
        };
        let plain = encode(&img, &base_cfg).unwrap();
        let marked = reference_encode_restart(&img, &base_cfg, interval).unwrap();
        assert!(
            marked.windows(4).any(|s| s[0] == 0xFF && s[1] == DRI),
            "{w}x{h}: no DRI segment"
        );
        assert!(
            marked.windows(2).any(|s| s[0] == 0xFF && (RST0..=RST0 + 7).contains(&s[1])),
            "{w}x{h}: no RSTn marker"
        );
        let plain_px = decode(&plain).unwrap();
        let marked_px = decode(&marked).unwrap();
        assert_eq!(plain_px.data(), marked_px.data(), "{w}x{h} restart {interval}");
        let oracle = reference::reference_decode(&marked).unwrap();
        assert_eq!(marked_px.data(), oracle.data(), "{w}x{h} fast vs reference");
    }
}

/// A row-aligned restart stream (one segment per block row) matches the
/// reference at the coefficient level and through the pooled pixel path.
#[test]
fn restart_row_aligned_stream_matches_reference_coefficients() {
    use crate::decoder::{decode_with, DecodeScratch};
    let img = test_image(64, 48, 1, 11);
    let cfg = EncodeConfig {
        quality: 92,
        subsampling: Subsampling::S444,
        progressive: true,
        optimize_huffman: true,
    };
    let stream = reference_encode_restart(&img, &cfg, 1).unwrap();
    let fast = crate::decoder::decode_coeffs(&stream).unwrap();
    let oracle = reference::reference_decode_coeffs(&stream).unwrap();
    assert_eq!(fast.coeffs, oracle.coeffs);
    let px = decode_with(&stream, &mut DecodeScratch::default()).unwrap();
    assert_eq!(reference::reference_decode(&stream).unwrap().data(), px.data());
}

/// Truncating a restart stream at every scan-group level keeps the two
/// stacks byte-identical — the restart parser degrades exactly like the
/// marker-less one.
#[test]
fn restart_streams_match_reference_at_every_truncation_level() {
    let img = test_image(48, 40, 3, 3);
    let stream = reference_encode_restart(&img, &EncodeConfig::progressive(88), 2).unwrap();
    let layout = split_scans(&stream).unwrap();
    for n in 1..=layout.num_scans() {
        let prefix = assemble_prefix(&stream, &layout, n).unwrap();
        let fast = decode(&prefix).unwrap();
        let oracle = reference::reference_decode(&prefix).unwrap();
        assert_eq!(fast.data(), oracle.data(), "restart stream, scans 1..={n}");
    }
}

/// The committed restart-interval-2 JPEG (`tests/fixtures/legacy`),
/// written by the production encoder before it lost its restart option:
/// both decode stacks agree on it at every truncation level, and
/// [`reference_encode_restart`] reproduces it byte for byte.
#[test]
fn committed_restart_jpeg_matches_reference_and_its_builder() {
    let stream: &[u8] = include_bytes!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/legacy/restart-48x40.jpg"
    ));
    let data: Vec<u8> = (0..40u32)
        .flat_map(|y| (0..48u32).map(move |x| (x, y)))
        .flat_map(|(x, y)| [(x * 5 + y * 11) % 256, (x + y * 3) % 256, (x * y) % 256])
        .map(|v| v as u8)
        .collect();
    let img = ImageBuf::from_raw(48, 40, 3, data).unwrap();
    let rebuilt = reference_encode_restart(&img, &EncodeConfig::progressive(85), 2).unwrap();
    assert_eq!(rebuilt, stream, "builder drifted from the committed stream");
    let layout = split_scans(stream).unwrap();
    for n in 1..=layout.num_scans() {
        let prefix = assemble_prefix(stream, &layout, n).unwrap();
        let fast = crate::decoder::decode_coeffs(&prefix).unwrap();
        let oracle = reference::reference_decode_coeffs(&prefix).unwrap();
        assert_eq!(fast.coeffs, oracle.coeffs, "fixture coefficients, scans 1..={n}");
        let pixels = decode(&prefix).unwrap();
        assert_eq!(pixels.data(), reference::reference_decode(&prefix).unwrap().data());
    }
}

/// A stream whose restart interval *changes between scans* (per-scan
/// MCU-row rounding) stays self-contained through `split_scans` +
/// `assemble_prefix`: every chunk carries its DRI, so every prefix
/// decodes with the right interval — pinned by full-prefix identity.
#[test]
fn scan_chunks_carry_their_restart_intervals() {
    let img = test_image(48, 40, 3, 3);
    let stream = reference_encode_restart(&img, &EncodeConfig::progressive(88), 2).unwrap();
    // Interval differs between luma and chroma scans, so DRI appears
    // mid-stream, between scan chunks — the case a naive splitter drops.
    let dri_count = stream.windows(2).filter(|w| w == &[0xFF, 0xDD]).count();
    assert!(dri_count > 1, "expected several DRI segments, got {dri_count}");
    let layout = split_scans(&stream).unwrap();
    let full = assemble_prefix(&stream, &layout, layout.num_scans()).unwrap();
    assert_eq!(full, stream, "full prefix must reassemble the exact stream");
    // Chunks tile the region between header and EOI with no gaps.
    let mut pos = layout.header_len;
    for &(s, e) in &layout.scans {
        assert_eq!(s, pos, "chunk start leaves a gap (dropped segment)");
        pos = e;
    }
}

/// The live restart path: `pcr pack <dir>` transcodes camera JPEGs,
/// which may carry DRI/RST. Transcoding reads coefficients only, so a
/// restart-marked baseline becomes the very progressive stream its
/// marker-less twin does — restart framing never reaches a record.
#[test]
fn restart_baselines_transcode_to_their_markerless_twins() {
    use crate::consts::RST0;
    use crate::transcode::to_progressive;
    for (i, &(w, h, ch, sub, interval)) in [
        (48u32, 32u32, 3u8, Subsampling::S420, 1u16),
        (41, 23, 3, Subsampling::S444, 2),
        (33, 57, 1, Subsampling::S444, 5),
        (40, 24, 3, Subsampling::S420, 3),
    ]
    .iter()
    .enumerate()
    {
        let img = test_image(w, h, ch, 20 + i as u32);
        let cfg = EncodeConfig { subsampling: sub, ..EncodeConfig::baseline(85) };
        let markerless = encode(&img, &cfg).unwrap();
        let marked = reference_encode_restart(&img, &cfg, interval).unwrap();
        assert!(
            marked.windows(2).any(|s| s[0] == 0xFF && (RST0..=RST0 + 7).contains(&s[1])),
            "{w}x{h}: no RSTn marker"
        );
        assert_eq!(
            to_progressive(&marked).unwrap(),
            to_progressive(&markerless).unwrap(),
            "{w}x{h} interval {interval}"
        );
    }
}

fn reference_quantize(spatial: &[f64; 64], q: &[u16; 64]) -> [i16; 64] {
    let mut freq = [0f64; 64];
    reference::reference_forward_dct(spatial, &mut freq);
    core::array::from_fn(|i| descale(freq[i] / f64::from(q[i].max(1))) as i16)
}

fn fast_quantize(spatial: &[f64; 64], q: &[u16; 64]) -> [i16; 64] {
    let qm = forward_quant_scales(q);
    let mut raw = [0f64; 64];
    forward_dct_raw(spatial, &mut raw);
    core::array::from_fn(|i| descale(raw[i] * qm[i]) as i16)
}

/// One scan through the production write path: a single walk into
/// tokens, optimal tables from its counts, a linear replay.
fn token_encode_scan(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
) -> Result<(ScanTables, Vec<u8>)> {
    let mut tables = ScanTables::default();
    let bytes = ScanEncoder::new(coeffs).encode_scan(frame, scan, true, &mut tables)?;
    Ok((tables, bytes))
}

/// Token replay and the two-pass reference agree on the tables and on
/// every byte — or both refuse the scan.
fn assert_scan_encoders_agree(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    what: &str,
) {
    let fast = token_encode_scan(frame, coeffs, scan);
    let oracle = reference_encode_scan(frame, coeffs, scan, 0);
    match (fast, oracle) {
        (Ok(fast), Ok(oracle)) => {
            assert_eq!(fast.0, oracle.0, "tables: {what}, {scan:?}");
            assert_eq!(fast.1, oracle.1, "bytes: {what}, {scan:?}");
        }
        (Err(_), Err(_)) => {}
        (f, o) => panic!("{what}, {scan:?}: divergent outcome: fast={f:?} oracle={o:?}"),
    }
}

fn single_scan(comp_index: usize, ss: u8, se: u8, ah: u8, al: u8) -> ScanInfo {
    ScanInfo {
        components: vec![ScanComponent { comp_index, dc_table: 0, ac_table: 0 }],
        ss,
        se,
        ah,
        al,
    }
}

/// Gray progressive frame whose every block is `block(index)`.
fn gray_planes(
    w: u32,
    h: u32,
    mut block: impl FnMut(u32) -> [i16; 64],
) -> (FrameInfo, CoeffPlanes) {
    let frame = FrameInfo::for_encode(w, h, 1, Subsampling::S444, true).unwrap();
    let mut coeffs = CoeffPlanes::new(&frame);
    let c = frame.components[0].clone();
    for row in 0..c.alloc_h {
        for col in 0..c.alloc_w {
            coeffs.block_mut(&frame, 0, row, col).copy_from_slice(&block(row * c.alloc_w + col));
        }
    }
    (frame, coeffs)
}

/// More than 0x7FFF consecutive end-of-band blocks: the run counter
/// flushes at 0x7FFF exactly and starts over, in first and refinement
/// scans, with and without correction bits riding along.
#[test]
fn eob_runs_across_0x7fff_match_two_pass_encoder() {
    // 182 x 182 = 33124 blocks.
    let (frame, coeffs) = gray_planes(1456, 1456, |i| {
        let mut b = [0i16; 64];
        b[0] = (i % 200) as i16;
        // One known coefficient in every seventh block (a correction bit
        // per block in the refinement scan), one new one at the very end.
        b[1] = if i == 33123 { 1 } else if i % 7 == 0 { 6 } else { 0 };
        b
    });
    assert!(mcu_units(&frame, &single_scan(0, 1, 63, 0, 0)) > 0x7FFF);
    for (ah, al) in [(0, 2), (0, 3), (1, 0)] {
        let scan = single_scan(0, 1, 63, ah, al);
        assert_scan_encoders_agree(&frame, &coeffs, &scan, "long EOB run");
    }
}

/// Blocks that only carry correction bits pile them up across an EOB
/// run until the buffer passes 930 bits and is flushed early.
#[test]
fn correction_bit_buffer_flush_matches_two_pass_encoder() {
    let (frame, coeffs) = gray_planes(128, 128, |i| {
        // Every AC coefficient already nonzero at Al=1: 63 correction
        // bits per block, no symbol.
        core::array::from_fn(|k| if k == 0 { 50 } else { 4 + ((i as usize + k) % 9) as i16 })
    });
    for scan in [single_scan(0, 1, 63, 1, 0), single_scan(0, 5, 40, 2, 1)] {
        assert_scan_encoders_agree(&frame, &coeffs, &scan, "corr flush");
    }
}

/// Zero runs of 16 and more in refinement scans: ZRLs (with correction
/// bits attached) before the last newly nonzero coefficient, folded
/// into the end-of-band after it; plus all-zero and all-nonzero blocks
/// through every scan type.
#[test]
fn zero_run_and_dense_block_corner_cases_match_two_pass_encoder() {
    let (frame, coeffs) = gray_planes(64, 64, |i| {
        let mut zz = [0i16; 64];
        zz[0] = 3 * i as i16 - 90;
        match i % 6 {
            // New coefficient early, then a long zero run and known
            // coefficients only: the ZRLs fold into the EOB.
            0 => {
                zz[3] = -2;
                (41..50).for_each(|k| zz[k] = 9);
            }
            // Known coefficients, a 40-long zero run, then a new one:
            // two ZRLs carrying correction bits.
            1 => {
                (1..8).for_each(|k| zz[k] = -12 - k as i16);
                zz[50] = 3;
                zz[63] = -5;
            }
            // Runs of exactly 15, 16 and 17 zeros between new coefficients.
            2 => [1, 17, 34, 52].iter().for_each(|&k| zz[k] = 2),
            3 => {} // all zero
            // All nonzero: small (all new at Al=1) and large (all known).
            4 => (1..64).for_each(|k| zz[k] = if k % 2 == 0 { 2 } else { -3 }),
            _ => (1..64).for_each(|k| zz[k] = 40 - 3 * k as i16 - i16::from(k > 12)),
        }
        zz
    });
    let scans = [
        single_scan(0, 0, 0, 0, 1),
        single_scan(0, 0, 0, 1, 0),
        single_scan(0, 1, 63, 0, 0),
        single_scan(0, 1, 63, 0, 1),
        single_scan(0, 1, 63, 1, 0),
        single_scan(0, 1, 63, 2, 1),
        single_scan(0, 2, 51, 1, 0),
    ];
    for scan in &scans {
        assert_scan_encoders_agree(&frame, &coeffs, scan, "corner blocks");
    }
    let mut sequential = frame.clone();
    sequential.progressive = false;
    let scan = single_scan(0, 0, 63, 0, 0);
    assert_scan_encoders_agree(&sequential, &coeffs, &scan, "corner blocks");
}

/// A refinement-scan block at point transform `al` from a pattern over
/// positions `1..`: `.` zero, `k` / `K` a known coefficient whose
/// correction bit is 0 / 1, `+` / `-` a newly nonzero one of that sign;
/// positions past the pattern are zero. Every coefficient carries junk
/// below bit `al` that the scan must shift out.
fn refine_block(pattern: &str, al: u32) -> [i16; 64] {
    let low = (1i16 << al) - 1;
    let mut zz = [0i16; 64];
    zz[0] = 37;
    for (z, ch) in zz[1..].iter_mut().zip(pattern.bytes()) {
        *z = match ch {
            b'k' => 2 << al | low,
            b'K' => -(7 << al | low),
            b'+' => 1 << al | low,
            b'-' => -(1 << al | low),
            _ => low,
        };
    }
    zz
}

/// The refinement walk's segment cases, each pinned against the
/// two-pass encoder at Al 0, 1 and 2 over bands that cut them in
/// different places: ZRLs whose 16th zero lands after known
/// coefficients or on the new one, exactly 15 and exactly 16 zeros
/// around known coefficients before a new one (the one-symbol path and
/// the per-position path), an all-known block (63 bits into the EOB
/// run), a new coefficient at `se` (no EOB), and `ss == se`.
#[test]
fn refinement_segment_edges_match_two_pass_encoder() {
    let run = |n: usize| ".".repeat(n);
    let patterns = [
        format!("{}kK{}K+", run(10), run(6)),
        format!("{}kK{}+", run(10), run(6)),
        format!("k{}K{}-", run(7), run(8)),
        format!("k{}K{}-", run(8), run(8)),
        format!("{}-", run(15)),
        format!("{}+", run(16)),
        format!("{}K{}k+", run(5), run(27)),
        format!("K{}k{}-K", run(14), run(16)),
        "kK".repeat(32),
        format!("k{}+{}-", run(20), "K".repeat(40)),
        "+-".repeat(32),
        format!("+{}KKK{}", run(30), run(29)),
        format!("-{}kK+", run(49)),
        String::new(),
    ];
    let bands = [(1, 63), (2, 51), (5, 5), (20, 40), (63, 63), (1, 1), (12, 30)];
    for al in 0..3u32 {
        let scans: Vec<ScanInfo> =
            bands.iter().map(|&(ss, se)| single_scan(0, ss, se, al as u8 + 1, al as u8)).collect();
        for pattern in &patterns {
            let (frame, coeffs) = gray_planes(16, 16, |_| refine_block(pattern, al));
            for scan in &scans {
                assert_scan_encoders_agree(&frame, &coeffs, scan, pattern);
            }
        }
        // Every pattern after every other: EOB runs and their buffered
        // correction bits cross into the next block's symbols.
        let (frame, coeffs) =
            gray_planes(96, 48, |i| refine_block(&patterns[i as usize % patterns.len()], al));
        for scan in &scans {
            assert_scan_encoders_agree(&frame, &coeffs, scan, "mixed patterns");
        }
    }
}

/// Writes the low `n` bits of `value` to both writers, most significant
/// first, in pieces the per-byte writer takes (at most 24 bits).
fn put_both(fast: &mut BitWriter, oracle: &mut ReferenceBitWriter, value: u64, mut n: u32) {
    while n > 0 {
        let take = n.min(24);
        n -= take;
        let piece = (value >> n) as u32 & ((1 << take) - 1);
        fast.put_bits(piece, take);
        oracle.put_bits(piece, take);
    }
}

/// An 0xFF in every byte position of a word the batched writer flushes,
/// with the word boundary at every bit offset of the data: each such
/// word must leave through the stuffing loop, not the 8-byte copy.
#[test]
fn writer_stuffs_ff_in_every_byte_of_a_flushed_word() {
    for lead in 0..64u32 {
        for pos in 0..8u32 {
            let word = 0x5A5A_5A5A_5A5A_5A5Au64 | 0xFFu64 << (8 * pos);
            let mut fast = BitWriter::new();
            let mut oracle = ReferenceBitWriter::default();
            put_both(&mut fast, &mut oracle, 0x2AAA_AAAA_AAAA_AAAA, lead);
            put_both(&mut fast, &mut oracle, word, 64);
            put_both(&mut fast, &mut oracle, word.rotate_left(8), 64);
            assert_eq!(fast.len(), oracle.len(), "lead {lead}, byte {pos}");
            assert_eq!(fast.finish(), oracle.finish(), "lead {lead}, byte {pos}");
        }
    }
}

/// Two neighbouring DCs 60000 apart make a 16-bit difference, which the
/// decoder refuses (`DC size > 15`): the encoder must refuse it too, in
/// sequential and first DC scans alike, rather than write a stream it
/// cannot read. An 11-bit difference, the most 8-bit data needs, still
/// round-trips.
#[test]
fn dc_difference_above_size_11_is_refused() {
    let frame = FrameInfo::for_encode(16, 8, 1, Subsampling::S444, false).unwrap();
    let qtables = qtables_for(&EncodeConfig::baseline(90), 1);
    let planes = |left: i16, right: i16| {
        let mut coeffs = CoeffPlanes::new(&frame);
        coeffs.block_mut(&frame, 0, 0, 0)[0] = left;
        coeffs.block_mut(&frame, 0, 0, 1)[0] = right;
        coeffs
    };
    let mut progressive = frame.clone();
    progressive.progressive = true;
    let too_far = planes(30000, -30000);
    for frame in [&frame, &progressive] {
        let out = encode_from_coeffs(frame, &too_far, &qtables, true, None);
        assert!(matches!(out, Err(Error::BadInput(_))), "{}: {out:?}", frame.progressive);
        let dc = single_scan(0, 0, 0, 0, u8::from(frame.progressive));
        assert_scan_encoders_agree(frame, &too_far, &dc, "16-bit DC difference");
    }
    let widest = planes(1023, -1024);
    for frame in [&frame, &progressive] {
        let bytes = encode_from_coeffs(frame, &widest, &qtables, true, None).unwrap();
        assert_eq!(decode_coeffs(&bytes).unwrap().coeffs, widest, "{}", frame.progressive);
    }
}

/// Image sizes the colour tests cover: one pixel, one column, one row,
/// MCU-unaligned, and the `decode_bound` image size.
const COLOUR_SIZES: [(u32, u32); 5] = [(1, 1), (1, 37), (37, 1), (17, 11), (167, 167)];

/// Channel count and subsampling of the colour tests' standard frames.
const COLOUR_MODES: [(u8, Subsampling); 3] =
    [(3, Subsampling::S420), (3, Subsampling::S444), (1, Subsampling::S444)];

/// Hand-built SOF sampling factors `(id, h, v, tq)` beyond 4:2:0 and
/// 4:4:4: 4:2:2, a 3:1 span, a 4:2 span, luma coarser than chroma, Cb
/// and Cr on different grids with a factor that does not divide `hmax`,
/// and a fourth component the colour pass ignores.
fn uneven_factor_sets() -> Vec<Vec<(u8, u8, u8, u8)>> {
    vec![
        vec![(1, 2, 1, 0), (2, 1, 1, 1), (3, 1, 1, 1)],
        vec![(1, 3, 3, 0), (2, 1, 1, 1), (3, 1, 1, 1)],
        vec![(1, 4, 1, 0), (2, 2, 1, 1), (3, 2, 1, 1)],
        vec![(1, 1, 1, 0), (2, 2, 2, 1), (3, 2, 2, 1)],
        vec![(1, 3, 2, 0), (2, 2, 1, 1), (3, 1, 2, 1)],
        vec![(1, 2, 2, 0), (2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1)],
    ]
}

/// Sample planes of `frame`'s geometry filled with seeded bytes.
fn random_planes(frame: &FrameInfo, mut seed: u32) -> Vec<SamplePlane> {
    frame
        .components
        .iter()
        .map(|c| {
            let (width, height) = (c.alloc_w as usize * 8, c.alloc_h as usize * 8);
            let data = (0..width * height)
                .map(|_| {
                    seed = seed.wrapping_mul(1_103_515_245).wrapping_add(12345);
                    (seed >> 16) as u8
                })
                .collect();
            SamplePlane { width, height, data }
        })
        .collect()
}

/// The merged upsample + colour pass equals the per-pixel reference pass
/// (nearest-neighbour map, 16.16 multiplies) on 4:2:0, 4:4:4, grayscale
/// and hand-built sampling factors, at every size in [`COLOUR_SIZES`].
#[test]
fn colour_pass_matches_per_pixel_reference_on_every_geometry() {
    let mut frames = Vec::new();
    for (w, h) in COLOUR_SIZES {
        for (channels, sub) in COLOUR_MODES {
            frames.push(FrameInfo::for_encode(w, h, channels, sub, false).unwrap());
        }
        for comps in uneven_factor_sets() {
            frames.push(FrameInfo::from_components(w, h, false, comps).unwrap());
        }
    }
    for (i, frame) in frames.iter().enumerate() {
        let planes = random_planes(frame, i as u32);
        let fast = planes_to_image(&planes, frame).unwrap();
        let oracle = reference_planes_to_image(&planes, frame).unwrap();
        assert_eq!(fast, oracle, "{}x{} {:?}", frame.width, frame.height, frame.components);
    }
}

/// Encoded images at every size in [`COLOUR_SIZES`], 4:2:0, 4:4:4 and
/// grayscale, baseline and progressive: the production decode and the
/// reference decode give the same pixels.
#[test]
fn colour_pass_matches_reference_through_decode() {
    for (i, (w, h)) in COLOUR_SIZES.into_iter().enumerate() {
        for (channels, subsampling) in COLOUR_MODES {
            let img = test_image(w, h, channels, i as u32);
            for cfg in [EncodeConfig::baseline(90), EncodeConfig::progressive(90)] {
                let stream = encode(&img, &EncodeConfig { subsampling, ..cfg }).unwrap();
                let fast = decode(&stream).unwrap();
                let oracle = reference::reference_decode(&stream).unwrap();
                assert_eq!(fast, oracle, "{w}x{h} ch{channels} {subsampling:?} {cfg:?}");
            }
        }
    }
}

/// A stream whose SOF gives Cb and Cr different sampling grids, with a
/// horizontal factor that does not divide `hmax` (Y 3x2, Cb 2x1, Cr
/// 1x2): both decoders give the same pixels, baseline and progressive.
#[test]
fn uneven_sampling_stream_matches_reference() {
    let img = test_image(41, 23, 3, 5);
    let qtables = qtables_for(&EncodeConfig::baseline(90), 3);
    for progressive in [false, true] {
        let comps = vec![(1, 3, 2, 0), (2, 2, 1, 1), (3, 1, 2, 1)];
        let frame = FrameInfo::from_components(41, 23, progressive, comps).unwrap();
        let planes = image_to_planes(&img, &frame).unwrap();
        let coeffs = planes_to_coeffs(&planes, &frame, &qtables).unwrap();
        let stream = encode_from_coeffs(&frame, &coeffs, &qtables, true, None).unwrap();
        let fast = decode(&stream).unwrap();
        assert_eq!((fast.width(), fast.height(), fast.channels()), (41, 23, 3));
        let oracle = reference::reference_decode(&stream).unwrap();
        assert_eq!(fast, oracle, "progressive {progressive}");
    }
}

/// Every `(cb, cr)` pair at luma 0, 128 and 255 through the production
/// pass, once at full chroma resolution and once at 4:2:0, against the
/// 16.16 formula.
#[test]
fn colour_pass_is_exact_on_every_chroma_pair() {
    for (side, sub) in [(256u32, Subsampling::S444), (512, Subsampling::S420)] {
        let frame = FrameInfo::for_encode(side, side, 3, sub, false).unwrap();
        let span = usize::from(frame.hmax);
        for luma in [0u8, 128, 255] {
            let planes: Vec<SamplePlane> = frame
                .components
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let (width, height) = (c.alloc_w as usize * 8, c.alloc_h as usize * 8);
                    let data = (0..width * height)
                        .map(|i| match ci {
                            0 => luma,
                            1 => (i % width) as u8,
                            _ => (i / width) as u8,
                        })
                        .collect();
                    SamplePlane { width, height, data }
                })
                .collect();
            let img = planes_to_image(&planes, &frame).unwrap();
            let mut pairs = vec![false; 1 << 16];
            for (i, px) in img.data().chunks_exact(3).enumerate() {
                let (x, y) = (i % side as usize, i / side as usize);
                let (cb, cr) = ((x / span) as u8, (y / span) as u8);
                pairs[usize::from(cb) << 8 | usize::from(cr)] = true;
                let want = reference_ycbcr_to_rgb(luma, cb, cr);
                assert_eq!(px, want, "y {luma} cb {cb} cr {cr} {sub:?}");
            }
            assert!(pairs.iter().all(|&seen| seen), "{sub:?}: not every pair was reached");
        }
    }
}

/// Decodes one scan's entropy bytes into zeroed planes through the
/// production walk with its fast-AC table (batched reader) and through
/// the stepwise canonical decoder (per-byte reader), asserting the same
/// `Result` — equal coefficients, or the same error. Returns the
/// production outcome. A sequential scan reads its DC differences with
/// the Annex K luma table.
fn assert_scan_matches_oracle(
    frame: &FrameInfo,
    scan: &ScanInfo,
    ac: &HuffTable,
    bytes: &[u8],
    what: &str,
) -> Result<CoeffPlanes> {
    let units = 0..mcu_units(frame, scan);
    let dc = &HuffTable::std_dc_luma();
    let mut fast_table = HuffDecoder::from_table(ac).unwrap();
    fast_table.enable_fast_ac();
    let fast_dc = [Some(HuffDecoder::from_table(dc).unwrap()), None, None, None];
    let fast_ac = [Some(fast_table), None, None, None];
    let fast = {
        let mut planes = CoeffPlanes::new(frame);
        let tables = DecodeTables { dc: &fast_dc, ac: &fast_ac };
        let mut r = BitReader::new(bytes);
        decode_scan_range(frame, &mut planes, scan, &tables, &mut r, units.clone()).map(|()| planes)
    };
    let oracle_dc = [Some(ReferenceHuffDecoder::from_table(dc).unwrap()), None, None, None];
    let oracle_ac = [Some(ReferenceHuffDecoder::from_table(ac).unwrap()), None, None, None];
    let oracle = {
        let mut planes = CoeffPlanes::new(frame);
        let tables = DecodeTables { dc: &oracle_dc, ac: &oracle_ac };
        let mut r = ReferenceBitReader::new(bytes);
        decode_scan_range(frame, &mut planes, scan, &tables, &mut r, units).map(|()| planes)
    };
    assert_eq!(fast, oracle, "{what}");
    fast
}

/// A first-scan table with codes placed on the fast-AC edges: `0x08` in
/// 2 bits (2 + 8 = 10), `0x07` in 3 (10), `0x05`/`0x06` in 4 (9 and 10),
/// `0x16` in 5 (11), plus EOB, EOB1, ZRL, short steps and a run of 11.
fn first_scan_table() -> HuffTable {
    let mut bits = [0u8; 16];
    bits[1..6].copy_from_slice(&[1, 3, 3, 3, 2]);
    let vals = vec![0x08, 0x07, 0x00, 0x01, 0x05, 0x06, 0x11, 0x16, 0xF0, 0xB1, 0x02, 0x10];
    HuffTable::new(bits, vals).unwrap()
}

/// The magnitude bits of `value` in `size` bits (T.81 F.1.2.1).
fn magnitude(value: i32, size: u32) -> u64 {
    (if value < 0 { value + (1 << size) - 1 } else { value }) as u64
}

/// A coefficient step of `first_scan_table`: `run << 4 | size`, then the
/// magnitude bits of `value`.
fn coef(run: u8, size: u32, value: i32) -> Step {
    (run << 4 | size as u8, magnitude(value, size), size)
}

/// One hand-assembled case over the two blocks of a 16x8 gray frame:
/// its name, the first scan's band end and point transform (band start
/// 1), each block's AC steps in `first_scan_table`, and whether a first
/// scan and a sequential scan over those steps decode.
type StepCase = (&'static str, u8, u8, [Vec<Step>; 2], bool, bool);

/// The hand-assembled cases the fast-AC walks are checked on: steps
/// whose code and magnitude take 9, 10 and 11 bits; values at the `i8`
/// edges (−129, −128, 127, 128) in 7 and 8 bits; misses back to back; a
/// run of short steps that fills whole windows; ZRL runs; EOB1, which a
/// first scan reads as an EOB run with one run bit and a sequential scan
/// as a plain EOB; and runs past the band or block end, which both
/// decoders reject with the same error.
fn fast_ac_step_cases() -> Vec<StepCase> {
    let eob = (0x00, 0, 0);
    let zrl = (0xF0, 0, 0);
    vec![
        (
            "9, 10 and 11 bits",
            63,
            0,
            [
                vec![coef(0, 5, 17), coef(0, 6, -40), coef(1, 6, 33), coef(0, 5, -31), eob],
                vec![coef(0, 6, 63), eob],
            ],
            true,
            true,
        ),
        (
            "i8 edges",
            63,
            1,
            [
                vec![coef(0, 8, -129), coef(0, 8, -128), coef(0, 7, 127), coef(0, 8, 128), eob],
                vec![coef(0, 8, -128), eob],
            ],
            true,
            true,
        ),
        (
            "misses back to back",
            63,
            0,
            [
                vec![coef(1, 6, 33), coef(0, 8, 128), coef(0, 8, -129), zrl, coef(1, 6, -33), eob],
                vec![coef(0, 8, 200), coef(1, 6, 40), coef(0, 1, 1), eob],
            ],
            true,
            true,
        ),
        (
            "short steps fill whole windows",
            63,
            0,
            [
                [[coef(0, 1, 1), coef(0, 1, -1), coef(1, 1, 1)].repeat(12), vec![eob]].concat(),
                vec![coef(0, 1, -1); 63],
            ],
            true,
            true,
        ),
        (
            "EOB1: a run over the second block, or a plain EOB",
            5,
            2,
            [vec![coef(0, 1, 1), coef(0, 7, -100), (0x10, 1, 1)], vec![coef(0, 2, 3), eob]],
            true,
            true,
        ),
        (
            "ZRLs then a run onto the band end",
            63,
            0,
            [vec![zrl, zrl, zrl, coef(11, 1, 1), coef(1, 1, -1), coef(0, 1, 1)], vec![eob]],
            true,
            true,
        ),
        (
            "run past the band end",
            63,
            0,
            [vec![zrl, zrl, zrl, coef(11, 1, 1), coef(11, 1, 1), eob], vec![eob]],
            false,
            false,
        ),
        (
            "run past a short band's end",
            5,
            0,
            [vec![coef(0, 5, 20), coef(11, 1, -1), eob], vec![eob]],
            false,
            true,
        ),
    ]
}

/// The hand-assembled cases as first AC scans. The table's entries are
/// checked too: the 10-bit steps and the `i8` values hit, the rest miss.
#[test]
fn fast_ac_first_scans_match_oracle_on_hand_assembled_steps() {
    let table = first_scan_table();
    let mut probe = HuffDecoder::from_table(&table).unwrap();
    probe.enable_fast_ac();
    let fast = *probe.fast_ac().unwrap();
    let enc = HuffEncoder::from_table(&table).unwrap();
    // The fast-AC entry of the 10-bit window a step starts.
    let entry = |(sym, bits, n): Step| {
        let len = u32::from(enc.code_len(sym));
        (len + n <= 10).then(|| {
            let window = (u32::from(enc.code(sym)) << n | bits as u32) << (10 - len - n);
            fast[window as usize]
        })
    };
    assert_ne!(entry(coef(0, 5, 17)), Some(0), "9 bits");
    assert_ne!(entry(coef(0, 6, -40)), Some(0), "10 bits");
    assert_eq!(entry(coef(1, 6, 33)), None, "11 bits");
    assert_eq!(entry(coef(0, 8, -128)).map(|e| e >> 8), Some(-128));
    assert_eq!(entry(coef(0, 7, 127)).map(|e| e >> 8), Some(127));
    assert_eq!(entry(coef(0, 8, -129)), Some(0));
    assert_eq!(entry(coef(0, 8, 128)), Some(0));

    let (frame, _) = gray_planes(16, 8, |_| [0; 64]);
    for (what, se, al, blocks, ok, _) in fast_ac_step_cases() {
        let scan = single_scan(0, 1, se, 0, al);
        let bytes = assemble(&table, &blocks.concat());
        let out = assert_scan_matches_oracle(&frame, &scan, &table, &bytes, what);
        assert_eq!(out.is_ok(), ok, "{what}: {out:?}");
    }
}

/// The hand-assembled cases as a sequential scan: each block starts with
/// a DC difference (+5, then −3) and reads its AC steps over 1..=63 at
/// full precision. A sequential EOB1 carries no run bits, so the stream
/// leaves them out.
#[test]
fn fast_ac_sequential_scans_match_oracle_on_hand_assembled_steps() {
    let table = first_scan_table();
    let dc_enc = HuffEncoder::from_table(&HuffTable::std_dc_luma()).unwrap();
    let ac_enc = HuffEncoder::from_table(&table).unwrap();
    let frame = FrameInfo::for_encode(16, 8, 1, Subsampling::S444, false).unwrap();
    let scan = single_scan(0, 0, 63, 0, 0);
    let dc_steps = [(3, magnitude(5, 3), 3), (2, magnitude(-3, 2), 2)];
    let plain_eob = |&(sym, bits, n): &Step| match sym {
        0x10..=0xE0 if sym & 0x0F == 0 => (sym, 0, 0),
        _ => (sym, bits, n),
    };
    for (what, _, _, blocks, _, ok) in fast_ac_step_cases() {
        let mut w = BitWriter::new();
        for (&dc_step, steps) in dc_steps.iter().zip(&blocks) {
            put_steps(&mut w, &dc_enc, &[dc_step]);
            put_steps(&mut w, &ac_enc, &steps.iter().map(plain_eob).collect::<Vec<_>>());
        }
        let bytes = w.finish();
        let out = assert_scan_matches_oracle(&frame, &scan, &table, &bytes, what);
        assert_eq!(out.is_ok(), ok, "{what}: {out:?}");
        if let Ok(planes) = out {
            assert_eq!(planes.block(&frame, 0, 0, 0)[0], 5, "{what}");
            assert_eq!(planes.block(&frame, 0, 0, 1)[0], 2, "{what}");
        }
    }
}

/// A first AC scan cut anywhere reads zero bits from the cut on: the
/// fast-AC walk and the stepwise oracle give the same outcome at every
/// cut, for a low band, a high band and a full band at two precisions.
#[test]
fn truncated_first_scans_match_oracle() {
    let (frame, coeffs) = filled_frame_q100(48, 40);
    let scans = [
        single_scan(0, 1, 5, 0, 2),
        single_scan(0, 6, 63, 0, 2),
        single_scan(0, 1, 63, 0, 1),
        single_scan(0, 1, 63, 0, 0),
    ];
    for scan in scans {
        let mut tables = ScanTables::default();
        let bytes =
            ScanEncoder::new(&coeffs).encode_scan(&frame, &scan, true, &mut tables).unwrap();
        let table = tables.iter().flatten().next().expect("an AC table").clone();
        let whole = assert_scan_matches_oracle(&frame, &scan, &table, &bytes, "whole");
        // The band at the scan's precision, zero elsewhere.
        let mut expected = CoeffPlanes::new(&frame);
        let c = frame.components[0].clone();
        for (row, col) in (0..c.alloc_h).flat_map(|row| (0..c.alloc_w).map(move |col| (row, col))) {
            let source = coeffs.block(&frame, 0, row, col);
            let block = expected.block_mut(&frame, 0, row, col);
            for k in usize::from(scan.ss)..=usize::from(scan.se) {
                let v = source[k];
                block[k] = v.signum() * ((v.abs() >> scan.al) << scan.al);
            }
        }
        assert_eq!(whole.unwrap(), expected, "{scan:?}");
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            // Zero padding may spell an illegal run: then both must fail alike.
            let _ = assert_scan_matches_oracle(
                &frame,
                &scan,
                &table,
                &bytes[..cut],
                &format!("{scan:?} cut at byte {cut} of {}", bytes.len()),
            );
        }
    }
}

/// `gen_optimal_table` returns libjpeg's exact `(bits, vals)`: ties
/// broken toward the higher symbol, a lone symbol, a full alphabet, and
/// Fibonacci-like skew that needs the 16-bit length limiting.
#[test]
fn heap_optimal_tables_match_libjpeg_sweep_on_pinned_shapes() {
    let mut shapes: Vec<Vec<u32>> = vec![
        vec![5; 12],
        (0..256).map(|s| [3, 3, 7, 1][s % 4]).collect(),
        vec![7; 256],
        (0..256u32).map(|s| 1 + s.wrapping_mul(2654435761) % 1000).collect(),
    ];
    let mut lone = vec![0u32; 256];
    lone[42] = 5;
    shapes.push(lone);
    let mut fib = vec![0u32; 256];
    let (mut a, mut b) = (1u32, 1u32);
    for f in fib.iter_mut().skip(3).step_by(5).take(40) {
        *f = a;
        (a, b) = (b, a + b);
    }
    shapes.push(fib.clone());
    // Every symbol live *and* a skewed head: the longest codes pass 16 bits.
    shapes.push(fib.iter().map(|&f| f.max(1)).collect());
    for freq in &shapes {
        let fast = gen_optimal_table(freq).unwrap();
        assert_eq!(fast, reference_gen_optimal_table(freq).unwrap(), "freq {freq:?}");
    }
    // The skewed shapes really exercise the limiter: unlimited lengths
    // would exceed 16 bits, the table's do not.
    let t = gen_optimal_table(&fib).unwrap();
    assert!(t.bits[15] > 0, "expected 16-bit codes, got {:?}", t.bits);
}

/// Every AC coefficient `k` of `coeffs` at the precision of point
/// transform `al(k)` (magnitude bits below it dropped, sign kept), as
/// the scans up to that precision leave it.
fn at_precision(frame: &FrameInfo, coeffs: &CoeffPlanes, al: impl Fn(usize) -> u8) -> CoeffPlanes {
    let mut out = coeffs.clone();
    let c = frame.components[0].clone();
    for row in 0..c.alloc_h {
        for col in 0..c.alloc_w {
            for (k, v) in out.block_mut(frame, 0, row, col).iter_mut().enumerate().skip(1) {
                *v = v.signum() * ((v.abs() >> al(k)) << al(k));
            }
        }
    }
    out
}

/// Decodes one AC-refinement scan's entropy bytes over `prior` through
/// the production walk (two-level LUT, batched reader) and through the
/// literal T.81 oracle (canonical decoder, per-byte reader), asserting
/// the same `Result` — equal coefficients, or the same error. Returns
/// the production outcome.
fn assert_refine_matches_oracle(
    frame: &FrameInfo,
    prior: &CoeffPlanes,
    scan: &ScanInfo,
    table: &HuffTable,
    bytes: &[u8],
    what: &str,
) -> Result<CoeffPlanes> {
    let units = 0..mcu_units(frame, scan);
    let none = [None, None, None, None];
    let fast_ac = [Some(HuffDecoder::from_table(table).unwrap()), None, None, None];
    let fast = {
        let mut planes = prior.clone();
        let tables = DecodeTables { dc: &none, ac: &fast_ac };
        let mut r = BitReader::new(bytes);
        decode_scan_range(frame, &mut planes, scan, &tables, &mut r, units.clone()).map(|()| planes)
    };
    let none = [None, None, None, None];
    let oracle_ac = [Some(ReferenceHuffDecoder::from_table(table).unwrap()), None, None, None];
    let oracle = {
        let mut planes = prior.clone();
        let tables = DecodeTables { dc: &none, ac: &oracle_ac };
        let mut r = ReferenceBitReader::new(bytes);
        reference::reference_decode_ac_refine(frame, &mut planes, scan, &tables, &mut r, units)
            .map(|()| planes)
    };
    assert_eq!(fast, oracle, "{what}");
    fast
}

/// Encodes `scan` of `coeffs` with optimal tables, then decodes it over
/// the precision the scan refines through both decoders; the result must
/// be `coeffs` at the scan's own precision. Returns the scan's bytes and
/// AC table for further cuts.
fn assert_encoded_refine_round_trips(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    scan: &ScanInfo,
    what: &str,
) -> (Vec<u8>, HuffTable) {
    let mut tables = ScanTables::default();
    let bytes = ScanEncoder::new(coeffs).encode_scan(frame, scan, true, &mut tables).unwrap();
    let table = tables.iter().flatten().next().expect("an AC table").clone();
    let prior = at_precision(frame, coeffs, |_| scan.ah);
    let decoded = assert_refine_matches_oracle(frame, &prior, scan, &table, &bytes, what);
    let band = usize::from(scan.ss)..=usize::from(scan.se);
    let refined = at_precision(frame, coeffs, |k| if band.contains(&k) { scan.al } else { scan.ah });
    assert_eq!(decoded.unwrap(), refined, "{what}");
    (bytes, table)
}

/// Every refinement symbol — EOB0..EOB14, ZRL, a size-1 coefficient
/// after each run — plus the illegal size 2, with near-equal code
/// lengths, for hand-assembled refinement streams.
fn refine_table() -> HuffTable {
    let mut freq = vec![0u32; 256];
    for run in 0..16usize {
        freq[run << 4] = 1; // EOBn, and ZRL at run 15
        freq[(run << 4) | 1] = 1;
    }
    freq[0x02] = 1;
    gen_optimal_table(&freq).unwrap()
}

/// One hand-assembled step: a symbol, then the low `n` bits of `bits`.
type Step = (u8, u64, u32);

/// Writes hand-written steps: each is a symbol of `enc` followed by the
/// low `n` bits of `bits` (any `n <= 64`).
fn put_steps(w: &mut BitWriter, enc: &HuffEncoder, steps: &[Step]) {
    for &(sym, bits, n) in steps {
        enc.encode(w, sym);
        for shift in (0..n).rev() {
            w.put_bits((bits >> shift) as u32 & 1, 1);
        }
    }
}

/// Assembles a hand-written entropy segment of `table`'s steps.
fn assemble(table: &HuffTable, steps: &[Step]) -> Vec<u8> {
    let mut w = BitWriter::new();
    put_steps(&mut w, &HuffEncoder::from_table(table).unwrap(), steps);
    w.finish()
}

/// A step that passes 17 to 62 already-nonzero positions before its new
/// coefficient: with its code and sign bit, the correction bits spill
/// past the 32-bit window from about 26 on, so both the one-window step
/// and the spilled step run.
#[test]
fn refinement_steps_spilling_the_wide_window_match_oracle() {
    for passed in [17usize, 20, 25, 26, 27, 28, 30, 31, 40, 62] {
        let (frame, coeffs) = gray_planes(24, 16, |i| {
            let mut b = [0i16; 64];
            b[0] = 40;
            for (k, v) in b.iter_mut().enumerate().skip(1).take(passed) {
                // Known magnitudes, a mix of set and clear low bits.
                *v = [2, -3, 5, -4, 7, 6][(k + i as usize) % 6];
            }
            if passed < 63 {
                b[passed + 1] = if i % 2 == 0 { 1 } else { -1 };
            }
            b
        });
        let scan = single_scan(0, 1, 63, 1, 0);
        assert_encoded_refine_round_trips(&frame, &coeffs, &scan, &format!("passed {passed}"));
    }
}

/// Correction bits after an end-of-band: more than 16 of them in the
/// tail of the block that sends the EOB, and in every block of the EOB
/// run that follows — 16-bit reads chained across one block.
#[test]
fn eob_run_tails_with_many_correction_bits_match_oracle() {
    let (frame, coeffs) = gray_planes(64, 32, |i| {
        let mut b = [0i16; 64];
        b[0] = 8;
        let dense = 17 + (i as usize * 7) % 40;
        for (k, v) in b.iter_mut().enumerate().skip(3).take(dense) {
            *v = if (k + i as usize).is_multiple_of(3) { -6 } else { 3 };
        }
        // Every fifth block sends a new coefficient ahead of the dense
        // run, so its EOB carries the tail; the rest ride EOB runs.
        if i % 5 == 0 {
            b[1] = 1;
        }
        b
    });
    for scan in [single_scan(0, 1, 63, 1, 0), single_scan(0, 2, 50, 1, 0)] {
        assert_encoded_refine_round_trips(&frame, &coeffs, &scan, "EOB-run tails");
    }
}

/// A stream cut anywhere inside a refinement scan reads zero bits from
/// the cut on: both decoders give the same outcome at every cut.
#[test]
fn truncated_refinement_scans_match_oracle() {
    let (frame, coeffs) = filled_frame_q100(48, 40);
    for scan in [single_scan(0, 1, 63, 2, 1), single_scan(0, 1, 63, 1, 0)] {
        let (bytes, table) = assert_encoded_refine_round_trips(&frame, &coeffs, &scan, "whole");
        let prior = at_precision(&frame, &coeffs, |_| scan.ah);
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            // Zero padding may spell an illegal run: then both must fail alike.
            let _ = assert_refine_matches_oracle(
                &frame,
                &prior,
                &scan,
                &table,
                &bytes[..cut],
                &format!("cut at byte {cut} of {}", bytes.len()),
            );
        }
    }
}

/// Gray frame of dense, q100-like coefficients: many known nonzero
/// positions and many new ones in both refinement steps.
fn filled_frame_q100(w: u32, h: u32) -> (FrameInfo, CoeffPlanes) {
    let mut seed = 0x2545_F491u32;
    gray_planes(w, h, |_| {
        core::array::from_fn(|k| {
            seed = seed.wrapping_mul(1_103_515_245).wrapping_add(12345);
            let r = (seed >> 16) as i32;
            let spread = 40 / (1 + k as i32 / 4);
            if r % 5 == 0 { 0 } else { (r % (2 * spread + 1) - spread) as i16 }
        })
    })
}

/// Hand-assembled streams the encoder never writes: a ZRL with fewer
/// than 16 zeros left in the band (it ends the block's walk), a run that
/// stops exactly on the band's last zero, a size-2 coefficient and a
/// coefficient run past the band end (both errors).
#[test]
fn hand_assembled_refinement_corner_cases_match_oracle() {
    let table = refine_table();
    // Block 0: band positions 1..=50 known nonzero, 51..=63 zero (13
    // zeros). Block 1: 1..=20 nonzero, 21..=63 zero.
    let (frame, prior) = gray_planes(16, 8, |i| {
        let known = if i == 0 { 50 } else { 20 };
        core::array::from_fn(|k| match k {
            0 => 16,
            _ if k <= known => if k % 3 == 0 { -2 } else { 4 },
            _ => 0,
        })
    });
    let scan = single_scan(0, 1, 63, 1, 0);
    let corr50 = 0x2_5A5A_F00F_3C3Cu64 & ((1 << 50) - 1);
    let corr20 = 0xA_5F0Fu64;
    let zrl = 0xF0u8;
    let cases: [(&str, Vec<Step>, bool); 5] = [
        // ZRL with 13 zeros left: passes all 50 known coefficients and
        // the band end; block 1 then ends on EOB0 with its tail.
        ("short ZRL", vec![(zrl, corr50, 50), (0x00, corr20, 20)], true),
        // Two ZRLs in block 1 (43 zeros): the second has 27 zeros left,
        // then a run of 10 lands on the last zero, position 63.
        (
            "run onto the band's last zero",
            vec![
                (0x00, corr50, 50),
                (zrl, corr20, 20),
                (zrl, 0, 0),
                (0xA1, 1, 1),
            ],
            true,
        ),
        // A run of 11 with 11 zeros left: the coefficient falls past the end.
        (
            "run past the band end",
            vec![(0x00, corr50, 50), (zrl, corr20, 20), (zrl, 0, 0), (0xB1, 1, 1)],
            false,
        ),
        ("size-2 coefficient", vec![(0x02, 0b10, 2)], false),
        // Sign bit and 50 correction bits, then the bad symbol.
        ("size-2 after a step", vec![(0x31, 1 << 50 | corr50, 51), (0x02, 0b01, 2)], false),
    ];
    for (what, steps, ok) in cases {
        let bytes = assemble(&table, &steps);
        let out = assert_refine_matches_oracle(&frame, &prior, &scan, &table, &bytes, what);
        assert_eq!(out.is_ok(), ok, "{what}: {out:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bits as a refinement scan over random prior blocks and a
    /// random band: the production walk and the literal oracle reach the
    /// same `Result` — errors included — on streams that are mostly not
    /// what an encoder writes.
    #[test]
    fn random_refinement_streams_match_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        seed in any::<u32>(),
        ss in 1u8..64,
        width in 0u8..63,
        al in 0u8..4,
    ) {
        let se = ss.saturating_add(width).min(63);
        let mut s = seed | 1;
        let (frame, prior) = gray_planes(24, 16, |_| {
            core::array::from_fn(|k| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let r = (s >> 20) as i16;
                if k == 0 || r % 3 == 0 { 0 } else { (r % 9 - 4) << (al + 1) }
            })
        });
        let scan = single_scan(0, ss, se, al + 1, al);
        let stuffed: Vec<u8> =
            bytes.iter().flat_map(|&b| if b == 0xFF { vec![b, 0] } else { vec![b] }).collect();
        let _ = assert_refine_matches_oracle(
            &frame, &prior, &scan, &refine_table(), &stuffed, "random",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense q100-like refinement blocks — about a third each of zero,
    /// known and newly nonzero coefficients, the regime where nearly
    /// every segment takes the one-symbol path — through the production
    /// walk and the two-pass encoder over a random band.
    #[test]
    fn dense_refinement_blocks_match_two_pass_encoder(
        seed in any::<u32>(),
        al in 0u32..3,
        a in 1u8..64,
        b in 1u8..64,
    ) {
        let mut s = seed | 1;
        let mut next = |m: u32| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 8) % m
        };
        let (frame, coeffs) = gray_planes(64, 64, |_| {
            core::array::from_fn(|_| {
                let m = match next(3) {
                    0 => 0,
                    1 => 1,
                    _ => 2 + next(40) as i16,
                };
                let v = m << al | next(1 << al) as i16;
                if next(2) == 0 { v } else { -v }
            })
        });
        let scan = single_scan(0, a.min(b), a.max(b), al as u8 + 1, al as u8);
        assert_scan_encoders_agree(&frame, &coeffs, &scan, "dense refinement");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Decode kernel: random (realistically bounded) coefficient blocks
    /// with random 8-bit quantization tables produce byte-identical
    /// pixels through the fast f32 AAN kernel and the f64 basis-matrix
    /// oracle.
    #[test]
    fn pixel_kernel_matches_reference_on_random_blocks(
        coeffs in proptest::collection::vec(-2048i32..2048, 64),
        qseed in any::<u32>(),
        sparsity in 0u32..4,
    ) {
        let mut q = [0u16; 64];
        let mut s = qseed | 1;
        for v in q.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = 1 + ((s >> 16) % 255) as u16;
        }
        let mut block = [0i16; 64];
        for (i, &c) in coeffs.iter().enumerate() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            // Randomly sparsify: real blocks have structured zero runs.
            let keep = sparsity == 0 || !(s >> 28).is_multiple_of(sparsity);
            // Keep |coeff * q| in the conformant DCT range so the float
            // contract's error margin applies.
            let c = c.clamp(-(4096 / i32::from(q[i])), 4096 / i32::from(q[i]));
            block[i] = if keep { c as i16 } else { 0 };
        }
        let mut fast = FastBlockIdct::default();
        fast.begin_table(&q);
        let mut fast_px = [0u8; 64];
        fast.transform(&core::array::from_fn(|k| block[ZIGZAG[k]]), &mut fast_px);

        // Reference: f64 dequant, basis-matrix IDCT, same descale contract.
        let mut freq = [0f64; 64];
        for i in 0..64 {
            freq[i] = f64::from(block[i]) * f64::from(q[i]);
        }
        let mut spatial = [0f64; 64];
        reference::reference_inverse_dct(&freq, &mut spatial);
        let mut ref_px = [0u8; 64];
        for i in 0..64 {
            ref_px[i] = (descale(spatial[i]) + 128).clamp(0, 255) as u8;
        }
        prop_assert_eq!(fast_px, ref_px);
    }

    /// Encode kernel: random sample blocks quantize to identical
    /// coefficients through the fast AAN forward path (folded
    /// multipliers) and the reference basis-matrix + division path.
    #[test]
    fn forward_quantize_matches_reference_on_random_blocks(
        samples in proptest::collection::vec(0u32..256, 64),
        qseed in any::<u32>(),
    ) {
        let mut q = [0u16; 64];
        let mut s = qseed | 1;
        for v in q.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = 1 + ((s >> 16) % 255) as u16;
        }
        let mut spatial = [0f64; 64];
        for i in 0..64 {
            spatial[i] = f64::from(samples[i]) - 128.0;
        }
        prop_assert_eq!(fast_quantize(&spatial, &q), reference_quantize(&spatial, &q));
    }

    /// Huffman: the two-level LUT decoder and the canonical walk agree
    /// symbol-for-symbol over random optimal tables (random skew, random
    /// alphabet size — long codes included) and random messages.
    #[test]
    fn lut_decoder_matches_canonical_on_random_tables(
        fseed in any::<u32>(),
        nsyms in 2usize..257,
        msg_seed in any::<u32>(),
    ) {
        let mut freq = vec![0u32; 256];
        let mut s = fseed | 1;
        for f in freq.iter_mut().take(nsyms) {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            // Heavy skew produces long codes; +1 keeps every symbol coded.
            *f = 1 + ((s >> 8) % 65_536) * u32::from(s.is_multiple_of(7)) + (s >> 28);
        }
        let table = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&table).unwrap();
        let fast = HuffDecoder::from_table(&table).unwrap();
        let oracle = ReferenceHuffDecoder::from_table(&table).unwrap();
        let mut s = msg_seed | 1;
        let msg: Vec<u8> = (0..600)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 16) as usize % nsyms) as u8
            })
            .collect();
        let mut w = BitWriter::new();
        for &sym in &msg {
            enc.encode(&mut w, sym);
        }
        let bytes = w.finish();
        let mut rf = BitReader::new(&bytes);
        let mut rr = ReferenceBitReader::new(&bytes);
        for &sym in &msg {
            prop_assert_eq!(fast.decode_symbol(&mut rf).unwrap(), sym);
            prop_assert_eq!(oracle.decode_symbol(&mut rr).unwrap(), sym);
        }
    }

    /// The fast-AC table, window by window, against the canonical
    /// decoder: a window hits iff it starts with a coefficient code
    /// (`size >= 1`) whose code and magnitude take at most 10 bits and
    /// whose value fits an `i8`, and the entry then holds that step.
    #[test]
    fn fast_ac_table_matches_canonical_steps_on_random_tables(
        fseed in any::<u32>(),
        nsyms in 2usize..257,
    ) {
        let mut freq = vec![0u32; 256];
        let mut s = fseed | 1;
        for f in freq.iter_mut().take(nsyms) {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *f = 1 + ((s >> 8) % 65_536) * u32::from(s.is_multiple_of(7)) + (s >> 28);
        }
        let table = gen_optimal_table(&freq).unwrap();
        let enc = HuffEncoder::from_table(&table).unwrap();
        let oracle = ReferenceHuffDecoder::from_table(&table).unwrap();
        let mut fast = HuffDecoder::from_table(&table).unwrap();
        fast.enable_fast_ac();
        let fast = fast.fast_ac().unwrap();
        for window in 0..1u32 << 10 {
            let mut w = BitWriter::new();
            w.put_bits(window, 10);
            w.put_bits(0, 22);
            let bytes = w.finish();
            let mut r = ReferenceBitReader::new(&bytes);
            let expected = oracle.decode_symbol(&mut r).ok().and_then(|rs| {
                let (len, size) = (u32::from(enc.code_len(rs)), u32::from(rs & 0x0F));
                if size == 0 || len + size > 10 {
                    return None;
                }
                let value = i8::try_from(extend(r.get_bits(size).unwrap(), size)).ok()?;
                Some(i16::from(value) << 8 | i16::from(rs >> 4) << 4 | (len + size) as i16)
            });
            prop_assert_eq!(fast[window as usize], expected.unwrap_or(0), "window {:010b}", window);
        }
    }

    /// Writers: the batched 64-bit writer and the per-byte reference
    /// writer produce identical bytes — and report identical lengths
    /// after every step — over random `(value, n <= 24)` sequences
    /// biased toward 0xFF-dense output.
    ///
    /// With `align`, the sequence is padded to end exactly on a 64-bit
    /// word boundary, so `finish` has no pending bits.
    #[test]
    fn batched_writer_matches_reference_on_random_sequences(
        ops in proptest::collection::vec((any::<u32>(), 0u32..25, 0u32..40), 0..300),
        align in any::<bool>(),
    ) {
        let mut fast = BitWriter::new();
        let mut oracle = ReferenceBitWriter::default();
        for &(value, n, kind) in &ops {
            match kind {
                // All-ones and 0xFF-aligned patterns: stuffing everywhere.
                0..=15 => {
                    fast.put_bits(u32::MAX, n);
                    oracle.put_bits(u32::MAX, n);
                }
                16..=19 => {
                    fast.put_bits(value | 0x00FF_FF00, n);
                    oracle.put_bits(value | 0x00FF_FF00, n);
                }
                _ => {
                    fast.put_bits(value, n);
                    oracle.put_bits(value, n);
                }
            }
            prop_assert_eq!(fast.len(), oracle.len());
            prop_assert_eq!(fast.is_empty(), oracle.is_empty());
        }
        if align {
            let total: u32 = ops.iter().map(|&(_, n, _)| n).sum();
            let mut pad = (64 - total % 64) % 64;
            while pad > 0 {
                let n = pad.min(24);
                fast.put_bits(0xFF_FF00, n);
                oracle.put_bits(0xFF_FF00, n);
                pad -= n;
            }
        }
        prop_assert_eq!(fast.finish(), oracle.finish());
    }

    /// Optimal tables: the heap-ordered merge and libjpeg's two sweeps
    /// agree on `(bits, vals)` for random frequency vectors — narrow
    /// value ranges (ties everywhere) through heavy skew (length limiting).
    #[test]
    fn heap_optimal_tables_match_libjpeg_sweep(
        seed in any::<u32>(),
        nsyms in 1usize..257,
        spread in 0u32..5,
    ) {
        let mut s = seed | 1;
        let mut freq: Vec<u32> = (0..nsyms)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                match spread {
                    0 => (s >> 30) + 1,
                    1 => (s >> 28) % 5,
                    2 => (s >> 16) % 1000,
                    3 => 1 << ((s >> 27) % 28),
                    _ => (s >> 8) * u32::from(s.is_multiple_of(3)),
                }
            })
            .collect();
        // At least one symbol must be live.
        let live = seed as usize % nsyms;
        freq[live] = freq[live].max(1);
        let oracle = reference_gen_optimal_table(&freq).unwrap();
        prop_assert_eq!(gen_optimal_table(&freq).unwrap(), oracle);
    }

    /// The encoder: a single walk into tokens plus a linear replay equals
    /// the two-pass `dyn EntropySink` walk — same optimal tables, same
    /// bytes — for every scan type over random planes (block mix from
    /// all-zero through all-nonzero, magnitudes up to the 10-bit limit
    /// and just past it), random table ids, bands and point transforms.
    #[test]
    fn token_replay_matches_two_pass_encoder_on_random_scans(
        seed in any::<u32>(),
        (w, h) in (1u32..72, 1u32..72),
        layout in 0u8..3,
        kind in 0u8..6,
        (a, b) in (1u8..64, 1u8..64),
        al in 0u8..4,
        interleaved in any::<bool>(),
        density in 0u32..6,
    ) {
        let layouts = [(1, Subsampling::S444), (3, Subsampling::S444), (3, Subsampling::S420)];
        let (channels, subsampling) = layouts[usize::from(layout)];
        let progressive = kind > 0;
        let frame = FrameInfo::for_encode(w, h, channels, subsampling, progressive).unwrap();
        let mut coeffs = CoeffPlanes::new(&frame);
        let mut s = seed | 1;
        let mut next = |m: u32| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            (s >> 8) % m
        };
        for (ci, c) in frame.components.iter().enumerate() {
            for row in 0..c.alloc_h {
                for col in 0..c.alloc_w {
                    // Per-block mix: empty, sparse, dense-small, dense-large, full.
                    let class = (next(6) + density) % 6;
                    let block = coeffs.block_mut(&frame, ci, row, col);
                    block[0] = next(2048) as i16 - 1024;
                    for v in block.iter_mut().skip(1) {
                        let (keep, amp) = match class {
                            0 => (false, 1),
                            1 => (next(9) == 0, 4),
                            2 => (next(2) == 0, 8),
                            3 => (next(3) != 0, 1023),
                            4 => (true, 6),
                            _ => (next(40) == 0, 1100),
                        };
                        let m = 1 + next(amp) as i16;
                        *v = if !keep { 0 } else if next(2) == 0 { m } else { -m };
                    }
                }
            }
        }
        let ncomp = frame.components.len();
        let mut component = |comp_index: usize| ScanComponent {
            comp_index,
            dc_table: next(4) as u8,
            ac_table: next(4) as u8,
        };
        let all: Vec<ScanComponent> = (0..ncomp).map(&mut component).collect();
        let one = vec![component(seed as usize % ncomp)];
        let (ss, se) = (a.min(b), a.max(b));
        let scan = match kind {
            0..=2 => {
                let components = if interleaved { all } else { one };
                let (se, ah, al) = [(63, 0, 0), (0, 0, al), (0, al + 1, al)][usize::from(kind)];
                ScanInfo { components, ss: 0, se, ah, al }
            }
            3 => ScanInfo { components: one, ss, se, ah: 0, al },
            _ => ScanInfo { components: one, ss, se, ah: al + 1, al },
        };
        assert_scan_encoders_agree(&frame, &coeffs, &scan, "random scan");
    }

    /// Readers: the batched 64-bit reader and the per-byte reference
    /// reader return identical bits under a random mixed schedule of
    /// peek / consume / get_bits over random stuffing-heavy streams.
    #[test]
    fn batched_reader_matches_reference_on_random_streams(
        body in proptest::collection::vec(any::<u8>(), 0..400),
        with_marker in any::<bool>(),
        schedule_seed in any::<u32>(),
    ) {
        // Re-stuff the raw body so it is a legal entropy segment.
        let mut data = Vec::with_capacity(body.len() * 2 + 2);
        for &b in &body {
            data.push(b);
            if b == 0xFF {
                data.push(0x00);
            }
        }
        if with_marker {
            data.extend_from_slice(&[0xFF, 0xD9]);
        }
        let mut fast = BitReader::new(&data);
        let mut oracle = ReferenceBitReader::new(&data);
        let mut s = schedule_seed | 1;
        for step in 0..2000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = (s >> 7) % 16 + 1; // 1..=16
            match s % 3 {
                0 => prop_assert_eq!(
                    fast.peek_bits(n).unwrap(),
                    oracle.peek_bits(n).unwrap(),
                    "peek({}) at step {}", n, step
                ),
                1 => prop_assert_eq!(
                    fast.get_bits(n).unwrap(),
                    oracle.get_bits(n).unwrap(),
                    "get_bits({}) at step {}", n, step
                ),
                _ => {
                    let m = n.min(8);
                    prop_assert_eq!(fast.peek_bits(m).unwrap(), oracle.peek_bits(m).unwrap());
                    fast.consume(m).unwrap();
                    oracle.consume(m).unwrap();
                }
            }
            if fast.exhausted() && oracle.exhausted() && step > 800 {
                break;
            }
        }
        prop_assert_eq!(fast.marker(), oracle.marker());
    }

    /// Restart splitters: the word-at-a-time scanner and the per-byte
    /// oracle carve identical segment boundaries out of adversarial
    /// buffers dense with stuffing, RSTn markers, and trailing 0xFFs.
    #[test]
    fn restart_splitter_matches_reference_on_random_buffers(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u32>(),
    ) {
        // Re-stuff, then splice RSTn markers (and sometimes a real
        // marker) at random positions so both kinds of 0xFF pairs occur.
        let mut data = Vec::with_capacity(body.len() * 2 + 8);
        let mut s = seed | 1;
        for &b in &body {
            data.push(b);
            if b == 0xFF {
                data.push(0x00);
            }
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            match s % 23 {
                0..=2 => data.extend_from_slice(&[0xFF, 0xD0 | ((s >> 8) % 8) as u8]),
                3 => data.extend_from_slice(&[0xFF, 0xD9]),
                _ => {}
            }
        }
        if seed.is_multiple_of(5) {
            data.push(0xFF); // lone trailing 0xFF
        }
        prop_assert_eq!(
            crate::bitio::split_restart_segments(&data),
            reference::reference_split_segments(&data)
        );
    }

    /// Restart streams over random geometry / interval / mode decode
    /// byte-identically through both stacks at a random scan prefix.
    #[test]
    fn random_restart_streams_decode_identically(
        w in 9u32..70,
        h in 9u32..70,
        kind in any::<u32>(),
        interval in 1u16..9,
        gray in any::<bool>(),
    ) {
        let img = test_image(w, h, if gray { 1 } else { 3 }, kind);
        let cfg = EncodeConfig {
            quality: 60 + (kind % 41) as u8,
            subsampling: if kind.is_multiple_of(2) { Subsampling::S420 } else { Subsampling::S444 },
            progressive: !kind.is_multiple_of(4),
            optimize_huffman: !kind.is_multiple_of(4),
        };
        let stream = reference_encode_restart(&img, &cfg, interval).unwrap();
        let layout = split_scans(&stream).unwrap();
        let n = (kind as usize % layout.num_scans()) + 1;
        let prefix = assemble_prefix(&stream, &layout, n).unwrap();
        let fast = decode(&prefix).unwrap();
        let oracle = reference::reference_decode(&prefix).unwrap();
        prop_assert_eq!(fast.data(), oracle.data());
        // Coefficient-level identity too, not only after the IDCT's rounding.
        let seq = crate::decoder::decode_coeffs(&prefix).unwrap();
        let ref_coeffs = reference::reference_decode_coeffs(&prefix).unwrap();
        prop_assert_eq!(seq.coeffs, ref_coeffs.coeffs);
    }

    /// Corruption: flipping a single bit inside a restart stream's
    /// entropy data never panics and never diverges — both stacks
    /// produce byte-identical pixels, or both report an error.
    #[test]
    fn bit_flipped_restart_streams_never_diverge(
        kind in any::<u32>(),
        flip_seed in any::<u32>(),
        interval in 1u16..5,
    ) {
        let img = test_image(40, 33, 3, kind);
        let cfg = EncodeConfig::progressive(85);
        let mut stream = reference_encode_restart(&img, &cfg, interval).unwrap();
        // Flip one bit somewhere after the first SOS so the corruption
        // lands in (or frames) entropy-coded data.
        let sos = stream
            .windows(2)
            .position(|s| s == [0xFF, 0xDA])
            .expect("stream has a scan");
        let lo = sos + 2;
        let pos = lo + (flip_seed as usize) % (stream.len() - lo);
        stream[pos] ^= 1 << (flip_seed >> 29);
        let fast = decode(&stream);
        let oracle = reference::reference_decode(&stream);
        match (fast, oracle) {
            (Ok(f), Ok(o)) => prop_assert_eq!(f.data(), o.data(), "flip at {}", pos),
            (Err(_), Err(_)) => {}
            (f, o) => panic!("divergent outcome, flip at {pos}: fast={f:?} oracle={o:?}"),
        }
    }

    /// End to end on random images: full fast decode equals full
    /// reference decode at a random scan prefix.
    #[test]
    fn random_images_decode_identically(
        w in 9u32..70,
        h in 9u32..70,
        kind in any::<u32>(),
        quality in 55u8..101,
    ) {
        let img = test_image(w, h, 3, kind);
        let stream = encode(&img, &EncodeConfig::progressive(quality)).unwrap();
        let layout = split_scans(&stream).unwrap();
        let n = (kind as usize % layout.num_scans()) + 1;
        let prefix = assemble_prefix(&stream, &layout, n).unwrap();
        let fast = decode(&prefix).unwrap();
        let oracle = reference::reference_decode(&prefix).unwrap();
        prop_assert_eq!(fast.data(), oracle.data());
    }
}

