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
//!   both stacks.

use crate::bitio::{BitReader, BitSource, BitWriter};
use crate::consts::ZIGZAG;
use crate::dct::{descale, forward_dct_raw, forward_quant_scales};
use crate::decoder::decode;
use crate::dentropy::mcu_units;
use crate::encoder::{encode, EncodeConfig};
use crate::entropy::{ScanEncoder, ScanTables};
use crate::error::Result;
use crate::frame::{CoeffPlanes, FrameInfo, ScanComponent, ScanInfo, Subsampling};
use crate::huffman::{gen_optimal_table, HuffDecoder, HuffEncoder, SymbolDecoder};
use crate::image::ImageBuf;
use crate::reference;
use crate::reference::{ReferenceBitReader, ReferenceBitWriter, ReferenceHuffDecoder};
use crate::reference_encoder::{
    reference_encode_restart, reference_encode_scan, reference_gen_optimal_table,
};
use crate::sample::{BlockIdct, FastBlockIdct};
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
/// decoder's pixels byte for byte.
#[test]
fn fast_decoder_matches_reference_at_every_truncation_level() {
    for (name, stream) in corpus() {
        let layout = split_scans(&stream).unwrap();
        for n in 1..=layout.num_scans() {
            let prefix = assemble_prefix(&stream, &layout, n).unwrap();
            let fast = decode(&prefix).unwrap();
            let oracle = reference::reference_decode(&prefix).unwrap();
            assert_eq!(
                fast.data(),
                oracle.data(),
                "pixel mismatch: {name}, scans 1..={n}"
            );
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
            prop_assert_eq!(fast.decode(&mut rf).unwrap(), sym);
            prop_assert_eq!(oracle.decode_symbol(&mut rr).unwrap(), sym);
        }
    }

    /// Writers: the batched 64-bit writer and the per-byte reference
    /// writer produce identical bytes — and report identical lengths
    /// after every step — over random `(value, n <= 24)` sequences
    /// biased toward 0xFF-dense output.
    #[test]
    fn batched_writer_matches_reference_on_random_sequences(
        ops in proptest::collection::vec((any::<u32>(), 0u32..25, 0u32..40), 0..300),
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

