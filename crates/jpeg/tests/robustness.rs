//! Failure-injection tests: the decoder must return errors (never panic,
//! never loop) on corrupted, truncated, or bit-flipped streams. The PCR
//! read path depends on graceful handling of arbitrary prefixes.

use pcr_jpeg::{decode, encode, EncodeConfig, Error, ImageBuf, Subsampling};
use proptest::prelude::*;
use std::sync::OnceLock;

fn test_image() -> ImageBuf {
    let mut data = Vec::new();
    for y in 0..48u32 {
        for x in 0..48u32 {
            data.push(((x * 5 + y * 3) % 256) as u8);
            data.push(((x + y * 7) % 256) as u8);
            data.push(((x * y) % 256) as u8);
        }
    }
    ImageBuf::from_raw(48, 48, 3, data).unwrap()
}

#[test]
fn decode_survives_every_truncation_length() {
    // Every prefix of a progressive stream must either decode (possibly
    // with reduced quality) or return an error — never panic.
    let prog = encode(&test_image(), &EncodeConfig::progressive(85)).unwrap();
    for len in 0..prog.len() {
        let _ = decode(&prog[..len]);
    }
}

#[test]
fn decode_survives_every_truncation_length_baseline() {
    let base = encode(&test_image(), &EncodeConfig::baseline(85)).unwrap();
    for len in (0..base.len()).step_by(7) {
        let _ = decode(&base[..len]);
    }
}

#[test]
fn decode_survives_single_byte_flips() {
    let prog = encode(&test_image(), &EncodeConfig::progressive(85)).unwrap();
    // Flip each byte position (stride to keep runtime sane) and decode.
    for pos in (0..prog.len()).step_by(3) {
        let mut corrupt = prog.clone();
        corrupt[pos] ^= 0xFF;
        let _ = decode(&corrupt);
    }
}

#[test]
fn decode_survives_zeroed_segments() {
    let base = encode(&test_image(), &EncodeConfig::baseline(85)).unwrap();
    for window in [4usize, 16, 64] {
        for start in (2..base.len().saturating_sub(window)).step_by(31) {
            let mut corrupt = base.clone();
            for b in &mut corrupt[start..start + window] {
                *b = 0;
            }
            let _ = decode(&corrupt);
        }
    }
}

#[test]
fn decode_rejects_pathological_headers() {
    // SOI + SOF with zero components.
    let mut bad = vec![0xFF, 0xD8, 0xFF, 0xC0, 0x00, 0x08, 8, 0, 16, 0, 16, 0];
    bad.extend_from_slice(&[0xFF, 0xD9]);
    assert!(decode(&bad).is_err());

    // Declared segment length pointing past the end.
    let bad = vec![0xFF, 0xD8, 0xFF, 0xDB, 0xFF, 0xFF, 0x00];
    assert!(decode(&bad).is_err());

    // Huffman table with impossible code counts.
    let mut bad = vec![0xFF, 0xD8];
    let mut dht = vec![0x00]; // class 0 table 0
    dht.extend_from_slice(&[255u8; 16]); // 255 codes of every length
    dht.extend_from_slice(&[0u8; 16]);
    bad.extend_from_slice(&[0xFF, 0xC4]);
    bad.extend_from_slice(&((dht.len() + 2) as u16).to_be_bytes());
    bad.extend_from_slice(&dht);
    assert!(decode(&bad).is_err());
}

#[test]
fn huge_declared_dimensions_rejected() {
    // 0xFFFF x 0xFFFF would be ~12GB of coefficient planes if it were
    // allocated with 4:2:0 sampling; the decoder should fail cleanly on
    // the truncated entropy data rather than aborting. We keep dimensions
    // large but allocatable and verify the error path.
    let img = ImageBuf::from_raw(8, 8, 1, vec![128; 64]).unwrap();
    let mut stream = encode(&img, &EncodeConfig::baseline(85)).unwrap();
    // Patch the SOF dimensions to 1024x1024 without providing data.
    let sof = stream
        .windows(2)
        .position(|w| w == [0xFF, 0xC0])
        .expect("SOF present");
    stream[sof + 5] = 0x04; // height 1024
    stream[sof + 6] = 0x00;
    stream[sof + 7] = 0x04; // width 1024
    stream[sof + 8] = 0x00;
    // Either decodes a mostly-empty image or errors; must not panic.
    let _ = decode(&stream);
}

#[test]
fn repeated_markers_and_garbage_between_segments() {
    let base = encode(&test_image(), &EncodeConfig::baseline(85)).unwrap();
    // Duplicate the DQT segment: decoders overwrite tables, fine.
    let dqt = base.windows(2).position(|w| w == [0xFF, 0xDB]).unwrap();
    let len = u16::from_be_bytes([base[dqt + 2], base[dqt + 3]]) as usize + 2;
    let mut doubled = Vec::new();
    doubled.extend_from_slice(&base[..dqt + len]);
    doubled.extend_from_slice(&base[dqt..dqt + len]); // duplicate
    doubled.extend_from_slice(&base[dqt + len..]);
    let out = decode(&doubled).expect("duplicate DQT is harmless");
    assert_eq!(out, decode(&base).unwrap());
}

/// A frame component's sampling factors and quantization table: `(h, v, tq)`.
type Comp = (u8, u8, u8);

/// `stream` with its SOF segment replaced by one declaring `width` x
/// `height` and `comps` (ids 1, 2, ...), and the offset just past the new
/// segment.
fn with_sof(stream: &[u8], width: u16, height: u16, comps: &[Comp]) -> (Vec<u8>, usize) {
    let at = stream
        .windows(2)
        .position(|w| w == [0xFF, 0xC0] || w == [0xFF, 0xC2])
        .expect("SOF present");
    let old_len = usize::from(u16::from_be_bytes([stream[at + 2], stream[at + 3]]));
    let mut out = stream[..at + 2].to_vec();
    out.extend_from_slice(&(8 + 3 * comps.len() as u16).to_be_bytes());
    out.push(8);
    out.extend_from_slice(&height.to_be_bytes());
    out.extend_from_slice(&width.to_be_bytes());
    out.push(comps.len() as u8);
    for (id, &(h, v, tq)) in (1u8..).zip(comps) {
        out.extend_from_slice(&[id, h << 4 | v, tq]);
    }
    let sof_end = out.len();
    out.extend_from_slice(&stream[at + 2 + old_len..]);
    (out, sof_end)
}

#[test]
fn crafted_frame_geometries_are_rejected() {
    // Frames the pixel assembly cannot build: two components (no colour
    // model), zero width or height, and a zero sampling factor (an empty
    // block grid). The decoder must refuse them at the frame header, both
    // for the whole stream and for a stream cut right after the SOF (no
    // scans, so nothing else fails first).
    let color = encode(&test_image(), &EncodeConfig::baseline(85)).unwrap();
    let ycc: &[Comp] = &[(1, 1, 0), (1, 1, 1), (1, 1, 1)];
    let cases: [(u16, u16, &[Comp]); 7] = [
        (48, 48, &[(1, 1, 0), (1, 1, 1)]),
        (17, 9, &[(2, 2, 0), (1, 1, 1)]),
        (0, 48, ycc),
        (48, 0, ycc),
        (0, 8, &[(1, 1, 0)]),
        (48, 48, &[(1, 1, 0), (0, 1, 1), (1, 1, 1)]),
        (48, 48, &[(2, 2, 0), (1, 1, 1), (1, 0, 1)]),
    ];
    for (width, height, comps) in cases {
        let (stream, sof_end) = with_sof(&color, width, height, comps);
        for s in [&stream[..sof_end], &stream[..]] {
            let got = decode(s);
            assert!(
                matches!(got, Err(Error::UnsupportedFrame(_))),
                "{width}x{height}, {} components: {got:?}",
                comps.len()
            );
        }
    }
}

/// Valid encodings whose frame headers the property below rewrites:
/// baseline and progressive, grayscale, 4:4:4 and 4:2:0.
fn bases() -> &'static [Vec<u8>] {
    static BASES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BASES.get_or_init(|| {
        let color = test_image();
        let gray =
            ImageBuf::from_raw(24, 16, 1, (0..24 * 16).map(|i| (i * 7) as u8).collect()).unwrap();
        let s444 = EncodeConfig {
            subsampling: Subsampling::S444,
            ..EncodeConfig::progressive(60)
        };
        vec![
            encode(&color, &EncodeConfig::baseline(85)).unwrap(),
            encode(&color, &EncodeConfig::progressive(85)).unwrap(),
            encode(&color, &s444).unwrap(),
            encode(&gray, &EncodeConfig::progressive(85)).unwrap(),
            encode(&gray, &EncodeConfig::baseline(50)).unwrap(),
        ]
    })
}

/// A sampling factor: 1..=4, and one draw in 17 the invalid 0.
fn factor() -> impl Strategy<Value = u8> {
    (0u8..17).prop_map(|x| x.div_ceil(4))
}

/// Frame dimensions around the block and MCU edges.
const DIMS: [u16; 10] = [0, 1, 7, 8, 9, 16, 17, 33, 48, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any frame header over real scan data, cut anywhere after it:
    /// `decode` returns (an image or an error) and never panics.
    #[test]
    fn decode_survives_rewritten_frame_headers(
        base in 0usize..5,
        dims in (0usize..DIMS.len(), 0usize..DIMS.len()),
        comps in prop::collection::vec((factor(), factor(), 0u8..=1), 1..=4),
        cut in any::<u32>(),
    ) {
        let (stream, sof_end) = with_sof(&bases()[base], DIMS[dims.0], DIMS[dims.1], &comps);
        let len = sof_end + cut as usize % (stream.len() - sof_end + 1);
        let _ = decode(&stream[..len]);
    }
}
