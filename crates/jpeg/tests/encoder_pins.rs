//! Byte pins for the write path: FNV-1a digests of every stream the
//! entropy *encoder* produces over a layout × size × quality matrix.
//! The digests equal those of the two-pass `dyn EntropySink` encoder this
//! repository shipped before the token-replay rewrite (commit 22de6e1);
//! they were recomputed at commit 1014515, the last encoder with a
//! restart-marker option, over restart interval 0 only.
//! Any change to the encoder — the scan walk, the token stream, the bit
//! writer, `gen_optimal_table` — must leave every digest unchanged:
//! PCR containers are byte-identical across encoder versions, so scan
//! group *k* of a record packed today equals the one packed a year ago.
//!
//! Uses only the public API, so it survives internal refactors. When a
//! digest moves, the failure message names the cell and prints the whole
//! recomputed table.

use pcr_jpeg::frame::ScanComponent;
use pcr_jpeg::{
    encode, to_progressive, to_sequential, transcode, EncodeConfig, ImageBuf, ScanInfo,
    Subsampling,
};

/// Integer-only test content (no libm, so the pins hold on every
/// platform): a gradient, 8×8 block edges, and LCG noise whose weight
/// depends on `kind`.
fn pin_image(w: u32, h: u32, channels: u8, kind: u32) -> ImageBuf {
    let mut data = Vec::with_capacity((w * h * u32::from(channels)) as usize);
    let mut seed = kind.wrapping_mul(0x9E37_79B9).wrapping_add(w * 31 + h);
    for y in 0..h {
        for x in 0..w {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            let noise = (seed >> 24) as i32 - 128;
            let base = if kind.is_multiple_of(2) {
                ((x * 3 + y * 2) % 256) as i32
            } else {
                (((x / 8 + y / 8) % 2) * 200) as i32 + 28
            };
            let mix = (base + noise * (1 + kind as i32 % 3) / 3).clamp(0, 255) as u8;
            data.push(mix);
            if channels == 3 {
                data.push(mix.wrapping_add(55));
                data.push(200u8.wrapping_sub(mix / 2));
            }
        }
    }
    ImageBuf::from_raw(w, h, channels, data).unwrap()
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes.iter().chain(&(bytes.len() as u64).to_le_bytes()) {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn component_scan(comp_index: usize, ss: u8, se: u8, ah: u8, al: u8) -> ScanInfo {
    let table = u8::from(comp_index > 0);
    ScanInfo {
        components: vec![ScanComponent { comp_index, dc_table: table, ac_table: table }],
        ss,
        se,
        ah,
        al,
    }
}

/// A progressive script unlike the default one: full-precision DC, a
/// split first AC pass with a spectral cut at 9/10, and one refinement.
fn custom_progressive_script(ncomp: usize) -> Vec<ScanInfo> {
    let mut script = vec![ScanInfo {
        components: (0..ncomp)
            .map(|i| ScanComponent { comp_index: i, dc_table: u8::from(i > 0), ac_table: 0 })
            .collect(),
        ss: 0,
        se: 0,
        ah: 0,
        al: 0,
    }];
    for c in 0..ncomp {
        script.push(component_scan(c, 1, 9, 0, 0));
        script.push(component_scan(c, 10, 63, 0, 1));
    }
    for c in (0..ncomp).rev() {
        script.push(component_scan(c, 10, 63, 1, 0));
    }
    script
}

/// A sequential script of non-interleaved scans, one per component.
fn custom_sequential_script(ncomp: usize) -> Vec<ScanInfo> {
    (0..ncomp).map(|c| component_scan(c, 0, 63, 0, 0)).collect()
}

const LAYOUTS: [(&str, u8, Subsampling); 3] =
    [("gray", 1, Subsampling::S444), ("444", 3, Subsampling::S444), ("420", 3, Subsampling::S420)];
const SIZES: [(u32, u32); 4] = [(1, 1), (8, 8), (17, 33), (167, 167)];
const QUALITIES: [u8; 3] = [30, 75, 100];
const OPS: [&str; 7] = [
    "encode baseline",
    "encode optimised baseline",
    "encode progressive",
    "to_progressive",
    "to_sequential",
    "transcode custom progressive script",
    "transcode custom sequential script",
];

/// One digest per operation for a (layout, size) cell, each folding the
/// streams of every quality in a fixed order.
fn cell_digests(channels: u8, subsampling: Subsampling, w: u32, h: u32) -> [u64; 7] {
    let mut digests = [0xCBF2_9CE4_8422_2325u64; 7];
    for (qi, &quality) in QUALITIES.iter().enumerate() {
        let img = pin_image(w, h, channels, qi as u32 + w);
        let cfg = |progressive: bool, optimize_huffman: bool| EncodeConfig {
            quality,
            subsampling,
            progressive,
            optimize_huffman,
        };
        let baseline = encode(&img, &cfg(false, false)).unwrap();
        let progressive = encode(&img, &cfg(true, true)).unwrap();
        let ncomp = usize::from(channels);
        let streams = [
            encode(&img, &cfg(false, true)).unwrap(),
            to_progressive(&baseline).unwrap(),
            to_sequential(&progressive).unwrap(),
            transcode(&baseline, true, Some(custom_progressive_script(ncomp))).unwrap(),
            transcode(&progressive, false, Some(custom_sequential_script(ncomp))).unwrap(),
        ];
        fnv1a(&mut digests[0], &baseline);
        fnv1a(&mut digests[2], &progressive);
        fnv1a(&mut digests[1], &streams[0]);
        for (d, s) in digests[3..].iter_mut().zip(&streams[1..]) {
            fnv1a(d, s);
        }
    }
    digests
}

/// Digests of the parent encoder's output, rows in `LAYOUTS` × `SIZES`
/// order, columns in `OPS` order.
#[rustfmt::skip]
const PINS: [[u64; 7]; 12] = [
    [0x5b9473cc00cce717, 0xc07b07214be11c2b, 0x729373f372f79602, 0x729373f372f79602, 0xc07b07214be11c2b, 0xfd97fec98a62bcb5, 0xc07b07214be11c2b],
    [0x381573f3e0f75d14, 0x4a0d6b31b7888225, 0x38928b42c90ae46c, 0x38928b42c90ae46c, 0x4a0d6b31b7888225, 0xad3149ab33208bb2, 0x4a0d6b31b7888225],
    [0x05042cc2557cb2eb, 0x8415a4a3e15362d2, 0x684f1e3f18041e66, 0x684f1e3f18041e66, 0x8415a4a3e15362d2, 0x9ebdc913c9a5141c, 0x8415a4a3e15362d2],
    [0x0dfe8c4f88ff6660, 0x6daaad6af42b7650, 0xeaf04b0e3b1f7711, 0xeaf04b0e3b1f7711, 0x6daaad6af42b7650, 0xd504e038dcee98c0, 0x6daaad6af42b7650],
    [0x2236fac148983aaa, 0xfcb8de4389addca9, 0xf3245b175abaff7c, 0xf3245b175abaff7c, 0xfcb8de4389addca9, 0x444b68f6098b7717, 0x795cebeefb7a1a56],
    [0xcd9dc7bdca9d3027, 0x449770a185d31d03, 0x71484a25acd4764e, 0x71484a25acd4764e, 0x449770a185d31d03, 0xb964706c23af6b02, 0x00611675591d7d65],
    [0xaf829864d196a4a0, 0x889a3fdf46973d26, 0x12d3905a85ca24eb, 0x12d3905a85ca24eb, 0x889a3fdf46973d26, 0x515df9cf7acd2bc7, 0xe051f65b279fc0a5],
    [0x556f2eaa6280574d, 0xbc0f600cce7dcda7, 0x15651d1f36cc9d61, 0x15651d1f36cc9d61, 0xbc0f600cce7dcda7, 0x854fae7ba9bc7dbf, 0x852e606d225a916a],
    [0xff51ac77f68a44d2, 0xbbc689d0c08f3682, 0xca6a97a72449ac8e, 0xca6a97a72449ac8e, 0xbbc689d0c08f3682, 0xe9247cc92b532b4e, 0x94401570ab291f25],
    [0xedabcdd65287f538, 0x7dfffa57082d66fb, 0xbbfa8392992df4ea, 0xbbfa8392992df4ea, 0xb7fc617486b378c9, 0xeeac42d397797f10, 0xd0cfdc513f0dc5b1],
    [0x521397d38c8ce39b, 0xb11f1a053df6444b, 0x61b85c0e412e6dc2, 0x61b85c0e412e6dc2, 0x6cfe57e4efb98639, 0x3a544ac9f859847d, 0x7a5b70fcfdb6fd79],
    [0x6cc332eab599d06f, 0x36a88d31554d9216, 0x5c2c3626836a9674, 0x5c2c3626836a9674, 0x4fe48717b3e4975f, 0xe21df451c31725d4, 0x1938683c0adad96e],
];

#[test]
fn encoder_output_matches_parent_digests() {
    let mut got = Vec::new();
    for &(_, channels, subsampling) in &LAYOUTS {
        for &(w, h) in &SIZES {
            got.push(cell_digests(channels, subsampling, w, h));
        }
    }
    let table: String = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    for (i, (row, pin)) in got.iter().zip(&PINS).enumerate() {
        let (layout, _, _) = LAYOUTS[i / SIZES.len()];
        let (w, h) = SIZES[i % SIZES.len()];
        for (op, (d, p)) in OPS.iter().zip(row.iter().zip(pin)) {
            assert_eq!(d, p, "{op} on {layout} {w}x{h} moved; recomputed table:\n{table}");
        }
    }
}
