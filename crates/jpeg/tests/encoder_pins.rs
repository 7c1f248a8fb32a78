//! Byte pins for the write path: FNV-1a digests of every stream the
//! entropy *encoder* produces over a layout × size × quality × restart
//! matrix, generated from the two-pass `dyn EntropySink` encoder this
//! repository shipped before the token-replay rewrite (commit 22de6e1).
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
/// streams of every quality × restart interval in a fixed order.
fn cell_digests(channels: u8, subsampling: Subsampling, w: u32, h: u32) -> [u64; 7] {
    let mut digests = [0xCBF2_9CE4_8422_2325u64; 7];
    let mcu_px = if subsampling == Subsampling::S420 && channels == 3 { 16 } else { 8 };
    let mcu_row = w.div_ceil(mcu_px) as u16;
    for (qi, &quality) in QUALITIES.iter().enumerate() {
        let img = pin_image(w, h, channels, qi as u32 + w);
        for restart_interval in [0, 1, mcu_row] {
            let cfg = |progressive: bool, optimize_huffman: bool| EncodeConfig {
                quality,
                subsampling,
                progressive,
                optimize_huffman,
                restart_interval,
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
    }
    digests
}

/// Digests of the parent encoder's output, rows in `LAYOUTS` × `SIZES`
/// order, columns in `OPS` order.
#[rustfmt::skip]
const PINS: [[u64; 7]; 12] = [
    [0x9b3ec900f8d7ba9b, 0x6c8e5e0b7e9dbeef, 0xacebfc30e855801a, 0x7e48bcc3c3cb4b12, 0xefeb728493f1d9d9, 0xd0c4a814e415155d, 0xefeb728493f1d9d9],
    [0xdd184754f45c53ba, 0xd7c5347217fd02ef, 0x558d13545a12194e, 0xf8856a18df001298, 0x6e344a9011578827, 0xaf5b7162dee3317c, 0x6e344a9011578827],
    [0x836780600f13f937, 0xf03f006122f01418, 0xb7ae428b688ee1da, 0x4758edf00fecd3c4, 0x5d799ad2bb9eadc4, 0xc6088b8e0d9d0304, 0x5d799ad2bb9eadc4],
    [0xeca86932aa665bfa, 0xf1719961b97658c6, 0x6a03384ea0b53fed, 0x86259e878874ed3b, 0x78daa5ef2eda2806, 0x685efa742b101730, 0x78daa5ef2eda2806],
    [0x8c0251ace6c980c2, 0xcaaf14efe9e4238d, 0xfb82c02836e2c3e4, 0x5033fd45df6c02fe, 0x8bf0388ead9f8e59, 0xe0382bbf097dda25, 0xe992b24e2dd92f0a],
    [0x9ae99ca135a00ebf, 0xf5f2dbc1885db823, 0x9694f1c9117d11a6, 0x4c65302ab58cfddc, 0x6038a07534c1d1b3, 0xbbf67620bf405bf4, 0x3177f72cbd377349],
    [0xd17e177f2c477e8e, 0x8f4bdf2638f34a58, 0xc1fa0cd17a6632b3, 0x4b39e63f208e6775, 0x4999b6d3f34427ea, 0x13b2172419690185, 0x081360461f3af549],
    [0xf3995d8914906ec7, 0xe5bdefadfc59ddd3, 0x1af3ac18cbbf0bd7, 0x058ae99a67655f1d, 0x45c85585f0d32149, 0xa6ef2657c6843957, 0xaf7c19bc4cfa70a4],
    [0xcd1d2dcbcb28aa38, 0xbae05d95cc9cf4ce, 0xcaaf160a9f218444, 0xcb05256e151650ba, 0xa7cae75568cb193a, 0x889600d5a5a3465e, 0x8c33e457b27a3acf],
    [0x41fabf984b2af558, 0x20575f5ff286c721, 0x1c650e3051473ac8, 0x862fd2ffe122e82e, 0x28276882c3e34ac9, 0xb07ea4f3f978a48e, 0xaa5e605c251a71c9],
    [0x5a2936f0a9f925bb, 0x852db4ee175f7e93, 0xdc664d17aaa7830a, 0xba1b5e35b7001506, 0x084fef470fe9eaad, 0xb0d2ffd8e869cb29, 0xc8e833f1ee825a39],
    [0x354cb0e9fb32c1a3, 0xeefaf421c910532e, 0xa073c1c6f4871d98, 0x65111d2b24fc2d92, 0x480408b17b34dfb3, 0xf34470fdff187c2c, 0x51c0ba65fb8c747e],
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
