//! Top-level JPEG encoding: pixels or raw coefficients -> complete streams.

use crate::consts::*;
use crate::entropy::{ScanEncoder, ScanTables};
use crate::error::Result;
use crate::frame::{CoeffPlanes, FrameInfo, ScanComponent, ScanInfo, Subsampling};
use crate::huffman::HuffTable;
use crate::image::ImageBuf;
use crate::marker;
use crate::sample::{image_to_planes, planes_to_coeffs};

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeConfig {
    /// libjpeg-style quality factor 1..=100.
    pub quality: u8,
    /// Chroma subsampling for color images.
    pub subsampling: Subsampling,
    /// Emit progressive (SOF2) with the default 10-scan script.
    pub progressive: bool,
    /// Use per-scan optimized Huffman tables. Always effectively true for
    /// progressive output (as with `jpegtran`); selectable for baseline.
    pub optimize_huffman: bool,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        Self {
            quality: 75,
            subsampling: Subsampling::S420,
            progressive: false,
            optimize_huffman: false,
        }
    }
}

impl EncodeConfig {
    /// Baseline sequential at the given quality.
    pub fn baseline(quality: u8) -> Self {
        Self { quality, ..Self::default() }
    }

    /// Progressive with the default scan script at the given quality.
    pub fn progressive(quality: u8) -> Self {
        Self { quality, progressive: true, optimize_huffman: true, ..Self::default() }
    }
}

/// The libjpeg default progressive scan script for YCbCr images
/// (`jcparam.c: std_huff_tables` / `jpeg_simple_progression`), producing 10
/// scans. This is what `jpegtran` emits by default and therefore what the
/// paper's scan numbering refers to.
///
/// Scans: 1) DC of all components (Al=1); 2) Y AC 1-5 (Al=2); 3) Cb AC full
/// band (Al=1); 4) Cr AC full band (Al=1); 5) Y AC 6-63 (Al=2); 6) Y AC
/// refine (Al=1); 7) DC refine (Al=0); 8) Cb AC refine (Al=0); 9) Cr AC
/// refine (Al=0); 10) Y AC refine (Al=0).
pub fn default_progressive_script(ncomp: usize) -> Vec<ScanInfo> {
    let sc = |i: usize, dc: u8, ac: u8| ScanComponent { comp_index: i, dc_table: dc, ac_table: ac };
    if ncomp == 1 {
        // Grayscale: libjpeg uses a 6-scan variant.
        return vec![
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 0, se: 0, ah: 0, al: 1 },
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 5, ah: 0, al: 2 },
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 6, se: 63, ah: 0, al: 2 },
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 63, ah: 2, al: 1 },
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 0, se: 0, ah: 1, al: 0 },
            ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 63, ah: 1, al: 0 },
        ];
    }
    vec![
        // 1: initial DC, all components interleaved.
        ScanInfo {
            components: vec![sc(0, 0, 0), sc(1, 1, 0), sc(2, 1, 0)],
            ss: 0,
            se: 0,
            ah: 0,
            al: 1,
        },
        // 2: low-frequency luma band.
        ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 5, ah: 0, al: 2 },
        // 3/4: full chroma bands at reduced precision.
        ScanInfo { components: vec![sc(1, 0, 1)], ss: 1, se: 63, ah: 0, al: 1 },
        ScanInfo { components: vec![sc(2, 0, 1)], ss: 1, se: 63, ah: 0, al: 1 },
        // 5: rest of luma band.
        ScanInfo { components: vec![sc(0, 0, 0)], ss: 6, se: 63, ah: 0, al: 2 },
        // 6: luma refinement to Al=1.
        ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 63, ah: 2, al: 1 },
        // 7: DC refinement to full precision.
        ScanInfo {
            components: vec![sc(0, 0, 0), sc(1, 1, 0), sc(2, 1, 0)],
            ss: 0,
            se: 0,
            ah: 1,
            al: 0,
        },
        // 8/9: chroma refinement to full precision.
        ScanInfo { components: vec![sc(1, 0, 1)], ss: 1, se: 63, ah: 1, al: 0 },
        ScanInfo { components: vec![sc(2, 0, 1)], ss: 1, se: 63, ah: 1, al: 0 },
        // 10: luma refinement to full precision.
        ScanInfo { components: vec![sc(0, 0, 0)], ss: 1, se: 63, ah: 1, al: 0 },
    ]
}

/// Quantization table set: slot per table id.
pub type QTables = [Option<[u16; 64]>; 4];

/// Builds the standard scaled tables for a config: luma in slot 0, chroma in
/// slot 1 (color only).
pub fn qtables_for(config: &EncodeConfig, ncomp: usize) -> QTables {
    let mut q: QTables = [None, None, None, None];
    q[0] = Some(scale_qtable(&STD_LUMA_QTABLE, config.quality));
    if ncomp > 1 {
        q[1] = Some(scale_qtable(&STD_CHROMA_QTABLE, config.quality));
    }
    q
}

/// Encodes an image to a complete JPEG stream.
pub fn encode(img: &ImageBuf, config: &EncodeConfig) -> Result<Vec<u8>> {
    let frame = FrameInfo::for_encode(
        img.width(),
        img.height(),
        img.channels(),
        config.subsampling,
        config.progressive,
    )?;
    let qtables = qtables_for(config, frame.components.len());
    let planes = image_to_planes(img, &frame)?;
    let coeffs = planes_to_coeffs(&planes, &frame, &qtables)?;
    encode_from_coeffs(&frame, &coeffs, &qtables, config.optimize_huffman, None)
}

/// Encodes a complete JPEG stream from already-quantized coefficients.
///
/// This is the `jpegtran` path: the transcoder decodes an existing stream to
/// coefficients and re-encodes them here losslessly. `script` overrides the
/// scan structure (defaults to single sequential scan or the standard
/// progressive script depending on `frame.progressive`). The stream
/// carries no restart markers.
pub fn encode_from_coeffs(
    frame: &FrameInfo,
    coeffs: &CoeffPlanes,
    qtables: &QTables,
    optimize_huffman: bool,
    script: Option<Vec<ScanInfo>>,
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&[0xFF, SOI]);
    marker::write_jfif(&mut out);
    for (id, q) in qtables.iter().enumerate() {
        if let Some(q) = q {
            // Only write tables actually referenced by components.
            if frame.components.iter().any(|c| usize::from(c.tq) == id) {
                marker::write_dqt(&mut out, id as u8, q);
            }
        }
    }
    marker::write_sof(&mut out, frame);

    let scans = script.unwrap_or_else(|| {
        if frame.progressive {
            default_progressive_script(frame.components.len())
        } else {
            vec![sequential_scan(frame)]
        }
    });

    let use_optimized = optimize_huffman || frame.progressive;
    // Table slots as the scan walk numbers them: DC ids 0..4, AC ids 0..4.
    let mut tables: ScanTables = Default::default();
    if !use_optimized {
        // Standard tables once, up front: luma DC + AC, then chroma.
        let standard = [
            (HuffTable::std_dc_luma(), HuffTable::std_ac_luma()),
            (HuffTable::std_dc_chroma(), HuffTable::std_ac_chroma()),
        ];
        let used = frame.components.len().min(2);
        for (id, (dc, ac)) in standard.into_iter().take(used).enumerate() {
            marker::write_dht(&mut out, 0, id as u8, &dc);
            marker::write_dht(&mut out, 1, id as u8, &ac);
            (tables[id], tables[4 + id]) = (Some(dc), Some(ac));
        }
    }

    let mut encoder = ScanEncoder::new(coeffs);
    for scan in &scans {
        let entropy = encoder.encode_scan(frame, scan, use_optimized, &mut tables)?;
        if use_optimized {
            // Per-scan tables: DC ids ascending, then AC ids ascending.
            for (slot, table) in tables.iter().enumerate() {
                if let Some(table) = table {
                    marker::write_dht(&mut out, (slot / 4) as u8, (slot % 4) as u8, table);
                }
            }
        }
        marker::write_sos(&mut out, frame, scan);
        out.extend_from_slice(&entropy);
    }

    out.extend_from_slice(&[0xFF, EOI]);
    Ok(out)
}

/// The single interleaved scan used by sequential frames.
pub fn sequential_scan(frame: &FrameInfo) -> ScanInfo {
    ScanInfo {
        components: frame
            .components
            .iter()
            .enumerate()
            .map(|(i, _)| ScanComponent {
                comp_index: i,
                dc_table: u8::from(i > 0),
                ac_table: u8::from(i > 0),
            })
            .collect(),
        ss: 0,
        se: 63,
        ah: 0,
        al: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_script_shape() {
        let s = default_progressive_script(3);
        assert_eq!(s.len(), 10);
        // First scan: interleaved DC.
        assert_eq!(s[0].components.len(), 3);
        assert!(s[0].is_dc() && !s[0].is_refinement());
        // Scan 7 (index 6): DC refinement.
        assert!(s[6].is_dc() && s[6].is_refinement());
        // Last scan: luma full-precision AC refinement.
        assert_eq!(s[9].al, 0);
        assert_eq!(s[9].ah, 1);
        // Every AC scan is single-component.
        for scan in &s {
            if !scan.is_dc() {
                assert_eq!(scan.components.len(), 1);
            }
        }
    }

    #[test]
    fn gray_script_shape() {
        let s = default_progressive_script(1);
        assert_eq!(s.len(), 6);
        for scan in &s {
            assert_eq!(scan.components.len(), 1);
        }
    }

    #[test]
    fn script_precisions_telescope() {
        // Successive approximation: each band must be refined from its
        // first-pass Al down to 0 in steps of 1.
        let s = default_progressive_script(3);
        // Luma AC band: first pass Al=2 (scans 2 and 5), refined by scan 6
        // (ah=2, al=1) and scan 10 (ah=1, al=0).
        let luma_ac: Vec<_> =
            s.iter().filter(|sc| !sc.is_dc() && sc.components[0].comp_index == 0).collect();
        assert_eq!(luma_ac.len(), 4);
        assert_eq!((luma_ac[2].ah, luma_ac[2].al), (2, 1));
        assert_eq!((luma_ac[3].ah, luma_ac[3].al), (1, 0));
    }

    #[test]
    fn encode_produces_valid_marker_structure() {
        let img = ImageBuf::from_raw(16, 16, 3, vec![128; 16 * 16 * 3]).unwrap();
        let data = encode(&img, &EncodeConfig::baseline(80)).unwrap();
        assert_eq!(&data[..2], &[0xFF, SOI]);
        assert_eq!(&data[data.len() - 2..], &[0xFF, EOI]);
        let data = encode(&img, &EncodeConfig::progressive(80)).unwrap();
        assert_eq!(&data[..2], &[0xFF, SOI]);
        assert_eq!(&data[data.len() - 2..], &[0xFF, EOI]);
        // Progressive must contain SOF2.
        assert!(data.windows(2).any(|w| w == [0xFF, SOF2]));
    }
}
