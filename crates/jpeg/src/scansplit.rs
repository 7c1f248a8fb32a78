//! Scan-boundary discovery and prefix reassembly for progressive streams.
//!
//! The PCR encoder scans the binary representation of a progressive JPEG
//! for the markers that delimit scans (paper section 3.2), records the byte
//! offsets, and later reassembles "header + first N scans + EOI" byte
//! streams that any JPEG decoder renders from the available subset of
//! scans.

use crate::consts::EOI;
use crate::error::{Error, Result};
use crate::marker::{Segment, SegmentReader};

/// Byte-level layout of a JPEG stream split at scan boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanLayout {
    /// Bytes `[0, header_len)` hold SOI through the last pre-scan segment
    /// (APPn, DQT, SOF, any global DHT).
    pub header_len: usize,
    /// Per scan: `[start, end)` byte range covering the scan's DHT segments
    /// (if per-scan tables are used), its SOS header, and its entropy data.
    pub scans: Vec<(usize, usize)>,
    /// Total stream length (through EOI if present).
    pub total_len: usize,
}

impl ScanLayout {
    /// Number of scans found.
    pub fn num_scans(&self) -> usize {
        self.scans.len()
    }

    /// Size in bytes of scan `i`'s chunk.
    pub fn scan_size(&self, i: usize) -> usize {
        let (s, e) = self.scans[i];
        e - s
    }

    /// Cumulative bytes required to render scans `0..=i` (header + chunks +
    /// EOI marker).
    pub fn prefix_size(&self, i: usize) -> usize {
        self.header_len + self.scans[..=i].iter().map(|(s, e)| e - s).sum::<usize>() + 2
    }
}

/// Finds scan boundaries in a JPEG stream.
///
/// Each scan chunk starts at the first DHT following the previous scan's
/// entropy data (or at the SOS if tables are global) so that a prefix of
/// chunks is always self-contained.
pub fn split_scans(data: &[u8]) -> Result<ScanLayout> {
    let mut reader = SegmentReader::new(data);
    match reader.next_segment()? {
        Segment::Soi => {}
        _ => return Err(Error::NotJpeg),
    }
    let mut header_len = 0usize;
    let mut scans: Vec<(usize, usize)> = Vec::new();
    // Offset where the current pending chunk (DHTs awaiting their SOS)
    // begins, if any.
    let mut pending_start: Option<usize> = None;
    let mut saw_frame = false;
    let mut total_len = data.len();
    loop {
        let seg_start = reader.pos();
        let seg = match reader.next_segment() {
            Ok(seg) => seg,
            Err(Error::UnexpectedEof) => break,
            Err(e) => return Err(e),
        };
        match seg {
            Segment::Soi => return Err(Error::CorruptData("nested SOI".into())),
            Segment::Eoi => {
                total_len = reader.pos();
                break;
            }
            Segment::Marker { marker, .. } => {
                match marker {
                    crate::consts::DHT | crate::consts::DRI if saw_frame => {
                        // Per-scan table or restart-interval change: belongs
                        // to the upcoming scan chunk, so prefixes stay
                        // self-contained.
                        pending_start.get_or_insert(seg_start);
                    }
                    crate::consts::SOF0 | crate::consts::SOF1 | crate::consts::SOF2 => {
                        saw_frame = true;
                        header_len = reader.pos();
                    }
                    _ => {
                        if !saw_frame || scans.is_empty() && pending_start.is_none() {
                            header_len = reader.pos();
                        }
                    }
                }
            }
            Segment::Sos { .. } => {
                if !saw_frame {
                    return Err(Error::BadScan("SOS before SOF".into()));
                }
                let start = pending_start.take().unwrap_or(seg_start);
                reader.skip_entropy();
                scans.push((start, reader.pos()));
            }
        }
    }
    if scans.is_empty() {
        return Err(Error::BadScan("no scans in stream".into()));
    }
    Ok(ScanLayout { header_len, scans, total_len })
}

/// Rebuilds a decodable JPEG byte stream from the header plus the first
/// `n_scans` scan chunks, terminated with EOI. `n_scans` is clamped to the
/// available count; `n_scans == 0` is rejected.
pub fn assemble_prefix(data: &[u8], layout: &ScanLayout, n_scans: usize) -> Result<Vec<u8>> {
    if n_scans == 0 {
        return Err(Error::BadInput("need at least one scan".into()));
    }
    let n = n_scans.min(layout.scans.len());
    let mut out = Vec::with_capacity(layout.prefix_size(n - 1));
    out.extend_from_slice(&data[..layout.header_len]);
    for &(s, e) in &layout.scans[..n] {
        out.extend_from_slice(&data[s..e]);
    }
    out.extend_from_slice(&[0xFF, EOI]);
    Ok(out)
}

/// Extracts the raw chunk bytes for each scan (used by the PCR encoder when
/// regrouping scans across images).
pub fn scan_chunks<'a>(data: &'a [u8], layout: &ScanLayout) -> Vec<&'a [u8]> {
    layout.scans.iter().map(|&(s, e)| &data[s..e]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decode, decode_coeffs};
    use crate::encoder::{encode, EncodeConfig};
    use crate::image::ImageBuf;
    use crate::metrics_psnr::psnr;

    fn test_image(w: u32, h: u32) -> ImageBuf {
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        for y in 0..h {
            for x in 0..w {
                let fx = x as f32 / w as f32;
                let fy = y as f32 / h as f32;
                data.push((128.0 + 90.0 * (fx * 9.0).sin() * (fy * 7.0).cos()) as u8);
                data.push((128.0 + 60.0 * (fx * 5.0).cos()) as u8);
                data.push((128.0 + 50.0 * (fy * 4.0).sin()) as u8);
            }
        }
        ImageBuf::from_raw(w, h, 3, data).unwrap()
    }

    #[test]
    fn split_finds_ten_scans() {
        let img = test_image(64, 64);
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        let layout = split_scans(&prog).unwrap();
        assert_eq!(layout.num_scans(), 10);
        assert_eq!(layout.total_len, prog.len());
        // Chunks tile the region between header and EOI exactly.
        let mut pos = layout.header_len;
        for &(s, e) in &layout.scans {
            assert_eq!(s, pos);
            pos = e;
        }
        assert_eq!(pos + 2, prog.len()); // + EOI
    }

    #[test]
    fn full_prefix_equals_original() {
        let img = test_image(48, 48);
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        let layout = split_scans(&prog).unwrap();
        let full = assemble_prefix(&prog, &layout, 10).unwrap();
        assert_eq!(full, prog);
    }

    #[test]
    fn prefixes_decode_with_monotone_quality() {
        let img = test_image(64, 64);
        let prog = encode(&img, &EncodeConfig::progressive(90)).unwrap();
        let layout = split_scans(&prog).unwrap();
        let reference = decode(&prog).unwrap();
        let mut last_psnr = 0.0f64;
        for n in [1usize, 2, 5, 10] {
            let prefix = assemble_prefix(&prog, &layout, n).unwrap();
            let img_n = decode(&prefix).unwrap();
            let p = psnr(&reference, &img_n);
            assert!(
                p >= last_psnr - 0.75,
                "PSNR not (weakly) monotone at scan {n}: {p:.2} < {last_psnr:.2}"
            );
            last_psnr = p;
        }
        // Scan 10 prefix is the full stream: infinite PSNR (identical).
        assert!(last_psnr.is_infinite());
    }

    #[test]
    fn prefix_scan1_has_dc_only_luma_ac() {
        let img = test_image(32, 32);
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        let layout = split_scans(&prog).unwrap();
        let prefix = assemble_prefix(&prog, &layout, 1).unwrap();
        let d = decode_coeffs(&prefix).unwrap();
        // Scan 1 is DC-only: every AC coefficient must still be zero.
        for ci in 0..3 {
            let c = &d.frame.components[ci];
            for row in 0..c.alloc_h {
                for col in 0..c.alloc_w {
                    let b = d.coeffs.block(&d.frame, ci, row, col);
                    assert!(b[1..].iter().all(|&v| v == 0));
                }
            }
        }
    }

    #[test]
    fn prefix_sizes_are_cumulative() {
        let img = test_image(40, 40);
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        let layout = split_scans(&prog).unwrap();
        for n in 1..=10usize {
            let prefix = assemble_prefix(&prog, &layout, n).unwrap();
            assert_eq!(prefix.len(), layout.prefix_size(n - 1));
        }
    }

    #[test]
    fn baseline_has_single_chunk() {
        let img = test_image(24, 24);
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let layout = split_scans(&base).unwrap();
        assert_eq!(layout.num_scans(), 1);
        let p = assemble_prefix(&base, &layout, 1).unwrap();
        assert_eq!(p, base);
    }

    #[test]
    fn zero_scan_prefix_rejected() {
        let img = test_image(16, 16);
        let prog = encode(&img, &EncodeConfig::progressive(85)).unwrap();
        let layout = split_scans(&prog).unwrap();
        assert!(assemble_prefix(&prog, &layout, 0).is_err());
    }
}
