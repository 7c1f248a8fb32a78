//! Lossless transcoding between sequential and progressive representations.
//!
//! This is the `jpegtran` role in the paper's pipeline: entropy-decode an
//! existing JPEG to its quantized coefficients, then re-encode the *same*
//! coefficients with a different scan structure. No requantization happens,
//! so the full-quality reconstruction is bit-identical.

use crate::decoder::decode_coeffs;
use crate::encoder::{encode_from_coeffs, sequential_scan};
use crate::error::{Error, Result};
use crate::frame::ScanInfo;

/// Losslessly converts any supported JPEG into a progressive JPEG using the
/// default 10-scan script (6 scans for grayscale).
pub fn to_progressive(data: &[u8]) -> Result<Vec<u8>> {
    transcode(data, true, None)
}

/// Losslessly converts any supported JPEG into a baseline sequential JPEG
/// with optimized Huffman tables.
pub fn to_sequential(data: &[u8]) -> Result<Vec<u8>> {
    transcode(data, false, None)
}

/// Losslessly re-encodes with full control over the target scan script.
pub fn transcode(data: &[u8], progressive: bool, script: Option<Vec<ScanInfo>>) -> Result<Vec<u8>> {
    let decoded = decode_coeffs(data)?;
    if !decoded.saw_eoi {
        return Err(Error::CorruptData("refusing to transcode truncated stream".into()));
    }
    let mut frame = decoded.frame;
    frame.progressive = progressive;
    let script = match (progressive, script) {
        (_, Some(s)) => Some(s),
        (false, None) => Some(vec![sequential_scan(&frame)]),
        (true, None) => None, // default progressive script
    };
    encode_from_coeffs(&frame, &decoded.coeffs, &decoded.qtables, true, script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decode, decode_coeffs};
    use crate::encoder::{encode, EncodeConfig};
    use crate::image::ImageBuf;
    use crate::scansplit::split_scans;

    fn test_image(w: u32, h: u32) -> ImageBuf {
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        for y in 0..h {
            for x in 0..w {
                data.push(((x * 7 + y * 3) % 256) as u8);
                data.push(((x + y * y) % 256) as u8);
                data.push(((x * y) % 256) as u8);
            }
        }
        ImageBuf::from_raw(w, h, 3, data).unwrap()
    }

    #[test]
    fn to_progressive_is_lossless_on_coefficients() {
        let img = test_image(48, 48);
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let prog = to_progressive(&base).unwrap();
        let a = decode_coeffs(&base).unwrap();
        let b = decode_coeffs(&prog).unwrap();
        assert_eq!(a.coeffs, b.coeffs);
        assert_eq!(a.qtables, b.qtables);
        assert_eq!(split_scans(&prog).unwrap().num_scans(), 10);
    }

    #[test]
    fn roundtrip_back_to_sequential_is_lossless() {
        let img = test_image(32, 24);
        let base = encode(&img, &EncodeConfig::baseline(75)).unwrap();
        let prog = to_progressive(&base).unwrap();
        let back = to_sequential(&prog).unwrap();
        assert_eq!(decode(&base).unwrap(), decode(&back).unwrap());
        assert_eq!(split_scans(&back).unwrap().num_scans(), 1);
    }

    #[test]
    fn progressive_size_comparable_to_baseline() {
        // The paper notes progressive files are within ~5% of (often smaller
        // than) baseline. Our optimized progressive should not blow up.
        let img = test_image(96, 96);
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let prog = to_progressive(&base).unwrap();
        let ratio = prog.len() as f64 / base.len() as f64;
        assert!(ratio < 1.25, "progressive/baseline size ratio {ratio:.3}");
    }

    #[test]
    fn refuses_truncated_input() {
        let img = test_image(24, 24);
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let cut = &base[..base.len() - 10];
        assert!(to_progressive(cut).is_err());
    }
}
