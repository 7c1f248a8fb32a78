//! Pixel buffers and RGB <-> YCbCr color conversion (BT.601 full range, as
//! used by JFIF).

use crate::error::{Error, Result};

/// An 8-bit image with 1 (grayscale) or 3 (RGB, interleaved) channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBuf {
    width: u32,
    height: u32,
    channels: u8,
    data: Vec<u8>,
}

impl ImageBuf {
    /// Creates an image from raw interleaved samples.
    ///
    /// `data.len()` must equal `width * height * channels`.
    pub fn from_raw(width: u32, height: u32, channels: u8, data: Vec<u8>) -> Result<Self> {
        if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
            return Err(Error::BadDimensions { width, height });
        }
        if channels != 1 && channels != 3 {
            return Err(Error::BadInput(format!("unsupported channel count {channels}")));
        }
        let expected = width as usize * height as usize * channels as usize;
        if data.len() != expected {
            return Err(Error::BadInput(format!(
                "expected {expected} samples, got {}",
                data.len()
            )));
        }
        Ok(Self { width, height, channels, data })
    }

    /// Creates a black image.
    pub fn new(width: u32, height: u32, channels: u8) -> Result<Self> {
        let n = width as usize * height as usize * channels as usize;
        Self::from_raw(width, height, channels, vec![0; n])
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of interleaved channels (1 or 3).
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Raw interleaved samples.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Sample at (x, y, c).
    #[inline]
    pub fn get(&self, x: u32, y: u32, c: u8) -> u8 {
        self.data[(y as usize * self.width as usize + x as usize) * self.channels as usize
            + c as usize]
    }

    /// Sets sample at (x, y, c).
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: u8, v: u8) {
        self.data[(y as usize * self.width as usize + x as usize) * self.channels as usize
            + c as usize] = v;
    }

    /// Converts to a single-channel luma image (identity for grayscale).
    pub fn to_luma(&self) -> ImageBuf {
        if self.channels == 1 {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.width as usize * self.height as usize);
        for px in self.data.chunks_exact(3) {
            out.push(rgb_to_ycbcr(px[0], px[1], px[2]).0);
        }
        ImageBuf { width: self.width, height: self.height, channels: 1, data: out }
    }

    /// Center-crops to `(cw, ch)`; clamps to the image size.
    pub fn center_crop(&self, cw: u32, ch: u32) -> ImageBuf {
        let cw = cw.min(self.width);
        let ch = ch.min(self.height);
        let x0 = (self.width - cw) / 2;
        let y0 = (self.height - ch) / 2;
        let c = self.channels as usize;
        let mut data = Vec::with_capacity(cw as usize * ch as usize * c);
        for y in 0..ch {
            let row = ((y0 + y) as usize * self.width as usize + x0 as usize) * c;
            data.extend_from_slice(&self.data[row..row + cw as usize * c]);
        }
        ImageBuf { width: cw, height: ch, channels: self.channels, data }
    }

    /// Nearest-neighbour resize (sufficient for augmentation simulation).
    pub fn resize(&self, nw: u32, nh: u32) -> ImageBuf {
        let c = self.channels as usize;
        let mut data = Vec::with_capacity(nw as usize * nh as usize * c);
        for y in 0..nh {
            let sy = (y as u64 * self.height as u64 / nh as u64) as u32;
            for x in 0..nw {
                let sx = (x as u64 * self.width as u64 / nw as u64) as u32;
                let off = (sy as usize * self.width as usize + sx as usize) * c;
                data.extend_from_slice(&self.data[off..off + c]);
            }
        }
        ImageBuf { width: nw, height: nh, channels: self.channels, data }
    }
}

/// Rounds a 16.16 fixed-point value to u8 with clamping (ties toward +∞).
#[inline]
fn fix_to_u8(v: i32) -> u8 {
    ((v + (1 << 15)) >> 16).clamp(0, 255) as u8
}

/// RGB -> YCbCr (JFIF / BT.601 full range), rounded to u8.
///
/// 16.16 fixed-point: exact integer arithmetic (deterministic across
/// platforms, no float rounding in the per-pixel loop). Coefficient
/// triples sum to exactly `1 << 16`, so neutral gray maps to itself and
/// `Cb`/`Cr` of gray are exactly 128.
#[inline]
pub fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (i32::from(r), i32::from(g), i32::from(b));
    let y = 19_595 * r + 38_470 * g + 7_471 * b; // 0.299, 0.587, 0.114
    let cb = -11_059 * r - 21_709 * g + 32_768 * b; // -0.168736, -0.331264, 0.5
    let cr = 32_768 * r - 27_439 * g - 5_329 * b; // 0.5, -0.418688, -0.081312
    (
        fix_to_u8(y),
        fix_to_u8(cb + (128 << 16)),
        fix_to_u8(cr + (128 << 16)),
    )
}

/// Per-Cr red offset: `round(1.402 · (cr − 128))` in 16.16 fixed point.
/// `(y·2¹⁶ + t + 2¹⁵) >> 16 == y + ((t + 2¹⁵) >> 16)` exactly, so folding
/// the rounding into the table preserves the fixed-point result bit for
/// bit while turning the per-pixel work into one add.
static R_CR: [i32; 256] = build_rounded_lut(91_881); // 1.402
/// Per-Cb blue offset: `round(1.772 · (cb − 128))`.
static B_CB: [i32; 256] = build_rounded_lut(116_130); // 1.772
/// Raw green contributions (summed, then rounded once).
static G_CB: [i32; 256] = build_raw_lut(-22_554); // -0.344136
/// Raw green Cr contribution.
static G_CR: [i32; 256] = build_raw_lut(-46_802); // -0.714136

const fn build_rounded_lut(mul: i32) -> [i32; 256] {
    let mut t = [0i32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = (mul * (i as i32 - 128) + (1 << 15)) >> 16;
        i += 1;
    }
    t
}

const fn build_raw_lut(mul: i32) -> [i32; 256] {
    let mut t = [0i32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = mul * (i as i32 - 128);
        i += 1;
    }
    t
}

/// YCbCr -> RGB (JFIF / BT.601 full range), rounded to u8.
///
/// The decode pixel hot path's final step: precomputed 16.16 fixed-point
/// offset tables reduce each channel to table loads, adds, and a clamp —
/// bit-identical to evaluating the fixed-point multiplies per pixel.
#[inline]
pub fn ycbcr_to_rgb(y: u8, cb: u8, cr: u8) -> (u8, u8, u8) {
    let y = i32::from(y);
    let r = y + R_CR[cr as usize];
    let g = y + ((G_CB[cb as usize] + G_CR[cr as usize] + (1 << 15)) >> 16);
    let b = y + B_CB[cb as usize];
    (
        r.clamp(0, 255) as u8,
        g.clamp(0, 255) as u8,
        b.clamp(0, 255) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_roundtrip_is_close() {
        for r in (0..=255).step_by(17) {
            for g in (0..=255).step_by(23) {
                for b in (0..=255).step_by(29) {
                    let (y, cb, cr) = rgb_to_ycbcr(r, g, b);
                    let (r2, g2, b2) = ycbcr_to_rgb(y, cb, cr);
                    assert!((i16::from(r) - i16::from(r2)).abs() <= 2);
                    assert!((i16::from(g) - i16::from(g2)).abs() <= 2);
                    assert!((i16::from(b) - i16::from(b2)).abs() <= 2);
                }
            }
        }
    }

    #[test]
    fn grayscale_maps_to_y() {
        for v in [0u8, 17, 128, 200, 255] {
            let (y, cb, cr) = rgb_to_ycbcr(v, v, v);
            assert_eq!(y, v);
            assert_eq!(cb, 128);
            assert_eq!(cr, 128);
        }
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(ImageBuf::from_raw(4, 4, 3, vec![0; 48]).is_ok());
        assert!(ImageBuf::from_raw(4, 4, 3, vec![0; 47]).is_err());
        assert!(ImageBuf::from_raw(0, 4, 3, vec![]).is_err());
        assert!(ImageBuf::from_raw(4, 4, 2, vec![0; 32]).is_err());
    }

    #[test]
    fn center_crop_geometry() {
        let mut img = ImageBuf::new(8, 8, 1).unwrap();
        img.set(3, 3, 0, 77);
        let c = img.center_crop(4, 4);
        assert_eq!(c.width(), 4);
        assert_eq!(c.height(), 4);
        assert_eq!(c.get(1, 1, 0), 77); // (3,3) - offset (2,2)
    }

    #[test]
    fn resize_preserves_corners_roughly() {
        let mut img = ImageBuf::new(8, 8, 1).unwrap();
        img.set(0, 0, 0, 10);
        let r = img.resize(4, 4);
        assert_eq!(r.get(0, 0, 0), 10);
        assert_eq!(r.width(), 4);
    }

    #[test]
    fn to_luma_of_gray_is_identity() {
        let img = ImageBuf::from_raw(2, 2, 1, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(img.to_luma(), img);
    }
}
