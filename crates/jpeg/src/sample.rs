//! Pixel <-> coefficient conversion: color planes, chroma subsampling,
//! block splitting, forward/inverse DCT and quantization.

use crate::consts::ZIGZAG;
use crate::dct::{descale, forward_dct_raw, forward_quant_scales, inverse_dct_pixels, inverse_quant_scales};
use crate::error::Result;
use crate::frame::{CoeffPlanes, FrameInfo};
use crate::image::{rgb_to_ycbcr, ycbcr_to_rgb, ImageBuf};

/// A single component's sample plane at component resolution, padded to the
/// allocated block grid (edge replication).
#[derive(Debug, Clone)]
pub struct SamplePlane {
    /// Padded width in samples (alloc_w * 8).
    pub width: usize,
    /// Padded height in samples (alloc_h * 8).
    pub height: usize,
    /// Row-major samples.
    pub data: Vec<u8>,
}

impl SamplePlane {
    fn new(width: usize, height: usize) -> Self {
        Self::with_pool(width, height, &mut Vec::new())
    }

    /// Builds a zeroed plane, reusing buffer capacity from `pool`.
    fn with_pool(width: usize, height: usize, pool: &mut Vec<Vec<u8>>) -> Self {
        let mut data = pool.pop().unwrap_or_default();
        data.clear();
        data.resize(width * height, 0);
        Self { width, height, data }
    }

    /// Returns the sample buffer to `pool` for reuse.
    pub fn recycle_into(self, pool: &mut Vec<Vec<u8>>) {
        pool.push(self.data);
    }

    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub(crate) fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }
}

/// Converts an image into per-component sample planes matching `frame`
/// geometry (full-res Y; box-filtered subsampled chroma; edge-padded).
pub fn image_to_planes(img: &ImageBuf, frame: &FrameInfo) -> Result<Vec<SamplePlane>> {
    let w = img.width() as usize;
    let h = img.height() as usize;
    let mut planes: Vec<SamplePlane> = frame
        .components
        .iter()
        .map(|c| SamplePlane::new(c.alloc_w as usize * 8, c.alloc_h as usize * 8))
        .collect();

    if img.channels() == 1 {
        let p = &mut planes[0];
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, img.get(x as u32, y as u32, 0));
            }
        }
    } else {
        // Full-resolution YCbCr first.
        let mut yf = vec![0u8; w * h];
        let mut cbf = vec![0u8; w * h];
        let mut crf = vec![0u8; w * h];
        for yy in 0..h {
            for xx in 0..w {
                let (r, g, b) = (
                    img.get(xx as u32, yy as u32, 0),
                    img.get(xx as u32, yy as u32, 1),
                    img.get(xx as u32, yy as u32, 2),
                );
                let (y, cb, cr) = rgb_to_ycbcr(r, g, b);
                yf[yy * w + xx] = y;
                cbf[yy * w + xx] = cb;
                crf[yy * w + xx] = cr;
            }
        }
        for (ci, comp) in frame.components.iter().enumerate() {
            let src = match ci {
                0 => &yf,
                1 => &cbf,
                _ => &crf,
            };
            let cw = comp.width_px as usize;
            let ch = comp.height_px as usize;
            let sx = u32::from(frame.hmax / comp.h) as usize; // subsample factor
            let sy = u32::from(frame.vmax / comp.v) as usize;
            let p = &mut planes[ci];
            for oy in 0..ch {
                for ox in 0..cw {
                    if sx == 1 && sy == 1 {
                        p.set(ox, oy, src[oy * w + ox]);
                    } else {
                        // Box filter over the sx x sy source window (clamped).
                        let mut sum = 0u32;
                        let mut cnt = 0u32;
                        for dy in 0..sy {
                            for dx in 0..sx {
                                let x = (ox * sx + dx).min(w - 1);
                                let y = (oy * sy + dy).min(h - 1);
                                sum += u32::from(src[y * w + x]);
                                cnt += 1;
                            }
                        }
                        p.set(ox, oy, ((sum + cnt / 2) / cnt) as u8);
                    }
                }
            }
        }
    }

    // Edge-replicate into padding (right and bottom) for clean DCTs.
    for (ci, comp) in frame.components.iter().enumerate() {
        let cw = comp.width_px as usize;
        let ch = comp.height_px as usize;
        let p = &mut planes[ci];
        for y in 0..ch {
            let edge = p.get(cw - 1, y);
            for x in cw..p.width {
                p.set(x, y, edge);
            }
        }
        for y in ch..p.height {
            for x in 0..p.width {
                let v = p.get(x, ch - 1);
                p.set(x, y, v);
            }
        }
    }
    Ok(planes)
}

/// Forward transforms sample planes into quantized coefficients, each
/// block stored in zigzag order (see [`CoeffPlanes`]).
///
/// `qtables[tq]` must be present (natural order) for every component. The
/// AAN descale factors are folded into per-table quantization multipliers
/// once ([`forward_quant_scales`]), so quantizing is one multiply and one
/// [`descale`] per coefficient — no division in the block loop.
pub fn planes_to_coeffs(
    planes: &[SamplePlane],
    frame: &FrameInfo,
    qtables: &[Option<[u16; 64]>; 4],
) -> Result<CoeffPlanes> {
    let mut coeffs = CoeffPlanes::new(frame);
    let mut spatial = [0f64; 64];
    let mut freq = [0f64; 64];
    for (ci, comp) in frame.components.iter().enumerate() {
        let q = qtables[comp.tq as usize]
            .ok_or_else(|| crate::error::Error::BadQuant(format!("missing table {}", comp.tq)))?;
        let qm = forward_quant_scales(&q);
        let plane = &planes[ci];
        for brow in 0..comp.alloc_h {
            for bcol in 0..comp.alloc_w {
                for y in 0..8 {
                    let sy = brow as usize * 8 + y;
                    let row = &plane.data[sy * plane.width + bcol as usize * 8..];
                    for x in 0..8 {
                        spatial[y * 8 + x] = f64::from(row[x]) - 128.0;
                    }
                }
                forward_dct_raw(&spatial, &mut freq);
                let block = coeffs.block_mut(frame, ci, brow, bcol);
                for (v, &i) in block.iter_mut().zip(&ZIGZAG) {
                    *v = descale(freq[i] * qm[i]) as i16;
                }
            }
        }
    }
    Ok(coeffs)
}

/// The per-block inverse transform the pixel-reconstruction loop is
/// parameterized over: the production AAN kernel ([`FastBlockIdct`]) or,
/// in the bit-exactness suite, the retained basis-matrix oracle. Both
/// implement the same [`descale`]-based rounding contract, which is what
/// makes their pixel outputs byte-comparable.
pub(crate) trait BlockIdct {
    /// Called once per component with its (natural-order) quantization
    /// table before any [`BlockIdct::transform`] call for that component.
    fn begin_table(&mut self, q: &[u16; 64]);
    /// Dequantizes and inverse transforms one zigzag-order block into
    /// final clamped pixels (row-major 8x8).
    fn transform(&mut self, coeffs: &[i16; 64], out: &mut [u8; 64]);
}

/// Production kernel: folded dequantization + AAN butterfly with a
/// vectorizable column pass ([`inverse_dct_pixels`]).
#[derive(Debug)]
pub(crate) struct FastBlockIdct {
    dq: [f64; 64],
}

impl Default for FastBlockIdct {
    fn default() -> Self {
        Self { dq: [0.0; 64] }
    }
}

impl BlockIdct for FastBlockIdct {
    fn begin_table(&mut self, q: &[u16; 64]) {
        self.dq = inverse_quant_scales(q);
    }
    #[inline]
    fn transform(&mut self, coeffs: &[i16; 64], out: &mut [u8; 64]) {
        inverse_dct_pixels(coeffs, &self.dq, out);
    }
}

/// Dequantizes and inverse transforms coefficients back into sample planes.
pub fn coeffs_to_planes(
    coeffs: &CoeffPlanes,
    frame: &FrameInfo,
    qtables: &[Option<[u16; 64]>; 4],
) -> Result<Vec<SamplePlane>> {
    coeffs_to_planes_pooled(coeffs, frame, qtables, &mut Vec::new())
}

/// [`coeffs_to_planes`] with plane buffers drawn from (and returnable to,
/// via [`SamplePlane::recycle_into`]) `pool`, so a decode loop reconstructs
/// pixels without per-image plane allocations.
pub fn coeffs_to_planes_pooled(
    coeffs: &CoeffPlanes,
    frame: &FrameInfo,
    qtables: &[Option<[u16; 64]>; 4],
    pool: &mut Vec<Vec<u8>>,
) -> Result<Vec<SamplePlane>> {
    reconstruct_planes_with(coeffs, frame, qtables, pool, &mut FastBlockIdct::default())
}

/// Pixel reconstruction over an injectable per-block kernel: the one copy
/// of the dequantize → IDCT → pixel-store loop, shared by the production
/// path and the reference oracle so their outputs differ only by the
/// kernel under test.
pub(crate) fn reconstruct_planes_with<K: BlockIdct>(
    coeffs: &CoeffPlanes,
    frame: &FrameInfo,
    qtables: &[Option<[u16; 64]>; 4],
    pool: &mut Vec<Vec<u8>>,
    kernel: &mut K,
) -> Result<Vec<SamplePlane>> {
    let mut planes: Vec<SamplePlane> = frame
        .components
        .iter()
        .map(|c| SamplePlane::with_pool(c.alloc_w as usize * 8, c.alloc_h as usize * 8, pool))
        .collect();
    let mut pixels = [0u8; 64];
    for (ci, comp) in frame.components.iter().enumerate() {
        let q = qtables[comp.tq as usize]
            .ok_or_else(|| crate::error::Error::BadQuant(format!("missing table {}", comp.tq)))?;
        kernel.begin_table(&q);
        let p = &mut planes[ci];
        for brow in 0..comp.alloc_h {
            for bcol in 0..comp.alloc_w {
                let block = coeffs.block(frame, ci, brow, bcol);
                kernel.transform(block, &mut pixels);
                for y in 0..8 {
                    let dst = (brow as usize * 8 + y) * p.width + bcol as usize * 8;
                    p.data[dst..dst + 8].copy_from_slice(&pixels[y * 8..y * 8 + 8]);
                }
            }
        }
    }
    Ok(planes)
}

/// Reassembles an [`ImageBuf`] from component planes (nearest-neighbour
/// chroma upsampling).
///
/// Hot-path note: the per-pixel subsample index `(x·h)/hmax` of the naive
/// formulation costs two integer divisions per component per pixel —
/// more than the color math itself. Horizontal maps are precomputed once
/// per image and vertical indices once per row, so the pixel loop is
/// loads, multiplies, and adds only.
pub fn planes_to_image(planes: &[SamplePlane], frame: &FrameInfo) -> Result<ImageBuf> {
    let w = frame.width as usize;
    let h = frame.height as usize;
    if frame.components.len() == 1 {
        let p = &planes[0];
        let mut data = vec![0u8; w * h];
        for (y, out) in data.chunks_exact_mut(w).enumerate() {
            out.copy_from_slice(&p.data[y * p.width..y * p.width + w]);
        }
        return ImageBuf::from_raw(frame.width, frame.height, 1, data);
    }
    // Horizontal subsample maps: None = full resolution (identity).
    let cx_map: Vec<Option<Vec<u32>>> = frame
        .components
        .iter()
        .take(3)
        .map(|comp| {
            if comp.h == frame.hmax {
                None
            } else {
                let (ch, hmax) = (usize::from(comp.h), usize::from(frame.hmax));
                Some((0..w).map(|x| (x * ch / hmax) as u32).collect())
            }
        })
        .collect();
    let mut data = vec![0u8; w * h * 3];
    for (y, out) in data.chunks_exact_mut(w * 3).enumerate() {
        // Per-row vertical indices and row slices per component.
        let mut rows: [&[u8]; 3] = [&[], &[], &[]];
        for (ci, comp) in frame.components.iter().enumerate().take(3) {
            let cy = y * usize::from(comp.v) / usize::from(frame.vmax);
            let p = &planes[ci];
            rows[ci] = &p.data[cy * p.width..(cy + 1) * p.width];
        }
        let sample = |ci: usize, x: usize| -> u8 {
            match &cx_map[ci] {
                None => rows[ci][x],
                Some(map) => rows[ci][map[x] as usize],
            }
        };
        for (x, px) in out.chunks_exact_mut(3).enumerate() {
            let (r, g, b) = ycbcr_to_rgb(sample(0, x), sample(1, x), sample(2, x));
            px[0] = r;
            px[1] = g;
            px[2] = b;
        }
    }
    ImageBuf::from_raw(frame.width, frame.height, 3, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{scale_qtable, STD_CHROMA_QTABLE, STD_LUMA_QTABLE};
    use crate::frame::Subsampling;

    fn gradient_rgb(w: u32, h: u32) -> ImageBuf {
        let mut data = Vec::new();
        for y in 0..h {
            for x in 0..w {
                data.push((x * 255 / w.max(1)) as u8);
                data.push((y * 255 / h.max(1)) as u8);
                data.push(((x + y) * 127 / (w + h).max(1)) as u8);
            }
        }
        ImageBuf::from_raw(w, h, 3, data).unwrap()
    }

    fn qtables(quality: u8) -> [Option<[u16; 64]>; 4] {
        [
            Some(scale_qtable(&STD_LUMA_QTABLE, quality)),
            Some(scale_qtable(&STD_CHROMA_QTABLE, quality)),
            None,
            None,
        ]
    }

    #[test]
    fn pixel_pipeline_roundtrip_high_quality() {
        let img = gradient_rgb(40, 24);
        let frame = FrameInfo::for_encode(40, 24, 3, Subsampling::S444, false).unwrap();
        let q = qtables(95);
        let planes = image_to_planes(&img, &frame).unwrap();
        let coeffs = planes_to_coeffs(&planes, &frame, &q).unwrap();
        let back = coeffs_to_planes(&coeffs, &frame, &q).unwrap();
        let out = planes_to_image(&back, &frame).unwrap();
        // Smooth gradient at q95 should reconstruct closely.
        let mut max_err = 0i32;
        for (a, b) in img.data().iter().zip(out.data().iter()) {
            max_err = max_err.max((i32::from(*a) - i32::from(*b)).abs());
        }
        assert!(max_err <= 14, "max error {max_err}");
    }

    #[test]
    fn gray_pipeline_roundtrip() {
        let mut img = ImageBuf::new(17, 11, 1).unwrap();
        for y in 0..11 {
            for x in 0..17 {
                img.set(x, y, 0, ((x * 13 + y * 7) % 256) as u8);
            }
        }
        let frame = FrameInfo::for_encode(17, 11, 1, Subsampling::S444, false).unwrap();
        let q = qtables(90);
        let planes = image_to_planes(&img, &frame).unwrap();
        let coeffs = planes_to_coeffs(&planes, &frame, &q).unwrap();
        let back = coeffs_to_planes(&coeffs, &frame, &q).unwrap();
        let out = planes_to_image(&back, &frame).unwrap();
        assert_eq!(out.width(), 17);
        assert_eq!(out.height(), 11);
    }

    #[test]
    fn subsampling_reduces_chroma_plane_extent() {
        let img = gradient_rgb(32, 32);
        let frame = FrameInfo::for_encode(32, 32, 3, Subsampling::S420, false).unwrap();
        let planes = image_to_planes(&img, &frame).unwrap();
        assert_eq!(planes[0].width, 32);
        assert_eq!(planes[1].width, 16);
    }

    #[test]
    fn constant_image_has_dc_only_coefficients() {
        let img = ImageBuf::from_raw(16, 16, 3, vec![100; 16 * 16 * 3]).unwrap();
        let frame = FrameInfo::for_encode(16, 16, 3, Subsampling::S420, false).unwrap();
        let q = qtables(75);
        let planes = image_to_planes(&img, &frame).unwrap();
        let coeffs = planes_to_coeffs(&planes, &frame, &q).unwrap();
        for ci in 0..3 {
            let c = &frame.components[ci];
            for row in 0..c.alloc_h {
                for col in 0..c.alloc_w {
                    let b = coeffs.block(&frame, ci, row, col);
                    for &v in &b[1..] {
                        assert_eq!(v, 0);
                    }
                }
            }
        }
    }

    /// Blocks are stored in zigzag order: `block[2]` is natural index 8,
    /// vertical frequency 1, so alone it gives a block whose rows are
    /// flat and differ from one another.
    #[test]
    fn zigzag_position_two_is_vertical_frequency_one() {
        let frame = FrameInfo::for_encode(8, 8, 1, Subsampling::S444, false).unwrap();
        let mut coeffs = CoeffPlanes::new(&frame);
        coeffs.block_mut(&frame, 0, 0, 0)[2] = 20;
        let planes = coeffs_to_planes(&coeffs, &frame, &qtables(75)).unwrap();
        let rows: Vec<&[u8]> = planes[0].data.chunks_exact(8).collect();
        for row in &rows {
            assert!(row.iter().all(|&p| p == row[0]), "row not flat: {row:?}");
        }
        for pair in rows.windows(2) {
            assert_ne!(pair[0][0], pair[1][0], "rows {:?} and {:?}", pair[0], pair[1]);
        }
    }

    /// The forward direction of the same contract: a vertical-only
    /// gradient has no horizontal frequency 1 (`block[1]`) and a nonzero
    /// vertical frequency 1 (`block[2]`).
    #[test]
    fn vertical_gradient_quantizes_into_zigzag_position_two() {
        let mut img = ImageBuf::new(8, 8, 1).unwrap();
        for y in 0..8 {
            for x in 0..8 {
                img.set(x, y, 0, 40 + 20 * y as u8);
            }
        }
        let frame = FrameInfo::for_encode(8, 8, 1, Subsampling::S444, false).unwrap();
        let planes = image_to_planes(&img, &frame).unwrap();
        let coeffs = planes_to_coeffs(&planes, &frame, &qtables(75)).unwrap();
        let block = coeffs.block(&frame, 0, 0, 0);
        assert_eq!(block[1], 0);
        assert_ne!(block[2], 0);
    }
}
