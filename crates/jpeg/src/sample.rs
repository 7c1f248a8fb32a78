//! Pixel <-> coefficient conversion: color planes, chroma subsampling,
//! block splitting, forward/inverse DCT and quantization.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::consts::ZIGZAG;
use crate::dct::{descale, forward_dct_raw, forward_quant_scales, inverse_dct_pixels, inverse_quant_scales};
use crate::error::{Error, Result};
use crate::frame::{CoeffPlanes, FrameInfo};
use crate::image::{add_term, chroma_terms, rgb_to_ycbcr, ImageBuf};

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

    /// The plane's rows, top to bottom.
    fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, u8> {
        self.data.chunks_exact_mut(self.width.max(1))
    }
}

/// The error of a sample plane too small for the geometry it is read or
/// written with.
fn short_plane() -> Error {
    Error::CorruptData("sample plane smaller than its frame geometry".into())
}

/// Component `tq`'s quantization table.
fn qtable(qtables: &[Option<[u16; 64]>; 4], tq: u8) -> Result<[u16; 64]> {
    qtables
        .get(usize::from(tq))
        .copied()
        .flatten()
        .ok_or_else(|| Error::BadQuant(format!("missing table {tq}")))
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
        if let Some(p) = planes.first_mut() {
            for (dst, src) in p.rows_mut().zip(img.data().chunks_exact(w.max(1))).take(h) {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s;
                }
            }
        }
    } else {
        // Full-resolution YCbCr first.
        let mut yf = vec![0u8; w * h];
        let mut cbf = vec![0u8; w * h];
        let mut crf = vec![0u8; w * h];
        let pixels = img.data().chunks_exact(usize::from(img.channels()));
        for (((px, y), cb), cr) in pixels.zip(&mut yf).zip(&mut cbf).zip(&mut crf) {
            if let [r, g, b, ..] = *px {
                (*y, *cb, *cr) = rgb_to_ycbcr(r, g, b);
            }
        }
        for (ci, (comp, p)) in frame.components.iter().zip(&mut planes).enumerate() {
            let src = match ci {
                0 => &yf,
                1 => &cbf,
                _ => &crf,
            };
            let cw = comp.width_px as usize;
            let ch = comp.height_px as usize;
            let sx = u32::from(frame.hmax / comp.h) as usize; // subsample factor
            let sy = u32::from(frame.vmax / comp.v) as usize;
            let at = |x: usize, y: usize| src.get(y * w + x).copied().ok_or_else(short_plane);
            for (oy, dst) in p.rows_mut().enumerate().take(ch) {
                for (ox, d) in dst.iter_mut().enumerate().take(cw) {
                    *d = if sx == 1 && sy == 1 {
                        at(ox, oy)?
                    } else {
                        // Box filter over the sx x sy source window (clamped).
                        let mut sum = 0u32;
                        let mut cnt = 0u32;
                        for dy in 0..sy {
                            for dx in 0..sx {
                                let x = (ox * sx + dx).min(w - 1);
                                let y = (oy * sy + dy).min(h - 1);
                                sum += u32::from(at(x, y)?);
                                cnt += 1;
                            }
                        }
                        ((sum + cnt / 2) / cnt) as u8
                    };
                }
            }
        }
    }

    // Edge-replicate into padding (right and bottom) for clean DCTs.
    for (comp, p) in frame.components.iter().zip(&mut planes) {
        let cw = comp.width_px as usize;
        let ch = comp.height_px as usize;
        for row in p.rows_mut().take(ch) {
            let edge = cw.checked_sub(1).and_then(|x| row.get(x)).copied().ok_or_else(short_plane)?;
            for v in row.iter_mut().skip(cw) {
                *v = edge;
            }
        }
        let width = p.width.max(1);
        let (top, bottom) = p.data.split_at_mut_checked(ch * width).ok_or_else(short_plane)?;
        let last = top.rchunks_exact(width).next().ok_or_else(short_plane)?;
        for row in bottom.chunks_exact_mut(width) {
            row.copy_from_slice(last);
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
    for (ci, (comp, plane)) in frame.components.iter().zip(planes).enumerate() {
        let qm = forward_quant_scales(&qtable(qtables, comp.tq)?);
        for brow in 0..comp.alloc_h {
            for bcol in 0..comp.alloc_w {
                for (y, out) in spatial.chunks_exact_mut(8).enumerate() {
                    let at = (brow as usize * 8 + y) * plane.width + bcol as usize * 8;
                    let row = plane.data.get(at..at + 8).ok_or_else(short_plane)?;
                    for (s, &v) in out.iter_mut().zip(row) {
                        *s = f64::from(v) - 128.0;
                    }
                }
                forward_dct_raw(&spatial, &mut freq);
                let block = coeffs.block_mut(frame, ci, brow, bcol);
                #[expect(clippy::indexing_slicing, reason = "ZIGZAG entries are < 64, into [f64; \
                          64] arrays")]
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

/// Dequantizes and inverse transforms coefficients back into sample
/// planes, with plane buffers drawn from (and returnable to, via
/// [`SamplePlane::recycle_into`]) `pool`, so a decode loop reconstructs
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
    for (ci, (comp, p)) in frame.components.iter().zip(&mut planes).enumerate() {
        kernel.begin_table(&qtable(qtables, comp.tq)?);
        for brow in 0..comp.alloc_h {
            for bcol in 0..comp.alloc_w {
                let block = coeffs.block(frame, ci, brow, bcol);
                kernel.transform(block, &mut pixels);
                for (y, src) in pixels.chunks_exact(8).enumerate() {
                    let dst = (brow as usize * 8 + y) * p.width + bcol as usize * 8;
                    p.data.get_mut(dst..dst + 8).ok_or_else(short_plane)?.copy_from_slice(src);
                }
            }
        }
    }
    Ok(planes)
}

/// Reassembles an [`ImageBuf`] from component planes (nearest-neighbour
/// chroma upsampling: output pixel `(x, y)` reads each component at
/// `(x·h/hmax, y·v/vmax)`). A fourth component is ignored.
///
/// One merged upsample + colour pass, libjpeg's `jdmerge.c` in shape:
/// when the chroma row changes, the three chroma terms (red from Cr, the
/// rounded green sum, blue from Cb) are computed once per chroma sample
/// and spread over the `hmax/h` pixels that map to it; every output row
/// that shares the chroma row then adds them to its luma in one flat
/// loop. The terms come from the same tables as
/// [`crate::image::ycbcr_to_rgb`], so the pixels are the ones it gives.
/// When Cb and Cr sample differently, or their factor does not divide
/// `hmax`, each pixel looks its samples up through the map instead.
pub fn planes_to_image(planes: &[SamplePlane], frame: &FrameInfo) -> Result<ImageBuf> {
    let w = frame.width as usize;
    let h = frame.height as usize;
    if frame.components.len() == 1 {
        let p = planes.first().ok_or_else(short_plane)?;
        let mut data = vec![0u8; w * h];
        for (y, out) in data.chunks_exact_mut(w).enumerate() {
            out.copy_from_slice(p.data.get(y * p.width..y * p.width + w).ok_or_else(short_plane)?);
        }
        return ImageBuf::from_raw(frame.width, frame.height, 1, data);
    }
    let (hmax, vmax) = (usize::from(frame.hmax), usize::from(frame.vmax));
    let (Some([cy, ccb, ccr]), Some([py, pcb, pcr])) =
        (frame.components.first_chunk(), planes.first_chunk())
    else {
        return Err(short_plane());
    };
    let [hy, hcb, hcr] = [cy, ccb, ccr].map(|c| usize::from(c.h));
    // The R, G and B terms of each output pixel's chroma sample.
    let mut terms = [vec![0i16; w], vec![0i16; w], vec![0i16; w]];
    let mut chroma_rows = None;
    let mut luma = Vec::new();
    let mut data = vec![0u8; w * h * 3];
    for (y, out) in data.chunks_exact_mut(w * 3).enumerate() {
        let (cby, cb) = plane_row(pcb, ccb.v, vmax, y)?;
        let (cry, cr) = plane_row(pcr, ccr.v, vmax, y)?;
        if chroma_rows != Some((cby, cry)) {
            chroma_rows = Some((cby, cry));
            if hcb == hcr && hmax % hcb == 0 {
                match hmax / hcb {
                    1 => spread_terms::<1>(&mut terms, cb, cr),
                    2 => spread_terms::<2>(&mut terms, cb, cr),
                    3 => spread_terms::<3>(&mut terms, cb, cr),
                    _ => spread_terms::<4>(&mut terms, cb, cr),
                }
            } else {
                let [tr, tg, tb] = &mut terms;
                let samples = nearest(w, hcb, hmax).zip(nearest(w, hcr, hmax));
                for (((r, g), b), (cbx, crx)) in tr.iter_mut().zip(tg).zip(tb).zip(samples) {
                    let (Some(&cb), Some(&cr)) = (cb.get(cbx), cr.get(crx)) else {
                        return Err(short_plane());
                    };
                    [*r, *g, *b] = chroma_terms(cb, cr);
                }
            }
        }
        let (_, y_row) = plane_row(py, cy.v, vmax, y)?;
        let y_row = if hy == hmax {
            y_row.get(..w).ok_or_else(short_plane)?
        } else {
            luma.clear();
            for x in nearest(w, hy, hmax) {
                luma.push(y_row.get(x).copied().ok_or_else(short_plane)?);
            }
            &luma
        };
        let [tr, tg, tb] = &terms;
        let (pixels, _) = out.as_chunks_mut::<3>();
        for ((((px, &l), &r), &g), &b) in pixels.iter_mut().zip(y_row).zip(tr).zip(tg).zip(tb) {
            *px = [add_term(l, r), add_term(l, g), add_term(l, b)];
        }
    }
    ImageBuf::from_raw(frame.width, frame.height, 3, data)
}

/// The row output row `y` reads from plane `p` of a component sampled
/// `v` times per `vmax` rows, with its index.
#[inline]
fn plane_row(p: &SamplePlane, v: u8, vmax: usize, y: usize) -> Result<(usize, &[u8])> {
    let cy = y * usize::from(v) / vmax;
    let row = p.data.get(cy * p.width..(cy + 1) * p.width).ok_or_else(short_plane)?;
    Ok((cy, row))
}

/// Computes the chroma terms once per sample of the `cb`/`cr` rows and
/// writes them to the `N` pixels each sample covers (fewer at the right
/// edge).
#[inline]
fn spread_terms<const N: usize>(terms: &mut [Vec<i16>; 3], cb: &[u8], cr: &[u8]) {
    let [tr, tg, tb] = terms;
    let (mut tr, mut tg, mut tb) =
        (tr.chunks_exact_mut(N), tg.chunks_exact_mut(N), tb.chunks_exact_mut(N));
    let mut samples = cb.iter().zip(cr);
    for (((r, g), b), (&cb, &cr)) in (&mut tr).zip(&mut tg).zip(&mut tb).zip(&mut samples) {
        let [tr, tg, tb] = chroma_terms(cb, cr);
        r.fill(tr);
        g.fill(tg);
        b.fill(tb);
    }
    if let Some((&cb, &cr)) = samples.next() {
        let [r, g, b] = chroma_terms(cb, cr);
        tr.into_remainder().fill(r);
        tg.into_remainder().fill(g);
        tb.into_remainder().fill(b);
    }
}

/// `i·num/den` for `i` in `0..n`, stepped without a division.
fn nearest(n: usize, num: usize, den: usize) -> impl Iterator<Item = usize> {
    let (mut q, mut r) = (0, 0);
    (0..n).map(move |_| {
        let out = q;
        r += num;
        while r >= den {
            r -= den;
            q += 1;
        }
        out
    })
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
        let back = coeffs_to_planes_pooled(&coeffs, &frame, &q, &mut Vec::new()).unwrap();
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
        let back = coeffs_to_planes_pooled(&coeffs, &frame, &q, &mut Vec::new()).unwrap();
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
        let planes =
            coeffs_to_planes_pooled(&coeffs, &frame, &qtables(75), &mut Vec::new()).unwrap();
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
