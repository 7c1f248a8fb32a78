//! SSIM and multiscale SSIM (MSSIM) image similarity, after Wang,
//! Simoncelli & Bovik 2003 — the estimator the paper uses to predict how
//! much compression a training task tolerates (section 4.4).
//!
//! There is one kernel. A [`MsssimReference`] prepares the reference image
//! once — its scale pyramid and, per scale, its filtered mean and filtered
//! square — and [`MsssimReference::score`] then filters only the candidate
//! side (three filters a scale, not five), a few rows at a time, into
//! buffers it reuses from one candidate to the next. The two-argument
//! [`msssim`] is `MsssimReference::new(a).score(b)`.
//!
//! Everything is `f64` and every pixel accumulates its filter taps in the
//! same order whichever loop shape computes it, so a score is a pure
//! function of the two images: bit-identical across candidates, call
//! forms, thread counts and commits. Scores land in `decisions.pcrd` and
//! in the golden trace, which is why the kernel is exact rather than
//! exact-to-tolerance.

/// A grayscale f64 image plane for metric computation.
#[derive(Debug, Clone, Default)]
pub struct Plane {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major samples (any scale; typically 0..255).
    pub data: Vec<f64>,
}

impl Plane {
    /// Builds a plane from 8-bit luma samples.
    pub fn from_u8(width: usize, height: usize, data: &[u8]) -> Self {
        let mut plane = Self::default();
        plane.set_u8(width, height, data);
        plane
    }

    /// Overwrites the plane with 8-bit luma samples, reusing its buffer.
    pub fn set_u8(&mut self, width: usize, height: usize, data: &[u8]) {
        assert_eq!(data.len(), width * height);
        (self.width, self.height) = (width, height);
        clear_for(&mut self.data, data.len());
        self.data.extend(data.iter().map(|&v| f64::from(v)));
    }

    /// 2x2 box downsample (floors odd dimensions; a side of 1 stays 1 and
    /// an empty side stays empty).
    pub fn downsample2(&self) -> Plane {
        let mut out = Plane::default();
        downsample_into(self, &mut out);
        out
    }
}

fn downsample_into(src: &Plane, dst: &mut Plane) {
    let half = |side: usize| (side / 2).max(side.min(1));
    let (w, h) = (half(src.width), half(src.height));
    dst.width = w;
    dst.height = h;
    clear_for(&mut dst.data, w * h);
    let row = |y: usize| &src.data[y * src.width..(y + 1) * src.width];
    for y in 0..h {
        // Only a side of 1 ever clamps: floored halves stay inside.
        let (top, bottom) = (row(2 * y), row((2 * y + 1).min(src.height - 1)));
        dst.data.extend((0..w).map(|x| {
            let (x0, x1) = (2 * x, (2 * x + 1).min(src.width - 1));
            (0.0 + top[x0] + top[x1] + bottom[x0] + bottom[x1]) / 4.0
        }));
    }
}

/// Empties `v` with room for exactly `n` values: a buffer reused from
/// one image to the next grows to the largest of them, not to twice it
/// (a freed oversized buffer would lift the allocator's mmap threshold
/// for the rest of the process).
fn clear_for(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.reserve_exact(n);
}

const C1: f64 = 6.5025; // (0.01 * 255)^2
const C2: f64 = 58.5225; // (0.03 * 255)^2

fn gaussian_kernel(radius: usize, sigma: f64) -> Vec<f64> {
    let mut k = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in 0..=2 * radius {
        let d = i as f64 - radius as f64;
        k.push((-d * d / denom).exp());
    }
    let sum: f64 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Pixels per register block of [`weighted_sum`]: eight SSE2 accumulators.
const BLOCK: usize = 16;

/// Taps of the widest kernel (radius 5).
const MAX_TAPS: usize = 11;

/// `dst[x] = Σ taps[i][x] * kernel[i]` — the one inner loop of the filter.
/// A block of pixels is carried in registers across the taps, so the
/// compiler vectorises across `x` while every pixel still adds its taps
/// one at a time, first to last, from zero: the order (and so the bits) of
/// a per-pixel tap loop. The caller resolves each tap's row once per call,
/// not once per block.
fn weighted_sum(dst: &mut [f64], kernel: &[f64], taps: &[&[f64]]) {
    let n = dst.len();
    if n < BLOCK {
        for (x, d) in dst.iter_mut().enumerate() {
            let mut s = 0.0;
            for (&k, tap) in kernel.iter().zip(taps) {
                s += tap[x] * k;
            }
            *d = s;
        }
        return;
    }
    // Whole blocks, the last one moved back to end at `n`: the pixels it
    // shares with its neighbour are computed twice, to the same bits.
    for x in (0..n).step_by(BLOCK) {
        let x = x.min(n - BLOCK);
        let mut acc = [0.0f64; BLOCK];
        for (&k, tap) in kernel.iter().zip(taps) {
            let src: &[f64; BLOCK] = tap[x..x + BLOCK].try_into().expect("block-sized slice");
            for (a, &s) in acc.iter_mut().zip(src) {
                *a += s * k;
            }
        }
        dst[x..x + BLOCK].copy_from_slice(&acc);
    }
}

/// The rows `row(0..taps)` a [`weighted_sum`] reads, `taps` at most
/// [`MAX_TAPS`].
fn tap_rows<'a>(taps: usize, row: impl Fn(usize) -> &'a [f64]) -> [&'a [f64]; MAX_TAPS] {
    let mut rows = [&[][..]; MAX_TAPS];
    for (i, r) in rows.iter_mut().enumerate().take(taps) {
        *r = row(i);
    }
    rows
}

/// What a [`RowFilter`] filters: a plane, or the pixel-wise product of two.
#[derive(Clone, Copy)]
enum Source<'a> {
    Plane(&'a [f64]),
    Product(&'a [f64], &'a [f64]),
}

impl Source<'_> {
    /// Writes row `y` of the source, `dst.len()` wide, into `dst`.
    fn write_row(self, y: usize, dst: &mut [f64]) {
        let w = dst.len();
        match self {
            Source::Plane(p) => dst.copy_from_slice(&p[y * w..][..w]),
            Source::Product(p, q) => {
                for ((d, a), b) in dst.iter_mut().zip(&p[y * w..][..w]).zip(&q[y * w..][..w]) {
                    *d = a * b;
                }
            }
        }
    }
}

/// The separable, edge-clamped gaussian filter, streamed over the rows of
/// a non-empty image: the horizontal pass runs `radius` rows ahead of the
/// vertical one and keeps only the rows the vertical taps still need, so a
/// filter's working set is a dozen rows whatever the image height.
#[derive(Debug, Default)]
struct RowFilter {
    /// The source row being filtered, its edge pixels repeated `radius`
    /// times on either side: a clamped tap reads the same value unclamped.
    padded: Vec<f64>,
    /// Horizontally filtered rows, row `y` in slot `y % taps`.
    ring: Vec<f64>,
    /// Rows `0..rows_done` have been through the horizontal pass.
    rows_done: usize,
}

impl RowFilter {
    /// Starts over for an image `w` wide and a kernel of `taps`.
    fn reset(&mut self, w: usize, taps: usize) {
        self.padded.resize(w + taps - 1, 0.0);
        self.ring.resize(w * taps, 0.0);
        self.rows_done = 0;
    }

    /// Filtered row `y` of the `h`-row image `source` into `out`; rows
    /// must be asked for in order.
    fn row(&mut self, y: usize, h: usize, kernel: &[f64], source: Source<'_>, out: &mut [f64]) {
        let Self { padded, ring, rows_done } = self;
        let (w, taps, r) = (out.len(), kernel.len(), kernel.len() / 2);
        while *rows_done <= (y + r).min(h - 1) {
            let (left, rest) = padded.split_at_mut(r);
            let (row, right) = rest.split_at_mut(w);
            source.write_row(*rows_done, row);
            left.fill(row[0]);
            right.fill(row[w - 1]);
            let slot = &mut ring[*rows_done % taps * w..][..w];
            weighted_sum(slot, kernel, &tap_rows(taps, |i| &padded[i..i + w])[..taps]);
            *rows_done += 1;
        }
        // Vertically a clamped tap only changes which row it reads.
        let rows = tap_rows(taps, |i| {
            let sy = (y + i).saturating_sub(r).min(h - 1);
            &ring[sy % taps * w..][..w]
        });
        weighted_sum(out, kernel, &rows[..taps]);
    }
}

/// What [`MsssimReference::score`] reuses from one candidate to the next;
/// all of it is overwritten before it is read.
#[derive(Debug, Default)]
struct Scratch {
    /// Filters of the candidate, its square and reference×candidate.
    mu: RowFilter,
    sq: RowFilter,
    cross: RowFilter,
    /// One output row of each, then one row of the SSIM and CS maps.
    rows: Vec<f64>,
}

/// One scale of a prepared reference: the plane with its filtered mean
/// and filtered square.
#[derive(Debug, Default)]
struct Scale {
    plane: Plane,
    kernel: Vec<f64>,
    mu: Vec<f64>,
    sq: Vec<f64>,
}

impl Scale {
    /// Prepares the non-empty plane now in `self.plane`, overwriting
    /// whatever an earlier plane left in the other buffers.
    fn prepare(&mut self, s: &mut Scratch) {
        let Self { plane, kernel, mu, sq } = self;
        let (w, h, a) = (plane.width, plane.height, &plane.data);
        // Kernel radius shrinks for tiny images.
        let radius = 5.min((w.min(h) - 1) / 2).max(1);
        *kernel = gaussian_kernel(radius, 1.5);
        clear_for(mu, w * h);
        mu.resize(w * h, 0.0);
        clear_for(sq, w * h);
        sq.resize(w * h, 0.0);
        s.mu.reset(w, kernel.len());
        s.sq.reset(w, kernel.len());
        for (y, (mu, sq)) in mu.chunks_exact_mut(w).zip(sq.chunks_exact_mut(w)).enumerate() {
            s.mu.row(y, h, kernel, Source::Plane(a), mu);
            s.sq.row(y, h, kernel, Source::Product(a, a), sq);
        }
    }

    /// Mean SSIM and mean contrast-structure of this scale against a
    /// candidate `b` of the same shape: the three candidate-side filters
    /// advance together, and each finished row becomes a row of the SSIM
    /// and CS maps that is then folded into the sums. The map pass has no
    /// carried sum, so its divisions vectorise; the fold adds pixel after
    /// pixel, the order (and so the bits) of a one-loop pass.
    fn ssim_cs(&self, b: &[f64], s: &mut Scratch) -> (f64, f64) {
        let (w, h, a) = (self.plane.width, self.plane.height, &self.plane.data);
        let kernel = &self.kernel[..];
        s.mu.reset(w, kernel.len());
        s.sq.reset(w, kernel.len());
        s.cross.reset(w, kernel.len());
        s.rows.resize(5 * w, 0.0);
        let (mu_b, rest) = s.rows.split_at_mut(w);
        let (sq_b, rest) = rest.split_at_mut(w);
        let (cross, rest) = rest.split_at_mut(w);
        let (ssim_map, cs_map) = rest.split_at_mut(w);
        let mut ssim_sum = 0.0;
        let mut cs_sum = 0.0;
        let reference_rows = self.mu.chunks_exact(w).zip(self.sq.chunks_exact(w));
        for (y, (mu_a, sq_a)) in reference_rows.enumerate() {
            s.mu.row(y, h, kernel, Source::Plane(b), mu_b);
            s.sq.row(y, h, kernel, Source::Product(b, b), sq_b);
            s.cross.row(y, h, kernel, Source::Product(a, b), cross);
            let inputs = mu_a.iter().zip(&*mu_b).zip(sq_a.iter().zip(&*sq_b)).zip(&*cross);
            let maps = ssim_map.iter_mut().zip(cs_map.iter_mut());
            for ((((&ma, &mb), (&sa, &sb)), &cross), (ssim, cs_out)) in inputs.zip(maps) {
                let va = (sa - ma * ma).max(0.0);
                let vb = (sb - mb * mb).max(0.0);
                let cov = cross - ma * mb;
                let l = (2.0 * ma * mb + C1) / (ma * ma + mb * mb + C1);
                let cs = (2.0 * cov + C2) / (va + vb + C2);
                *ssim = l * cs;
                *cs_out = cs;
            }
            for (&ssim, &cs) in ssim_map.iter().zip(&*cs_map) {
                ssim_sum += ssim;
                cs_sum += cs;
            }
        }
        let n = a.len() as f64;
        (ssim_sum / n, cs_sum / n)
    }
}

/// Mean SSIM and mean contrast-structure (CS) over a pair of planes.
///
/// Returns `(ssim, cs)`; `cs` is used by the multiscale aggregation. Two
/// empty planes are identical: `(1.0, 1.0)`.
pub fn ssim_cs(a: &Plane, b: &Plane) -> (f64, f64) {
    assert_eq!((a.width, a.height), (b.width, b.height), "shape mismatch");
    if a.data.is_empty() {
        return (1.0, 1.0);
    }
    let mut scratch = Scratch::default();
    let mut scale = Scale { plane: a.clone(), ..Scale::default() };
    scale.prepare(&mut scratch);
    scale.ssim_cs(&b.data, &mut scratch)
}

/// Single-scale mean SSIM.
pub fn ssim(a: &Plane, b: &Plane) -> f64 {
    ssim_cs(a, b).0
}

/// The standard 5-scale MS-SSIM weights.
pub const MSSSIM_WEIGHTS: [f64; 5] = [0.0448, 0.2856, 0.3001, 0.2363, 0.1333];

/// A reference image prepared for multiscale SSIM against any number of
/// candidates: its scale pyramid and each scale's filtered mean and
/// filtered square are computed once, here, and [`MsssimReference::score`]
/// filters only the candidate. Scales are dropped (with weight
/// renormalization) if the image becomes smaller than 8 pixels on a side.
/// The default is the prepared empty image.
#[derive(Debug, Default)]
pub struct MsssimReference {
    width: usize,
    height: usize,
    /// Finest first; none for an empty reference.
    scales: Vec<Scale>,
    scratch: Scratch,
    /// The candidate's pyramid level in use, and the one being built.
    level: Plane,
    coarser: Plane,
}

impl MsssimReference {
    /// Prepares `reference`.
    pub fn new(reference: &Plane) -> Self {
        let mut prepared = Self::default();
        prepared.prepare(reference);
        prepared
    }

    /// Prepares `reference` in place of the image prepared before, in the
    /// buffers that image used: scores are then the bits
    /// [`MsssimReference::new`]`(reference)` gives, and a caller preparing
    /// one image after another allocates nothing once the buffers fit.
    pub fn prepare(&mut self, reference: &Plane) {
        (self.width, self.height) = (reference.width, reference.height);
        let mut used = 0;
        while used < MSSSIM_WEIGHTS.len() && !reference.data.is_empty() {
            if self.scales.len() == used {
                self.scales.push(Scale::default());
            }
            let (finer, rest) = self.scales.split_at_mut(used);
            let Some(scale) = rest.first_mut() else { break };
            match finer.last() {
                Some(finer) => downsample_into(&finer.plane, &mut scale.plane),
                None => {
                    (scale.plane.width, scale.plane.height) = (reference.width, reference.height);
                    clear_for(&mut scale.plane.data, reference.data.len());
                    scale.plane.data.extend_from_slice(&reference.data);
                }
            }
            scale.prepare(&mut self.scratch);
            used += 1;
            let (w, h) = (scale.plane.width, scale.plane.height);
            if w / 2 < 8 || h / 2 < 8 {
                break;
            }
        }
        self.scales.truncate(used);
    }

    /// MS-SSIM of `candidate` against the reference. Scoring leaves no
    /// state behind: the same candidate scores the same bits whatever was
    /// scored before it. Two empty planes are identical: `1.0`.
    pub fn score(&mut self, candidate: &Plane) -> f64 {
        let shape = (candidate.width, candidate.height);
        assert_eq!((self.width, self.height), shape, "shape mismatch");
        let Self { scales, scratch, level, coarser, .. } = self;
        let used = &MSSSIM_WEIGHTS[..scales.len()];
        let wsum: f64 = used.iter().sum();
        let mut out = 1.0f64;
        for (i, (scale, w)) in scales.iter().zip(used).enumerate() {
            let last = i == scales.len() - 1;
            let plane = if i == 0 { candidate } else { &*level };
            let (ssim, cs) = scale.ssim_cs(&plane.data, scratch);
            // Components can be slightly negative on pathological inputs;
            // clamp for the weighted geometric mean.
            out *= (if last { ssim } else { cs }).max(1e-6).powf(w / wsum);
            if !last {
                downsample_into(plane, coarser);
                std::mem::swap(level, coarser);
            }
        }
        out
    }
}

/// Multiscale SSIM of two planes of one shape; see [`MsssimReference`],
/// which this is one use of.
pub fn msssim(a: &Plane, b: &Plane) -> f64 {
    MsssimReference::new(a).score(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gradient(w: usize, h: usize) -> Plane {
        let mut data = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                data.push(((x * 3 + y * 2) % 256) as f64);
            }
        }
        Plane { width: w, height: h, data }
    }

    #[test]
    fn identical_images_score_one() {
        let p = gradient(64, 64);
        assert!((ssim(&p, &p) - 1.0).abs() < 1e-9);
        assert!((msssim(&p, &p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn noise_lowers_score_monotonically() {
        let p = gradient(64, 64);
        let noisy = |amp: f64| {
            let mut q = p.clone();
            let mut s = 12345u64;
            for v in &mut q.data {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                *v = (*v + amp * r).clamp(0.0, 255.0);
            }
            q
        };
        let s1 = msssim(&p, &noisy(20.0));
        let s2 = msssim(&p, &noisy(80.0));
        assert!(s1 > s2, "{s1} vs {s2}");
        assert!(s1 < 1.0);
        assert!(s2 > 0.0);
    }

    #[test]
    fn constant_shift_hurts_less_than_structure_change() {
        let p = gradient(64, 64);
        let shifted = Plane {
            width: 64,
            height: 64,
            data: p.data.iter().map(|v| (v + 10.0).min(255.0)).collect(),
        };
        let scrambled = Plane {
            width: 64,
            height: 64,
            data: p.data.iter().rev().cloned().collect(),
        };
        assert!(msssim(&p, &shifted) > msssim(&p, &scrambled));
    }

    #[test]
    fn downsample_halves_dimensions() {
        let p = gradient(64, 48);
        let d = p.downsample2();
        assert_eq!((d.width, d.height), (32, 24));
        let dd = d.downsample2().downsample2().downsample2().downsample2();
        assert_eq!((dd.width, dd.height), (2, 1));
    }

    #[test]
    fn small_images_do_not_panic() {
        let p = gradient(16, 16);
        let q = gradient(16, 16);
        let s = msssim(&p, &q);
        assert!((s - 1.0).abs() < 1e-6);
        let tiny = gradient(8, 8);
        assert!(msssim(&tiny, &tiny) > 0.99);
    }

    #[test]
    fn degenerate_planes_are_total() {
        // Empty planes are identical by definition, whichever side is 0.
        for (w, h) in [(0, 0), (0, 5), (5, 0)] {
            let e = Plane::from_u8(w, h, &[]);
            assert_eq!(msssim(&e, &e), 1.0, "{w}x{h}");
            assert_eq!(ssim_cs(&e, &e), (1.0, 1.0), "{w}x{h}");
            assert!(e.downsample2().data.is_empty(), "{w}x{h}");
        }
        // One- and two-pixel planes run the shrunken-radius kernel.
        for (w, h) in [(1, 1), (2, 1), (1, 2)] {
            let p = gradient(w, h);
            let q = Plane { data: p.data.iter().map(|v| v + 40.0).collect(), ..p.clone() };
            assert!((msssim(&p, &p) - 1.0).abs() < 1e-9, "{w}x{h}");
            let s = msssim(&p, &q);
            assert!(s.is_finite() && s > 0.0 && s < 1.0, "{w}x{h}: {s}");
            assert_eq!(s.to_bits(), crate::reference::msssim(&p, &q).to_bits(), "{w}x{h}");
            assert_eq!((p.downsample2().width, p.downsample2().height), (1, 1));
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn empty_planes_of_different_shapes_still_mismatch() {
        msssim(&Plane::from_u8(0, 5, &[]), &Plane::from_u8(0, 3, &[]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn prepared_reference_rejects_another_shape() {
        MsssimReference::new(&gradient(16, 16)).score(&gradient(16, 17));
    }

    #[test]
    fn symmetric() {
        let p = gradient(32, 32);
        let mut q = p.clone();
        for (i, v) in q.data.iter_mut().enumerate() {
            *v = (*v + (i % 17) as f64).min(255.0);
        }
        let ab = msssim(&p, &q);
        let ba = msssim(&q, &p);
        assert!((ab - ba).abs() < 1e-12);
    }

    /// Pseudo-random `w`×`h` content: uniform noise, a noisy gradient, or a
    /// constant (zero variance everywhere), by `seed`.
    fn content(w: usize, h: usize, seed: u64) -> Plane {
        let mut s = seed;
        let data = (0..w * h)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (s >> 56) as usize;
                match seed % 3 {
                    0 => noise as f64,
                    1 => (((i % w) * 3 + (i / w) * 2 + noise / 16) % 256) as f64,
                    _ => (seed % 251) as f64,
                }
            })
            .collect();
        Plane { width: w, height: h, data }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The prepared reference, the two-argument form and the retained
        /// pre-rewrite kernel agree to the bit — on odd sizes, on sides
        /// below the 8-pixel scale cut-off and the 11-tap kernel, and for
        /// one reference scored against several candidates in a row, with
        /// a repeat at the end (scratch reuse must not leak state).
        #[test]
        fn prepared_reference_matches_retained_kernel_bit_for_bit(
            sides in (1usize..=200, 1usize..=200),
            narrow in 0u8..4,
            seed in any::<u64>(),
            candidates in 1usize..=3,
        ) {
            let (mut w, mut h) = sides;
            if narrow & 1 != 0 { w = 1 + w % 12; }
            if narrow & 2 != 0 { h = 1 + h % 12; }
            let a = content(w, h, seed);
            let bs: Vec<Plane> =
                (1..=candidates as u64).map(|k| content(w, h, seed.wrapping_add(k))).collect();
            let mut prepared = MsssimReference::new(&a);
            // Re-prepared over a reference of another shape first.
            let mut reused = MsssimReference::new(&content(h, w + 3, !seed));
            reused.prepare(&a);
            for b in bs.iter().chain(bs.first()) {
                let want = crate::reference::msssim(&a, b).to_bits();
                prop_assert_eq!(prepared.score(b).to_bits(), want, "{}x{} prepared", w, h);
                prop_assert_eq!(reused.score(b).to_bits(), want, "{}x{} re-prepared", w, h);
                prop_assert_eq!(msssim(&a, b).to_bits(), want, "{}x{} two-argument", w, h);
            }
            let bits = |(ssim, cs): (f64, f64)| (ssim.to_bits(), cs.to_bits());
            let want = bits(crate::reference::ssim_cs(&a, &bs[0]));
            prop_assert_eq!(bits(ssim_cs(&a, &bs[0])), want, "{}x{} single scale", w, h);
        }
    }
}
