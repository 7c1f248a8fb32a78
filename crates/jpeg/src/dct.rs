//! 8x8 forward and inverse DCT-II used by the JPEG pixel pipeline — the
//! scalar AAN (Arai–Agui–Nakajima) butterfly factorization.
//!
//! The previous implementation multiplied by a precomputed 8x8 basis
//! matrix: O(8³) = 1024 multiplies per 2-D block per direction. The AAN
//! butterfly needs **5 multiplies per 1-D pass** (16 passes = 80 per
//! block) and pushes its remaining per-coefficient scale factors into the
//! quantization step, where the pipeline already multiplies once per
//! coefficient anyway ([`forward_quant_scales`] / [`inverse_quant_scales`]
//! fold them into the tables once per image). The retained basis-matrix
//! implementation lives on as the `#[cfg(test)]` reference oracle the
//! bit-exactness suite decodes against.
//!
//! # Scaling conventions
//!
//! Raw butterfly output is *AAN-scaled*: [`forward_dct_raw`] produces
//! `S(u,v) · 8 · aan(u) · aan(v)` where `S` is the T.81 / orthonormal DCT
//! and `aan(k) = √2·cos(kπ/16)` (`aan(0) = 1`); the decode kernel
//! [`inverse_dct_pixels`] expects its input pre-scaled by
//! `aan(u)·aan(v) / 8`, which [`inverse_quant_scales`] folds into
//! dequantization. The orthonormal [`forward_dct`] wrapper applies the
//! forward factors explicitly and is what tests and non-pipeline callers
//! use.
//!
//! # Determinism contract
//!
//! All arithmetic is `f64` with hard-coded constants (no `libm` calls at
//! runtime), and every rounding to an integer domain goes through
//! [`descale`], which snaps to a 1/32 grid before rounding half-up.
//! Exact rational DCT outputs (flat blocks and other coefficient patterns
//! whose basis products are rational land on a k/8 grid) therefore round
//! identically no matter which floating-point evaluation order produced
//! them — the property that lets the test suite demand *byte-identical*
//! pixels between this butterfly and the reference basis-matrix oracle.

use crate::consts::UNZIGZAG;

/// `√2·cos(kπ/16)` for k=1..7 with `aan(0)=1`: the per-index scale factor
/// of the AAN factorization. The 2-D factor for coefficient `(u, v)` is
/// `AAN_SCALE[u] * AAN_SCALE[v]`.
const AAN_SCALE: [f64; 8] = [
    1.0,
    1.3870398453221475,
    1.3065629648763766,
    1.1758756024193588,
    1.0,
    0.7856949583871023,
    0.5411961001461971,
    0.2758993792829431,
];

// Butterfly rotation constants. Hard-coded decimal literals (not
// `std::f64::consts` expressions) so the values are fixed in source and
// platform-independent; clippy's approx-constant lints are quieted where
// a literal coincides with a std constant.
const F_0_382: f64 = 0.3826834323650898; // √2·(c2−c6)/2 … fdct odd rotation
#[allow(clippy::excessive_precision)]
const F_0_541: f64 = 0.5411961001461970;
#[allow(clippy::approx_constant, clippy::excessive_precision)]
const F_0_707: f64 = 0.7071067811865476; // 1/√2
#[allow(clippy::excessive_precision)]
const F_1_306: f64 = 1.3065629648763766;
#[allow(clippy::approx_constant)]
const I_1_414: f64 = 1.4142135623730951; // √2
const I_1_847: f64 = 1.8477590650225735; // 2·cos(π/8)
#[allow(clippy::excessive_precision)]
const I_1_082: f64 = 1.0823922002923940; // √2·(c2−c6)
#[allow(clippy::excessive_precision)]
const I_2_613: f64 = 2.6131259297527530; // √2·(c2+c6)

/// Snap-rounds a DCT-domain value to an integer: the value is first
/// rounded to the nearest 1/32 (ties to even), then to the nearest
/// integer (ties toward +∞). This is the single rounding contract of the
/// pixel pipeline — quantization on encode, pixel reconstruction on
/// decode — shared by the fast butterfly and the reference oracle, so
/// algebraically exact ties (which live on a k/8 grid for conformant
/// streams: flat blocks, coefficients on the rational basis products)
/// cannot round differently across DCT implementations. The 1/32 grid is
/// coarse enough that two different f64 evaluation orders of the same
/// block always land in the same cell, and fine enough to contain every
/// k/8 point.
///
/// Values outside `i32` range after the 32× scale saturate (only
/// reachable from wildly corrupt streams; the subsequent pixel clamp
/// makes the result identical anyway).
#[inline]
pub fn descale(v: f64) -> i32 {
    (round_ne64(v * 32.0).wrapping_add(16)) >> 5
}

/// Branch-free round-to-nearest (ties to even) via the classic
/// 1.5·2^52 magic add — baseline x86-64 has no float rounding
/// instruction, so `f64::round` would be a libm call in the innermost
/// pixel loop. Exact for |x| < 2^51 (far beyond the pixel domain);
/// larger magnitudes produce defined garbage that the pixel clamp
/// swallows.
#[inline]
fn round_ne64(x: f64) -> i32 {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    ((x + MAGIC).to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64) as i32
}

/// One forward AAN 1-D pass over `x`: 5 multiplies, output AAN-scaled.
#[inline(always)]
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — all indices are literal 0..8 into [f64; 8] rows
fn fdct_1d(x: [f64; 8]) -> [f64; 8] {
    let t0 = x[0] + x[7];
    let t7 = x[0] - x[7];
    let t1 = x[1] + x[6];
    let t6 = x[1] - x[6];
    let t2 = x[2] + x[5];
    let t5 = x[2] - x[5];
    let t3 = x[3] + x[4];
    let t4 = x[3] - x[4];
    // Even part.
    let t10 = t0 + t3;
    let t13 = t0 - t3;
    let t11 = t1 + t2;
    let t12 = t1 - t2;
    let z1 = (t12 + t13) * F_0_707;
    // Odd part.
    let s10 = t4 + t5;
    let s11 = t5 + t6;
    let s12 = t6 + t7;
    let z5 = (s10 - s12) * F_0_382;
    let z2 = F_0_541 * s10 + z5;
    let z4 = F_1_306 * s12 + z5;
    let z3 = s11 * F_0_707;
    let z11 = t7 + z3;
    let z13 = t7 - z3;
    [
        t10 + t11,
        z11 + z4,
        t13 + z1,
        z13 - z2,
        t10 - t11,
        z13 + z2,
        t13 - z1,
        z11 - z4,
    ]
}

/// One inverse AAN 1-D pass over `x` (AAN-prescaled input): 5 multiplies.
#[inline(always)]
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — all indices are literal 0..8 into [f64; 8] rows
fn idct_1d(x: [f64; 8]) -> [f64; 8] {
    // Even part.
    let t10 = x[0] + x[4];
    let t11 = x[0] - x[4];
    let t13 = x[2] + x[6];
    let t12 = (x[2] - x[6]) * I_1_414 - t13;
    let t0 = t10 + t13;
    let t3 = t10 - t13;
    let t1 = t11 + t12;
    let t2 = t11 - t12;
    // Odd part.
    let z13 = x[5] + x[3];
    let z10 = x[5] - x[3];
    let z11 = x[1] + x[7];
    let z12 = x[1] - x[7];
    let t7 = z11 + z13;
    let r11 = (z11 - z13) * I_1_414;
    let z5 = (z10 + z12) * I_1_847;
    let r10 = I_1_082 * z12 - z5;
    let r12 = z5 - I_2_613 * z10;
    let t6 = r12 - t7;
    let t5 = r11 - t6;
    let t4 = r10 + t5;
    [
        t0 + t7,
        t1 + t6,
        t2 + t5,
        t3 - t4,
        t3 + t4,
        t2 - t5,
        t1 - t6,
        t0 - t7,
    ]
}

/// Forward 8x8 DCT, raw AAN scaling: `output[v*8+u]` holds
/// `S(u,v) · 8 · aan(u) · aan(v)`. The pixel pipeline divides the scale
/// back out inside quantization (see [`forward_quant_scales`]); use
/// [`forward_dct`] if you want orthonormal coefficients directly.
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — u/v/i loop in 0..8 indexes fixed [_; 64] blocks as v*8+u
pub fn forward_dct_raw(input: &[f64; 64], output: &mut [f64; 64]) {
    // Rows.
    let mut tmp = [0f64; 64];
    for y in 0..8 {
        let row: [f64; 8] = input[y * 8..y * 8 + 8].try_into().expect("8 wide");
        tmp[y * 8..y * 8 + 8].copy_from_slice(&fdct_1d(row));
    }
    // Columns.
    for u in 0..8 {
        let col = [
            tmp[u],
            tmp[8 + u],
            tmp[16 + u],
            tmp[24 + u],
            tmp[32 + u],
            tmp[40 + u],
            tmp[48 + u],
            tmp[56 + u],
        ];
        let out = fdct_1d(col);
        for (v, o) in out.into_iter().enumerate() {
            output[v * 8 + u] = o;
        }
    }
}

/// Forward 8x8 DCT with orthonormal output (DC of a constant block `c` is
/// `8c`). `input` holds level-shifted samples in row-major order.
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — u/v/i loop in 0..8 indexes fixed [_; 64] blocks as v*8+u
pub fn forward_dct(input: &[f64; 64], output: &mut [f64; 64]) {
    forward_dct_raw(input, output);
    for v in 0..8 {
        for u in 0..8 {
            output[v * 8 + u] /= 8.0 * AAN_SCALE[u] * AAN_SCALE[v];
        }
    }
}

/// Folds a quantization table (natural order) into per-coefficient
/// *multipliers* for the encode side: `coeff = descale(raw_fdct[i] * m[i])`
/// quantizes raw AAN output in one multiply per coefficient — the
/// division by the table and the AAN descale are both absorbed.
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — u/v/i loop in 0..8 indexes fixed [_; 64] blocks as v*8+u
pub fn forward_quant_scales(q: &[u16; 64]) -> [f64; 64] {
    let mut m = [0f64; 64];
    for (v, sv) in AAN_SCALE.iter().enumerate() {
        for (u, su) in AAN_SCALE.iter().enumerate() {
            let i = v * 8 + u;
            m[i] = 1.0 / (8.0 * su * sv * f64::from(q[i].max(1)));
        }
    }
    m
}

/// Folds a quantization table (natural order) into per-coefficient
/// dequantization multipliers for the decode side:
/// for natural index `i`, `coeff[i] * dq[i]` is the AAN-prescaled input
/// [`inverse_dct_pixels`] transforms — dequantization and AAN prescale in
/// one multiply.
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — u/v/i loop in 0..8 indexes fixed [_; 64] blocks as v*8+u
pub fn inverse_quant_scales(q: &[u16; 64]) -> [f64; 64] {
    let mut dq = [0f64; 64];
    for (v, sv) in AAN_SCALE.iter().enumerate() {
        for (u, su) in AAN_SCALE.iter().enumerate() {
            let i = v * 8 + u;
            dq[i] = f64::from(q[i]) * (su * sv / 8.0);
        }
    }
    dq
}

// Lane-wise ops on the 8-wide row vectors of the column pass: plain
// loops the compiler vectorises, each lane the same IEEE-754 operation as
// the scalar butterfly.
#[inline(always)]
fn vadd(mut a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}
#[inline(always)]
fn vsub(mut a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
    for (x, y) in a.iter_mut().zip(b) {
        *x -= y;
    }
    a
}
#[inline(always)]
fn vscale(a: [f64; 8], s: f64) -> [f64; 8] {
    a.map(|x| x * s)
}

/// The decode pixel kernel: dequantizes one zigzag-order block through
/// folded scales ([`inverse_quant_scales`], natural order) — the load
/// gathers each natural-order coefficient through `UNZIGZAG` — inverse
/// transforms it, and stores clamped pixels. The column pass runs the
/// AAN butterfly on whole 8-wide row vectors; the row pass is a scalar
/// butterfly feeding the shared [`descale`] rounding contract.
///
/// A block with no AC terms (every block of a DC-only scan prefix, and
/// all-zero blocks) takes a shortcut: with seven zero rows and seven zero
/// lanes every butterfly step adds or subtracts an exact zero, so the
/// full kernel would put the dequantized DC itself through [`descale`]
/// at all 64 pixels. The shortcut stores that one value, to the same bits.
///
/// Arithmetic is deliberately `f64`: the bit-exactness suite demands
/// byte-identical pixels against the f64 basis-matrix oracle, and only
/// double precision keeps the cross-algorithm discrepancy (~1e-12)
/// far enough from the snap-cell boundaries of the [`descale`] contract
/// that a straddle can never occur in practice (an f32 kernel was
/// measurably faster but produced rare ±1 pixels against the oracle).
#[inline]
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — literal indices 0 and 1.. into fixed [_; 64] blocks
pub fn inverse_dct_pixels(coeffs: &[i16; 64], dq: &[f64; 64], out: &mut [u8; 64]) {
    // An OR over the 63 AC terms: branch-free, so it vectorises.
    if coeffs[1..].iter().fold(0, |any, &c| any | c) == 0 {
        *out = [dc_pixel(coeffs[0], dq[0]); 64];
        return;
    }
    aan_inverse_dct_pixels(coeffs, dq, out);
}

/// The pixel every sample of a block without AC terms gets: its
/// dequantized DC through [`descale`], level-shifted and clamped.
#[inline]
fn dc_pixel(dc: i16, dq: f64) -> u8 {
    (descale(f64::from(dc) * dq) + 128).clamp(0, 255) as u8
}

/// [`inverse_dct_pixels`] without the DC-only shortcut: the full AAN
/// kernel for every block.
#[inline]
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — rows/columns loop over literal 0..8 into [_; 64] blocks; UNZIGZAG entries are < 64
fn aan_inverse_dct_pixels(coeffs: &[i16; 64], dq: &[f64; 64], out: &mut [u8; 64]) {
    let mut rows = [[0f64; 8]; 8];
    for v in 0..8 {
        for u in 0..8 {
            rows[v][u] = f64::from(coeffs[UNZIGZAG[v * 8 + u]]) * dq[v * 8 + u];
        }
    }
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
    // Column pass, all 8 columns at once (even part).
    let t10 = vadd(r0, r4);
    let t11 = vsub(r0, r4);
    let t13 = vadd(r2, r6);
    let t12 = vsub(vscale(vsub(r2, r6), I_1_414), t13);
    let t0 = vadd(t10, t13);
    let t3 = vsub(t10, t13);
    let t1 = vadd(t11, t12);
    let t2 = vsub(t11, t12);
    // Odd part.
    let z13 = vadd(r5, r3);
    let z10 = vsub(r5, r3);
    let z11 = vadd(r1, r7);
    let z12 = vsub(r1, r7);
    let t7 = vadd(z11, z13);
    let s11 = vscale(vsub(z11, z13), I_1_414);
    let z5 = vscale(vadd(z10, z12), I_1_847);
    let s10 = vsub(vscale(z12, I_1_082), z5);
    let s12 = vsub(z5, vscale(z10, I_2_613));
    let t6 = vsub(s12, t7);
    let t5 = vsub(s11, t6);
    let t4 = vadd(s10, t5);
    let ws = [
        vadd(t0, t7),
        vadd(t1, t6),
        vadd(t2, t5),
        vsub(t3, t4),
        vadd(t3, t4),
        vsub(t2, t5),
        vsub(t1, t6),
        vsub(t0, t7),
    ];
    // Row pass + pixel store.
    for (y, &wrow) in ws.iter().enumerate() {
        let o = idct_1d(wrow);
        for x in 0..8 {
            out[y * 8 + x] = (descale(o[x]) + 128).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::ZIGZAG;
    use crate::reference;

    fn roundtrip_error(block: &[f64; 64]) -> f64 {
        let mut freq = [0f64; 64];
        let mut back = [0f64; 64];
        forward_dct(block, &mut freq);
        reference::reference_inverse_dct(&freq, &mut back);
        block
            .iter()
            .zip(back.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0f64, f64::max)
    }

    /// The DC-only shortcut against the full kernel it stands in for:
    /// every i16 DC value under the DC quantiser of every quality 1–100
    /// table, luma and chroma (each distinct quantiser once).
    #[test]
    fn dc_only_shortcut_matches_the_full_kernel_for_every_dc() {
        use crate::consts::{scale_qtable, STD_CHROMA_QTABLE, STD_LUMA_QTABLE};
        let mut tables: Vec<[u16; 64]> = (1..=100u8)
            .flat_map(|q| [STD_LUMA_QTABLE, STD_CHROMA_QTABLE].map(|t| scale_qtable(&t, q)))
            .collect();
        tables.sort_unstable_by_key(|t| t[0]);
        tables.dedup_by_key(|t| t[0]);
        let (mut block, mut fast, mut full) = ([0i16; 64], [0u8; 64], [0u8; 64]);
        for table in &tables {
            let dq = inverse_quant_scales(table);
            for dc in i16::MIN..=i16::MAX {
                block[0] = dc;
                inverse_dct_pixels(&block, &dq, &mut fast);
                aan_inverse_dct_pixels(&block, &dq, &mut full);
                assert_eq!(fast, full, "DC {dc}, quantiser {}", table[0]);
            }
        }
    }

    #[test]
    fn dct_roundtrip_identity() {
        let mut block = [0f64; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37 + 11) % 256) as f64 - 128.0;
        }
        assert!(roundtrip_error(&block) < 1e-9);
    }

    #[test]
    fn dct_of_constant_block_is_dc_only() {
        let block = [64f64; 64];
        let mut freq = [0f64; 64];
        forward_dct(&block, &mut freq);
        // DC = 8 * value for orthonormal scaling.
        assert!((freq[0] - 8.0 * 64.0).abs() < 1e-9);
        for &v in &freq[1..] {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn dct_is_linear() {
        let mut a = [0f64; 64];
        let mut b = [0f64; 64];
        for i in 0..64 {
            a[i] = (i as f64) - 32.0;
            b[i] = ((i * 7) % 64) as f64;
        }
        let mut fa = [0f64; 64];
        let mut fb = [0f64; 64];
        let mut fsum = [0f64; 64];
        forward_dct(&a, &mut fa);
        forward_dct(&b, &mut fb);
        let mut sum = [0f64; 64];
        for i in 0..64 {
            sum[i] = a[i] + b[i];
        }
        forward_dct(&sum, &mut fsum);
        for i in 0..64 {
            assert!((fsum[i] - fa[i] - fb[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut block = [0f64; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (((i * 131 + 17) % 255) as f64) - 127.0;
        }
        let mut freq = [0f64; 64];
        forward_dct(&block, &mut freq);
        let e_spatial: f64 = block.iter().map(|v| v * v).sum();
        let e_freq: f64 = freq.iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-12);
    }

    /// The forward butterfly agrees with the retained basis-matrix oracle
    /// to near-f64 precision (pseudo-random blocks). The inverse butterfly
    /// is checked against the oracle in the pixel domain, below and in the
    /// exactness suite.
    #[test]
    fn butterfly_matches_reference_oracle() {
        let mut seed = 0x1357_9BDFu64;
        for _ in 0..64 {
            let mut block = [0f64; 64];
            for v in block.iter_mut() {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = ((seed >> 33) as i64 % 512 - 256) as f64 / 2.0;
            }
            let mut fast_f = [0f64; 64];
            let mut ref_f = [0f64; 64];
            forward_dct(&block, &mut fast_f);
            reference::reference_forward_dct(&block, &mut ref_f);
            for i in 0..64 {
                assert!((fast_f[i] - ref_f[i]).abs() < 1e-8, "fdct[{i}]");
            }
        }
    }

    #[test]
    fn descale_rounds_half_up_on_snapped_grid() {
        assert_eq!(descale(1.5), 2);
        assert_eq!(descale(1.4999999999), 2); // snaps to 1.5, then half-up
        assert_eq!(descale(1.5000000001), 2);
        assert_eq!(descale(2.5), 3);
        assert_eq!(descale(-0.5), 0); // half-up, not away-from-zero
        assert_eq!(descale(-1.5), -1);
        assert_eq!(descale(-1.7), -2);
        assert_eq!(descale(0.484), 0); // below the snapped half grid point
        assert_eq!(descale(127.125), 127);
        assert_eq!(descale(0.0), 0);
        // Rational tie-grid values (k/8) round deterministically.
        for k in -4096i32..4096 {
            let v = f64::from(k) / 8.0;
            let expected = (4 * k + 16).div_euclid(32); // exact half-up of k/8
            assert_eq!(descale(v), expected, "at {v}");
        }
    }

    #[test]
    fn pixel_kernel_matches_orthonormal_path() {
        // inverse_dct_pixels (q-folded kernel) == the oracle's inverse of
        // coeff * q + descale, exactly at the rounding contract.
        let mut q = [0u16; 64];
        for (i, v) in q.iter_mut().enumerate() {
            *v = (3 + (i * 7) % 91) as u16;
        }
        let mut coeffs = [0i16; 64];
        for (i, v) in coeffs.iter_mut().enumerate() {
            *v = ((i as i32 * 29 + 5) % 41 - 20) as i16;
        }
        let dq = inverse_quant_scales(&q);
        let zigzag = core::array::from_fn(|k| coeffs[ZIGZAG[k]]);
        let mut fast = [0u8; 64];
        inverse_dct_pixels(&zigzag, &dq, &mut fast);
        let mut ortho_in = [0f64; 64];
        for i in 0..64 {
            ortho_in[i] = f64::from(coeffs[i]) * f64::from(q[i]);
        }
        let mut ortho = [0f64; 64];
        reference::reference_inverse_dct(&ortho_in, &mut ortho);
        for i in 0..64 {
            let expected = (descale(ortho[i]) + 128).clamp(0, 255) as u8;
            assert_eq!(fast[i], expected, "pixel {i}");
        }
    }
}
