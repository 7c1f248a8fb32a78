//! The MSSIM kernel as it stood before the prepared-reference rewrite
//! of `ssim.rs`, kept verbatim (five full filters per scale, one clamped
//! tap loop per pixel) so the differential tests can demand `to_bits()`
//! equality from the fast one.

use crate::ssim::{Plane, MSSSIM_WEIGHTS};

/// 2x2 box downsample (floors odd dimensions).
fn downsample2(p: &Plane) -> Plane {
    let w = (p.width / 2).max(1);
    let h = (p.height / 2).max(1);
    let mut data = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            let mut n = 0.0;
            for dy in 0..2 {
                for dx in 0..2 {
                    let sx = (x * 2 + dx).min(p.width - 1);
                    let sy = (y * 2 + dy).min(p.height - 1);
                    s += p.data[sy * p.width + sx];
                    n += 1.0;
                }
            }
            data.push(s / n);
        }
    }
    Plane { width: w, height: h, data }
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

/// Separable gaussian filter with edge clamping.
fn filter(p: &Plane, kernel: &[f64]) -> Plane {
    let r = kernel.len() / 2;
    let (w, h) = (p.width, p.height);
    let mut tmp = vec![0.0; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sx = (x + i).saturating_sub(r).min(w - 1);
                s += p.data[y * w + sx] * k;
            }
            tmp[y * w + x] = s;
        }
    }
    let mut out = vec![0.0; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sy = (y + i).saturating_sub(r).min(h - 1);
                s += tmp[sy * w + x] * k;
            }
            out[y * w + x] = s;
        }
    }
    Plane { width: w, height: h, data: out }
}

/// Mean SSIM and mean contrast-structure (CS) over a pair of planes.
///
/// Returns `(ssim, cs)`; `cs` is used by the multiscale aggregation.
pub fn ssim_cs(a: &Plane, b: &Plane) -> (f64, f64) {
    assert_eq!((a.width, a.height), (b.width, b.height), "shape mismatch");
    // Kernel radius shrinks for tiny images.
    let radius = 5.min((a.width.min(a.height) - 1) / 2).max(1);
    let kernel = gaussian_kernel(radius, 1.5);

    let mu_a = filter(a, &kernel);
    let mu_b = filter(b, &kernel);
    let sq = |p: &Plane| Plane {
        width: p.width,
        height: p.height,
        data: p.data.iter().map(|v| v * v).collect(),
    };
    let prod = Plane {
        width: a.width,
        height: a.height,
        data: a.data.iter().zip(&b.data).map(|(x, y)| x * y).collect(),
    };
    let sigma_a2 = filter(&sq(a), &kernel);
    let sigma_b2 = filter(&sq(b), &kernel);
    let sigma_ab = filter(&prod, &kernel);

    let n = a.data.len() as f64;
    let mut ssim_sum = 0.0;
    let mut cs_sum = 0.0;
    for i in 0..a.data.len() {
        let (ma, mb) = (mu_a.data[i], mu_b.data[i]);
        let va = (sigma_a2.data[i] - ma * ma).max(0.0);
        let vb = (sigma_b2.data[i] - mb * mb).max(0.0);
        let cov = sigma_ab.data[i] - ma * mb;
        let l = (2.0 * ma * mb + C1) / (ma * ma + mb * mb + C1);
        let cs = (2.0 * cov + C2) / (va + vb + C2);
        ssim_sum += l * cs;
        cs_sum += cs;
    }
    (ssim_sum / n, cs_sum / n)
}

/// Multiscale SSIM. Scales are dropped (with weight renormalization) if the
/// image becomes smaller than 8 pixels on a side.
pub fn msssim(a: &Plane, b: &Plane) -> f64 {
    assert_eq!((a.width, a.height), (b.width, b.height), "shape mismatch");
    let mut pa = a.clone();
    let mut pb = b.clone();
    let mut values = Vec::new(); // (cs or ssim, weight)
    let mut used_weights = Vec::new();
    for (level, &w) in MSSSIM_WEIGHTS.iter().enumerate() {
        let last = level == MSSSIM_WEIGHTS.len() - 1
            || pa.width / 2 < 8
            || pa.height / 2 < 8;
        let (s, cs) = ssim_cs(&pa, &pb);
        values.push(if last { s } else { cs });
        used_weights.push(w);
        if last {
            break;
        }
        pa = downsample2(&pa);
        pb = downsample2(&pb);
    }
    let wsum: f64 = used_weights.iter().sum();
    let mut out = 1.0f64;
    for (v, w) in values.iter().zip(&used_weights) {
        // Components can be slightly negative on pathological inputs; clamp
        // for the weighted geometric mean.
        out *= v.max(1e-6).powf(w / wsum);
    }
    out
}
