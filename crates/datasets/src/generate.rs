//! Synthetic image generation: class signal injected into controlled
//! spatial-frequency bands, on top of a shared natural-texture background.

use crate::spec::DatasetSpec;
use pcr_core::dataset::map_in_order;
use pcr_jpeg::ImageBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Pixel data.
    pub image: ImageBuf,
    /// Native class label.
    pub label: u32,
    /// Stable identifier.
    pub id: String,
}

/// A generated dataset: train and test splits.
#[derive(Debug)]
pub struct SyntheticDataset {
    /// The generating specification.
    pub spec: DatasetSpec,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Test samples.
    pub test: Vec<Sample>,
}

/// Per-class signature: a fixed set of sinusoid parameters per band.
#[derive(Debug, Clone)]
struct ClassSignature {
    /// (fx, fy, phase, weight) with wavelengths >= 16 px.
    low: Vec<(f64, f64, f64, f64)>,
    /// (fx, fy, phase, weight) with wavelengths 2..4 px.
    high: Vec<(f64, f64, f64, f64)>,
}

fn class_signature(spec_seed: u64, class: u32, high_wl: (f64, f64)) -> ClassSignature {
    let mut rng = StdRng::seed_from_u64(spec_seed ^ (u64::from(class).wrapping_mul(0x9E3779B97F4A7C15)));
    let mut low = Vec::new();
    for _ in 0..4 {
        // Long wavelengths: 16..64 px.
        let wl = rng.gen_range(16.0..64.0);
        let angle = rng.gen_range(0.0..std::f64::consts::PI);
        low.push((
            angle.cos() / wl,
            angle.sin() / wl,
            rng.gen_range(0.0..std::f64::consts::TAU),
            rng.gen_range(0.5..1.0),
        ));
    }
    let mut high = Vec::new();
    for _ in 0..4 {
        // Short wavelengths (dataset-specific band) — destroyed by early
        // scans.
        let wl = rng.gen_range(high_wl.0..high_wl.1);
        let angle = rng.gen_range(0.0..std::f64::consts::PI);
        high.push((
            angle.cos() / wl,
            angle.sin() / wl,
            rng.gen_range(0.0..std::f64::consts::TAU),
            rng.gen_range(0.5..1.0),
        ));
    }
    ClassSignature { low, high }
}

/// Generates one image of class `label` with per-sample randomness from
/// `rng`.
///
/// Every draw is taken first, in this order: the side (when the spec
/// jitters it), the background's two frequencies and phase, one amplitude
/// jitter per class component, then one noise value per pixel in raster
/// order. The pixel rows are then computed across the machine's cores with
/// [`map_in_order`]. A pixel depends only on its coordinates, the image's
/// parameters and its own noise draw, so the bytes — and the state `rng` is
/// left in for the next image — are the same at any core count.
pub fn generate_image(spec: &DatasetSpec, label: u32, rng: &mut StdRng) -> ImageBuf {
    let side = if spec.side_jitter == 0 {
        spec.mean_side
    } else {
        rng.gen_range(spec.mean_side - spec.side_jitter..=spec.mean_side + spec.side_jitter)
    };
    let (w, h) = (side, side);
    let sig = class_signature(spec.seed, label, spec.signal.high_wavelength);
    // Shared background: smooth blobs, per-sample random.
    let bg_fx = rng.gen_range(0.005..0.02);
    let bg_fy = rng.gen_range(0.005..0.02);
    let bg_phase = rng.gen_range(0.0..std::f64::consts::TAU);
    // Per-sample variation comes from amplitude jitter on each class
    // component (plus background and noise) rather than spatial shifts, so
    // the class pattern stays phase-consistent under a fixed crop window.
    let jitter: Vec<f64> = (0..sig.low.len() + sig.high.len())
        .map(|_| rng.gen_range(0.6..1.4))
        .collect();
    let noise: Vec<f64> = (0..w * h)
        .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * spec.signal.noise)
        .collect();
    let tau = std::f64::consts::TAU;
    // The chroma ripple depends on the column alone.
    let ripple: Vec<f64> = (0..w).map(|x| 20.0 * (tau * bg_fx * f64::from(x)).sin()).collect();
    let row_len = w as usize * 3;
    let mut data = vec![0u8; row_len * h as usize];
    let rows: Vec<_> = data.chunks_mut(row_len).zip(noise.chunks(w as usize)).zip(0..h).collect();
    map_in_order(rows, crate::cores(), |((row, noise), y)| {
        let yf = f64::from(y);
        for ((x, px), &noise) in (0..w).zip(row.chunks_exact_mut(3)).zip(noise) {
            let xf = f64::from(x);
            let bg = 40.0 * (tau * (bg_fx * xf + bg_fy * yf) + bg_phase).sin();
            let mut low = 0.0;
            for (i, &(fx, fy, ph, wgt)) in sig.low.iter().enumerate() {
                low += jitter[i] * wgt * (tau * (fx * xf + fy * yf) + ph).sin();
            }
            let mut high = 0.0;
            for (i, &(fx, fy, ph, wgt)) in sig.high.iter().enumerate() {
                high += jitter[sig.low.len() + i] * wgt * (tau * (fx * xf + fy * yf) + ph).sin();
            }
            let v = 128.0
                + bg
                + spec.signal.low_freq * low / sig.low.len() as f64 * 2.0
                + spec.signal.high_freq * high / sig.high.len() as f64 * 2.0
                + noise;
            let luma = v.clamp(0.0, 255.0) as u8;
            // Mild, class-independent chroma so the YCbCr path is exercised.
            let cb = (f64::from(luma) * 0.2 + 100.0 + ripple[x as usize]).clamp(0.0, 255.0) as u8;
            px.copy_from_slice(&[luma, cb, 255 - luma]);
        }
    });
    // The generator produced a pseudo-color triple; treat it as RGB.
    ImageBuf::from_raw(w, h, 3, data).expect("valid dimensions")
}

impl SyntheticDataset {
    /// Generates train and test splits for a spec.
    pub fn generate(spec: &DatasetSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let gen_split = |count: usize, tag: &str, rng: &mut StdRng| -> Vec<Sample> {
            (0..count)
                .map(|i| {
                    let label = (i % spec.num_classes) as u32;
                    Sample {
                        image: generate_image(spec, label, rng),
                        label,
                        id: format!("{}-{tag}-{i:05}", spec.name),
                    }
                })
                .collect()
        };
        let train = gen_split(spec.train_images, "train", &mut rng);
        let test = gen_split(spec.test_images, "test", &mut rng);
        Self { spec: spec.clone(), train, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::celebahq_smile_like(Scale::Tiny);
        let a = SyntheticDataset::generate(&spec);
        let b = SyntheticDataset::generate(&spec);
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train[0].image, b.train[0].image);
        assert_eq!(a.test[3].image, b.test[3].image);
    }

    /// Digests of the corpus: a change that moves pixels fails here even
    /// when it moves them the same way in every run.
    #[test]
    fn golden_corpus_pins() {
        use pcr_core::wire::crc32;
        use rand::RngCore;
        // The benchmark's draw: HAM-like small images from seed 1, labels i % 7.
        let spec = DatasetSpec::ham10000_like(Scale::Small);
        let mut rng = StdRng::seed_from_u64(1);
        let got: Vec<(u32, u32)> = (0..8)
            .map(|i| {
                let img = generate_image(&spec, i % 7, &mut rng);
                (img.width(), crc32(img.data()))
            })
            .collect();
        let want = [
            (167, 0xbdf2_7c43),
            (159, 0xbb09_79bd),
            (171, 0xa442_fa96),
            (169, 0x6249_e4ea),
            (165, 0x96cd_14b5),
            (146, 0x9bce_9f38),
            (156, 0xfbe2_6cbb),
            (167, 0xd4ef_9861),
        ];
        assert_eq!(got, want, "(side, pixel crc32) of the first 8 images");
        assert_eq!(rng.next_u64(), 0x8063_2dc6_31a3_99d7, "rng state after 8 images");

        let ds = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny));
        assert_eq!((ds.train.len(), ds.test.len()), (48, 16));
        let mut bytes = Vec::new();
        for s in ds.train.iter().chain(&ds.test) {
            bytes.extend_from_slice(&s.label.to_le_bytes());
            bytes.extend_from_slice(s.id.as_bytes());
            bytes.extend_from_slice(s.image.data());
        }
        assert_eq!(crc32(&bytes), 0xa974_59ce, "celebahq_smile_like(Tiny) labels, ids, pixels");
    }

    #[test]
    fn labels_cover_all_classes() {
        let spec = DatasetSpec::ham10000_like(Scale::Tiny);
        let ds = SyntheticDataset::generate(&spec);
        let mut seen = vec![false; spec.num_classes];
        for s in &ds.train {
            seen[s.label as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all classes present in train");
    }

    #[test]
    fn same_class_images_differ_but_share_signature() {
        let spec = DatasetSpec::imagenet_like(Scale::Tiny);
        let mut rng = StdRng::seed_from_u64(1);
        let a = generate_image(&spec, 3, &mut rng);
        let b = generate_image(&spec, 3, &mut rng);
        assert_ne!(a, b, "per-sample randomness must differ");
    }

    #[test]
    fn size_jitter_respected() {
        let spec = DatasetSpec::imagenet_like(Scale::Tiny);
        let ds = SyntheticDataset::generate(&spec);
        let mut sizes: Vec<u32> = ds.train.iter().map(|s| s.image.width()).collect();
        sizes.sort_unstable();
        assert!(*sizes.first().unwrap() >= spec.mean_side - spec.side_jitter);
        assert!(*sizes.last().unwrap() <= spec.mean_side + spec.side_jitter);
        assert!(sizes.first() != sizes.last(), "sizes should vary");
        let celeb = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny));
        assert!(celeb.train.iter().all(|s| s.image.width() == 64));
    }

    #[test]
    fn class_signal_is_linearly_detectable() {
        // A trivial nearest-centroid classifier on downsampled pixels must
        // beat chance on a 2-class task — i.e. the generator actually
        // injects class signal.
        let spec = DatasetSpec::celebahq_smile_like(Scale::Tiny);
        let ds = SyntheticDataset::generate(&spec);
        let feat = |img: &ImageBuf| -> Vec<f64> {
            let small = img.resize(16, 16).to_luma();
            small.data().iter().map(|&v| f64::from(v)).collect()
        };
        let mut centroids = vec![vec![0.0; 256]; 2];
        let mut counts = [0usize; 2];
        for s in &ds.train {
            let f = feat(&s.image);
            for (c, v) in centroids[s.label as usize].iter_mut().zip(&f) {
                *c += v;
            }
            counts[s.label as usize] += 1;
        }
        for (c, n) in centroids.iter_mut().zip(counts) {
            for v in c.iter_mut() {
                *v /= n as f64;
            }
        }
        let mut correct = 0usize;
        for s in &ds.test {
            let f = feat(&s.image);
            let d = |c: &[f64]| -> f64 {
                c.iter().zip(&f).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            let pred = u32::from(d(&centroids[1]) < d(&centroids[0]));
            if pred == s.label {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.test.len() as f64;
        assert!(acc > 0.75, "nearest-centroid accuracy {acc}");
    }
}
