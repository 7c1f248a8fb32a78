//! A small MLP classifier with manual backprop, plus the named model
//! specifications that stand in for the paper's ResNet-18 and ShuffleNetv2.
//!
//! The stand-ins reproduce the two properties the paper's experiments
//! depend on: (i) a per-model *compute throughput* (images/second, used by
//! the pipeline simulator's compute unit) calibrated to the paper's
//! benchmark numbers, and (ii) a per-model *sensitivity to high-frequency
//! content* (input resolution fed to the classifier; finer inputs make the
//! model benefit more from — and depend more on — later JPEG scans, as the
//! paper observed for ShuffleNet on HAM10000).

use crate::tensor::Matrix;
use pcr_jpeg::ImageBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Named model specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Display name.
    pub name: String,
    /// Input image side length (images are resized to `input_size^2` luma).
    pub input_size: usize,
    /// Box-pooling factor applied after cropping: the model crops
    /// `input_size * pool` pixels and averages `pool x pool` windows. A
    /// pool of 2 low-passes the input, making the model insensitive to
    /// high-frequency detail (and therefore tolerant of low scan groups,
    /// like the paper's ResNet-18); a pool of 1 sees native resolution
    /// (like the paper's ShuffleNetv2, which needs scan 5+ on HAM10000).
    pub pool: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Compute-unit throughput in images/second, FP32 (paper Appendix A.5).
    pub images_per_sec_fp32: f64,
    /// Compute-unit throughput in images/second, mixed precision.
    pub images_per_sec_fp16: f64,
}

impl ModelSpec {
    /// The ResNet-18 stand-in: 405/445 images/s per worker on a TitanX
    /// (paper A.5); coarser inputs -> tolerant of low scan groups.
    pub fn resnet_like() -> Self {
        Self {
            name: "ResNet18-like".into(),
            input_size: 16,
            pool: 2,
            hidden: 96,
            images_per_sec_fp32: 405.0,
            images_per_sec_fp16: 445.0,
        }
    }

    /// The ShuffleNetv2 stand-in: 760/750 images/s per worker; finer inputs
    /// -> needs higher scan groups for peak accuracy (paper Fig. 5).
    pub fn shufflenet_like() -> Self {
        Self {
            name: "ShuffleNetV2-like".into(),
            input_size: 24,
            pool: 1,
            hidden: 48,
            images_per_sec_fp32: 760.0,
            images_per_sec_fp16: 750.0,
        }
    }

    /// Feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_size * self.input_size
    }

    /// Extracts normalized luma features from a decoded image: a center
    /// crop of `input_size^2` at native resolution (upscaling first if the
    /// image is smaller). Cropping rather than resizing preserves the
    /// image's spatial-frequency content, which is exactly what differs
    /// between scan groups.
    pub fn featurize(&self, img: &ImageBuf) -> Vec<f32> {
        let pool = self.pool.max(1) as u32;
        let side = self.input_size as u32 * pool;
        let upscaled;
        let img = if img.width() < side || img.height() < side {
            upscaled = img.resize(side.max(img.width()), side.max(img.height()));
            &upscaled
        } else {
            img
        };
        let cropped = img.center_crop(side, side).to_luma();
        let n = self.input_size;
        let mut out = Vec::with_capacity(n * n);
        for by in 0..n as u32 {
            for bx in 0..n as u32 {
                let mut sum = 0u32;
                for dy in 0..pool {
                    for dx in 0..pool {
                        sum += u32::from(cropped.get(bx * pool + dx, by * pool + dy, 0));
                    }
                }
                let mean = sum as f32 / (pool * pool) as f32;
                out.push(mean / 127.5 - 1.0);
            }
        }
        out
    }
}

/// A two-layer MLP classifier: `input -> hidden (ReLU) -> classes`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Model dimensions and calibration.
    pub spec: ModelSpec,
    /// Number of classes.
    pub num_classes: usize,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

/// Gradients matching [`Mlp`] parameters.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// d loss / d w1.
    pub w1: Matrix,
    /// d loss / d b1.
    pub b1: Vec<f32>,
    /// d loss / d w2.
    pub w2: Matrix,
    /// d loss / d b2.
    pub b2: Vec<f32>,
}

impl Gradients {
    /// Flattens all gradients into one vector (for cosine-distance probes).
    pub fn flatten(&self) -> Vec<f32> {
        let mut v =
            Vec::with_capacity(self.w1.data.len() + self.b1.len() + self.w2.data.len() + self.b2.len());
        v.extend_from_slice(&self.w1.data);
        v.extend_from_slice(&self.b1);
        v.extend_from_slice(&self.w2.data);
        v.extend_from_slice(&self.b2);
        v
    }

    /// Scales all gradients in place.
    pub fn scale(&mut self, s: f32) {
        for v in self
            .w1
            .data
            .iter_mut()
            .chain(self.b1.iter_mut())
            .chain(self.w2.data.iter_mut())
            .chain(self.b2.iter_mut())
        {
            *v *= s;
        }
    }
}

/// Forward-pass intermediates plus loss for one batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Number of correct argmax predictions.
    pub correct: usize,
    /// Batch size.
    pub n: usize,
    /// Parameter gradients (mean over the batch).
    pub grads: Gradients,
}

impl Mlp {
    /// Initializes with He-scaled random weights from a seed.
    pub fn new(spec: ModelSpec, num_classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = spec.input_dim();
        let h = spec.hidden;
        let mut init = |fan_in: usize, n: usize| -> Vec<f32> {
            let scale = (2.0 / fan_in as f64).sqrt() as f32;
            (0..n).map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale).collect()
        };
        let w1 = Matrix::from_vec(d, h, init(d, d * h));
        let w2 = Matrix::from_vec(h, num_classes, init(h, h * num_classes));
        Self { spec, num_classes, w1, b1: vec![0.0; h], w2, b2: vec![0.0; num_classes] }
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.w1.data.len() + self.b1.len() + self.w2.data.len() + self.b2.len()
    }

    /// Class probabilities for a batch (`n x input_dim` features).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (h, _) = self.hidden_forward(x);
        self.output_forward(&h)
    }

    fn hidden_forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut z = x.matmul(&self.w1);
        for r in 0..z.rows {
            for c in 0..z.cols {
                *z.get_mut(r, c) += self.b1[c];
            }
        }
        let mut h = z.clone();
        for v in &mut h.data {
            *v = v.max(0.0);
        }
        (h, z)
    }

    fn output_forward(&self, h: &Matrix) -> Matrix {
        let mut logits = h.matmul(&self.w2);
        for r in 0..logits.rows {
            for c in 0..logits.cols {
                *logits.get_mut(r, c) += self.b2[c];
            }
        }
        // Softmax rows.
        for r in 0..logits.rows {
            let row = &mut logits.data[r * self.num_classes..(r + 1) * self.num_classes];
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum = 0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        logits
    }

    /// Computes loss, accuracy, and gradients for a batch.
    pub fn backward(&self, x: &Matrix, labels: &[u32]) -> BatchResult {
        assert_eq!(x.rows, labels.len(), "batch size mismatch");
        let n = x.rows;
        let (h, _z) = self.hidden_forward(x);
        let probs = self.output_forward(&h);

        let mut loss = 0f64;
        let mut correct = 0usize;
        // dL/dlogits = probs - onehot, averaged.
        let mut dlogits = probs.clone();
        for (r, &label) in labels.iter().enumerate() {
            let row = probs.row(r);
            let p = row[label as usize].max(1e-12);
            loss -= f64::from(p.ln());
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .map(|(i, _)| i)
                .expect("nonempty row");
            if argmax == label as usize {
                correct += 1;
            }
            *dlogits.get_mut(r, label as usize) -= 1.0;
        }
        let inv_n = 1.0 / n as f32;
        for v in &mut dlogits.data {
            *v *= inv_n;
        }

        // Output layer grads.
        let gw2 = h.t_matmul(&dlogits);
        let mut gb2 = vec![0f32; self.num_classes];
        for r in 0..n {
            for (c, g) in gb2.iter_mut().enumerate() {
                *g += dlogits.get(r, c);
            }
        }
        // Backprop into hidden.
        let mut dh = dlogits.matmul_t(&self.w2);
        for (dv, hv) in dh.data.iter_mut().zip(&h.data) {
            if *hv <= 0.0 {
                *dv = 0.0;
            }
        }
        let gw1 = x.t_matmul(&dh);
        let mut gb1 = vec![0f32; self.spec.hidden];
        for r in 0..n {
            for (c, g) in gb1.iter_mut().enumerate() {
                *g += dh.get(r, c);
            }
        }

        BatchResult {
            loss: loss / n as f64,
            correct,
            n,
            grads: Gradients { w1: gw1, b1: gb1, w2: gw2, b2: gb2 },
        }
    }

    /// Applies a parameter delta: `param += scale * grad`.
    pub fn apply(&mut self, grads: &Gradients, scale: f32) {
        for (p, g) in self.w1.data.iter_mut().zip(&grads.w1.data) {
            *p += scale * g;
        }
        for (p, g) in self.b1.iter_mut().zip(&grads.b1) {
            *p += scale * g;
        }
        for (p, g) in self.w2.data.iter_mut().zip(&grads.w2.data) {
            *p += scale * g;
        }
        for (p, g) in self.b2.iter_mut().zip(&grads.b2) {
            *p += scale * g;
        }
    }

    /// Zero-valued gradients with this model's shapes.
    pub fn zero_grads(&self) -> Gradients {
        Gradients {
            w1: Matrix::zeros(self.w1.rows, self.w1.cols),
            b1: vec![0.0; self.b1.len()],
            w2: Matrix::zeros(self.w2.rows, self.w2.cols),
            b2: vec![0.0; self.b2.len()],
        }
    }

    /// Classification accuracy over a feature matrix.
    pub fn accuracy(&self, x: &Matrix, labels: &[u32]) -> f64 {
        let probs = self.forward(x);
        let mut correct = 0usize;
        for (r, &label) in labels.iter().enumerate() {
            let row = probs.row(r);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .map(|(i, _)| i)
                .expect("nonempty");
            if argmax == label as usize {
                correct += 1;
            }
        }
        correct as f64 / labels.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(spec: &ModelSpec, n: usize, classes: usize, seed: u64) -> (Matrix, Vec<u32>) {
        // Linearly separable toy data: class determined by sign pattern of
        // the first feature dims.
        let mut rng = StdRng::seed_from_u64(seed);
        let d = spec.input_dim();
        let mut data = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let label = rng.gen_range(0..classes as u32);
            for j in 0..d {
                let base = if j % classes == label as usize { 0.8 } else { -0.2 };
                data.push(base + (rng.gen::<f32>() - 0.5) * 0.3);
            }
            labels.push(label);
        }
        (Matrix::from_vec(n, d, data), labels)
    }

    #[test]
    fn initial_loss_is_log_classes() {
        let spec = ModelSpec::resnet_like();
        let model = Mlp::new(spec.clone(), 4, 1);
        let (x, y) = toy_batch(&spec, 32, 4, 2);
        let r = model.backward(&x, &y);
        assert!((r.loss - (4f64).ln()).abs() < 0.3, "loss {}", r.loss);
    }

    #[test]
    fn sgd_reduces_loss_and_learns() {
        let spec = ModelSpec::shufflenet_like();
        let mut model = Mlp::new(spec.clone(), 3, 7);
        let (x, y) = toy_batch(&spec, 64, 3, 3);
        let first = model.backward(&x, &y).loss;
        for _ in 0..60 {
            let r = model.backward(&x, &y);
            model.apply(&r.grads, -0.5);
        }
        let last = model.backward(&x, &y);
        assert!(last.loss < first * 0.3, "loss {first} -> {}", last.loss);
        assert!(model.accuracy(&x, &y) > 0.9);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let spec = ModelSpec { input_size: 3, hidden: 4, ..ModelSpec::resnet_like() };
        let mut model = Mlp::new(spec.clone(), 2, 11);
        let (x, y) = toy_batch(&spec, 8, 2, 5);
        let r = model.backward(&x, &y);
        // Check a few w1 entries by central differences.
        for &idx in &[0usize, 5, 17, 30] {
            let eps = 1e-3f32;
            let orig = model.w1.data[idx];
            model.w1.data[idx] = orig + eps;
            let lp = model.backward(&x, &y).loss;
            model.w1.data[idx] = orig - eps;
            let lm = model.backward(&x, &y).loss;
            model.w1.data[idx] = orig;
            let fd = (lp - lm) / (2.0 * f64::from(eps));
            let an = f64::from(r.grads.w1.data[idx]);
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "idx {idx}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn featurize_shapes() {
        let spec = ModelSpec::resnet_like();
        let img = ImageBuf::from_raw(64, 48, 3, vec![100; 64 * 48 * 3]).unwrap();
        let f = spec.featurize(&img);
        assert_eq!(f.len(), spec.input_dim());
        assert!(f.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn model_specs_match_paper_rates() {
        let r = ModelSpec::resnet_like();
        let s = ModelSpec::shufflenet_like();
        assert_eq!(r.images_per_sec_fp32, 405.0);
        assert_eq!(r.images_per_sec_fp16, 445.0);
        assert_eq!(s.images_per_sec_fp32, 760.0);
        assert!(s.images_per_sec_fp16 > r.images_per_sec_fp16);
        // ShuffleNet stand-in sees finer inputs (higher frequency
        // sensitivity).
        assert!(s.input_size > r.input_size);
    }

    #[test]
    fn flatten_grad_length_matches_params() {
        let spec = ModelSpec::resnet_like();
        let model = Mlp::new(spec.clone(), 5, 3);
        let (x, y) = toy_batch(&spec, 4, 5, 9);
        let r = model.backward(&x, &y);
        assert_eq!(r.grads.flatten().len(), model.num_params());
    }
}
