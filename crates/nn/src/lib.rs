//! # pcr-nn
//!
//! A deliberately small neural-network library used by the PCR experiments:
//! an MLP classifier with manual backprop, SGD with momentum, the paper's
//! warmup + step-decay learning-rate schedule, and gradient flattening for
//! the cosine-distance autotuning probes of Appendix A.6.
//!
//! The [`model::ModelSpec`] constructors carry the paper's per-model
//! compute-throughput calibration (ResNet-18: 405/445 img/s; ShuffleNetv2:
//! 760/750 img/s per TitanX worker) which the pipeline simulator uses for
//! its compute unit; the *statistical* response to compressed inputs comes
//! from genuinely training these models on decoded pixels.
//!
//! ```
//! use pcr_nn::{LrSchedule, Matrix, Mlp, ModelSpec, SgdMomentum};
//!
//! // A 2-class MLP over the ShuffleNet-calibrated feature spec.
//! let spec = ModelSpec::shufflenet_like();
//! let dim = spec.input_dim();
//! let mut model = Mlp::new(spec, 2, 42);
//! let mut features = vec![0.3; dim];
//! features.extend(vec![-0.3; dim]); // two separable samples
//! let x = Matrix::from_vec(2, dim, features);
//! let labels = [0u32, 1];
//!
//! // A few SGD steps at the fine-tune schedule's rate lower the loss.
//! let mut opt = SgdMomentum::new(0.9);
//! let lr = LrSchedule::finetune().lr_at(0.0);
//! let before = model.backward(&x, &labels);
//! for _ in 0..5 {
//!     let step = model.backward(&x, &labels);
//!     opt.step(&mut model, &step.grads, lr);
//! }
//! let after = model.backward(&x, &labels);
//! assert!(after.loss < before.loss);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

#![warn(missing_docs)]

pub mod model;
pub mod optim;
pub mod tensor;

pub use model::{BatchResult, Gradients, Mlp, ModelSpec};
pub use optim::{LrSchedule, SgdMomentum};
pub use tensor::Matrix;
