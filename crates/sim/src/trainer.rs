//! End-to-end time-to-accuracy simulation: real SGD training on features
//! decoded from PCR scan-group prefixes, with epoch wall-clock time coming
//! from the loader/compute pipeline simulation.
//!
//! This reproduces the structure of the paper's main experiments (Figures
//! 4-6, 8, 9, 20-30): the *statistical* effect of each scan group comes
//! from genuinely training on its decoded pixels; the *systems* effect
//! comes from the storage model (bytes read vs. device bandwidth vs.
//! compute rate).

use crate::features::FeaturizedDataset;
use crate::pipeline::{
    model_epoch, run_pipeline, ComputeUnit, PipelineTrace, PROGRESSIVE_DECODE_S_PER_BYTE,
};
use pcr_autotune::MixturePolicy;
use pcr_core::PcrDataset;
use pcr_datasets::LabelMap;
use pcr_loader::{populate_store, ReadPlanner};
use pcr_nn::{LrSchedule, Matrix, Mlp, ModelSpec, SgdMomentum};
use pcr_storage::{DeviceProfile, ObjectStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Task relabeling (e.g. Cars Make-Only).
    pub label_map: LabelMap,
    /// Storage device/cluster profile.
    pub storage: DeviceProfile,
    /// Compute workers (the paper uses 10, one GPU each).
    pub workers: usize,
    /// Loader prefetch threads.
    pub loader_threads: usize,
    /// Minibatch size per worker (paper: 128).
    pub batch_size: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// SGD momentum.
    pub momentum: f32,
    /// Seed for init and shuffling.
    pub seed: u64,
    /// Use the mixed-precision throughput calibration (paper default).
    pub mixed_precision: bool,
    /// Evaluate test accuracy every `eval_every` epochs.
    pub eval_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            label_map: LabelMap::Identity,
            storage: DeviceProfile::paper_cluster(),
            workers: 10,
            loader_threads: 8,
            batch_size: 128,
            epochs: 24,
            lr: LrSchedule::finetune(),
            momentum: 0.9,
            seed: 1,
            mixed_precision: true,
            eval_every: 2,
        }
    }
}

/// One point of a training trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Epoch index (1-based at epoch end).
    pub epoch: usize,
    /// Cumulative virtual time in seconds.
    pub time: f64,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Test accuracy (NaN when not evaluated this epoch).
    pub test_acc: f64,
    /// Achieved images/second this epoch.
    pub images_per_sec: f64,
    /// Fraction of the epoch spent in data stalls.
    pub stall_fraction: f64,
    /// Scan group used this epoch.
    pub scan_group: usize,
}

/// A complete training run.
#[derive(Debug, Clone)]
pub struct TrainingTrace {
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Scan group (or 0 for dynamic runs).
    pub scan_group: usize,
    /// Per-epoch points.
    pub points: Vec<TracePoint>,
    /// Final test accuracy.
    pub final_acc: f64,
    /// Total virtual time.
    pub total_time: f64,
}

/// The simulation trainer: owns the model, optimizer, featurized data, and
/// the storage-timing machinery.
pub struct Trainer<'a> {
    feats: &'a FeaturizedDataset,
    cfg: TrainConfig,
    spec: ModelSpec,
    model: Mlp,
    opt: SgdMomentum,
    store: ObjectStore,
    db: pcr_core::MetaDb,
    labels: Vec<u32>,
    test_labels: Vec<u32>,
    num_classes: usize,
    clock: f64,
    epoch: usize,
}

impl<'a> Trainer<'a> {
    /// Creates a trainer over featurized data plus the PCR dataset whose
    /// byte layout drives epoch timing.
    pub fn new(
        feats: &'a FeaturizedDataset,
        pcr: &PcrDataset,
        spec: ModelSpec,
        cfg: TrainConfig,
    ) -> Self {
        let labels: Vec<u32> =
            feats.train_labels.iter().map(|&l| cfg.label_map.apply(l)).collect();
        let test_labels: Vec<u32> =
            feats.test_labels.iter().map(|&l| cfg.label_map.apply(l)).collect();
        let native_classes = feats
            .train_labels
            .iter()
            .chain(feats.test_labels.iter())
            .map(|&l| l as usize + 1)
            .max()
            .unwrap_or(1);
        let num_classes = cfg.label_map.num_classes(native_classes);
        let model = Mlp::new(spec.clone(), num_classes, cfg.seed);
        let store = ObjectStore::new(cfg.storage.clone());
        populate_store(&store, pcr);
        Self {
            feats,
            spec,
            model,
            opt: SgdMomentum::new(cfg.momentum),
            store,
            db: pcr.db.clone(),
            labels,
            test_labels,
            num_classes,
            clock: 0.0,
            cfg,
            epoch: 0,
        }
    }

    /// Number of task classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Aggregate compute rate for this configuration.
    pub fn compute_rate(&self) -> f64 {
        let per = if self.cfg.mixed_precision {
            self.spec.images_per_sec_fp16
        } else {
            self.spec.images_per_sec_fp32
        };
        per * self.cfg.workers as f64
    }

    /// Simulates the loader + compute pipeline for one epoch at a scan
    /// group, returning its trace without training.
    pub fn simulate_epoch_timing(&self, group: usize) -> PipelineTrace {
        self.store.device().reset();
        let seed = self.cfg.seed ^ self.epoch as u64;
        let planner = ReadPlanner { scan_group: group, shuffle: true, seed };
        let modeled = model_epoch(
            &self.store,
            &self.db,
            &planner,
            self.cfg.loader_threads,
            PROGRESSIVE_DECODE_S_PER_BYTE,
            self.epoch as u64,
            0.0,
        )
        .expect("the trainer's store holds every record of its DB");
        let compute = ComputeUnit {
            images_per_sec: self.compute_rate(),
            batch_size: self.cfg.batch_size * self.cfg.workers,
        };
        run_pipeline(&modeled.records, &compute, 0.0)
    }

    /// Trains one epoch at a fixed scan group; advances the virtual clock
    /// by the simulated epoch duration and returns the trace point.
    pub fn train_epoch(&mut self, group: usize) -> TracePoint {
        self.train_epoch_with(|| group)
    }

    /// Trains one epoch drawing each minibatch's scan group from a mixture
    /// policy (Appendix A.6.3).
    pub fn train_epoch_mixture(&mut self, policy: &MixturePolicy) -> TracePoint {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ self.epoch as u64);
        self.train_epoch_with(|| policy.sample(&mut rng))
    }

    fn nearest_group(&self, group: usize) -> usize {
        *self
            .feats
            .groups
            .iter()
            .min_by_key(|&&g| g.abs_diff(group))
            .expect("nonempty groups")
    }

    /// One minibatch: the group-`group` feature rows and the task labels of
    /// the samples in `chunk`.
    fn batch(&self, group: usize, chunk: &[usize]) -> (Matrix, Vec<u32>) {
        let feats = &self.feats.train[&group];
        let d = self.spec.input_dim();
        let mut data = Vec::with_capacity(chunk.len() * d);
        let mut labels = Vec::with_capacity(chunk.len());
        for &i in chunk {
            data.extend_from_slice(feats.row(i));
            labels.push(self.labels[i]);
        }
        (Matrix::from_vec(chunk.len(), d, data), labels)
    }

    fn train_epoch_with(&mut self, mut group_for_batch: impl FnMut() -> usize) -> TracePoint {
        let n = self.labels.len();
        let bs = self.cfg.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ (self.epoch as u64) << 16);
        order.shuffle(&mut rng);

        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        let mut groups_used: Vec<usize> = Vec::new();
        let lr = self.cfg.lr.lr_at(self.epoch as f32);
        for chunk in order.chunks(bs) {
            if chunk.len() < bs {
                break; // drop ragged tail like standard loaders
            }
            let g = self.nearest_group(group_for_batch());
            groups_used.push(g);
            let (x, labels) = self.batch(g, chunk);
            let result = self.model.backward(&x, &labels);
            self.opt.step(&mut self.model, &result.grads, lr);
            loss_sum += result.loss;
            batches += 1;
        }

        // Epoch timing at the modal group used this epoch.
        let modal = mode(&groups_used).unwrap_or_else(|| self.nearest_group(10));
        let timing = self.simulate_epoch_timing(modal);
        self.clock += timing.duration;
        self.epoch += 1;
        TracePoint {
            epoch: self.epoch,
            time: self.clock,
            train_loss: if batches > 0 { loss_sum / batches as f64 } else { f64::NAN },
            test_acc: f64::NAN,
            images_per_sec: timing.images_per_sec(),
            stall_fraction: timing.stall_fraction(),
            scan_group: modal,
        }
    }

    /// Trains up to `n_batches` minibatches at a scan group (a tuning-phase
    /// probe), advancing the clock by the proportional share of an epoch's
    /// simulated duration at that group. Returns the mean training loss of
    /// the probe batches.
    pub fn train_batches(&mut self, group: usize, n_batches: usize) -> f64 {
        let g = self.nearest_group(group);
        let n = self.labels.len();
        let bs = self.cfg.batch_size.min(n).max(1);
        let total_batches = (n / bs).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xBEEF ^ (self.epoch as u64));
        order.shuffle(&mut rng);
        let lr = self.cfg.lr.lr_at(self.epoch as f32);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(bs).take(n_batches) {
            if chunk.len() < bs {
                break;
            }
            let (x, labels) = self.batch(g, chunk);
            let result = self.model.backward(&x, &labels);
            self.opt.step(&mut self.model, &result.grads, lr);
            loss_sum += result.loss;
            batches += 1;
        }
        let timing = self.simulate_epoch_timing(g);
        self.clock += timing.duration * batches as f64 / total_batches as f64;
        loss_sum / batches.max(1) as f64
    }

    /// Sets the storage effective-bandwidth multiplier for subsequent
    /// epochs — models multi-tenant / cross-datacenter bandwidth
    /// fluctuation, the paper's motivation for *dynamic* compression.
    pub fn set_bandwidth_scale(&self, scale: f64) {
        self.store.device().set_bandwidth_scale(scale);
    }

    /// Charges the virtual clock for tuning-probe compute (e.g. the
    /// gradient-similarity sweep) without parameter updates.
    pub fn charge_probe_time(&mut self, n_batches: usize) {
        self.clock += n_batches as f64 * self.cfg.batch_size as f64 / self.compute_rate();
    }

    /// Test accuracy on full-quality test features.
    pub fn eval(&self) -> f64 {
        self.model.accuracy(&self.feats.test, &self.test_labels)
    }

    /// Gradient cosine similarity of each scan group against the
    /// full-quality gradient on the current weights (Appendix A.6 figure
    /// 19), measured over up to `max_batches` batches.
    pub fn gradient_similarities(&self, max_batches: usize) -> Vec<(usize, f64)> {
        let full = self.batch_gradient(*self.feats.groups.last().expect("groups"), max_batches);
        self.feats
            .groups
            .iter()
            .map(|&g| {
                let gg = self.batch_gradient(g, max_batches);
                (g, pcr_metrics::cosine_similarity_f32(&gg, &full))
            })
            .collect()
    }

    fn batch_gradient(&self, group: usize, max_batches: usize) -> Vec<f32> {
        let n = self.labels.len();
        let bs = self.cfg.batch_size.min(n).max(1);
        let mut acc: Option<Vec<f32>> = None;
        let mut batches = 0usize;
        for chunk in (0..n).collect::<Vec<_>>().chunks(bs).take(max_batches) {
            let (x, labels) = self.batch(group, chunk);
            let g = self.model.backward(&x, &labels).grads.flatten();
            match &mut acc {
                None => acc = Some(g),
                Some(a) => {
                    for (av, gv) in a.iter_mut().zip(&g) {
                        *av += gv;
                    }
                }
            }
            batches += 1;
        }
        let mut a = acc.unwrap_or_default();
        let inv = 1.0 / batches.max(1) as f32;
        for v in &mut a {
            *v *= inv;
        }
        a
    }

    /// Snapshot of the model for rollback.
    pub fn checkpoint(&self) -> Mlp {
        self.model.clone()
    }

    /// Restores a snapshot (clears momentum, as the paper's rollback does).
    pub fn restore(&mut self, checkpoint: Mlp) {
        self.model = checkpoint;
        self.opt.reset();
    }
}

/// The most frequent value; the largest of those on a tie.
fn mode(xs: &[usize]) -> Option<usize> {
    let mut counts = std::collections::BTreeMap::new();
    for &x in xs {
        *counts.entry(x).or_insert(0usize) += 1;
    }
    counts.into_iter().max_by_key(|&(_, c)| c).map(|(x, _)| x)
}

/// Runs a full fixed-group training job and returns its trace.
pub fn train_fixed_group(
    feats: &FeaturizedDataset,
    pcr: &PcrDataset,
    spec: &ModelSpec,
    cfg: &TrainConfig,
    group: usize,
    dataset_name: &str,
) -> TrainingTrace {
    let mut trainer = Trainer::new(feats, pcr, spec.clone(), cfg.clone());
    let mut points = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        let mut pt = trainer.train_epoch(group);
        if (e + 1) % cfg.eval_every == 0 || e + 1 == cfg.epochs {
            pt.test_acc = trainer.eval();
        }
        points.push(pt);
    }
    let final_acc = trainer.eval();
    TrainingTrace {
        model: spec.name.clone(),
        dataset: dataset_name.to_string(),
        scan_group: group,
        total_time: trainer.now(),
        points,
        final_acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::featurize;
    use pcr_datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};

    fn setup() -> (FeaturizedDataset, PcrDataset, SyntheticDataset) {
        let ds = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny));
        let feats = featurize(&ds, &ModelSpec::resnet_like(), &[1, 2, 5, 10]);
        let (pcr, _) = to_pcr_dataset(&ds, 8);
        (feats, pcr, ds)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            batch_size: 8,
            workers: 2,
            lr: LrSchedule { base_lr: 0.05, warmup_epochs: 0.0, decay_epochs: vec![], decay_factor: 1.0 },
            eval_every: 2,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_learns_binary_task() {
        let (feats, pcr, _) = setup();
        let trace = train_fixed_group(
            &feats,
            &pcr,
            &ModelSpec::resnet_like(),
            &quick_cfg(),
            10,
            "celeb-tiny",
        );
        assert_eq!(trace.points.len(), 6);
        assert!(trace.final_acc > 0.8, "final acc {}", trace.final_acc);
        // Loss decreases from first to last epoch.
        assert!(trace.points.last().unwrap().train_loss < trace.points[0].train_loss);
        // Times are strictly increasing.
        for w in trace.points.windows(2) {
            assert!(w[1].time > w[0].time);
        }
    }

    #[test]
    fn lower_groups_run_faster_epochs() {
        let (feats, pcr, _) = setup();
        let cfg = quick_cfg();
        let t1 = train_fixed_group(&feats, &pcr, &ModelSpec::resnet_like(), &cfg, 1, "x");
        let t10 = train_fixed_group(&feats, &pcr, &ModelSpec::resnet_like(), &cfg, 10, "x");
        assert!(
            t1.total_time < t10.total_time,
            "group 1 ({:.3}s) should beat group 10 ({:.3}s)",
            t1.total_time,
            t10.total_time
        );
        // On this low-frequency binary task, scan 1 should still learn.
        assert!(t1.final_acc > 0.75, "scan-1 acc {}", t1.final_acc);
    }

    #[test]
    fn gradient_similarity_ranks_groups() {
        let (feats, pcr, _) = setup();
        let trainer = Trainer::new(&feats, &pcr, ModelSpec::resnet_like(), quick_cfg());
        let sims = trainer.gradient_similarities(4);
        let get = |g: usize| sims.iter().find(|&&(gg, _)| gg == g).unwrap().1;
        assert!((get(10) - 1.0).abs() < 1e-6, "self-similarity is 1");
        assert!(get(1) <= get(5) + 0.05, "g1 {} vs g5 {}", get(1), get(5));
        assert!(get(1) > 0.3, "even scan 1 gradients point roughly the right way");
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let (feats, pcr, _) = setup();
        let mut trainer = Trainer::new(&feats, &pcr, ModelSpec::resnet_like(), quick_cfg());
        let before = trainer.eval();
        let ckpt = trainer.checkpoint();
        trainer.train_epoch(1);
        trainer.restore(ckpt);
        assert!((trainer.eval() - before).abs() < 1e-9);
    }

    #[test]
    fn mixture_epoch_runs() {
        let (feats, pcr, _) = setup();
        let mut trainer = Trainer::new(&feats, &pcr, ModelSpec::resnet_like(), quick_cfg());
        let policy = MixturePolicy::selected(&[1, 2, 5, 10], 1, 10.0);
        let pt = trainer.train_epoch_mixture(&policy);
        assert!(pt.train_loss.is_finite());
        assert!(pt.time > 0.0);
    }
}
