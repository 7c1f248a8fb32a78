//! Shared experiment context: dataset generation, featurization caching,
//! training configuration defaults, and output formatting.

use pcr_core::PcrDataset;
use pcr_datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset, IMAGES_PER_RECORD};
use pcr_nn::{LrSchedule, ModelSpec};
use pcr_sim::{featurize, FeaturizedDataset, TrainConfig};
use pcr_storage::DeviceProfile;

/// The clustered scan groups used throughout the paper's plots.
pub const STANDARD_GROUPS: [usize; 4] = [1, 2, 5, 10];

/// Shared experiment context.
pub struct Ctx {
    /// Dataset scale.
    pub scale: Scale,
}

impl Ctx {
    /// Parses the scale from a CLI argument (`tiny` / `small` / `full`).
    /// Anything else, or no argument, is `small`.
    pub fn from_arg(arg: Option<&str>) -> Self {
        Self { scale: arg.and_then(Scale::from_name).unwrap_or(Scale::Small) }
    }

    /// Generates one of the paper's datasets by short name.
    pub fn dataset(&self, short: &str) -> SyntheticDataset {
        let spec = DatasetSpec::named(short, self.scale)
            .unwrap_or_else(|| panic!("unknown dataset {short}"));
        SyntheticDataset::generate(&spec)
    }

    /// All four datasets.
    pub fn suite(&self) -> Vec<SyntheticDataset> {
        DatasetSpec::paper_suite(self.scale).iter().map(SyntheticDataset::generate).collect()
    }

    /// Featurizes a dataset for a model at the standard groups and builds
    /// its PCR encoding.
    pub fn prepare(
        &self,
        ds: &SyntheticDataset,
        model: &ModelSpec,
    ) -> (FeaturizedDataset, PcrDataset) {
        let feats = featurize(ds, model, &STANDARD_GROUPS);
        let (pcr, _) = to_pcr_dataset(ds, IMAGES_PER_RECORD);
        (feats, pcr)
    }

    /// The paper-shaped training configuration for a dataset: the 10-worker
    /// Ceph-like cluster, ImageNet schedule for ImageNet, fine-tune schedule
    /// otherwise, with epoch counts scaled to our dataset sizes.
    pub fn train_config(&self, ds: &SyntheticDataset) -> TrainConfig {
        let name = &ds.spec.name;
        let (epochs, lr) = if name.starts_with("ImageNet") {
            (40, LrSchedule { base_lr: 0.2, warmup_epochs: 3.0, decay_epochs: vec![25.0, 34.0], decay_factor: 0.1 })
        } else if name.starts_with("Cars") {
            (60, LrSchedule { base_lr: 0.3, warmup_epochs: 0.0, decay_epochs: vec![40.0], decay_factor: 0.1 })
        } else if name.starts_with("HAM") {
            (30, LrSchedule { base_lr: 0.1, warmup_epochs: 0.0, decay_epochs: vec![20.0], decay_factor: 0.1 })
        } else {
            (24, LrSchedule { base_lr: 0.05, warmup_epochs: 0.0, decay_epochs: vec![16.0], decay_factor: 0.1 })
        };
        // Batch scaled to dataset size so an epoch has several updates.
        let batch = (ds.train.len() / 8).clamp(4, 128);
        TrainConfig {
            storage: self.storage_for(ds),
            workers: 10,
            loader_threads: 8,
            batch_size: batch,
            epochs,
            lr,
            eval_every: 2,
            ..TrainConfig::default()
        }
    }

    /// A storage profile scaled so that our (smaller) datasets sit in the
    /// same storage-bound regime as the paper's testbed: the paper's 437
    /// MiB/s cluster feeding 4 050-7 500 img/s of compute at ~110 KiB/image
    /// is bandwidth-starved at full quality; we preserve the ratio
    /// `bandwidth / (compute_rate * mean_image_bytes)` for each dataset.
    pub fn storage_for(&self, ds: &SyntheticDataset) -> DeviceProfile {
        let paper = DeviceProfile::paper_cluster();
        // Rough mean full-quality image size for this dataset (bytes),
        // estimated from one encoded sample.
        let sample = pcr_jpeg::encode(
            &ds.train[0].image,
            &pcr_jpeg::EncodeConfig::progressive(ds.spec.jpeg_quality),
        )
        .expect("encode");
        let ours = sample.len() as f64;
        let paper_img = 110.0 * 1024.0;
        // Effective-bandwidth factor: the paper's raw 400+ MiB/s cluster
        // delivered noticeably lower *achieved* training rates at full
        // quality (Fig. 9: ImageNet/ResNet baseline trains at roughly a
        // third of the from-RAM rate), reflecting replication, placement,
        // and prefetch gaps our idealized queue does not model. 0.35
        // calibrates our simulated full-quality rates to those measured
        // ones.
        let efficiency = 0.35;
        let scale = ours / paper_img * efficiency;
        // Per-request costs scale with the same factor: our records are
        // smaller than the paper's ~90 MiB records by exactly `scale`, so
        // keeping seek:transfer proportions faithful requires shrinking
        // both axes together.
        DeviceProfile {
            name: format!("{}-scaled", paper.name),
            sequential_bw_mib_s: paper.sequential_bw_mib_s * scale,
            seek_latency_us: paper.seek_latency_us * scale,
            request_overhead_us: paper.request_overhead_us * scale,
        }
    }
}

/// Prints a labelled CSV header line: `# <id> | key=value ...`.
pub fn banner(id: &str, kv: &[(&str, String)]) {
    let kvs: Vec<String> = kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {id} | {}", kvs.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Ctx::from_arg(Some("tiny")).scale, Scale::Tiny);
        assert_eq!(Ctx::from_arg(Some("full")).scale, Scale::Full);
        assert_eq!(Ctx::from_arg(None).scale, Scale::Small);
        assert_eq!(Ctx::from_arg(Some("bogus")).scale, Scale::Small);
    }

    #[test]
    fn datasets_resolve() {
        let ctx = Ctx { scale: Scale::Tiny };
        for name in ["imagenet", "celebahq", "ham10000", "cars"] {
            let ds = ctx.dataset(name);
            assert!(!ds.train.is_empty());
        }
    }

    #[test]
    fn storage_scaling_preserves_regime() {
        // Full-quality loading must sit near/below the compute roof, and
        // scan-group-1 loading must clear it — for every dataset.
        let ctx = Ctx { scale: Scale::Tiny };
        for ds in ctx.suite() {
            let profile = ctx.storage_for(&ds);
            let sample = pcr_jpeg::encode(
                &ds.train[0].image,
                &pcr_jpeg::EncodeConfig::progressive(ds.spec.jpeg_quality),
            )
            .unwrap();
            let mean = sample.len() as f64;
            let x_full = pcr_sim::loader_throughput(&profile, mean, 16);
            let compute = 445.0 * 10.0;
            assert!(
                x_full < compute * 2.0,
                "{}: full-quality loading ({x_full:.0}/s) unexpectedly far above compute",
                ds.spec.name
            );
            let x_g1 = pcr_sim::loader_throughput(&profile, mean / 5.0, 16);
            assert!(x_g1 > x_full * 3.0);
        }
    }

    #[test]
    fn train_config_scales_batch() {
        let ctx = Ctx { scale: Scale::Tiny };
        let ds = ctx.dataset("celebahq");
        let cfg = ctx.train_config(&ds);
        assert!(cfg.batch_size >= 4);
        assert!(cfg.batch_size * 4 <= ds.train.len().max(16));
    }
}
