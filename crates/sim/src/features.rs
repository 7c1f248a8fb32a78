//! Featurization of a synthetic dataset at every scan group: each training
//! image is progressive-encoded once, then decoded from scan-group byte
//! prefixes — exactly what a training worker reading a PCR prefix sees.

use pcr_datasets::SyntheticDataset;
use pcr_jpeg::scansplit::{assemble_prefix, split_scans};
use pcr_jpeg::EncodeConfig;
use pcr_metrics::{MsssimReference, Plane};
use pcr_nn::{Matrix, ModelSpec};
use std::collections::HashMap;

/// Train/test features at multiple scan groups for one model's input size.
#[derive(Debug)]
pub struct FeaturizedDataset {
    /// Scan groups materialized.
    pub groups: Vec<usize>,
    /// Per-group training feature matrices (`n x input_dim`).
    pub train: HashMap<usize, Matrix>,
    /// Training labels (native).
    pub train_labels: Vec<u32>,
    /// Test features at full quality.
    pub test: Matrix,
    /// Test labels (native).
    pub test_labels: Vec<u32>,
    /// Mean compressed bytes per image at each group (for timing).
    pub mean_bytes: HashMap<usize, f64>,
    /// Mean MSSIM (vs full quality) at each group, measured on a sample of
    /// training images.
    pub mean_mssim: HashMap<usize, f64>,
}

/// Builds features for `groups` (always including the full-quality group
/// 10 internally for reference sizes).
pub fn featurize(
    ds: &SyntheticDataset,
    model: &ModelSpec,
    groups: &[usize],
) -> FeaturizedDataset {
    let mut groups: Vec<usize> = groups.to_vec();
    groups.sort_unstable();
    groups.dedup();
    let d = model.input_dim();
    let n = ds.train.len();
    let mut per_group: HashMap<usize, Vec<f32>> =
        groups.iter().map(|&g| (g, Vec::with_capacity(n * d))).collect();
    let mut bytes: HashMap<usize, f64> = groups.iter().map(|&g| (g, 0.0)).collect();
    let mut mssim_sum: HashMap<usize, f64> = groups.iter().map(|&g| (g, 0.0)).collect();
    let mut mssim_count = 0usize;
    // MSSIM is O(pixels); sample up to 24 images for it.
    let mssim_stride = (n / 24).max(1);

    for (idx, s) in ds.train.iter().enumerate() {
        let jpeg = pcr_jpeg::encode(&s.image, &EncodeConfig::progressive(ds.spec.jpeg_quality))
            .expect("encode");
        let layout = split_scans(&jpeg).expect("progressive layout");
        let measure_mssim = idx % mssim_stride == 0;
        let mut reference = measure_mssim.then(|| {
            let full = pcr_jpeg::decode(&jpeg).expect("decode full").to_luma();
            MsssimReference::new(&Plane::from_u8(
                full.width() as usize,
                full.height() as usize,
                full.data(),
            ))
        });
        if measure_mssim {
            mssim_count += 1;
        }
        for &g in &groups {
            let g_eff = g.min(layout.num_scans());
            let prefix = assemble_prefix(&jpeg, &layout, g_eff).expect("prefix");
            *bytes.get_mut(&g).expect("group present") += prefix.len() as f64;
            let img = pcr_jpeg::decode(&prefix).expect("decode prefix");
            per_group.get_mut(&g).expect("group present").extend(model.featurize(&img));
            if let Some(reference) = &mut reference {
                let luma = img.to_luma();
                let m = reference.score(&Plane::from_u8(
                    luma.width() as usize,
                    luma.height() as usize,
                    luma.data(),
                ));
                *mssim_sum.get_mut(&g).expect("group present") += m;
            }
        }
    }

    let train = per_group
        .into_iter()
        .map(|(g, data)| (g, Matrix::from_vec(n, d, data)))
        .collect();
    let mean_bytes = bytes.into_iter().map(|(g, b)| (g, b / n as f64)).collect();
    let mean_mssim = mssim_sum
        .into_iter()
        .map(|(g, s)| (g, s / mssim_count.max(1) as f64))
        .collect();

    let mut test_data = Vec::with_capacity(ds.test.len() * d);
    for s in &ds.test {
        test_data.extend(model.featurize(&s.image));
    }
    FeaturizedDataset {
        groups,
        train,
        train_labels: ds.train.iter().map(|s| s.label).collect(),
        test: Matrix::from_vec(ds.test.len(), d, test_data),
        test_labels: ds.test.iter().map(|s| s.label).collect(),
        mean_bytes,
        mean_mssim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_datasets::{DatasetSpec, Scale};

    fn featurized() -> FeaturizedDataset {
        let ds = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny));
        featurize(&ds, &ModelSpec::resnet_like(), &[1, 2, 5, 10])
    }

    #[test]
    fn shapes_match() {
        let f = featurized();
        let d = ModelSpec::resnet_like().input_dim();
        assert_eq!(f.groups, vec![1, 2, 5, 10]);
        for g in [1usize, 2, 5, 10] {
            let m = &f.train[&g];
            assert_eq!(m.cols, d);
            assert_eq!(m.rows, f.train_labels.len());
        }
        assert_eq!(f.test.rows, f.test_labels.len());
    }

    #[test]
    fn bytes_increase_with_group() {
        let f = featurized();
        assert!(f.mean_bytes[&1] < f.mean_bytes[&2]);
        assert!(f.mean_bytes[&2] < f.mean_bytes[&5]);
        assert!(f.mean_bytes[&5] < f.mean_bytes[&10]);
    }

    #[test]
    fn mssim_increases_with_group_and_tops_out() {
        let f = featurized();
        assert!(f.mean_mssim[&1] <= f.mean_mssim[&2] + 0.02);
        assert!(f.mean_mssim[&2] <= f.mean_mssim[&5] + 0.02);
        assert!(f.mean_mssim[&10] > 0.999, "full quality MSSIM {}", f.mean_mssim[&10]);
    }

    #[test]
    fn low_group_features_differ_from_full() {
        let f = featurized();
        let a = &f.train[&1];
        let b = &f.train[&10];
        let diff: f32 = a.data.iter().zip(&b.data).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 0.0, "scan 1 features must differ from full quality");
    }
}
