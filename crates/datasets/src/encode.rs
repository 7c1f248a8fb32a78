//! Encoding synthetic datasets into the storage formats under comparison:
//! PCR datasets and fixed-quality record files — plus the on-disk sharded
//! container packer behind `pcr pack`.

use crate::generate::SyntheticDataset;
use pcr_core::container::{write_container, ContainerManifest};
use pcr_core::dataset::map_in_order;
use pcr_core::{PcrDataset, PcrDatasetBuilder, RecordFileBuilder, SampleMeta};
use pcr_jpeg::EncodeConfig;
use std::path::Path;

/// Default records per shard file (the `pcr pack` default). Paired with
/// [`IMAGES_PER_RECORD`] this keeps shards at tens of records, so even
/// test-scale datasets exercise multi-shard streaming.
pub const RECORDS_PER_SHARD: usize = 8;

/// Images per record used throughout the experiments. The paper uses
/// roughly 1024 images/record on ImageNet; we scale down with our dataset
/// sizes so each dataset still spans tens of records.
pub const IMAGES_PER_RECORD: usize = 16;

/// Encodes the training split as a PCR dataset (progressive, 10 groups).
///
/// Returns the dataset and the total encode wall-clock time in seconds
/// (used by the Figure 15 conversion-time experiment).
pub fn to_pcr_dataset(ds: &SyntheticDataset, images_per_record: usize) -> (PcrDataset, f64) {
    // pcr-lint: allow(clock-discipline) — pack-time tooling measuring real
    // conversion cost (Figure 15); no virtual timeline exists here.
    let start = std::time::Instant::now();
    let mut b = PcrDatasetBuilder::new(images_per_record, pcr_core::DEFAULT_NUM_GROUPS)
        .with_name_prefix(&ds.spec.name);
    for s in &ds.train {
        b.add_image(
            SampleMeta { label: s.label, id: s.id.clone() },
            &s.image,
            ds.spec.jpeg_quality,
        )
        .expect("encode");
    }
    let out = b.finish().expect("non-empty dataset");
    (out, start.elapsed().as_secs_f64())
}

/// Packs the training split straight to an on-disk sharded container
/// (progressive PCR encode → `pcr-core::container::write_container`) —
/// the library face of `pcr pack`.
///
/// Returns the written manifest and the total encode+write wall-clock
/// seconds (the Figure 15 conversion-time quantity, now including I/O).
pub fn pack_to_container(
    ds: &SyntheticDataset,
    dir: &Path,
    images_per_record: usize,
    records_per_shard: usize,
) -> pcr_core::Result<(ContainerManifest, f64)> {
    // pcr-lint: allow(clock-discipline) — pack-time tooling measuring real
    // conversion cost (Figure 15); no virtual timeline exists here.
    let start = std::time::Instant::now();
    let (pcr, _) = to_pcr_dataset(ds, images_per_record);
    let manifest = write_container(&pcr, dir, records_per_shard)?;
    Ok((manifest, start.elapsed().as_secs_f64()))
}

/// Encodes the training split as fixed-quality record files (the static
/// baseline): one `Vec<u8>` per record.
///
/// The images are encoded across the machine's cores with [`map_in_order`]
/// and enter their records in image order, so the bytes are those of
/// encoding one image at a time and the seconds are wall time on every
/// core, like [`to_pcr_dataset`]'s.
///
/// Returns `(records, encode_seconds)`.
pub fn to_record_files(
    ds: &SyntheticDataset,
    images_per_record: usize,
    quality: u8,
) -> (Vec<Vec<u8>>, f64) {
    // pcr-lint: allow(clock-discipline) — pack-time tooling measuring real
    // conversion cost (Figure 15); no virtual timeline exists here.
    let start = std::time::Instant::now();
    let config = EncodeConfig::baseline(quality);
    let jpegs = map_in_order(ds.train.iter().collect(), crate::cores(), |s| {
        pcr_jpeg::encode(&s.image, &config).expect("encode")
    });
    let mut records = Vec::new();
    let mut builder = RecordFileBuilder::new();
    for (s, jpeg) in ds.train.iter().zip(jpegs) {
        builder.add_jpeg(SampleMeta { label: s.label, id: s.id.clone() }, jpeg);
        if builder.len() >= images_per_record {
            let b = std::mem::replace(&mut builder, RecordFileBuilder::new());
            records.push(b.build().expect("non-empty"));
        }
    }
    if !builder.is_empty() {
        records.push(builder.build().expect("non-empty"));
    }
    (records, start.elapsed().as_secs_f64())
}

/// Encodes every *test* image as a full-quality progressive JPEG, returning
/// the raw streams in image order (used for MSSIM-per-scan measurements).
/// The images are encoded across the machine's cores.
pub fn test_progressive_jpegs(ds: &SyntheticDataset) -> Vec<Vec<u8>> {
    let config = EncodeConfig::progressive(ds.spec.jpeg_quality);
    map_in_order(ds.test.iter().collect(), crate::cores(), |s| {
        pcr_jpeg::encode(&s.image, &config).expect("encode")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DatasetSpec, Scale};
    use pcr_core::PcrRecord;

    fn tiny() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny))
    }

    #[test]
    fn pcr_dataset_covers_all_train_images() {
        let ds = tiny();
        let (pcr, secs) = to_pcr_dataset(&ds, 8);
        assert_eq!(pcr.db.num_images(), ds.train.len());
        assert!(secs > 0.0);
        // Decode one image from the first record at low quality.
        let rec = pcr.open_record(0).unwrap();
        let img = rec.decode_image(0, 2).unwrap();
        assert_eq!(img.width(), 64);
    }

    #[test]
    fn record_files_chunked() {
        let ds = tiny();
        let (recs, _) = to_record_files(&ds, 10, 75);
        let expected = ds.train.len().div_ceil(10);
        assert_eq!(recs.len(), expected);
        let parsed = pcr_core::RecordFile::parse(&recs[0]).unwrap();
        assert_eq!(parsed.num_images(), 10.min(ds.train.len()));
    }

    #[test]
    fn record_files_match_encoding_image_by_image() {
        let ds = tiny();
        let (recs, _) = to_record_files(&ds, 10, 75);
        let mut want = Vec::new();
        for chunk in ds.train.chunks(10) {
            let mut builder = RecordFileBuilder::new();
            for s in chunk {
                let meta = SampleMeta { label: s.label, id: s.id.clone() };
                builder.add_image(meta, &s.image, 75).unwrap();
            }
            want.push(builder.build().unwrap());
        }
        assert!(recs == want, "record files differ from the image-by-image encode");
    }

    #[test]
    fn pcr_labels_survive_storage() {
        let ds = tiny();
        let (pcr, _) = to_pcr_dataset(&ds, 4);
        let mut stored: Vec<u32> = Vec::new();
        for i in 0..pcr.num_records() {
            let rec = PcrRecord::parse(&pcr.records[i]).unwrap();
            stored.extend(rec.labels());
        }
        let native: Vec<u32> = ds.train.iter().map(|s| s.label).collect();
        assert_eq!(stored, native);
    }

    #[test]
    fn pack_to_container_roundtrips_on_disk() {
        let ds = tiny();
        let dir = std::env::temp_dir().join(format!(
            "pcr-pack-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (manifest, secs) = pack_to_container(&ds, &dir, 4, 2).unwrap();
        assert!(secs > 0.0);
        assert_eq!(manifest.num_images(), ds.train.len());
        let container = pcr_core::PcrContainer::open(&dir).unwrap();
        container.verify().unwrap();
        assert_eq!(container.num_images(), ds.train.len());
        let (pcr, _) = to_pcr_dataset(&ds, 4);
        assert_eq!(container.num_records(), pcr.num_records());
        assert_eq!(container.bytes_at_group(2).unwrap(), pcr.db.bytes_at_group(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn progressive_test_jpegs_have_scans() {
        let ds = tiny();
        let jpegs = test_progressive_jpegs(&ds);
        assert_eq!(jpegs.len(), ds.test.len());
        let config = EncodeConfig::progressive(ds.spec.jpeg_quality);
        for (s, jpeg) in ds.test.iter().zip(&jpegs) {
            assert!(*jpeg == pcr_jpeg::encode(&s.image, &config).unwrap(), "{}", s.id);
        }
        assert_eq!(pcr_jpeg::split_scans(&jpegs[0]).unwrap().num_scans(), 10);
    }
}
