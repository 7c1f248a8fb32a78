//! End-to-end integration: synthetic dataset -> PCR encoding -> simulated
//! storage -> prefetching loader -> partial decode -> training, plus
//! head-to-head format equivalence checks.

use pcr::core::{PcrRecord, RecordFile, RecordScratch};
use pcr::datasets::{DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{populate_store, LoaderConfig, ParallelConfig, ParallelLoader, ReadPlanner};
use pcr::nn::{LrSchedule, ModelSpec};
use pcr::sim::{featurize, model_epoch, train_fixed_group, TrainConfig};
use pcr::storage::{DeviceProfile, ObjectStore};
use std::sync::Arc;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny))
}

/// The one-pass multi-group decode against one decode per group: every
/// image of every tiny corpus, at every group, byte for byte.
#[test]
fn one_pass_group_decode_matches_per_group_decode_on_tiny_corpora() {
    let mut scratch = RecordScratch::new();
    for spec in DatasetSpec::paper_suite(Scale::Tiny) {
        let (pcr, _) = pcr::datasets::to_pcr_dataset(&SyntheticDataset::generate(&spec), 8);
        for bytes in &pcr.records {
            let rec = PcrRecord::parse(bytes).unwrap();
            let groups: Vec<usize> = (1..=rec.num_groups()).collect();
            for i in 0..rec.num_images() {
                let mut got = vec![None; groups.len()];
                rec.decode_groups_with(i, &groups, &mut scratch, |k, img| got[k] = Some(img.unwrap()));
                for (k, &g) in groups.iter().enumerate() {
                    let want = rec.decode_image(i, g).unwrap();
                    assert_eq!(got[k].as_ref(), Some(&want), "{}: image {i}, group {g}", spec.name);
                }
            }
        }
    }
}

#[test]
fn pipeline_delivers_decodable_images_at_every_group() {
    let ds = dataset();
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    let store = Arc::new(ObjectStore::new(DeviceProfile::ssd_sata()));
    populate_store(&store, &pcr);
    let db = Arc::new(pcr.db.clone());
    for g in [1usize, 2, 5, 10] {
        let cfg = ParallelConfig {
            loader: LoaderConfig { threads: 4, scan_group: g, seed: 3, ..LoaderConfig::default() },
            ..ParallelConfig::default()
        };
        let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);
        let (images, _) = loader.spawn_epoch(0).fold(|batches| {
            batches
                .flat_map(|b| b.images)
                .inspect(|img| assert_eq!((img.width(), img.channels()), (64, 3)))
                .count()
        });
        assert_eq!(images, ds.train.len(), "group {g} delivered all images");
    }
}

#[test]
fn full_quality_pcr_equals_record_file_pixels() {
    // The same image stored in a PCR (progressive, regrouped) and a
    // record file (baseline JPEG) must decode to the same pixels up to the
    // progressive/sequential equivalence (identical coefficients).
    let ds = dataset();
    let img = &ds.train[0].image;
    let q = ds.spec.jpeg_quality;

    let mut pcr_builder = pcr::core::PcrRecordBuilder::with_default_groups();
    pcr_builder
        .add_image(pcr::core::SampleMeta { label: 0, id: "x".into() }, img, q)
        .unwrap();
    let pcr_bytes = pcr_builder.build().unwrap();
    let record = PcrRecord::parse(&pcr_bytes).unwrap();
    let from_pcr = record.decode_image(0, 10).unwrap();

    let mut rf_builder = pcr::core::RecordFileBuilder::new();
    rf_builder
        .add_image(pcr::core::SampleMeta { label: 0, id: "x".into() }, img, q)
        .unwrap();
    let rf_bytes = rf_builder.build().unwrap();
    let rf = RecordFile::parse(&rf_bytes).unwrap();
    let from_rf = rf.decode(0).unwrap();

    assert_eq!(from_pcr, from_rf);
}

#[test]
fn pcr_space_overhead_is_small() {
    // Paper: "There is no space overhead for PCR conversion as the number
    // of bytes occupied by all formats is within 5%." Our per-scan
    // optimized Huffman tables add some overhead on very small images, so
    // we allow a slightly wider envelope and verify PCR never duplicates
    // data the way static multi-quality encoding does.
    let ds = SyntheticDataset::generate(&DatasetSpec::imagenet_like(Scale::Tiny));
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    let (records, _) = pcr::datasets::to_record_files(&ds, 8, ds.spec.jpeg_quality);
    let pcr_bytes = pcr.db.total_bytes() as f64;
    let rf_bytes: f64 = records.iter().map(|r| r.len() as f64).sum();
    let ratio = pcr_bytes / rf_bytes;
    assert!(
        (0.7..1.35).contains(&ratio),
        "PCR/record-file size ratio {ratio:.3} out of envelope"
    );
    // Four static qualities ~ 3-4x the single PCR copy.
    let mut static_total = 0f64;
    for q in [50u8, 75, 90, 95] {
        let (rs, _) = pcr::datasets::to_record_files(&ds, 8, q);
        static_total += rs.iter().map(|r| r.len() as f64).sum::<f64>();
    }
    assert!(static_total > 2.0 * pcr_bytes, "static multi-quality should amplify space");
}

#[test]
fn training_through_stored_pcr_features_learns() {
    let ds = dataset();
    let model = ModelSpec::resnet_like();
    let feats = featurize(&ds, &model, &[1, 2, 5, 10]);
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 8,
        workers: 2,
        lr: LrSchedule { base_lr: 0.05, warmup_epochs: 0.0, decay_epochs: vec![], decay_factor: 1.0 },
        eval_every: 2,
        ..TrainConfig::default()
    };
    let trace = train_fixed_group(&feats, &pcr, &model, &cfg, 5, "celeb");
    assert!(trace.final_acc > 0.8, "accuracy {}", trace.final_acc);
    assert!(trace.total_time > 0.0);
}

#[test]
fn scan_group_bytes_drop_2x_to_10x() {
    // The paper's headline: "drop the effective size ... of a record by a
    // factor of 2-10x" for lower-quality views.
    let ds = SyntheticDataset::generate(&DatasetSpec::imagenet_like(Scale::Tiny));
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    let full = pcr.db.bytes_at_group(10) as f64;
    let g1 = pcr.db.bytes_at_group(1) as f64;
    let g5 = pcr.db.bytes_at_group(5) as f64;
    assert!(full / g1 >= 2.0, "group-1 reduction only {:.2}x", full / g1);
    assert!(full / g1 <= 20.0);
    assert!(full / g5 >= 1.5, "group-5 reduction only {:.2}x", full / g5);
}

#[test]
fn cache_pressure_drops_with_scan_group() {
    // Reading prefixes shrinks the working set, so a fixed-size cache
    // covers a larger fraction of it (the paper's in-memory claim).
    let ds = dataset();
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    let cache_bytes = pcr.db.total_bytes() / 2;
    let run = |g: usize| {
        let store = ObjectStore::with_cache(DeviceProfile::hdd_7200rpm(), cache_bytes);
        populate_store(&store, &pcr);
        let planner = ReadPlanner { scan_group: g, shuffle: false, seed: 0 };
        let mut t = 0.0;
        for e in 0..3u64 {
            t += model_epoch(&store, &pcr.db, &planner, 2, 0.0, e, t).unwrap().seconds;
        }
        store.cache_hit_rate()
    };
    let low = run(1);
    let full = run(10);
    assert!(
        low > full,
        "low-group hit rate {low:.3} should beat full-quality {full:.3}"
    );
}
