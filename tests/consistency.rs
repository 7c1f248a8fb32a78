//! Cross-layer consistency: the byte counts and throughput figures
//! reported by the metadata DB, the loader, the loader model and pipeline
//! simulation, and the analytical queueing model must all agree with each
//! other.

use pcr::datasets::{DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{
    populate_store, DecodeMode, LoaderConfig, ParallelConfig, ParallelLoader, ReadPlanner,
};
use pcr::sim::{loader_throughput, model_epoch, run_pipeline, ComputeUnit};
use pcr::storage::{DeviceProfile, ObjectStore};
use std::sync::Arc;

fn setup() -> (pcr::core::PcrDataset, SyntheticDataset) {
    let ds = SyntheticDataset::generate(&DatasetSpec::imagenet_like(Scale::Tiny));
    let (pcr_ds, _) = pcr::datasets::to_pcr_dataset(&ds, 8);
    (pcr_ds, ds)
}

#[test]
fn db_byte_plan_matches_loader_reads_exactly() {
    let (pcr_ds, _) = setup();
    let store = Arc::new(ObjectStore::new(DeviceProfile::ssd_sata()));
    populate_store(&store, &pcr_ds);
    let db = Arc::new(pcr_ds.db.clone());
    for g in [1usize, 2, 5, 10] {
        store.device().reset();
        let cfg = ParallelConfig {
            loader: LoaderConfig {
                threads: 4,
                scan_group: g,
                shuffle: true,
                seed: 11,
                decode: DecodeMode::Skip,
                ..LoaderConfig::default()
            },
            ..ParallelConfig::default()
        };
        let epoch = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg).run_epoch(0);
        // The DB's plan and the loader's accounting and the device's
        // transfer counters must be identical.
        assert_eq!(epoch.bytes, pcr_ds.db.bytes_at_group(g), "group {g} loader vs db");
        assert_eq!(
            store.device_stats().bytes,
            pcr_ds.db.bytes_at_group(g),
            "group {g} device vs db"
        );
    }
}

#[test]
fn record_files_on_store_match_db_lengths() {
    let (pcr_ds, _) = setup();
    let store = ObjectStore::new(DeviceProfile::ram());
    populate_store(&store, &pcr_ds);
    for meta in &pcr_ds.db.records {
        assert_eq!(store.len_of(&meta.name), Some(meta.total_len()));
    }
    assert_eq!(store.total_bytes(), pcr_ds.db.total_bytes());
}

#[test]
fn storage_bound_pipeline_tracks_lemma_a2() {
    // With a very fast compute unit and one loader thread, achieved
    // images/sec must track W / E[bytes per image] (Lemma A.2) within the
    // tolerance left by per-request overheads.
    let (pcr_ds, _) = setup();
    let profile = DeviceProfile::ssd_sata();
    let store = ObjectStore::new(profile.clone());
    populate_store(&store, &pcr_ds);
    for g in [2usize, 10] {
        store.device().reset();
        let planner = ReadPlanner { scan_group: g, shuffle: false, seed: 0 };
        let epoch = model_epoch(&store, &pcr_ds.db, &planner, 1, 0.0, 0, 0.0).unwrap();
        let compute = ComputeUnit { images_per_sec: 1e12, batch_size: 8 };
        let pipe = run_pipeline(&epoch.records, &compute, 0.0);
        let lemma = loader_throughput(&profile, pcr_ds.db.mean_image_bytes_at_group(g), 8);
        let rel = (pipe.images_per_sec() - lemma).abs() / lemma;
        assert!(rel < 0.4, "group {g}: sim {:.0} vs lemma {lemma:.0}", pipe.images_per_sec());
    }
}

#[test]
fn threaded_pipeline_agrees_with_virtual_loader_bytes() {
    // The loader's real-decode epoch and the loader model's virtual-time
    // epoch read the same bytes: the group-2 prefix of every record.
    let (pcr_ds, _) = setup();
    let store = Arc::new(ObjectStore::new(DeviceProfile::ram()));
    populate_store(&store, &pcr_ds);
    let db = Arc::new(pcr_ds.db.clone());
    let cfg = ParallelConfig { batch_size: 16, prefetch_records: 4, ..ParallelConfig::real(2, 2) };
    let planner = ReadPlanner::from_config(&cfg.loader);
    let epoch = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg).run_epoch(0);
    assert_eq!(epoch.images, pcr_ds.db.num_images());
    assert_eq!(epoch.bytes, pcr_ds.db.bytes_at_group(2));
    let modeled = model_epoch(&store, &*db, &planner, 2, 0.0, 0, 0.0).unwrap();
    assert_eq!((modeled.images(), modeled.bytes), (epoch.images, epoch.bytes));
}

#[test]
fn featurized_mean_bytes_track_db_plan() {
    // `featurize` measures per-image prefix sizes from standalone
    // progressive files; the PCR dataset adds per-record index/header
    // overhead. The two views must agree on ordering and rough magnitude.
    let (pcr_ds, ds) = setup();
    let feats =
        pcr::sim::featurize(&ds, &pcr::nn::ModelSpec::resnet_like(), &[1, 5, 10]);
    for g in [1usize, 5, 10] {
        let standalone = feats.mean_bytes[&g];
        let from_db = pcr_ds.db.mean_image_bytes_at_group(g);
        let ratio = from_db / standalone;
        assert!(
            (0.5..2.0).contains(&ratio),
            "group {g}: db {from_db:.0} vs standalone {standalone:.0}"
        );
    }
    assert!(feats.mean_bytes[&1] < feats.mean_bytes[&5]);
    assert!(pcr_ds.db.mean_image_bytes_at_group(1) < pcr_ds.db.mean_image_bytes_at_group(5));
}
