//! Integration coverage for the wall-clock parallel read path: worker-count
//! invariance of the delivered data, agreement with the virtual-time
//! loader model's byte accounting, visibility of wall-clock traffic in the
//! store's cache/device statistics (the clocked unified read path), epoch
//! invariance under fidelity-controller decisions, and a property test
//! that prefix truncation at every scan-group boundary still decodes
//! through the scratch-reuse path.

use pcr::core::{MetaDb, PcrRecord, PcrRecordBuilder, RecordScratch, SampleMeta};
use pcr::jpeg::ImageBuf;
use pcr::loader::{
    populate_store, DecodeMode, IoModel, LoaderConfig, ParallelConfig, ParallelLoader, ReadPlanner,
};
use pcr::sim::model_epoch;
use pcr::storage::{DeviceProfile, ObjectStore};
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

fn pattern_image(seed: u32, w: u32, h: u32) -> ImageBuf {
    let mut data = Vec::with_capacity((w * h * 3) as usize);
    for y in 0..h {
        for x in 0..w {
            let v = ((x * 7 + y * 5 + seed * 13) % 256) as u8;
            data.push(v);
            data.push(v.wrapping_add(60));
            data.push(255 - v);
        }
    }
    ImageBuf::from_raw(w, h, 3, data).unwrap()
}

fn dermatology_fixture() -> (Arc<ObjectStore>, Arc<MetaDb>) {
    let ds = pcr::datasets::SyntheticDataset::generate(
        &pcr::datasets::DatasetSpec::ham10000_like(pcr::datasets::Scale::Tiny),
    );
    let (pcr_ds, _) = pcr::datasets::to_pcr_dataset(&ds, 4);
    let store = Arc::new(ObjectStore::new(DeviceProfile::ram()));
    populate_store(&store, &pcr_ds);
    (store, Arc::new(pcr_ds.db.clone()))
}

/// Fixed seed, 2 vs 8 workers: the delivered label *sequence* must be the
/// epoch order at both — the thread count never reorders, duplicates or
/// drops a sample — and so the multisets agree too.
#[test]
fn two_and_eight_workers_deliver_identical_label_multisets() {
    let (store, db) = dermatology_fixture();
    let labels_with = |workers: usize| -> Vec<u32> {
        let cfg = ParallelConfig {
            loader: LoaderConfig {
                threads: workers,
                seed: 1234,
                decode: DecodeMode::Real,
                ..LoaderConfig::at_group(2)
            },
            batch_size: 7,
            ..ParallelConfig::default()
        };
        let in_order: Vec<u32> = ReadPlanner::from_config(&cfg.loader)
            .epoch_iter(db.records.len(), 5)
            .flat_map(|idx| db.records[idx].labels.clone())
            .collect();
        let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);
        let stream = loader.spawn_epoch(5);
        let mut labels: Vec<u32> = Vec::new();
        for b in stream.batches.iter() {
            assert_eq!(b.images.len(), b.labels.len());
            labels.extend(b.labels);
        }
        stream.join();
        assert_eq!(labels, in_order, "{workers} workers deliver EpochOrder");
        labels.sort_unstable();
        labels
    };
    let two = labels_with(2);
    let eight = labels_with(8);
    assert_eq!(two.len(), db.num_images());
    assert_eq!(two, eight);

    // And both match the dataset's own label multiset.
    let mut expected: Vec<u32> = db.records.iter().flat_map(|r| r.labels.clone()).collect();
    expected.sort_unstable();
    assert_eq!(two, expected);
}

/// The wall-clock loader and the virtual-time loader model plan with the
/// same ReadPlanner and must agree on what an epoch *reads* (bytes,
/// images) even though one measures and the other models.
#[test]
fn wall_clock_and_virtual_time_loaders_agree_on_traffic() {
    let (store, db) = dermatology_fixture();
    for group in [1usize, 5, 10] {
        let loader_cfg = LoaderConfig { decode: DecodeMode::Skip, ..LoaderConfig::at_group(group) };
        let planner = ReadPlanner::from_config(&loader_cfg);
        let modeled = model_epoch(&store, &*db, &planner, loader_cfg.threads, 0.0, 0, 0.0).unwrap();
        let wall = ParallelLoader::new(
            Arc::clone(&store),
            Arc::clone(&db),
            ParallelConfig { loader: loader_cfg, ..ParallelConfig::default() },
        )
        .run_epoch(0);
        assert_eq!(wall.images, modeled.images(), "group {group}");
        assert_eq!(wall.bytes, modeled.bytes, "group {group}");
    }
}

/// Emulated-latency mode must not change what is delivered, only when.
#[test]
fn emulated_latency_delivers_same_data() {
    let (store, db) = dermatology_fixture();
    let run = |io: IoModel| {
        let cfg = ParallelConfig { io, ..ParallelConfig::real(3, 1) };
        ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg).run_epoch(2)
    };
    let instant = run(IoModel::Instant);
    let emulated = run(IoModel::EmulatedLatency);
    assert_eq!(instant.images, emulated.images);
    assert_eq!(instant.bytes, emulated.bytes);
}

/// Regression (ISSUE 3): wall-clock reads used to bypass the store's page
/// cache and device statistics entirely (the since-removed `read_bytes`
/// side door). Through the unified
/// clocked read path, parallel-loader traffic must show up in both
/// `cache_hit_rate()` and `device_stats()`.
#[test]
fn parallel_loader_traffic_is_visible_to_cache_and_device_stats() {
    let ds = pcr::datasets::SyntheticDataset::generate(
        &pcr::datasets::DatasetSpec::ham10000_like(pcr::datasets::Scale::Tiny),
    );
    let (pcr_ds, _) = pcr::datasets::to_pcr_dataset(&ds, 4);
    let store = Arc::new(ObjectStore::with_cache(DeviceProfile::ram(), 512 << 20));
    populate_store(&store, &pcr_ds);
    let db = Arc::new(pcr_ds.db.clone());

    let cfg = ParallelConfig {
        loader: LoaderConfig { threads: 3, decode: DecodeMode::Skip, ..LoaderConfig::at_group(4) },
        ..ParallelConfig::default()
    };
    let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);

    // Cold epoch: every record's prefix must be read from the device.
    let cold = loader.run_epoch(0);
    let after_cold = store.device_stats();
    assert!(after_cold.reads >= db.records.len() as u64, "every record hit the device");
    assert!(after_cold.bytes > 0, "device saw the wall-clock traffic");
    // Cache misses are page-granular, so the device transfers the
    // delivered bytes rounded up by at most one page per read.
    assert!(after_cold.bytes >= cold.bytes, "device transferred at least the delivered bytes");
    let page = pcr::storage::PAGE_SIZE;
    assert!(
        after_cold.bytes <= cold.bytes + after_cold.reads * page,
        "device bytes {} vs delivered {} + page slack",
        after_cold.bytes,
        cold.bytes
    );

    // Warm epoch: the same prefixes are resident, so the cache absorbs
    // them — the hit rate moves and the device transfers nothing new.
    let warm = loader.run_epoch(1);
    assert_eq!(warm.bytes, cold.bytes, "delivered bytes are unchanged");
    let after_warm = store.device_stats();
    assert_eq!(after_warm.bytes, after_cold.bytes, "warm epoch fully served from cache");
    assert!(
        store.cache_hit_rate() > 0.4,
        "cache hit rate {} must reflect wall-clock reads",
        store.cache_hit_rate()
    );
}

fn proptest_fixture() -> &'static (Arc<ObjectStore>, Arc<MetaDb>, Vec<u32>) {
    static FIXTURE: OnceLock<(Arc<ObjectStore>, Arc<MetaDb>, Vec<u32>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (store, db) = dermatology_fixture();
        let mut expected: Vec<u32> = db.records.iter().flat_map(|r| r.labels.clone()).collect();
        expected.sort_unstable();
        (store, db, expected)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a fixed seed, the epoch record order and the delivered label
    /// multiset are invariant across worker counts, I/O depths *and*
    /// fidelity-controller decisions: a controller that changes the scan
    /// group between (or during a sequence of) epochs changes how many
    /// bytes are read, never which records are visited, in what order,
    /// or what labels come out.
    #[test]
    fn epoch_order_and_multiset_invariant_across_workers_and_fidelity(
        workers in 1usize..5,
        seed in 0u64..1_000,
        groups in prop::collection::vec(1usize..=10, 1..4),
        deep in any::<bool>(),
    ) {
        let (store, db, expected) = proptest_fixture();
        let n = db.records.len();
        let base = LoaderConfig {
            threads: workers,
            seed,
            decode: DecodeMode::Skip,
            ..LoaderConfig::at_group(10)
        };
        let reference_order = ReadPlanner::from_config(&base).epoch_order(n, 0);
        for (epoch, &g) in groups.iter().enumerate() {
            // The schedule is a function of (seed, epoch) only — the
            // fidelity decision `g` and the worker count never touch it.
            let planner = ReadPlanner::from_config(&base).at_group(g);
            let order = planner.epoch_order(n, 0);
            prop_assert_eq!(&order, &reference_order);

            // And the delivered label multiset matches the dataset.
            // …nor does the I/O depth: one read at a time, or 8 racing.
            let cfg = ParallelConfig {
                loader: base.clone(),
                batch_size: 5,
                prefetch_records: if deep { 8 } else { 1 },
                ..ParallelConfig::default()
            };
            let loader = ParallelLoader::new(Arc::clone(store), Arc::clone(db), cfg);
            let stream = loader.spawn_epoch_at(epoch as u64, g);
            let mut labels: Vec<u32> = stream.batches.iter().flat_map(|b| b.labels).collect();
            stream.join();
            labels.sort_unstable();
            prop_assert_eq!(&labels, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Truncating a record at *every* scan-group boundary must leave a
    /// parseable prefix whose images all decode at that group — the
    /// invariant the parallel workers rely on when a partial read lands
    /// exactly on a boundary. Exercises the scratch-reuse decode path.
    #[test]
    fn truncation_at_every_group_boundary_decodes(
        n_images in 1usize..4,
        quality in 70u8..95,
        wh in (16u32..48, 16u32..48),
    ) {
        let (w, h) = wh;
        let mut builder = PcrRecordBuilder::with_default_groups();
        for i in 0..n_images {
            builder
                .add_image(
                    SampleMeta { label: i as u32, id: format!("p{i}") },
                    &pattern_image(i as u32 + 1, w, h),
                    quality,
                )
                .unwrap();
        }
        let bytes = builder.build().unwrap();
        let full = PcrRecord::parse(&bytes).unwrap();
        let mut scratch = RecordScratch::new();
        for g in 1..=full.num_groups() {
            let prefix = &bytes[..full.offset_for_group(g)];
            let view = PcrRecord::parse(prefix).unwrap();
            prop_assert_eq!(view.available_groups(), g);
            for i in 0..view.num_images() {
                let img = view.decode_image_with(i, g, &mut scratch).unwrap();
                prop_assert_eq!(img.width(), w);
                prop_assert_eq!(img.height(), h);
            }
        }
    }
}
