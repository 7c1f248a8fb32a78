//! Deterministic chaos harness: property tests that run whole loader
//! epochs under randomized — but seed-keyed, hence replayable — storage
//! fault plans and assert the recovery invariants end to end:
//!
//! - the epoch terminates and never panics, whatever the plan injects;
//! - sample accounting is exact: the delivered label multiset plus the
//!   quarantined label multiset equals the dataset's label multiset
//!   (nothing lost, nothing duplicated, nothing silently invented);
//! - degraded records are delivered at an intact shorter prefix: the
//!   delivered group never exceeds the requested group, and the
//!   `degraded` flag is set exactly when the ladder stepped down;
//! - under fault kinds that never corrupt delivered bytes, every
//!   delivered record's images decode **byte-identically** to a clean
//!   truncated-prefix decode of the same record at the same group —
//!   degradation is truncation, not approximation.
//!
//! Replay a failure by pinning `PROPTEST_SEED`; CI's chaos job raises
//! `PROPTEST_CASES` and pins the seed for reproducibility.

use pcr::core::{MetaDb, PcrDatasetBuilder, RecordScratch, SampleMeta};
use pcr::jpeg::ImageBuf;
use pcr::loader::{
    populate_store, DecodeMode, LoaderConfig, ParallelConfig, ParallelLoader, PcrLoader,
    ReadPlanner, RecordSource, RetryPolicy,
};
use pcr::storage::{DeviceProfile, FaultPlan, ObjectStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

const NUM_RECORDS: usize = 10;
const NUM_GROUPS: usize = 10;

/// Shared fixture: building the dataset JPEG-encodes every image, so do
/// it once and give every case its own store populated from it.
fn dataset() -> &'static pcr::core::PcrDataset {
    static DS: OnceLock<pcr::core::PcrDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut b = PcrDatasetBuilder::new(2, NUM_GROUPS).with_name_prefix("chaos");
        for i in 0..NUM_RECORDS {
            let mut data = Vec::new();
            for y in 0..24u32 {
                for x in 0..24u32 {
                    data.push(((x * 5 + y * 11 + i as u32 * 13) % 256) as u8);
                    data.push(((x * 2 + y) % 256) as u8);
                    data.push(((x + y * 3) % 256) as u8);
                }
            }
            let img = ImageBuf::from_raw(24, 24, 3, data).unwrap();
            b.add_image(SampleMeta { label: (i % 4) as u32, id: format!("c{i}") }, &img, 85)
                .unwrap();
        }
        b.finish().unwrap()
    })
}

fn faulted_store(plan: FaultPlan) -> ObjectStore {
    let store = ObjectStore::new(DeviceProfile::ram());
    populate_store(&store, dataset());
    store.set_fault_plan(Some(plan));
    store
}

fn expected_labels(db: &MetaDb) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for idx in 0..db.num_records() {
        for &l in db.labels(idx) {
            *m.entry(l).or_insert(0) += 1;
        }
    }
    m
}

fn add_labels(m: &mut BTreeMap<u32, u64>, labels: &[u32]) {
    for &l in labels {
        *m.entry(l).or_insert(0) += 1;
    }
}

/// A fault plan over the full injection surface — including bit flips
/// and corrupt ranges, which can destroy records outright.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (any::<u64>(), 0.0f64..0.4, 1u32..3),
        (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.3),
        (0.0f64..0.3, 0.0f64..0.2),
    )
        .prop_map(|((seed, transient, repeats), (torn, corrupt, bit_flip), (latency, timeout))| {
            FaultPlan {
                seed,
                transient,
                transient_repeats: repeats,
                torn,
                corrupt,
                bit_flip,
                latency,
                timeout,
                ..FaultPlan::default()
            }
        })
}

/// A plan restricted to fault kinds that never alter delivered bytes
/// (errors and latency only): every delivered read is byte-clean, so
/// decoded images must match a clean truncated-prefix decode exactly.
fn arb_clean_bytes_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.0f64..0.5, 1u32..3, 0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.3).prop_map(
        |(seed, transient, repeats, torn, latency, timeout)| FaultPlan {
            seed,
            transient,
            transient_repeats: repeats,
            torn,
            latency,
            timeout,
            ..FaultPlan::default()
        },
    )
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_backoff_s: 1e-4,
        max_backoff_s: 1e-2,
        epoch_retry_budget_s: 60.0,
        ..RetryPolicy::default()
    }
}

/// The two I/O depths the wall-clock cases run at: reads strictly one at
/// a time, and the default window of 8 racing fetchers.
fn prefetch_depth(deep: bool) -> usize {
    if deep {
        8
    } else {
        1
    }
}

/// One wall-clock epoch with a single decode worker — so delivery order
/// is the epoch order — as `(labels, pixels)` per image, with the
/// loader's statistics.
fn wall_epoch_in_order(
    store: Arc<ObjectStore>,
    loader_cfg: LoaderConfig,
    prefetch_records: usize,
) -> (Vec<(u32, ImageBuf)>, Arc<pcr::loader::ParallelStats>) {
    assert_eq!(loader_cfg.threads, 1, "one decode worker makes the order deterministic");
    let cfg = ParallelConfig {
        loader: loader_cfg,
        batch_size: 3,
        prefetch_records,
        ..ParallelConfig::default()
    };
    let stream = ParallelLoader::new(store, Arc::new(dataset().db.clone()), cfg).spawn_epoch(0);
    let delivered =
        stream.batches.iter().flat_map(|b| b.labels.into_iter().zip(b.images)).collect();
    let stats = Arc::clone(&stream.stats);
    stream.join();
    (delivered, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Virtual-time loader under the full fault surface: terminates,
    /// conserves the label multiset, and degrades monotonically.
    #[test]
    fn virtual_epoch_conserves_labels_under_faults(
        plan in arb_plan(),
        epoch in 0u64..4,
        group in 1usize..=NUM_GROUPS,
    ) {
        let ds = dataset();
        let store = faulted_store(plan);
        let cfg = LoaderConfig {
            threads: 3,
            scan_group: group,
            shuffle: true,
            seed: 1,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let (r, records) = PcrLoader::new(&store, &ds.db, cfg).run_epoch(epoch, 0.0);

        let mut delivered = BTreeMap::new();
        for rec in &records {
            prop_assert!(rec.delivered_group >= 1 && rec.delivered_group <= group);
            prop_assert_eq!(rec.degraded, rec.delivered_group < group);
            // Real mode: a delivered record actually decoded.
            prop_assert_eq!(rec.images.len(), rec.labels.len());
            add_labels(&mut delivered, &rec.labels);
        }
        prop_assert_eq!(
            records.len() + r.faults.quarantined_records as usize,
            ds.db.num_records()
        );
        for (&label, &count) in &r.faults.quarantined_labels {
            *delivered.entry(label).or_insert(0) += count;
        }
        prop_assert_eq!(delivered, expected_labels(&ds.db));
        // The fault report's totals agree with the per-record flags.
        let degraded = records.iter().filter(|x| x.degraded).count() as u64;
        prop_assert_eq!(r.faults.degraded_records, degraded);
    }

    /// Byte-exactness of degradation: with no byte-corrupting faults,
    /// every delivered record — degraded or not — decodes identically to
    /// a clean truncated-prefix decode at the delivered group.
    #[test]
    fn degraded_records_decode_byte_identically(
        plan in arb_clean_bytes_plan(),
        group in 2usize..=NUM_GROUPS,
    ) {
        let ds = dataset();
        let store = faulted_store(plan);
        let clean = ObjectStore::new(DeviceProfile::ram());
        populate_store(&clean, ds);
        let cfg = LoaderConfig {
            threads: 2,
            scan_group: group,
            shuffle: false,
            seed: 0,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let (r, records) = PcrLoader::new(&store, &ds.db, cfg).run_epoch(0, 0.0);
        // Deterministic per-site faults (e.g. a timeout keyed to the
        // group-1 plan) can still exhaust the whole ladder, so records
        // may quarantine — but the accounting must reconcile exactly.
        prop_assert_eq!(
            records.len() + r.faults.quarantined_records as usize,
            ds.db.num_records()
        );

        let mut scratch = RecordScratch::new();
        for rec in &records {
            let plan = ds.db.plan(rec.record, rec.delivered_group);
            let clean_read = clean
                .read(pcr::storage::Clock::Virtual(0.0), plan.name, plan.offset, plan.len)
                .expect("clean store read");
            let clean_images = ds
                .db
                .decode_real(rec.record, &clean_read.data, rec.delivered_group, &mut scratch)
                .expect("clean prefix decodes");
            prop_assert_eq!(&rec.images, &clean_images, "record {}", rec.record);
        }
    }

    /// Wall-clock parallel loader under the full fault surface: the
    /// batch stream terminates and delivers exactly the non-quarantined
    /// labels; the fault report reconciles the rest.
    #[test]
    fn wall_clock_epoch_conserves_labels_under_faults(
        plan in arb_plan(),
        epoch in 0u64..3,
        group in 1usize..=NUM_GROUPS,
        deep in any::<bool>(),
    ) {
        let ds = dataset();
        let store = Arc::new(faulted_store(plan));
        let db = Arc::new(ds.db.clone());
        let cfg = ParallelConfig {
            loader: LoaderConfig {
                threads: 3,
                scan_group: group,
                shuffle: true,
                seed: 2,
                decode: DecodeMode::Real,
                retry: retry_policy(),
            },
            batch_size: 4,
            prefetch_records: prefetch_depth(deep),
            ..ParallelConfig::default()
        };
        let loader = ParallelLoader::new(Arc::clone(&store), db, cfg);
        let stream = loader.spawn_epoch_at(epoch, group);
        let mut delivered = BTreeMap::new();
        for b in stream.batches.iter() {
            prop_assert_eq!(b.images.len(), b.labels.len());
            add_labels(&mut delivered, &b.labels);
        }
        let stats = Arc::clone(&stream.stats);
        stream.join();
        let faults = stats.fault_report();
        for (&label, &count) in &faults.quarantined_labels {
            *delivered.entry(label).or_insert(0) += count;
        }
        prop_assert_eq!(delivered, expected_labels(&ds.db));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The wall-clock face of byte-exact degradation, and of cross-loader
    /// equivalence: faults are a function of (plan, site, attempt), so
    /// the wall loader — fetching ahead, resuming ladders across its two
    /// stages — must quarantine the records the virtual loader does and
    /// deliver every other record with the pixels the virtual loader
    /// decoded (which the case above pins to a clean prefix decode at
    /// the delivered group), in epoch order, at either I/O depth.
    #[test]
    fn wall_clock_degraded_records_decode_byte_identically(
        plan in arb_clean_bytes_plan(),
        group in 2usize..=NUM_GROUPS,
        deep in any::<bool>(),
    ) {
        let ds = dataset();
        let cfg = LoaderConfig {
            threads: 1,
            scan_group: group,
            shuffle: true,
            seed: 4,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let oracle_store = faulted_store(plan.clone());
        let (oracle, records) =
            PcrLoader::new(&oracle_store, &ds.db, cfg.clone()).run_epoch(0, 0.0);
        let mut by_record: BTreeMap<usize, &pcr::loader::LoadedRecord> =
            records.iter().map(|r| (r.record, r)).collect();

        let (delivered, stats) =
            wall_epoch_in_order(Arc::new(faulted_store(plan)), cfg.clone(), prefetch_depth(deep));
        // One decode worker merges each record's faults in epoch order, so
        // the two clocks' reports agree to the last bit of backoff.
        prop_assert_eq!(stats.fault_report(), oracle.faults);

        let mut delivered = delivered.into_iter();
        for idx in ReadPlanner::from_config(&cfg).epoch_iter(ds.db.num_records(), 0) {
            let Some(expected) = by_record.remove(&idx) else {
                continue; // quarantined by both loaders
            };
            for (label, image) in expected.labels.iter().zip(&expected.images) {
                let (got_label, got_image) = delivered.next().expect("record delivered");
                prop_assert_eq!(got_label, *label, "record {}", idx);
                prop_assert_eq!(&got_image, image, "record {}", idx);
            }
        }
        prop_assert!(delivered.next().is_none(), "nothing beyond the oracle's records");
    }
}

/// A quiet plan must be a no-op for the wall-clock loader too: the same
/// images in the same order, the same bytes, a clean fault report — at
/// either I/O depth.
#[test]
fn wall_clock_quiet_plan_epoch_is_identical_to_no_plan() {
    let cfg = LoaderConfig {
        threads: 1,
        scan_group: 5,
        shuffle: true,
        seed: 3,
        decode: DecodeMode::Real,
        retry: RetryPolicy::default(),
    };
    for depth in [1, 8] {
        let bare = Arc::new(ObjectStore::new(DeviceProfile::ram()));
        populate_store(&bare, dataset());
        let (a, a_stats) = wall_epoch_in_order(bare, cfg.clone(), depth);
        let (b, b_stats) =
            wall_epoch_in_order(Arc::new(faulted_store(FaultPlan::quiet(99))), cfg.clone(), depth);
        assert_eq!(a.len() as u64, expected_labels(&dataset().db).values().sum::<u64>());
        assert_eq!(a, b, "depth {depth}");
        let bytes = |s: &pcr::loader::ParallelStats| {
            s.bytes_read.load(std::sync::atomic::Ordering::Relaxed)
        };
        assert_eq!(bytes(&a_stats), bytes(&b_stats), "depth {depth}");
        assert!(b_stats.fault_report().is_clean());
    }
}

/// A quiet plan must be a no-op: the epoch report and timeline match a
/// run with no plan installed, field for field — the zero-fault fast path
/// really is untouched.
#[test]
fn quiet_plan_epoch_is_identical_to_no_plan() {
    let ds = dataset();
    // Skip decode: Real mode charges *measured* decode time into the
    // virtual timeline, which legitimately differs run to run. Skip is
    // fully modeled, so the timelines must match bit for bit.
    let cfg = LoaderConfig {
        threads: 2,
        scan_group: 5,
        shuffle: true,
        seed: 3,
        decode: DecodeMode::Skip,
        retry: RetryPolicy::default(),
    };
    let bare = ObjectStore::new(DeviceProfile::ram());
    populate_store(&bare, ds);
    let (a, a_records) = PcrLoader::new(&bare, &ds.db, cfg.clone()).run_epoch(1, 0.0);

    let quiet = ObjectStore::new(DeviceProfile::ram());
    populate_store(&quiet, ds);
    quiet.set_fault_plan(Some(FaultPlan::quiet(99)));
    let (b, b_records) = PcrLoader::new(&quiet, &ds.db, cfg).run_epoch(1, 0.0);

    assert_eq!(a, b, "the whole report, bottleneck verdict and shares included");
    assert!(b.faults.is_clean());
    assert_eq!(
        a_records.iter().map(|r| (r.seq, r.record, r.ready.to_bits())).collect::<Vec<_>>(),
        b_records.iter().map(|r| (r.seq, r.record, r.ready.to_bits())).collect::<Vec<_>>(),
    );
}
