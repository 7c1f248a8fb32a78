//! Deterministic chaos harness: property tests that run whole loader
//! epochs under randomized — but seed-keyed, hence replayable — storage
//! fault plans and assert the recovery invariants end to end:
//!
//! - the epoch terminates and never panics, whatever the plan injects;
//! - sample accounting is exact: the delivered label multiset plus the
//!   quarantined label multiset equals the dataset's label multiset
//!   (nothing lost, nothing duplicated, nothing silently invented);
//! - at any loader thread count, records arrive in epoch order, each
//!   one whole, and skip exactly the quarantined ones — one thread and
//!   three deliver the same images, bytes and fault report;
//! - under fault kinds that never corrupt delivered bytes, every
//!   delivered record's images decode **byte-identically** to a clean
//!   truncated-prefix decode of the same record at a group no higher
//!   than the requested one — degradation is truncation, not
//!   approximation — and every record delivered below its requested
//!   group is counted degraded;
//! - faults are a function of (plan, site, attempt), so the same plan
//!   run twice — at either I/O depth — delivers the same pixels and the
//!   same fault report, to the bit.
//!
//! Replay a failure by pinning `PROPTEST_SEED`; CI's chaos job raises
//! `PROPTEST_CASES` and pins the seed for reproducibility.

use pcr::core::{MetaDb, PcrDatasetBuilder, PcrRecord, SampleMeta};
use pcr::jpeg::ImageBuf;
use pcr::loader::{
    populate_store, DecodeMode, FaultReport, LoaderConfig, ParallelConfig, ParallelLoader,
    ReadPlanner, RecordSource, RetryPolicy,
};
use pcr::sim::model_epoch;
use pcr::storage::{Clock, DeviceProfile, FaultPlan, ObjectStore};
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

/// One wall-clock epoch as `(label, pixels)` per image, in delivery
/// order, with the loader's statistics. The epoch runs twice, each on a
/// fresh store from `store`: with one loader thread and with three, which
/// must deliver the same images in the same order, the same bytes and the
/// same fault report.
fn wall_epoch_in_order(
    store: impl Fn() -> ObjectStore,
    loader_cfg: LoaderConfig,
    prefetch_records: usize,
) -> (Vec<(u32, ImageBuf)>, Arc<pcr::loader::ParallelStats>) {
    let run = |threads: usize| {
        let cfg = ParallelConfig {
            loader: LoaderConfig { threads, ..loader_cfg.clone() },
            batch_size: 3,
            prefetch_records,
            ..ParallelConfig::default()
        };
        let loader = ParallelLoader::new(Arc::new(store()), Arc::new(dataset().db.clone()), cfg);
        let stream = loader.spawn_epoch(0);
        let delivered: Vec<(u32, ImageBuf)> =
            stream.batches.iter().flat_map(|b| b.labels.into_iter().zip(b.images)).collect();
        let stats = Arc::clone(&stream.stats);
        stream.join();
        (delivered, stats)
    };
    let (one, one_stats) = run(1);
    let (three, three_stats) = run(3);
    assert!(one == three, "one thread and three deliver the same images in the same order");
    assert_eq!(one_stats.fault_report(), three_stats.fault_report());
    let bytes = |s: &pcr::loader::ParallelStats| {
        s.bytes_read.load(std::sync::atomic::Ordering::Relaxed)
    };
    assert_eq!(bytes(&one_stats), bytes(&three_stats));
    (one, one_stats)
}

/// A delivered stream split into records: epoch order, minus the
/// records `faults` quarantined, each taking as many images as it has
/// labels — and carrying exactly those labels, in order.
fn records_in_order(
    delivered: Vec<(u32, ImageBuf)>,
    cfg: &LoaderConfig,
    epoch: u64,
    faults: &FaultReport,
) -> Vec<(usize, Vec<ImageBuf>)> {
    let db = &dataset().db;
    let quarantined: Vec<usize> = faults.quarantine.iter().map(|q| q.record).collect();
    let mut stream = delivered.into_iter();
    let mut records = Vec::new();
    for idx in ReadPlanner::from_config(cfg).epoch_iter(db.num_records(), epoch) {
        if quarantined.contains(&idx) {
            continue;
        }
        let images = db
            .labels(idx)
            .iter()
            .map(|&label| {
                let (got, image) = stream.next().expect("record delivered");
                assert_eq!(got, label, "record {idx}");
                image
            })
            .collect();
        records.push((idx, images));
    }
    assert!(stream.next().is_none(), "nothing beyond the non-quarantined records");
    records
}

/// Record `idx` decoded from a clean store's prefix at `group`, clamped
/// to the groups the prefix holds.
fn clean_decode(clean: &ObjectStore, idx: usize, group: usize) -> Vec<ImageBuf> {
    let plan = dataset().db.plan(idx, group);
    let read =
        clean.read(Clock::Virtual(0.0), plan.name, plan.offset, plan.len).expect("clean read");
    let rec = PcrRecord::parse(&read.data).expect("clean prefix parses");
    let g = rec.available_groups().min(group).max(1);
    (0..rec.num_images())
        .map(|i| rec.decode_image(i, g).expect("clean prefix decodes"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One loader thread under the full fault surface: terminates,
    /// delivers whole records in epoch order, and conserves the label
    /// multiset.
    #[test]
    fn one_worker_epoch_conserves_labels_under_faults(
        plan in arb_plan(),
        epoch in 0u64..4,
        group in 1usize..=NUM_GROUPS,
        deep in any::<bool>(),
    ) {
        let ds = dataset();
        let cfg = LoaderConfig {
            threads: 1,
            scan_group: group,
            shuffle: true,
            seed: 1,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let par = ParallelConfig {
            loader: cfg.clone(),
            batch_size: 3,
            prefetch_records: prefetch_depth(deep),
            ..ParallelConfig::default()
        };
        let loader =
            ParallelLoader::new(Arc::new(faulted_store(plan)), Arc::new(ds.db.clone()), par);
        let (delivered, report) = loader.spawn_epoch(epoch).fold(|batches| {
            batches.flat_map(|b| b.labels.into_iter().zip(b.images)).collect::<Vec<_>>()
        });
        prop_assert_eq!(report.images, delivered.len());
        let faults = report.faults;
        let records = records_in_order(delivered, &cfg, epoch, &faults);
        prop_assert_eq!(records.len() + faults.quarantined_records as usize, ds.db.num_records());
        prop_assert!(faults.degraded_records as usize <= records.len());
        let mut labels = faults.quarantined_labels.clone();
        for (idx, _) in &records {
            add_labels(&mut labels, ds.db.labels(*idx));
        }
        prop_assert_eq!(labels, expected_labels(&ds.db));
    }

    /// Byte-exactness of degradation, at one loader thread and at three:
    /// with no byte-corrupting faults, every delivered record — degraded or not —
    /// decodes identically to a clean truncated-prefix decode at a group
    /// no higher than the requested one, and one that does not match the
    /// requested group's decode was counted degraded.
    #[test]
    fn degraded_records_decode_byte_identically(
        plan in arb_clean_bytes_plan(),
        group in 2usize..=NUM_GROUPS,
        deep in any::<bool>(),
    ) {
        let ds = dataset();
        let clean = ObjectStore::new(DeviceProfile::ram());
        populate_store(&clean, ds);
        let cfg = LoaderConfig {
            threads: 1,
            scan_group: group,
            shuffle: true,
            seed: 4,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let (delivered, stats) =
            wall_epoch_in_order(|| faulted_store(plan.clone()), cfg.clone(), prefetch_depth(deep));
        let faults = stats.fault_report();
        // Deterministic per-site faults (e.g. a timeout keyed to the
        // group-1 plan) can still exhaust the whole ladder, so records
        // may quarantine — but the accounting must reconcile exactly.
        let records = records_in_order(delivered, &cfg, 0, &faults);
        prop_assert_eq!(records.len() + faults.quarantined_records as usize, ds.db.num_records());
        let mut below_requested = 0u64;
        for (idx, images) in &records {
            let matched = (1..=group).rev().find(|&g| clean_decode(&clean, *idx, g) == *images);
            prop_assert!(matched.is_some(), "record {} matches no clean prefix", idx);
            below_requested += u64::from(matched != Some(group));
        }
        prop_assert!(below_requested <= faults.degraded_records, "{:?}", faults);
    }

    /// Replay determinism of degradation on the wall-clock loader: the
    /// same clean-bytes plan run once with reads strictly one at a time
    /// and once at the drawn I/O depth delivers the same labels and
    /// pixels, record by record, and the same fault report to the last
    /// bit of backoff — the assembler merges each record's faults in
    /// epoch order.
    #[test]
    fn wall_clock_degraded_records_decode_byte_identically(
        plan in arb_clean_bytes_plan(),
        group in 2usize..=NUM_GROUPS,
        deep in any::<bool>(),
    ) {
        let cfg = LoaderConfig {
            threads: 1,
            scan_group: group,
            shuffle: true,
            seed: 4,
            decode: DecodeMode::Real,
            retry: retry_policy(),
        };
        let run = |depth: usize| {
            let (delivered, stats) =
                wall_epoch_in_order(|| faulted_store(plan.clone()), cfg.clone(), depth);
            (delivered, stats.fault_report())
        };
        let (oracle, oracle_faults) = run(1);
        let (delivered, faults) = run(prefetch_depth(deep));
        prop_assert_eq!(&faults, &oracle_faults);

        let expected = records_in_order(oracle, &cfg, 0, &oracle_faults);
        let got = records_in_order(delivered, &cfg, 0, &faults);
        prop_assert_eq!(got.len(), expected.len());
        for ((idx, images), (want_idx, want)) in got.iter().zip(&expected) {
            prop_assert_eq!(idx, want_idx);
            prop_assert!(images == want, "record {} delivered other pixels on the rerun", idx);
        }
    }

    /// Wall-clock parallel loader under the full fault surface: the
    /// batch stream terminates and delivers exactly the non-quarantined
    /// records' labels, in epoch order; the fault report reconciles the
    /// rest.
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
        let planner = ReadPlanner::from_config(&cfg.loader);
        let loader = ParallelLoader::new(Arc::clone(&store), db, cfg);
        let stream = loader.spawn_epoch_at(epoch, group);
        let mut delivered = BTreeMap::new();
        let mut sequence = Vec::new();
        for b in stream.batches.iter() {
            prop_assert_eq!(b.images.len(), b.labels.len());
            add_labels(&mut delivered, &b.labels);
            sequence.extend(b.labels);
        }
        let stats = Arc::clone(&stream.stats);
        stream.join();
        let faults = stats.fault_report();
        let quarantined: Vec<usize> = faults.quarantine.iter().map(|q| q.record).collect();
        let in_order: Vec<u32> = planner
            .epoch_iter(ds.db.num_records(), epoch)
            .filter(|idx| !quarantined.contains(idx))
            .flat_map(|idx| ds.db.labels(idx).to_vec())
            .collect();
        prop_assert_eq!(sequence, in_order);
        for (&label, &count) in &faults.quarantined_labels {
            *delivered.entry(label).or_insert(0) += count;
        }
        prop_assert_eq!(delivered, expected_labels(&ds.db));
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
        let bare = || {
            let store = ObjectStore::new(DeviceProfile::ram());
            populate_store(&store, dataset());
            store
        };
        let (a, a_stats) = wall_epoch_in_order(bare, cfg.clone(), depth);
        let (b, b_stats) =
            wall_epoch_in_order(|| faulted_store(FaultPlan::quiet(99)), cfg.clone(), depth);
        assert_eq!(a.len() as u64, expected_labels(&dataset().db).values().sum::<u64>());
        assert_eq!(a, b, "depth {depth}");
        let bytes = |s: &pcr::loader::ParallelStats| {
            s.bytes_read.load(std::sync::atomic::Ordering::Relaxed)
        };
        assert_eq!(bytes(&a_stats), bytes(&b_stats), "depth {depth}");
        assert!(b_stats.fault_report().is_clean());
    }
}

/// A quiet plan must be a no-op for the loader model too: its timeline
/// matches a run with no plan installed, to the bit — the zero-fault fast
/// path of the store really is untouched.
#[test]
fn quiet_plan_epoch_is_identical_to_no_plan() {
    let ds = dataset();
    let planner = ReadPlanner { scan_group: 5, shuffle: true, seed: 3 };
    let bare = ObjectStore::new(DeviceProfile::ram());
    populate_store(&bare, ds);
    let a = model_epoch(&bare, &ds.db, &planner, 2, 0.0, 1, 0.0).expect("clean store");

    let quiet = faulted_store(FaultPlan::quiet(99));
    let b = model_epoch(&quiet, &ds.db, &planner, 2, 0.0, 1, 0.0).expect("quiet plan");
    assert_eq!(a, b, "every record's issue and ready time, the bytes and the seconds");
    assert_eq!(a.images(), ds.db.num_images());
}
