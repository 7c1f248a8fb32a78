//! The PCR data loader: a closed system of prefetch workers reading record
//! prefixes from simulated storage, optionally decoding them, and emitting
//! a time-ordered stream of loaded records (paper Appendix A.1).
//!
//! Timing is virtual (driven by the storage model) so experiments are
//! deterministic; decode cost is either modeled or measured from real
//! `pcr-jpeg` work and charged to the worker's virtual timeline. Workers
//! are greedy: each grabs the next record as soon as it finishes its
//! previous one — exactly the "loader operates as a closed system, starting
//! the next piece of work after the last is finished" model.
//!
//! For the *measured* (real threads, wall-clock) counterpart of this
//! loader see [`crate::parallel`]; both share [`LoaderConfig`] and the
//! per-epoch record order.

use crate::config::LoaderConfig;
use crate::report::{share, Bottleneck, EpochReport};
use crate::retry::{FaultReport, Ladder, RetryBudget, Rung, Timeline};
use crate::source::{ReadPlanner, RecordSource};
use pcr_core::{MetaDb, RecordScratch};
use pcr_jpeg::ImageBuf;
use pcr_storage::ObjectStore;

/// Timing and contents of one loaded record.
#[derive(Debug, Clone)]
pub struct LoadedRecord {
    /// Index into the epoch's record order.
    pub seq: usize,
    /// Record index in the metadata DB.
    pub record: usize,
    /// Worker that loaded it.
    pub worker: usize,
    /// Virtual time the read was issued.
    pub issued: f64,
    /// Virtual time the read completed.
    pub read_finish: f64,
    /// Virtual time decode completed (== ready time).
    pub ready: f64,
    /// Compressed bytes read.
    pub bytes: u64,
    /// Labels of the record's images.
    pub labels: Vec<u32>,
    /// Decoded images (empty unless
    /// [`DecodeMode::Real`](crate::DecodeMode::Real)).
    pub images: Vec<ImageBuf>,
    /// Scan group actually delivered — equal to the planner's group
    /// unless faults degraded this record to a shorter intact prefix.
    pub delivered_group: usize,
    /// True when faults degraded this record below the requested group.
    pub degraded: bool,
}

/// The PCR loader over an object store populated with `.pcr` records.
///
/// Generic over its [`RecordSource`]: the default `MetaDb` plans
/// whole-object prefix reads over records stored one object each
/// ([`populate_store`]); a `ShardedSource` (see [`crate::sharded`]) plans
/// ranged reads into packed shard files. Construct the former with
/// [`PcrLoader::new`], anything else with [`PcrLoader::over`].
#[derive(Debug)]
pub struct PcrLoader<'a, S: RecordSource + ?Sized = MetaDb> {
    store: &'a ObjectStore,
    source: &'a S,
    config: LoaderConfig,
}

impl<'a> PcrLoader<'a, MetaDb> {
    /// Creates a loader over a metadata DB. Records must exist in `store`
    /// under the names in `db` (use [`populate_store`]).
    pub fn new(store: &'a ObjectStore, db: &'a MetaDb, config: LoaderConfig) -> Self {
        Self::over(store, db, config)
    }
}

impl<'a, S: RecordSource + ?Sized> PcrLoader<'a, S> {
    /// Creates a loader over any [`RecordSource`] — e.g. a
    /// `ShardedSource` whose plans point into packed shard objects.
    pub fn over(store: &'a ObjectStore, source: &'a S, config: LoaderConfig) -> Self {
        Self { store, source, config }
    }

    /// Streams one epoch starting at virtual time `start`: its report,
    /// and every delivered record with its timeline.
    ///
    /// This is the virtual-time epoch engine every modeled run goes
    /// through: a greedy closed system of `config.threads` workers over
    /// any [`RecordSource`] — PCR records, packed shards, or
    /// baseline-format objects (`[ObjectMeta]`, whole-object reads) —
    /// reading through the clocked store path
    /// ([`Clock::Virtual`](pcr_storage::Clock::Virtual)) and charging
    /// decode cost per [`DecodeMode`](crate::DecodeMode), so the
    /// worker/timing model exists in exactly one place and format
    /// comparisons share it. Each worker is its own I/O lane and decode
    /// lane: it waits for bytes from `issued` to `read_finish` and decodes
    /// from `read_finish` to `ready`.
    ///
    /// The records come sorted by *ready time* (the order the training
    /// loop would receive them), which generally differs from the shuffled
    /// issue order because small records finish before large ones. Each
    /// keeps its [`LoadedRecord::seq`] position in the issue order, so a
    /// consumer that needs the schedule itself (to compare shuffles across
    /// seeds, or to align with the wall-clock loader's delivery) sorts on
    /// `seq` — see `shuffle_changes_order_deterministically` in this
    /// module's tests.
    pub fn run_epoch(&self, epoch: u64, start: f64) -> (EpochReport, Vec<LoadedRecord>) {
        let Self { store, source, config } = self;
        let planner = ReadPlanner::from_config(config);
        // Streaming order: the Feistel bijection yields indices one at a
        // time, so epoch start allocates nothing proportional to n.
        let order = planner.epoch_iter(source.num_records(), epoch);
        let mut scratch = RecordScratch::new();
        let threads = config.threads.max(1);
        let budget = RetryBudget::new(config.retry.epoch_retry_budget_s);
        let mut faults = FaultReport::default();
        let (mut waited, mut decode_seconds) = (0.0f64, 0.0f64);
        // Each worker's virtual "free at" time.
        let mut free_at = vec![start; threads];
        let mut out: Vec<LoadedRecord> = Vec::with_capacity(order.num_records());
        for (seq, rec_idx) in order.enumerate() {
            // Greedy: the earliest-free worker takes the next record.
            let worker = (0..threads)
                .min_by(|&a, &b| free_at[a].partial_cmp(&free_at[b]).expect("no NaN"))
                .expect("threads >= 1");
            let issued = free_at[worker];
            // The record's fidelity ladder, fetched and delivered in one
            // place (virtual: backoff is charged by issuing later).
            let mut fetch = |l: &mut Ladder| {
                let timeline = Timeline::Virtual { start: issued };
                l.fetch(store, *source, timeline, &config.retry, &budget, &mut |_| {})
            };
            let mut ladder = Ladder::new(rec_idx, planner.scan_group);
            let first = fetch(&mut ladder);
            let step = ladder.deliver(first, &mut fetch, *source, config.decode, &mut scratch);
            // Decode cost accumulates across ladder attempts: failed
            // decodes are charged too, as the wall-clock workers spend them.
            decode_seconds += step.decode_s;
            match step.rung {
                Some(Rung { read, group }) => {
                    waited += read.finish - issued;
                    let ready = read.finish + step.decode_s;
                    free_at[worker] = ready;
                    out.push(LoadedRecord {
                        seq,
                        record: rec_idx,
                        worker,
                        issued,
                        read_finish: read.finish,
                        ready,
                        bytes: read.data.len() as u64,
                        labels: source.labels(rec_idx).to_vec(),
                        images: step.images,
                        delivered_group: group,
                        degraded: step.faults.degraded_records > 0,
                    });
                }
                None => {
                    // The worker spent its backoff and any decode attempts
                    // but delivers nothing; the record's labels are
                    // accounted in the quarantine multiset.
                    waited += step.faults.backoff_s;
                    free_at[worker] = issued + step.faults.backoff_s + step.decode_s;
                }
            }
            faults.merge(step.faults);
        }
        out.sort_by(|a, b| a.ready.partial_cmp(&b.ready).expect("no NaN"));
        let seconds = out.last().map_or(0.0, |r| r.ready - start);
        let report = EpochReport {
            images: out.iter().map(|r| r.labels.len()).sum(),
            bytes: out.iter().map(|r| r.bytes).sum(),
            seconds,
            decode_seconds,
            io_wait_share: share(waited, threads, seconds),
            decode_busy_share: share(decode_seconds, threads, seconds),
            // Nothing downstream of a virtual worker can block it.
            bottleneck: Bottleneck::of(waited, decode_seconds, 0.0),
            faults,
        };
        (report, out)
    }
}

/// Loads every record of a PCR dataset into an object store under its DB
/// name.
pub fn populate_store(store: &ObjectStore, dataset: &pcr_core::PcrDataset) {
    for (meta, bytes) in dataset.db.records.iter().zip(&dataset.records) {
        store.put(&meta.name, bytes.clone());
    }
}

/// The dataset this crate's unit tests load: `n` patterned 32x32 images,
/// `images_per_record` to a record, 10 scan groups, labeled by `label`.
#[cfg(test)]
pub(crate) fn test_dataset(
    n: usize,
    images_per_record: usize,
    label: impl Fn(usize) -> u32,
) -> pcr_core::PcrDataset {
    let mut b = pcr_core::PcrDatasetBuilder::new(images_per_record, 10).with_name_prefix("t");
    for i in 0..n {
        let mut data = Vec::new();
        for y in 0..32u32 {
            for x in 0..32u32 {
                data.push(((x * 3 + y * 7 + i as u32 * 5) % 256) as u8);
                data.push(((x + y) % 256) as u8);
                data.push((y % 256) as u8);
            }
        }
        let img = ImageBuf::from_raw(32, 32, 3, data).unwrap();
        b.add_image(pcr_core::SampleMeta { label: label(i), id: format!("s{i}") }, &img, 85).unwrap();
    }
    b.finish().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecodeMode;
    use pcr_core::SampleMeta;
    use pcr_jpeg::ImageBuf;
    use pcr_storage::DeviceProfile;

    fn setup(n: usize, profile: DeviceProfile) -> (ObjectStore, pcr_core::MetaDb) {
        let ds = test_dataset(n, 4, |i| (i % 2) as u32);
        let store = ObjectStore::new(profile);
        populate_store(&store, &ds);
        (store, ds.db)
    }

    #[test]
    fn epoch_delivers_every_image_once() {
        let (store, db) = setup(12, DeviceProfile::ssd_sata());
        let loader = PcrLoader::new(&store, &db, LoaderConfig::at_group(10));
        let (r, records) = loader.run_epoch(0, 0.0);
        assert_eq!(r.images, 12);
        assert_eq!(records.len(), 3);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn lower_scan_groups_read_fewer_bytes_and_finish_sooner() {
        let (store, db) = setup(12, DeviceProfile::hdd_7200rpm());
        let (full, _) = PcrLoader::new(&store, &db, LoaderConfig::at_group(10)).run_epoch(0, 0.0);
        store.device().reset();
        let (low, _) = PcrLoader::new(&store, &db, LoaderConfig::at_group(1)).run_epoch(0, 0.0);
        assert!(low.bytes < full.bytes / 2, "{} vs {}", low.bytes, full.bytes);
        assert!(low.seconds < full.seconds);
        assert!(low.images_per_sec() > full.images_per_sec());
    }

    #[test]
    fn shuffle_changes_order_deterministically() {
        let (store, db) = setup(16, DeviceProfile::ram());
        let mk = |seed| {
            let cfg = LoaderConfig { seed, ..LoaderConfig::at_group(5) };
            let loader = PcrLoader::new(&store, &db, cfg);
            // Records are delivered in ready-time order, which tracks
            // record size rather than the shuffle; reconstruct the issue
            // order from `seq` to observe the shuffled schedule itself.
            let mut by_seq: Vec<(usize, usize)> = loader
                .run_epoch(0, 0.0)
                .1
                .iter()
                .map(|r| (r.seq, r.record))
                .collect();
            by_seq.sort_unstable();
            by_seq.into_iter().map(|(_, rec)| rec).collect::<Vec<_>>()
        };
        let a1 = mk(7);
        let a2 = mk(7);
        let b = mk(8);
        assert_eq!(a1, a2, "same seed, same order");
        assert_ne!(a1, b, "different seed, different order");
    }

    #[test]
    fn real_decode_produces_images() {
        let (store, db) = setup(4, DeviceProfile::ram());
        let cfg = LoaderConfig { decode: DecodeMode::Real, ..LoaderConfig::at_group(2) };
        let loader = PcrLoader::new(&store, &db, cfg);
        let (_, records) = loader.run_epoch(0, 0.0);
        let total: usize = records.iter().map(|rec| rec.images.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(records[0].images[0].width(), 32);
        // Real decode charges measured wall-clock time to the virtual
        // timeline; a coarse CI clock can measure zero, so the strict
        // inequality is opt-in (PCR_STRICT_TIMING=1).
        if std::env::var_os("PCR_STRICT_TIMING").is_some() {
            assert!(records[0].ready > records[0].read_finish);
        }
    }

    #[test]
    fn more_threads_increase_overlap_on_slow_decode() {
        let (store, db) = setup(16, DeviceProfile::ram());
        let run = |threads| {
            store.device().reset();
            let cfg = LoaderConfig {
                threads,
                decode: DecodeMode::Modeled { seconds_per_byte: 1e-6 },
                ..LoaderConfig::at_group(10)
            };
            PcrLoader::new(&store, &db, cfg).run_epoch(0, 0.0).0.seconds
        };
        let one = run(1);
        let eight = run(8);
        assert!(
            eight < one / 2.0,
            "8 threads ({eight:.4}s) should be much faster than 1 ({one:.4}s)"
        );
    }

    #[test]
    fn modeled_reports_repeat_exactly_and_name_the_stage_that_bound_them() {
        let (store, db) = setup(16, DeviceProfile::hdd_7200rpm());
        let run = |decode| {
            store.device().reset();
            let cfg = LoaderConfig { threads: 2, decode, ..LoaderConfig::at_group(10) };
            PcrLoader::new(&store, &db, cfg).run_epoch(0, 0.0).0
        };
        // Seeks and nothing else: the workers spend the epoch waiting.
        let skip = run(DecodeMode::Skip);
        assert_eq!(skip, run(DecodeMode::Skip), "a modeled epoch repeats to the bit");
        assert_eq!((skip.bottleneck, skip.decode_seconds), (Bottleneck::Storage, 0.0));
        assert!(skip.io_wait_share > 0.5, "{skip:?}");
        // A millisecond a byte dwarfs every seek.
        let slow = run(DecodeMode::Modeled { seconds_per_byte: 1e-3 });
        assert_eq!(slow, run(DecodeMode::Modeled { seconds_per_byte: 1e-3 }));
        assert_eq!(slow.bottleneck, Bottleneck::Decode);
        assert!(slow.decode_busy_share > 0.5 && slow.io_wait_share < 0.1, "{slow:?}");
        assert!((slow.decode_seconds - slow.bytes as f64 * 1e-3).abs() < 1e-9);
    }

    #[test]
    fn record_layout_beats_file_per_image_on_hdd() {
        use crate::source::ObjectMeta;
        use pcr_core::RecordFileBuilder;
        // Same 32 images stored both ways on an HDD, loaded as baseline
        // objects through the one engine; the record layout's sequential
        // access must win (paper Figure 1).
        let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
        let mut objects_fpi = Vec::new();
        let mut rb = RecordFileBuilder::new();
        for i in 0..32u32 {
            let pixels = (0..32 * 32 * 3u32).map(|p| ((p * 5 + i * 7) % 256) as u8).collect();
            let img = ImageBuf::from_raw(32, 32, 3, pixels).unwrap();
            let jpeg = pcr_jpeg::encode(&img, &pcr_jpeg::EncodeConfig::baseline(85)).unwrap();
            store.put(&format!("img-{i}"), jpeg.clone());
            objects_fpi.push(ObjectMeta { name: format!("img-{i}"), labels: vec![i % 2] });
            rb.add_jpeg(SampleMeta { label: i % 2, id: format!("i{i}") }, jpeg);
        }
        store.put("rec-0", rb.build().unwrap());
        let objects_rec =
            [ObjectMeta { name: "rec-0".into(), labels: (0..32).map(|i| i % 2).collect() }];
        let cfg = LoaderConfig { decode: DecodeMode::Skip, ..LoaderConfig::at_group(10) };

        let (fpi, _) = PcrLoader::over(&store, &objects_fpi[..], cfg.clone()).run_epoch(0, 0.0);
        store.device().reset();
        let (rec, _) = PcrLoader::over(&store, &objects_rec[..], cfg).run_epoch(0, 0.0);

        assert_eq!(fpi.images, 32);
        assert_eq!(rec.images, 32);
        assert!(
            rec.seconds < fpi.seconds / 4.0,
            "record {rec:.4?}s vs file-per-image {fpi:.4?}s",
            rec = rec.seconds,
            fpi = fpi.seconds
        );
    }

    #[test]
    fn file_per_image_issues_one_read_per_image() {
        use crate::source::ObjectMeta;
        let store = ObjectStore::new(DeviceProfile::ssd_sata());
        let mut objects = Vec::new();
        for i in 0..5u32 {
            store.put(&format!("f{i}"), vec![0u8; 1000]);
            objects.push(ObjectMeta { name: format!("f{i}"), labels: vec![0] });
        }
        let cfg = LoaderConfig { decode: DecodeMode::Skip, ..Default::default() };
        let (r, _) = PcrLoader::over(&store, &objects[..], cfg).run_epoch(0, 0.0);
        assert_eq!(store.device_stats().reads, 5);
        assert_eq!(r.bytes, 5000);
    }

    #[test]
    fn reads_are_sequential_prefix_reads() {
        let (store, db) = setup(8, DeviceProfile::hdd_7200rpm());
        let loader = PcrLoader::new(&store, &db, LoaderConfig::at_group(3));
        let _ = loader.run_epoch(0, 0.0);
        let stats = store.device_stats();
        // One read per record, each a single request (no per-scan seeks).
        assert_eq!(stats.reads, 2);
    }
}
