//! The paper's closed-system loader model (Appendix A.1–A.2) and its
//! coupling to the compute unit: [`model_epoch`] lays one epoch's reads
//! on a virtual timeline, and [`run_pipeline`] turns that timeline into
//! per-iteration data stalls (Figure 11) and achieved training rates
//! (Figure 9).

use pcr_loader::{ReadPlanner, RecordSource};
use pcr_storage::{Clock, ObjectStore, ReadError};

/// Modeled progressive-JPEG decode cost in seconds per compressed byte
/// (paper App. A.5: ~150 images/s per core on ~110 KiB ImageNet images).
pub const PROGRESSIVE_DECODE_S_PER_BYTE: f64 = 1.0 / (150.0 * 110.0 * 1024.0);

/// Modeled baseline-JPEG decode cost in seconds per compressed byte
/// (230 images/s per core: progressive costs the paper's measured
/// 40–50 % more).
pub const BASELINE_DECODE_S_PER_BYTE: f64 = 1.0 / (230.0 * 110.0 * 1024.0);

/// One record on a modeled loader timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledRecord {
    /// Virtual time its read was issued.
    pub issued: f64,
    /// Virtual time its images became available: read finished plus
    /// modeled decode.
    pub ready: f64,
    /// Images the record carries.
    pub images: usize,
}

/// One modeled loader epoch: every record's timeline, sorted by ready
/// time (the order a training loop would receive them), with the bytes
/// read and the seconds from the epoch's start to its last record.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeledEpoch {
    /// Per-record timelines, by ready time.
    pub records: Vec<ModeledRecord>,
    /// Compressed bytes read.
    pub bytes: u64,
    /// Seconds from the start to the last record's ready time.
    pub seconds: f64,
}

impl ModeledEpoch {
    /// Images delivered.
    pub fn images(&self) -> usize {
        self.records.iter().map(|r| r.images).sum()
    }

    /// Delivered throughput in images per virtual second.
    pub fn images_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.images() as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Models one loader epoch as the paper's closed system (App. A.1): `lanes`
/// greedy workers, each starting its next record as soon as it finishes
/// the last. Records are taken in `planner`'s order for `epoch`; the
/// earliest-free lane (the first, on ties) issues each one as a
/// [`Clock::Virtual`] read of its planned prefix at the lane's free time,
/// then spends `decode_s_per_byte` per byte read decoding it.
///
/// Nothing is decoded, retried or degraded: the model is for stores
/// without faults, and the first failed read is returned as the error.
/// On a store with no fault plan the result is a function of the store's
/// contents and state, the source and the arguments, so a rerun on a
/// reset store repeats it to the bit.
pub fn model_epoch<S: RecordSource + ?Sized>(
    store: &ObjectStore,
    source: &S,
    planner: &ReadPlanner,
    lanes: usize,
    decode_s_per_byte: f64,
    epoch: u64,
    start: f64,
) -> Result<ModeledEpoch, ReadError> {
    let mut free_at = vec![start; lanes.max(1)];
    let mut records = Vec::with_capacity(source.num_records());
    let mut bytes = 0u64;
    for idx in planner.epoch_iter(source.num_records(), epoch) {
        let lane = (0..free_at.len())
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
            .expect("at least one lane");
        let issued = free_at[lane];
        let plan = planner.plan(source, idx);
        let read = store.read(Clock::Virtual(issued), plan.name, plan.offset, plan.len)?;
        let ready = read.finish + read.data.len() as f64 * decode_s_per_byte;
        free_at[lane] = ready;
        bytes += read.data.len() as u64;
        records.push(ModeledRecord { issued, ready, images: source.labels(idx).len() });
    }
    records.sort_by(|a, b| a.ready.total_cmp(&b.ready));
    let seconds = records.last().map_or(0.0, |r| r.ready - start);
    Ok(ModeledEpoch { records, bytes, seconds })
}

/// The compute unit: an open system consuming minibatches at a fixed
/// maximum rate (model images/second, possibly aggregated over cluster
/// workers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeUnit {
    /// Maximum images per second the accelerator(s) can process.
    pub images_per_sec: f64,
    /// Minibatch size (images per parameter update).
    pub batch_size: usize,
}

impl ComputeUnit {
    /// Time to compute one minibatch.
    pub fn batch_time(&self) -> f64 {
        self.batch_size as f64 / self.images_per_sec
    }
}

/// One training iteration's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Iteration index.
    pub iter: usize,
    /// Virtual time the minibatch's data became available.
    pub data_ready: f64,
    /// Time spent blocked waiting for data (the Figure 11 y-axis).
    pub data_stall: f64,
    /// Virtual time the parameter update finished.
    pub compute_end: f64,
}

/// A full epoch's pipeline timing.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// Per-iteration timings.
    pub iterations: Vec<IterationTiming>,
    /// Epoch duration in virtual seconds (last compute end - start).
    pub duration: f64,
    /// Total stall time.
    pub total_stall: f64,
    /// Images consumed.
    pub images: usize,
}

impl PipelineTrace {
    /// Achieved images/second over the epoch.
    pub fn images_per_sec(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.images as f64 / self.duration
        }
    }

    /// Fraction of epoch time spent stalled on data.
    pub fn stall_fraction(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.total_stall / self.duration
        }
    }
}

/// Runs the compute unit over a modeled epoch's records (as
/// [`model_epoch`] returns them): images become available in
/// record-ready order; each iteration consumes `batch_size` images and
/// takes `batch_time`; an iteration whose data is not yet ready stalls
/// (paper: "parameter updates start in lockstep with the data fetches").
/// A `batch_size` of 0 counts as 1.
pub fn run_pipeline(records: &[ModeledRecord], compute: &ComputeUnit, start: f64) -> PipelineTrace {
    let compute = ComputeUnit { batch_size: compute.batch_size.max(1), ..*compute };
    // Expand record ready times into per-image availability (images within
    // a record become available when the record is ready).
    let avail: Vec<f64> =
        records.iter().flat_map(|rec| std::iter::repeat_n(rec.ready, rec.images)).collect();
    let bt = compute.batch_time();
    let mut iterations = Vec::new();
    let mut compute_free = start;
    let mut total_stall = 0.0;
    let mut i = 0usize;
    let mut iter = 0usize;
    while i < avail.len() {
        // The final batch may be partial; it costs proportional compute.
        let this_batch = compute.batch_size.min(avail.len() - i);
        let data_ready = avail[i + this_batch - 1];
        let begin = compute_free.max(data_ready);
        let stall = (data_ready - compute_free).max(0.0);
        total_stall += stall;
        let end = begin + bt * this_batch as f64 / compute.batch_size as f64;
        iterations.push(IterationTiming { iter, data_ready, data_stall: stall, compute_end: end });
        compute_free = end;
        i += this_batch;
        iter += 1;
    }
    let duration = compute_free - start;
    PipelineTrace { iterations, duration, total_stall, images: i }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_core::{MetaDb, PcrDatasetBuilder, RecordFileBuilder, SampleMeta};
    use pcr_jpeg::ImageBuf;
    use pcr_loader::{populate_store, ReadPlan};
    use pcr_storage::DeviceProfile;

    fn patterned(i: u32) -> ImageBuf {
        let pixels = (0..32 * 32 * 3u32).map(|p| ((p * 5 + i * 7) % 256) as u8).collect();
        ImageBuf::from_raw(32, 32, 3, pixels).unwrap()
    }

    /// `n` 32x32 images, 4 to a record, 10 scan groups, in a store on
    /// `profile`.
    fn setup(n: u32, profile: DeviceProfile) -> (ObjectStore, MetaDb) {
        let mut b = PcrDatasetBuilder::new(4, 10).with_name_prefix("m");
        for i in 0..n {
            b.add_image(SampleMeta { label: i % 2, id: format!("s{i}") }, &patterned(i), 85)
                .unwrap();
        }
        let ds = b.finish().unwrap();
        let store = ObjectStore::new(profile);
        populate_store(&store, &ds);
        (store, ds.db)
    }

    fn planner(scan_group: usize) -> ReadPlanner {
        ReadPlanner { scan_group, shuffle: true, seed: 0 }
    }

    /// One epoch on a freshly reset device.
    fn model(
        store: &ObjectStore,
        source: &(impl RecordSource + ?Sized),
        group: usize,
        lanes: usize,
        decode_s_per_byte: f64,
    ) -> ModeledEpoch {
        store.device().reset();
        model_epoch(store, source, &planner(group), lanes, decode_s_per_byte, 0, 0.0).unwrap()
    }

    #[test]
    fn modeled_costs_reflect_paper_overhead() {
        let overhead = PROGRESSIVE_DECODE_S_PER_BYTE / BASELINE_DECODE_S_PER_BYTE - 1.0;
        assert!(
            (0.4..=0.6).contains(&overhead),
            "progressive decode overhead {overhead:.2} should be 40-50%"
        );
    }

    #[test]
    fn lower_scan_groups_read_fewer_bytes_and_finish_sooner() {
        let (store, db) = setup(12, DeviceProfile::hdd_7200rpm());
        let full = model(&store, &db, 10, 8, 0.0);
        let low = model(&store, &db, 1, 8, 0.0);
        assert_eq!((full.images(), full.records.len()), (12, 3));
        assert_eq!(full.bytes, db.bytes_at_group(10));
        assert!(low.bytes < full.bytes / 2, "{} vs {}", low.bytes, full.bytes);
        assert!(low.seconds < full.seconds);
        assert!(low.images_per_sec() > full.images_per_sec());
    }

    #[test]
    fn more_lanes_overlap_a_slow_decode() {
        let (store, db) = setup(16, DeviceProfile::ram());
        let one = model(&store, &db, 10, 1, 1e-6).seconds;
        let eight = model(&store, &db, 10, 8, 1e-6).seconds;
        assert!(eight < one / 2.0, "8 lanes ({eight:.4}s) vs 1 ({one:.4}s)");
    }

    #[test]
    fn epochs_repeat_bit_for_bit_and_charge_decode_per_byte() {
        let (store, db) = setup(16, DeviceProfile::hdd_7200rpm());
        let seeks = model(&store, &db, 10, 2, 0.0);
        assert_eq!(seeks, model(&store, &db, 10, 2, 0.0), "a modeled epoch repeats to the bit");
        let slow = model(&store, &db, 10, 2, 1e-3);
        assert_eq!(slow, model(&store, &db, 10, 2, 1e-3));
        assert_eq!(slow.bytes, seeks.bytes);
        // A millisecond a byte dwarfs every seek: two lanes split the
        // epoch's decode between them.
        let decode = slow.bytes as f64 * 1e-3;
        assert!(slow.seconds >= decode / 2.0 && slow.seconds < decode, "{slow:?}");
        for r in &slow.records {
            assert!(r.ready > r.issued);
        }
        // Sorted by ready time, not by issue order.
        assert!(slow.records.windows(2).all(|w| w[0].ready <= w[1].ready));
    }

    #[test]
    fn every_record_is_one_device_read() {
        let (store, db) = setup(8, DeviceProfile::hdd_7200rpm());
        let epoch = model(&store, &db, 3, 8, 0.0);
        // One read per record, each a single request (no per-scan seeks).
        assert_eq!(store.device_stats().reads, 2);
        assert_eq!(epoch.records.len(), 2);
    }

    #[test]
    fn a_failed_read_is_an_error() {
        let (_, db) = setup(4, DeviceProfile::ram());
        let empty = ObjectStore::new(DeviceProfile::ram());
        assert!(model_epoch(&empty, &db, &planner(10), 2, 0.0, 0, 0.0).is_err());
    }

    /// Whole-object reads of named objects: the baseline formats of the
    /// paper's Figure 1, which have no scan groups to truncate.
    struct WholeObjects(Vec<(String, Vec<u32>)>);

    impl RecordSource for WholeObjects {
        fn num_records(&self) -> usize {
            self.0.len()
        }
        fn plan(&self, idx: usize, _scan_group: usize) -> ReadPlan<'_> {
            ReadPlan { name: &self.0[idx].0, offset: 0, len: u64::MAX }
        }
        fn labels(&self, idx: usize) -> &[u32] {
            &self.0[idx].1
        }
    }

    #[test]
    fn record_layout_beats_file_per_image_on_hdd() {
        // The same 32 images stored both ways on an HDD; the record
        // layout's one sequential read must win (paper Figure 1).
        let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
        let mut files = Vec::new();
        let mut rb = RecordFileBuilder::new();
        for i in 0..32u32 {
            let jpeg =
                pcr_jpeg::encode(&patterned(i), &pcr_jpeg::EncodeConfig::baseline(85)).unwrap();
            store.put(&format!("img-{i}"), jpeg.clone());
            files.push((format!("img-{i}"), vec![i % 2]));
            rb.add_jpeg(SampleMeta { label: i % 2, id: format!("i{i}") }, jpeg);
        }
        store.put("rec-0", rb.build().unwrap());
        let record = WholeObjects(vec![("rec-0".into(), (0..32).map(|i| i % 2).collect())]);

        let fpi = model(&store, &WholeObjects(files), 10, 8, 0.0);
        assert_eq!(store.device_stats().reads, 32, "one read per image file");
        let rec = model(&store, &record, 10, 8, 0.0);
        assert_eq!(store.device_stats().reads, 1, "one read for the record");
        assert_eq!((fpi.images(), rec.images()), (32, 32));
        assert!(
            rec.seconds < fpi.seconds / 4.0,
            "record {:.4}s vs file-per-image {:.4}s",
            rec.seconds,
            fpi.seconds
        );
    }

    fn synthetic_epoch(record_ready: &[f64], images_per_record: usize) -> Vec<ModeledRecord> {
        record_ready
            .iter()
            .map(|&ready| ModeledRecord { issued: 0.0, ready, images: images_per_record })
            .collect()
    }

    #[test]
    fn zero_batch_size_counts_as_one() {
        let epoch = synthetic_epoch(&[1.0, 2.0], 2);
        let zero = ComputeUnit { images_per_sec: 4.0, batch_size: 0 };
        let t = run_pipeline(&epoch, &zero, 0.0);
        assert_eq!((t.iterations.len(), t.images), (4, 4));
        let one = run_pipeline(&epoch, &ComputeUnit { batch_size: 1, ..zero }, 0.0);
        assert_eq!(t.iterations, one.iterations);
        assert!((t.duration - 2.5).abs() < 1e-12, "{}", t.duration);
    }

    #[test]
    fn fast_loader_means_no_stalls() {
        // All data ready at t=0.01; compute takes 1s/batch.
        let epoch = synthetic_epoch(&[0.01, 0.01, 0.01, 0.01], 8);
        let compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        assert_eq!(t.iterations.len(), 4);
        // First iteration waits 0.01; the rest are back-to-back.
        assert!(t.total_stall < 0.02);
        assert!((t.duration - (0.01 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn slow_loader_causes_lockstep_stalls() {
        // A record (8 images) becomes ready every 2s; compute needs 1s each.
        let epoch = synthetic_epoch(&[2.0, 4.0, 6.0, 8.0], 8);
        let compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        // Every iteration stalls ~1s (after the first's 2s).
        assert!(t.stall_fraction() > 0.4, "stall fraction {}", t.stall_fraction());
        assert!((t.duration - 9.0).abs() < 1e-9);
        // Achieved rate is loader-bound: 32 images / 9s.
        assert!((t.images_per_sec() - 32.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_rate_respects_min_rule() {
        // Loader can deliver 16 img/s (one 8-image record every 0.5s);
        // compute can do 100 img/s: achieved ~16. And vice versa.
        let ready: Vec<f64> = (1..=20).map(|i| i as f64 * 0.5).collect();
        let epoch = synthetic_epoch(&ready, 8);
        let fast_compute = ComputeUnit { images_per_sec: 100.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &fast_compute, 0.0);
        assert!((t.images_per_sec() - 16.0).abs() < 1.0, "{}", t.images_per_sec());
        let slow_compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &slow_compute, 0.0);
        assert!((t.images_per_sec() - 8.0).abs() < 0.5, "{}", t.images_per_sec());
    }

    #[test]
    fn batches_span_records() {
        // 3 records x 4 images, batch 8: iteration 0 needs records 0-1.
        let epoch = synthetic_epoch(&[1.0, 2.0, 3.0], 4);
        let compute = ComputeUnit { images_per_sec: 80.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        // 12 images -> one full batch of 8 plus a partial batch of 4.
        assert_eq!(t.iterations.len(), 2);
        assert!((t.iterations[0].data_ready - 2.0).abs() < 1e-12);
        assert!((t.iterations[1].data_ready - 3.0).abs() < 1e-12);
        // Partial batch costs proportional compute: 4/8 * 0.1s.
        let full_bt = 8.0 / 80.0;
        assert!(
            (t.iterations[1].compute_end - (3.0 + full_bt / 2.0)).abs() < 1e-9,
            "partial batch time"
        );
    }
}
