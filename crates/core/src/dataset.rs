//! Dataset-level PCR organisation: many `.pcr` records plus the metadata
//! database (the SQLite/RocksDB role in the paper's implementation) that
//! maps records to byte offsets per scan group so loaders can plan partial
//! reads without touching the records themselves.

use crate::error::{Error, Result};
use crate::record::{fit_scans, PcrRecord, PcrRecordBuilder, SampleMeta};
use parking_lot::{Condvar, Mutex};
use pcr_jpeg::{EncodeConfig, ImageBuf, ScanLayout};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Metadata for one record, sufficient to plan reads at any scan group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// Record name (e.g. `train-00017.pcr`).
    pub name: String,
    /// Number of images in the record.
    pub num_images: u32,
    /// `group_offsets[g]` = bytes to read to decode at group `g`
    /// (`g == 0` covers metadata + headers only; length `num_groups + 1`).
    pub group_offsets: Vec<u64>,
    /// Labels of the record's images, in order.
    pub labels: Vec<u32>,
}

impl RecordMeta {
    /// Record length in bytes.
    pub fn total_len(&self) -> u64 {
        *self.group_offsets.last().expect("offsets nonempty")
    }

    /// Bytes to read to decode every image of this record at scan group
    /// `g`, clamped to the record's group count — the canonical
    /// prefix-length computation every loader plans reads with.
    pub fn prefix_len(&self, g: usize) -> u64 {
        self.group_offsets[g.min(self.group_offsets.len() - 1)]
    }
}

/// The PCR metadata database: one entry per record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaDb {
    /// Record entries in dataset order.
    pub records: Vec<RecordMeta>,
}

impl MetaDb {
    /// Number of scan groups (from the first record; uniform by construction).
    pub fn num_groups(&self) -> usize {
        self.records.first().map_or(0, |r| r.group_offsets.len() - 1)
    }

    /// Total images across all records.
    pub fn num_images(&self) -> usize {
        self.records.iter().map(|r| r.num_images as usize).sum()
    }

    /// Total dataset bytes at full quality.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.total_len()).sum()
    }

    /// Total bytes read per epoch when loading at scan group `g`,
    /// clamped to the group count like [`RecordMeta::prefix_len`].
    pub fn bytes_at_group(&self, g: usize) -> u64 {
        self.records.iter().map(|r| r.prefix_len(g)).sum()
    }

    /// Mean bytes per image at scan group `g` — the quantity whose ratio
    /// predicts the paper's speedups (Lemma A.3).
    pub fn mean_image_bytes_at_group(&self, g: usize) -> f64 {
        let n = self.num_images();
        if n == 0 {
            0.0
        } else {
            self.bytes_at_group(g) as f64 / n as f64
        }
    }
}

/// An in-memory PCR dataset "directory": record blobs plus the metadata DB.
#[derive(Debug, Default)]
pub struct PcrDataset {
    /// Serialized `.pcr` records.
    pub records: Vec<Vec<u8>>,
    /// The metadata database.
    pub db: MetaDb,
}

impl PcrDataset {
    /// Parses record `i` (full bytes).
    pub fn open_record(&self, i: usize) -> Result<PcrRecord<'_>> {
        PcrRecord::parse(&self.records[i])
    }

    /// Number of records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }
}

/// Maps `f` over `items` on up to `workers` threads — the caller's among
/// them, scoped to this call — and returns the results in item order.
/// Each thread claims the next unclaimed item, one at a time, so uneven
/// items share out; with one worker or one item nothing is spawned. A
/// panic in `f` resumes on the caller.
pub fn map_in_order<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    map_in_order_with(items, workers, || (), |(), item| f(item))
}

/// [`map_in_order`] with per-thread state: each thread that maps items
/// first makes its own state with `init` and hands it, by `&mut`, to
/// every `f` call it makes — scratch buffers that outlive one item.
pub fn map_in_order_with<S, T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let helpers = workers.min(items.len()).saturating_sub(1);
    if helpers == 0 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // The lock recovers from poison: nothing panics while it is
            // held, so a poisoned lock still guards an intact iterator.
            let next = queue.lock().next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(&mut state, item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in spawned {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The state a [`Crew`]'s threads and its owner share, under one lock.
struct CrewState<T, R> {
    /// Submitted items no thread has taken yet, oldest first, each with
    /// its sequence number.
    queue: VecDeque<(u64, T)>,
    /// Results by sequence number, until the owner takes them.
    done: BTreeMap<u64, R>,
    /// The first panic a job raised, until the owner takes it.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the crew is dropped: each thread exits after its job.
    closed: bool,
}

struct CrewShared<T, R> {
    state: Mutex<CrewState<T, R>>,
    /// Wakes the threads: an item was queued, or the crew closed.
    queued: Condvar,
    /// Wakes the owner: a job ended.
    ended: Condvar,
}

/// Threads that live as long as the crew and map `f` over the items
/// submitted to it, starting them in submission order. Its owner takes
/// each result back by the sequence number [`submit`](Self::submit)
/// returned. The threads start at the first submission, and dropping the
/// crew joins them; a panic in `f` resumes on the owner's next
/// [`take`](Self::take).
struct Crew<T, R> {
    shared: Arc<CrewShared<T, R>>,
    f: Arc<dyn Fn(T) -> R + Send + Sync>,
    workers: usize,
    threads: Vec<JoinHandle<()>>,
    next: u64,
}

impl<T: Send + 'static, R: Send + 'static> Crew<T, R> {
    /// A crew of `workers` threads (at least one), none started yet.
    fn new(workers: usize, f: impl Fn(T) -> R + Send + Sync + 'static) -> Self {
        let state =
            CrewState { queue: VecDeque::new(), done: BTreeMap::new(), panic: None, closed: false };
        Self {
            shared: Arc::new(CrewShared {
                state: Mutex::new(state),
                queued: Condvar::new(),
                ended: Condvar::new(),
            }),
            f: Arc::new(f),
            workers: workers.max(1),
            threads: Vec::new(),
            next: 0,
        }
    }

    /// Queues `item` and returns the sequence number to take its result by.
    fn submit(&mut self, item: T) -> u64 {
        if self.threads.is_empty() {
            self.threads = (0..self.workers)
                .map(|i| {
                    let (shared, f) = (Arc::clone(&self.shared), Arc::clone(&self.f));
                    std::thread::Builder::new()
                        .name(format!("pcr-pack-{i}"))
                        .spawn(move || Self::work(&shared, &*f))
                        .expect("spawn pack thread")
                })
                .collect();
        }
        let seq = self.next;
        self.next += 1;
        self.shared.state.lock().queue.push_back((seq, item));
        self.shared.queued.notify_one();
        seq
    }

    /// Waits for the result of submission `seq` and returns it; resumes
    /// the panic of any job that panicked instead.
    fn take(&self, seq: u64) -> R {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(result) = state.done.remove(&seq) {
                return result;
            }
            if let Some(panic) = state.panic.take() {
                drop(state);
                std::panic::resume_unwind(panic);
            }
            state = self.shared.ended.wait(state);
        }
    }

    /// One thread's loop: take the oldest queued item, map it outside the
    /// lock, file its result, until the crew closes.
    fn work(shared: &CrewShared<T, R>, f: &(dyn Fn(T) -> R + Send + Sync)) {
        loop {
            let mut state = shared.state.lock();
            let (seq, item) = loop {
                if state.closed {
                    return;
                }
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                state = shared.queued.wait(state);
            };
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
            let mut state = shared.state.lock();
            match outcome {
                Ok(result) => {
                    state.done.insert(seq, result);
                }
                Err(panic) => {
                    state.panic.get_or_insert(panic);
                }
            }
            drop(state);
            shared.ended.notify_one();
        }
    }
}

impl<T, R> Drop for Crew<T, R> {
    fn drop(&mut self) {
        self.shared.state.lock().closed = true;
        self.shared.queued.notify_all();
        for thread in self.threads.drain(..) {
            // Jobs run under catch_unwind, so a thread cannot die of one.
            let _ = thread.join();
        }
    }
}

/// A conversion an add queues on the crew.
enum Conversion {
    /// A JPEG to re-script losslessly ([`PcrDatasetBuilder::add_baseline_jpeg`]).
    Transcode(Vec<u8>),
    /// Pixels to encode as progressive JPEG at a quality
    /// ([`PcrDatasetBuilder::add_image`]).
    Encode(ImageBuf, u8),
}

/// A converted image: the progressive JPEG it enters its record as, with
/// its scans.
type Converted = (Vec<u8>, ScanLayout);

impl Conversion {
    fn run(self, num_groups: usize) -> Result<Converted> {
        let jpeg = match self {
            Conversion::Transcode(jpeg) => pcr_jpeg::to_progressive(&jpeg)?,
            Conversion::Encode(img, quality) => {
                pcr_jpeg::encode(&img, &EncodeConfig::progressive(quality))?
            }
        };
        let layout = fit_scans(&jpeg, num_groups)?;
        Ok((jpeg, layout))
    }
}

/// An image of a record not yet appended, in add order.
enum Slot {
    /// A progressive JPEG already split and checked
    /// ([`PcrDatasetBuilder::add_progressive_jpeg`]).
    Ready(Vec<u8>, ScanLayout),
    /// The sequence number of its conversion on the crew.
    Converting(u64),
}

/// Streams images into fixed-size records, building the dataset and its
/// metadata database in one pass (the paper's encoder component).
///
/// Conversions run on one crew of `available_parallelism()` threads that
/// lives as long as the builder: `add_image` and `add_baseline_jpeg` queue
/// an owned copy of their input, and the crew converts in add order while
/// the caller keeps adding. The crew starts at the first queued
/// conversion (a builder fed only progressive JPEGs starts none), and
/// [`finish`](Self::finish) or dropping the builder joins it. Records are
/// appended one behind: the add that fills record k+1 waits only for
/// record k's conversions and appends record k, so at most two records
/// are in flight. Results enter their record in add order, so the bytes
/// are those of serial packing whatever the core count.
pub struct PcrDatasetBuilder {
    images_per_record: usize,
    num_groups: usize,
    name_prefix: String,
    crew: Crew<Conversion, Result<Converted>>,
    /// The record being filled.
    filling: Vec<(SampleMeta, Slot)>,
    /// The last filled record, appended when the next one fills.
    filled: Option<Vec<(SampleMeta, Slot)>>,
    dataset: PcrDataset,
    bytes_flushed: u64,
}

impl PcrDatasetBuilder {
    /// Creates a builder emitting records of `images_per_record` images with
    /// `num_groups` scan groups.
    pub fn new(images_per_record: usize, num_groups: usize) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self::new_with_workers(images_per_record, num_groups, workers)
    }

    fn new_with_workers(images_per_record: usize, num_groups: usize, workers: usize) -> Self {
        let num_groups = num_groups.max(1);
        Self {
            images_per_record: images_per_record.max(1),
            num_groups,
            name_prefix: "record".to_string(),
            crew: Crew::new(workers, move |conversion: Conversion| conversion.run(num_groups)),
            filling: Vec::new(),
            filled: None,
            dataset: PcrDataset::default(),
            bytes_flushed: 0,
        }
    }

    /// Sets the record name prefix.
    pub fn with_name_prefix(mut self, prefix: &str) -> Self {
        self.name_prefix = prefix.to_string();
        self
    }

    /// Queues a raw image on the crew, to be progressive-encoded at
    /// `quality`.
    ///
    /// # Errors
    /// The encode runs on the crew, so its error does not come back from
    /// this call. Record k's error comes back from the add that fills
    /// record k+1, or from [`finish`](Self::finish): the error of its
    /// first failing image, in add order. That record is not added, the
    /// progress counters do not move, and later records are added.
    pub fn add_image(&mut self, meta: SampleMeta, img: &ImageBuf, quality: u8) -> Result<()> {
        self.queue(meta, Conversion::Encode(img.clone(), quality))
    }

    /// Adds an existing progressive JPEG.
    ///
    /// # Errors
    /// A stream that does not split into scans, or has more scans than the
    /// builder has groups, is refused at once and not queued. Like every
    /// add, the call that fills record k+1 also returns the error of
    /// record k's first failing conversion, and record k is not added.
    pub fn add_progressive_jpeg(&mut self, meta: SampleMeta, jpeg: Vec<u8>) -> Result<()> {
        let layout = fit_scans(&jpeg, self.num_groups)?;
        self.push(meta, Slot::Ready(jpeg, layout))
    }

    /// Queues a baseline or progressive JPEG on the crew, to be losslessly
    /// re-scripted to the default progressive script (the `jpegtran`
    /// step).
    ///
    /// # Errors
    /// The transcode runs on the crew, so its error does not come back
    /// from this call. Record k's error comes back from the add that fills
    /// record k+1, or from [`finish`](Self::finish): the error of its
    /// first failing image, in add order. That record is not added, the
    /// progress counters do not move, and later records are added.
    pub fn add_baseline_jpeg(&mut self, meta: SampleMeta, jpeg: &[u8]) -> Result<()> {
        self.queue(meta, Conversion::Transcode(jpeg.to_vec()))
    }

    fn queue(&mut self, meta: SampleMeta, conversion: Conversion) -> Result<()> {
        let seq = self.crew.submit(conversion);
        self.push(meta, Slot::Converting(seq))
    }

    /// Adds one image to the record being filled; when that fills the
    /// record, appends the record filled before it.
    fn push(&mut self, meta: SampleMeta, image: Slot) -> Result<()> {
        self.filling.push((meta, image));
        if self.filling.len() < self.images_per_record {
            return Ok(());
        }
        let filled = std::mem::take(&mut self.filling);
        match self.filled.replace(filled) {
            Some(previous) => self.append(previous),
            None => Ok(()),
        }
    }

    /// Waits for a record's conversions and appends it. Every conversion
    /// is taken back whether or not one failed.
    fn append(&mut self, images: Vec<(SampleMeta, Slot)>) -> Result<()> {
        let converted: Vec<_> = images
            .into_iter()
            .map(|(meta, image)| match image {
                Slot::Ready(jpeg, layout) => Ok((meta, jpeg, layout)),
                Slot::Converting(seq) => self.crew.take(seq).map(|(jpeg, layout)| (meta, jpeg, layout)),
            })
            .collect();
        let mut builder = PcrRecordBuilder::new(self.num_groups);
        for image in converted {
            let (meta, jpeg, layout) = image?;
            builder.push_split(meta, jpeg, layout);
        }
        let bytes = builder.build()?;
        let rec = PcrRecord::parse(&bytes)?;
        let name = format!("{}-{:05}.pcr", self.name_prefix, self.dataset.records.len());
        let meta = RecordMeta {
            name,
            num_images: rec.num_images() as u32,
            group_offsets: rec
                .cumulative_group_offsets()
                .into_iter()
                .map(|o| o as u64)
                .collect(),
            labels: rec.labels().to_vec(),
        };
        drop(rec);
        self.dataset.db.records.push(meta);
        self.bytes_flushed += bytes.len() as u64;
        self.dataset.records.push(bytes);
        Ok(())
    }

    /// Records appended to the dataset so far (excludes the last filled
    /// record and the partial one). Progress-reporting hook for packers.
    pub fn records_flushed(&self) -> usize {
        self.dataset.records.len()
    }

    /// Encoded bytes appended to the dataset so far (excludes the last
    /// filled record and the partial one). Progress-reporting hook for
    /// packers.
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed
    }

    /// Appends the last filled record and any partial one, joins the
    /// crew and returns the dataset.
    ///
    /// # Errors
    /// The error of the first failing conversion of those two records, in
    /// add order; or, when no record was ever added, a `BadInput` error.
    pub fn finish(mut self) -> Result<PcrDataset> {
        if let Some(filled) = self.filled.take() {
            self.append(filled)?;
        }
        let partial = std::mem::take(&mut self.filling);
        if !partial.is_empty() {
            self.append(partial)?;
        }
        if self.dataset.records.is_empty() {
            return Err(Error::BadInput("dataset needs at least one image".into()));
        }
        Ok(self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_jpeg::ImageBuf;

    fn img(seed: u32) -> ImageBuf {
        let mut data = Vec::new();
        for y in 0..32u32 {
            for x in 0..32u32 {
                data.push(((x * 3 + y * 7 + seed * 13) % 256) as u8);
                data.push(((x + y + seed) % 256) as u8);
                data.push(((x * y) % 256) as u8);
            }
        }
        ImageBuf::from_raw(32, 32, 3, data).unwrap()
    }

    fn build(n_images: usize, per_record: usize) -> PcrDataset {
        let mut b = PcrDatasetBuilder::new(per_record, 10).with_name_prefix("train");
        for i in 0..n_images {
            b.add_image(
                SampleMeta { label: (i % 4) as u32, id: format!("i{i}") },
                &img(i as u32),
                85,
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn records_are_chunked() {
        let ds = build(10, 4);
        assert_eq!(ds.num_records(), 3); // 4 + 4 + 2
        assert_eq!(ds.db.records[0].num_images, 4);
        assert_eq!(ds.db.records[2].num_images, 2);
        assert_eq!(ds.db.num_images(), 10);
        assert_eq!(ds.db.records[1].name, "train-00001.pcr");
    }

    #[test]
    fn progress_counters_track_appended_records_only() {
        let mut b = PcrDatasetBuilder::new(4, 10);
        for i in 0..10u32 {
            // Record 0 is appended by the add that fills record 1.
            assert_eq!((b.records_flushed(), b.bytes_flushed() > 0), (usize::from(i >= 8), i >= 8));
            b.add_image(SampleMeta { label: 0, id: format!("i{i}") }, &img(i), 85).unwrap();
        }
        let flushed = b.bytes_flushed();
        let ds = b.finish().unwrap();
        // `finish` appended the last full record and the partial one.
        assert_eq!(ds.num_records(), 3);
        assert_eq!(flushed, ds.records[0].len() as u64);
    }

    #[test]
    fn db_offsets_match_records() {
        let ds = build(6, 3);
        for (i, meta) in ds.db.records.iter().enumerate() {
            let rec = ds.open_record(i).unwrap();
            let offs: Vec<u64> =
                rec.cumulative_group_offsets().into_iter().map(|o| o as u64).collect();
            assert_eq!(meta.group_offsets, offs);
            assert_eq!(meta.total_len() as usize, ds.records[i].len());
        }
    }

    #[test]
    fn prefix_reads_decode_via_db_plan() {
        let ds = build(4, 2);
        for g in [1usize, 2, 5] {
            for r in 0..ds.num_records() {
                let prefix = &ds.records[r][..ds.db.records[r].prefix_len(g) as usize];
                assert_eq!(prefix.len() as u64, ds.db.records[r].group_offsets[g]);
                let rec = PcrRecord::parse(prefix).unwrap();
                assert_eq!(rec.available_groups(), g);
                let im = rec.decode_image(0, g).unwrap();
                assert_eq!(im.width(), 32);
            }
        }
    }

    #[test]
    fn bytes_at_group_monotone() {
        let ds = build(6, 3);
        let mut last = 0;
        for g in 0..=10 {
            let b = ds.db.bytes_at_group(g);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(last, ds.db.total_bytes());
        assert!(ds.db.mean_image_bytes_at_group(1) < ds.db.mean_image_bytes_at_group(10));
    }

    #[test]
    fn bytes_at_group_clamps_past_the_last_group() {
        let ds = build(6, 3);
        let g = ds.db.num_groups();
        assert_eq!(ds.db.bytes_at_group(g + 5), ds.db.bytes_at_group(g));
        assert_eq!(ds.db.bytes_at_group(usize::MAX), ds.db.total_bytes());
    }

    #[test]
    fn empty_dataset_rejected() {
        let b = PcrDatasetBuilder::new(4, 10);
        assert!(b.finish().is_err());
    }

    #[test]
    fn map_in_order_keeps_item_order_for_every_worker_count() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [0, 1] {
            assert_eq!(map_in_order(items.clone(), workers, |x| x * x), want, "{workers} workers");
        }
        // With helpers, item 0 finishes only after every other item, so
        // results complete in a different order from the items.
        for workers in [2, 5, 64] {
            let finished = AtomicUsize::new(0);
            let got = map_in_order(items.clone(), workers, |x| {
                while x == 0 && finished.load(SeqCst) < items.len() - 1 {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, SeqCst);
                x * x
            });
            assert_eq!(got, want, "{workers} workers");
        }
        assert!(map_in_order(Vec::<usize>::new(), 4, |x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 refused")]
    fn map_in_order_resumes_a_worker_panic_on_the_caller() {
        map_in_order((0..8).collect(), 3, |x: u32| assert!(x != 3, "item {x} refused"));
    }

    /// One input of each kind the builder accepts, `k` picking among a
    /// few geometries (grayscale included, whose script has fewer scans).
    enum Add {
        Pixels(ImageBuf, u8),
        Baseline(Vec<u8>),
        Progressive(Vec<u8>),
    }

    fn input(kind: u8, k: usize) -> Add {
        let (w, h, channels) = [(16, 16, 3), (17, 9, 3), (8, 24, 1), (24, 8, 3)][k % 4];
        let data = (0..w * h * channels).map(|i| ((i * 7 + k * 31) % 251) as u8).collect();
        let pixels = ImageBuf::from_raw(w as u32, h as u32, channels as u8, data).unwrap();
        let quality = 60 + 10 * k as u8;
        let config = match kind {
            0 => return Add::Pixels(pixels, quality),
            1 => pcr_jpeg::EncodeConfig::baseline(quality),
            _ => pcr_jpeg::EncodeConfig::progressive(quality),
        };
        let jpeg = pcr_jpeg::encode(&pixels, &config).unwrap();
        if kind == 1 { Add::Baseline(jpeg) } else { Add::Progressive(jpeg) }
    }

    /// Feeds one input to either builder: both take the same three adds.
    macro_rules! add {
        ($builder:expr, $meta:expr, $add:expr) => {
            match $add {
                Add::Pixels(img, q) => $builder.add_image($meta, img, *q),
                Add::Baseline(jpeg) => $builder.add_baseline_jpeg($meta, jpeg),
                Add::Progressive(jpeg) => $builder.add_progressive_jpeg($meta, jpeg.clone()),
            }
        };
    }

    fn pack(adds: &[(SampleMeta, Add)], per_record: usize, workers: usize) -> PcrDataset {
        let mut b = PcrDatasetBuilder::new_with_workers(per_record, 10, workers);
        for (meta, input) in adds {
            add!(b, meta.clone(), input).unwrap();
        }
        b.finish().unwrap()
    }

    /// Serial packing with `PcrRecordBuilder`: each image converted as it
    /// is added, records cut every `per_record` images.
    fn serial_reference(adds: &[(SampleMeta, Add)], per_record: usize) -> PcrDataset {
        let mut ds = PcrDataset::default();
        for chunk in adds.chunks(per_record) {
            let mut b = PcrRecordBuilder::new(10);
            for (meta, input) in chunk {
                add!(b, meta.clone(), input).unwrap();
            }
            let bytes = b.build().unwrap();
            let rec = PcrRecord::parse(&bytes).unwrap();
            ds.db.records.push(RecordMeta {
                name: format!("record-{:05}.pcr", ds.records.len()),
                num_images: rec.num_images() as u32,
                group_offsets: rec.cumulative_group_offsets().iter().map(|&o| o as u64).collect(),
                labels: rec.labels().to_vec(),
            });
            drop(rec);
            ds.records.push(bytes);
        }
        ds
    }

    proptest::proptest! {
        /// Any sequence of the three adds packs to the same records and
        /// `MetaDb` through a crew of one to four threads as serially.
        #[test]
        fn fan_out_packs_the_bytes_of_serial_packing(
            per_record in 1usize..=9,
            ops in proptest::prelude::prop::collection::vec((0u8..3, 0usize..4, 0u32..5), 1..=20),
        ) {
            let adds: Vec<(SampleMeta, Add)> = ops
                .iter()
                .enumerate()
                .map(|(i, &(kind, k, label))| {
                    (SampleMeta { label, id: format!("s{i}") }, input(kind, k))
                })
                .collect();
            let reference = serial_reference(&adds, per_record);
            for workers in 1..=4 {
                let ds = pack(&adds, per_record, workers);
                proptest::prop_assert!(ds.records == reference.records, "{workers} workers");
                proptest::prop_assert_eq!(&ds.db, &reference.db);
            }
        }
    }

    /// Record k's conversion error comes back one record late: from the
    /// add that fills record k+1, or from `finish` for the last filled
    /// record and the partial one. It is the error of the record's first
    /// failing image in add order; that record is dropped, the builder's
    /// counters do not move, and later records pack as usual.
    #[test]
    fn conversion_errors_surface_when_the_next_record_fills() {
        let good =
            |i: u32| pcr_jpeg::encode(&img(i), &pcr_jpeg::EncodeConfig::baseline(90)).unwrap();
        let mut truncated = good(99);
        truncated.truncate(truncated.len() / 2);
        let not_jpeg = vec![0x5a; 64];
        let error_of = |jpeg: &[u8]| Error::Jpeg(pcr_jpeg::to_progressive(jpeg).unwrap_err());
        assert_ne!(error_of(&truncated), error_of(&not_jpeg));
        let meta = |i: u32| SampleMeta { label: i, id: format!("i{i}") };
        for workers in [1, 3] {
            let mut b = PcrDatasetBuilder::new_with_workers(8, 10, workers);
            // Record 0 fails at images 2 and 5; its fill returns nothing.
            for i in 0..8u32 {
                let jpeg = match i {
                    2 => truncated.clone(),
                    5 => not_jpeg.clone(),
                    _ => good(i),
                };
                assert!(b.add_baseline_jpeg(meta(i), &jpeg).is_ok(), "add {i} failed early");
            }
            for i in 8..15u32 {
                b.add_baseline_jpeg(meta(i), &good(i)).unwrap();
            }
            // Filling record 1 returns record 0's first error in add order.
            assert_eq!(b.add_baseline_jpeg(meta(15), &good(15)), Err(error_of(&truncated)));
            assert_eq!((b.records_flushed(), b.bytes_flushed()), (0, 0));
            for i in 16..24u32 {
                b.add_baseline_jpeg(meta(i), &good(i)).unwrap();
            }
            assert_eq!(b.records_flushed(), 1);
            let flushed = b.bytes_flushed();
            b.add_baseline_jpeg(meta(24), &not_jpeg).unwrap();
            b.add_baseline_jpeg(meta(25), &good(25)).unwrap();
            assert_eq!((b.records_flushed(), b.bytes_flushed()), (1, flushed));
            // `finish` appends record 2, then fails on the partial record 3.
            assert_eq!(b.finish().err(), Some(error_of(&not_jpeg)));

            // A failing last full record fails `finish` too.
            let mut b = PcrDatasetBuilder::new_with_workers(2, 10, workers);
            for i in 0..4u32 {
                let jpeg = if i == 3 { truncated.clone() } else { good(i) };
                b.add_baseline_jpeg(meta(i), &jpeg).unwrap();
            }
            assert_eq!(b.records_flushed(), 1);
            assert_eq!(b.finish().err(), Some(error_of(&truncated)));
        }
    }

    #[test]
    #[should_panic(expected = "item 3 refused")]
    fn crew_resumes_a_worker_panic_on_the_caller() {
        let mut crew = Crew::new(3, |x: u32| {
            assert!(x != 3, "item {x} refused");
            x
        });
        let seqs: Vec<u64> = (0..8).map(|x| crew.submit(x)).collect();
        for seq in seqs {
            crew.take(seq);
        }
    }
}
