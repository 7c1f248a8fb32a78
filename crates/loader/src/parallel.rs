//! The real wall-clock PCR read path: an OS-thread pipeline that reads
//! record byte-prefixes from an [`ObjectStore`], decodes truncated
//! progressive JPEGs with `pcr-jpeg` on a pool of decode threads, and
//! yields [`Minibatch`]es to the consumer through a double-buffered
//! batch channel.
//!
//! This is the crate's one loader: every delivered record — in the CLI,
//! the examples and the benchmark — comes out of it. It visits records in
//! the [`ReadPlanner`]'s per-epoch order, the same order the modeled
//! loader timeline in `pcr-sim` (the paper's closed-system model, App.
//! A.1–A.2) plans with. Per-thread [`pcr_core::RecordScratch`] buffers and
//! the store's zero-copy [`pcr_storage::ByteView`] reads keep the hot loop
//! allocation-free so the pipeline runs as fast as the hardware allows.
//!
//! Structure (paper Appendix A.1's loader, realized with OS threads). I/O
//! depth and decode parallelism are separate knobs: `prefetch_records`
//! sets how many reads are outstanding (Lemma A.2's `W`), and the decode
//! pool — `max(loader.threads, available_parallelism)` identical threads,
//! sized once when the crew is built — how many images decode at once.
//!
//! ```text
//! shared EpochOrder bijection (no materialized order)
//!   │  each fetcher claims the next position k
//!   ├── fetcher 0 ─ plan ─ read+retry ─ [emulate I/O] ─┐  fetch stage:
//!   ├── fetcher 1 ─ ...                                ├─ prefetch_records
//!   └── fetcher P ─ ...                                │  reads in flight
//!                                                      ▼
//!                       in-order hand-off: position k before k+1; a
//!                       window of prefetch_records completed reads,
//!                       staged as zero-copy ByteViews
//!                                                      │
//!   ├── pool thread 0 ─ next image of the oldest open ─┤  decode pool:
//!   │     record ─ decode ─ [its last image: decode    │  one image per
//!   │     check, ladder ↓]                             │  thread at a time
//!   └── pool thread N ─ ...                            ▼
//!                       in-order hand-off: a window of min(prefetch_records,
//!                       pool size) decoded records, position k before k+1
//!                                                      │
//!                                          assembler: records → batches
//!                                                      │  batch channel,
//!                                                      ▼  2 batches deep
//!                                            consumer (train loop)
//! ```
//!
//! Every thread above but the consumer belongs to the loader's *crew*
//! (the `crew` module): built on the loader's first epoch, handed each
//! later epoch as one job per thread, and joined when the last loader
//! and stream handle drops. No epoch and no record spawns a thread, and
//! each decode thread keeps its [`pcr_core::RecordScratch`] for the
//! crew's life. An epoch started while another still runs gets a crew of
//! its own; a crew whose job panicked is closed, and the panic reaches
//! [`EpochStream::join`].
//!
//! Fetchers hold no decode state — they plan, read through the record's
//! fidelity ladder (retry, backoff and read-failure degradation included;
//! see [`crate::retry`]) and realize [`IoModel::EmulatedLatency`] service
//! time *before* the bytes move on, so nothing is decoded before it has
//! "arrived". The pool takes records from the hand-off strictly in
//! epoch-order position and opens each as one unit per image: a free
//! pool thread claims the next image of the oldest open record, and
//! takes a new record only when no open record has an image left to
//! claim. A rung whose bytes do not parse, or whose labels differ from
//! the source's labels for the record, fails before it opens. The thread
//! that decodes a rung's last image runs the record's decode check —
//! every image must decode — and, when it fails, fetches the next lower
//! rung itself (the rare path) and reopens the record at that rung.
//! Settled records reach the assembler through a second
//! in-order window, and the pool opens a record only once its position
//! fits there, so decoded records never wait outside it. The assembler
//! merges their fault accounting and batches their images strictly in
//! [`EpochOrder`]: an epoch delivers the same images in the same order,
//! with the same [`FaultReport`], at every pool size, however the reads
//! and the decodes raced.
//!
//! Every queue is bounded, so a slow consumer exerts backpressure all the
//! way to the reads; the batch channel holds two batches — double
//! buffering: one being consumed, one staged.

use crate::config::{DecodeMode, LoaderConfig};
use crate::crew::{CrewLease, CrewShape, CrewSlot, Stage};
use crate::handoff::Handoff;
use crate::order::EpochOrder;
use crate::report::{share, Bottleneck, EpochReport};
use crate::retry::{FaultReport, Ladder, RetryBudget, RetryPolicy, Rung};
use crate::source::{prefix_group, ReadPlanner, RecordSource};
use parking_lot::Mutex;
use pcr_core::{MetaDb, PcrRecord, RecordScratch};
use pcr_jpeg::ImageBuf;
use pcr_storage::{ByteView, ObjectStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the wall-clock pipeline realizes storage time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// Serve reads at memory speed (the store is RAM-resident). Worker
    /// scaling then measures pure decode parallelism.
    #[default]
    Instant,
    /// Sleep each successful read's modeled service time — the duration
    /// the clocked store path returns for a
    /// [`Clock::Wall`](pcr_storage::Clock::Wall) read — on the fetch
    /// thread that issued it, before the bytes are handed to the decode
    /// pool; a read that succeeds but then fails the decode check has
    /// cost its service time all the same. Cached bytes cost only request
    /// overhead, so a warm page cache speeds emulated I/O exactly as it
    /// would a real device. Requests to different records are assumed to
    /// hit independent backends — the remote-object-store regime — so the
    /// [`ParallelConfig::prefetch_records`] reads in flight overlap their
    /// first-byte latencies exactly like a real multi-connection loader,
    /// whatever the decode thread count.
    EmulatedLatency,
}

/// Configuration of the wall-clock parallel loader: the shared
/// [`LoaderConfig`] plus the knobs that only exist once real channels and
/// batches are involved.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Shared loader parameters: `threads` is the decode pool's least
    /// size (it has `max(threads, available_parallelism)` threads),
    /// `scan_group` the prefix quality, `shuffle`/`seed` the epoch order,
    /// `decode` what the pool does with the bytes ([`DecodeMode::Real`]
    /// decodes pixels; [`DecodeMode::Skip`] delivers labels only).
    pub loader: LoaderConfig,
    /// Images per delivered [`Minibatch`].
    pub batch_size: usize,
    /// The prefetch queue, in records: how many reads the fetch stage
    /// keeps in flight — the I/O depth `W` of Lemma A.2, independent of
    /// the decode pool — and the depth of the in-order window of completed
    /// reads behind it. Decoded records wait for the assembler in a
    /// window of at most this many, and of no more than the pool's size.
    pub prefetch_records: usize,
    /// Storage-time realization.
    pub io: IoModel,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            loader: LoaderConfig { threads: 4, ..LoaderConfig::default() },
            batch_size: 32,
            prefetch_records: 8,
            io: IoModel::Instant,
        }
    }
}

impl ParallelConfig {
    /// Real decode of scan group `g` with a pool of at least `threads`;
    /// everything else defaulted.
    pub fn real(threads: usize, scan_group: usize) -> Self {
        let loader = LoaderConfig { threads, scan_group, ..LoaderConfig::default() };
        Self { loader, ..Self::default() }
    }
}

/// Depth, in batches, of the assembler → consumer channel: double
/// buffering, one batch being consumed and one staged.
const BATCH_CHANNEL_DEPTH: usize = 2;

/// One delivered minibatch.
#[derive(Debug)]
pub struct Minibatch {
    /// Decoded images (empty unless [`DecodeMode::Real`]).
    pub images: Vec<ImageBuf>,
    /// Labels; always present, parallel to `images` under
    /// [`DecodeMode::Real`].
    pub labels: Vec<u32>,
}

/// Aggregate pipeline statistics, updated live by the stage threads.
#[derive(Debug, Default)]
pub struct ParallelStats {
    /// Compressed bytes read.
    pub bytes_read: AtomicU64,
    /// Records fully processed.
    pub records_loaded: AtomicU64,
    /// Decode nanoseconds summed over every image the pool decoded — the
    /// epoch's decode CPU cost.
    pub decode_nanos: AtomicU64,
    /// Total nanoseconds requests spent in realized (emulated) device
    /// service, summed across every read in flight — so it exceeds wall
    /// time when reads overlap.
    pub io_wait_nanos: AtomicU64,
    /// Total nanoseconds pool threads waited for the next record to
    /// arrive on the in-order hand-off, or for another pool thread to
    /// take it: the pipeline starving on storage.
    pub decode_starved_nanos: AtomicU64,
    /// Retries, degradations and quarantines, merged in by the assembler
    /// in epoch order for every record that had any (a clean record takes
    /// no lock). The lock recovers from poison: a panic mid-merge kills
    /// the assembler, and [`EpochStream::join`] re-raises it before the
    /// epoch reports, so a half-merged report is never taken for a whole
    /// one.
    faults: Mutex<FaultReport>,
}

impl ParallelStats {
    /// The epoch's fault accounting so far.
    pub fn fault_report(&self) -> FaultReport {
        self.faults.lock().clone()
    }
}

/// A running epoch: a stream of minibatches plus live statistics.
///
/// A stream is consumed on one thread: it is `Send` but not `Sync`, as
/// its batch receiver is a `std::sync::mpsc::Receiver`. Move it to the
/// thread that trains on it.
///
/// Iterate [`EpochStream::batches`] until disconnect for the full epoch,
/// then call [`EpochStream::join`] — or let [`EpochStream::fold`] do both
/// and report; dropping the receiver early tears the pipeline down cleanly
/// (the assembler notices the closed channel and closes both hand-offs,
/// which releases the decode pool and the fetchers). Dropping the stream
/// itself does the same and waits for the epoch's jobs, so the loader's
/// crew is idle again after.
pub struct EpochStream {
    /// Minibatch stream; iterate until disconnect for a full epoch.
    pub batches: Receiver<Minibatch>,
    /// Shared statistics, live while the epoch runs.
    pub stats: Arc<ParallelStats>,
    /// The crew running this epoch's jobs. Declared after `batches`, so
    /// a dropped stream closes the batch channel before it waits.
    crew: CrewLease,
    /// What [`EpochStream::fold`] reports against: when the spawn began,
    /// the decode pool's size and the I/O depth.
    started: Instant,
    pool: usize,
    depth: usize,
}

impl EpochStream {
    /// Waits for the epoch's stage jobs to finish. Drops the batch
    /// receiver first, so calling this mid-epoch cancels cleanly (the
    /// assembler notices the closed channel) instead of deadlocking; drain
    /// `batches` before calling if you want the full epoch.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any stage job, after every job of the
    /// epoch has ended: a stage that died cut the epoch short, and the
    /// caller must not take the partial epoch for a whole one. The crew
    /// that saw the panic is closed; the loader's next epoch builds a new
    /// one.
    pub fn join(self) {
        let EpochStream { batches, mut crew, .. } = self;
        drop(batches);
        if let Some(payload) = crew.finish() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Folds the epoch into its report: hands the minibatches to
    /// `consumer`, joins the pipeline once it returns, and turns the
    /// statistics plus the time since the spawn began into an
    /// [`EpochReport`]. A consumer that returns before the stream is
    /// exhausted cancels the rest of the epoch exactly as an early
    /// [`EpochStream::join`] does; the report then covers what was read
    /// and delivered up to that point.
    pub fn fold<R>(
        self,
        consumer: impl FnOnce(&mut dyn Iterator<Item = Minibatch>) -> R,
    ) -> (R, EpochReport) {
        let (pool, depth) = (self.pool, self.depth);
        // One label per delivered image, decoded or not.
        let mut images = 0usize;
        let out = consumer(&mut self.batches.iter().inspect(|b| images += b.labels.len()));
        let seconds = self.started.elapsed().as_secs_f64();
        let stats = Arc::clone(&self.stats);
        self.join();
        let secs = |nanos: &AtomicU64| nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let decode_seconds = secs(&stats.decode_nanos);
        let starved = secs(&stats.decode_starved_nanos);
        // What is left of the pool threads' time went mostly to waiting
        // for room in the reorder window: a consumer not keeping up.
        let blocked = (seconds * pool as f64 - starved - decode_seconds).max(0.0);
        let report = EpochReport {
            images,
            bytes: stats.bytes_read.load(Ordering::Relaxed),
            seconds,
            decode_seconds,
            io_wait_share: share(secs(&stats.io_wait_nanos), depth, seconds),
            decode_busy_share: share(decode_seconds, pool, seconds),
            bottleneck: Bottleneck::of(starved, decode_seconds, blocked),
            faults: stats.fault_report(),
        };
        (out, report)
    }
}

/// The wall-clock parallel loader over an object store populated with
/// `.pcr` records (use [`crate::source::populate_store`]) or packed
/// shards (see [`crate::sharded`]).
///
/// Generic over its [`RecordSource`], defaulting to `MetaDb`; every
/// source streams through the identical decode pool, hand-offs, and
/// clocked read path, so sharded and per-record layouts are compared on
/// mechanism-identical footing.
///
/// The stage threads are built on the first epoch and kept, with each
/// decode thread's buffers, for every later epoch of the loader and its
/// clones (see the [module documentation](self)); dropping the last
/// loader and stream handle joins them.
#[derive(Debug)]
pub struct ParallelLoader<S: RecordSource + ?Sized = MetaDb> {
    store: Arc<ObjectStore>,
    source: Arc<S>,
    config: ParallelConfig,
    crew: Arc<CrewSlot>,
    #[cfg(test)]
    hooks: tests::Hooks,
}

impl<S: RecordSource + ?Sized> Clone for ParallelLoader<S> {
    fn clone(&self) -> Self {
        Self {
            store: Arc::clone(&self.store),
            source: Arc::clone(&self.source),
            config: self.config.clone(),
            crew: Arc::clone(&self.crew),
            #[cfg(test)]
            hooks: self.hooks.clone(),
        }
    }
}

impl<S: RecordSource + ?Sized + 'static> ParallelLoader<S> {
    /// Creates a loader. The source's planned object names must exist in
    /// `store`.
    pub fn new(store: Arc<ObjectStore>, source: Arc<S>, config: ParallelConfig) -> Self {
        Self {
            store,
            source,
            config,
            crew: Arc::new(CrewSlot::new()),
            #[cfg(test)]
            hooks: tests::Hooks::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// The object store this loader reads from.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The record source this loader plans reads over.
    pub fn source(&self) -> &Arc<S> {
        &self.source
    }

    /// The decode pool's size: `loader.threads`, or the core count when
    /// that is larger.
    fn pool_size(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let pool = self.config.loader.threads.max(cores);
        #[cfg(test)]
        let pool = self.hooks.pool.unwrap_or(pool);
        pool
    }

    /// Starts one epoch on the loader's crew and returns the live stream.
    /// Reads at the configured scan group; see
    /// [`ParallelLoader::spawn_epoch_at`] for a per-epoch override.
    pub fn spawn_epoch(&self, epoch: u64) -> EpochStream {
        self.spawn_epoch_at(epoch, self.config.loader.scan_group)
    }

    /// Starts one epoch reading at `scan_group` instead of the configured
    /// group — the hook a [`crate::fidelity::FidelityController`] uses to
    /// adjust fidelity online. The epoch record order is a function of
    /// `(seed, epoch)` only, so changing the group never changes which
    /// records are visited or in what order.
    pub fn spawn_epoch_at(&self, epoch: u64, scan_group: usize) -> EpochStream {
        let started = Instant::now();
        let cfg = &self.config;
        let stats = Arc::new(ParallelStats::default());

        // Work queue: the shared streaming epoch order plus the hand-off
        // windows. Fetchers claim the next *position* and resolve it to a
        // record index through the Feistel bijection — no per-epoch Vec,
        // no O(n) channel backlog, just a few words of state however many
        // records the catalog holds.
        let order =
            ReadPlanner::from_config(&cfg.loader).epoch_iter(self.source.num_records(), epoch);
        let total = order.num_records();
        let depth = cfg.prefetch_records.max(1);
        // The crew is built once, on the loader's first epoch: its shape
        // — and the core count the pool is sized from — is fixed from then
        // on.
        let mut crew = self
            .crew
            .lease(|| CrewShape { fetchers: depth.min(total), decoders: self.pool_size() });
        let pool = crew.decoders();
        let shared = Arc::new(EpochShared {
            store: Arc::clone(&self.store),
            stats: Arc::clone(&stats),
            fetched: Handoff::new(total, depth),
            // One decoded record per pool thread is all the order can hold
            // back: the threads claim the oldest images first.
            records: Handoff::new(total, depth.min(pool)),
            pool: Mutex::default(),
            order,
            scan_group,
            decode: cfg.loader.decode,
            io: cfg.io,
            retry: cfg.loader.retry.clone(),
            // One retry budget per epoch, shared by every stage thread.
            budget: RetryBudget::new(cfg.loader.retry.epoch_retry_budget_s),
            source: Arc::clone(&self.source),
            #[cfg(test)]
            hooks: self.hooks.clone(),
        });
        crew.assign(Stage::Fetch, || {
            let shared = Arc::clone(&shared);
            move |_: &mut RecordScratch| shared.fetch_loop()
        });
        crew.assign(Stage::Decode, || {
            let shared = Arc::clone(&shared);
            move |scratch: &mut RecordScratch| shared.decode_loop(scratch)
        });

        // Assembler: records → fixed-size minibatches, double-buffered.
        let (batch_tx, batch_rx) = sync_channel::<Minibatch>(BATCH_CHANNEL_DEPTH);
        let batch_size = cfg.batch_size.max(1);
        crew.assign(Stage::Assemble, || {
            let (shared, batch_tx) = (Arc::clone(&shared), batch_tx.clone());
            move |_: &mut RecordScratch| shared.assemble(&batch_tx, batch_size)
        });
        drop(batch_tx);

        EpochStream { batches: batch_rx, stats, crew, started, pool, depth }
    }

    /// Runs one epoch at the configured scan group to completion,
    /// draining every batch, and reports wall-clock throughput.
    pub fn run_epoch(&self, epoch: u64) -> EpochReport {
        self.spawn_epoch(epoch).fold(|batches| batches.for_each(drop)).1
    }
}

/// What the fetch stage hands the decode pool for one epoch-order
/// position: the record's ladder so far, and the rung it produced
/// (`None`: no prefix was readable).
struct Fetched {
    ladder: Ladder,
    rung: Option<Rung>,
}

/// What the decode pool hands the assembler for one epoch-order
/// position.
struct Settled {
    /// The record's images (none under [`DecodeMode::Skip`]); `None` when
    /// it was quarantined.
    images: Option<Vec<ImageBuf>>,
    /// Its retries and backoff, and its degradation or quarantine.
    faults: FaultReport,
}

/// A record open in the decode pool at one rung of its ladder.
struct OpenRecord {
    pos: usize,
    ladder: Ladder,
    rung: Rung,
    /// Next image to claim; `images.len()` once every image is claimed or
    /// one failed to decode.
    next: usize,
    /// Claimed images still decoding.
    running: usize,
    /// Decoded images by index; a `None` left once the rung is in failed
    /// the decode check.
    images: Vec<Option<ImageBuf>>,
}

/// The decode pool's shared state.
#[derive(Default)]
struct Pool {
    /// Records being decoded, one rung each.
    open: Vec<OpenRecord>,
    /// The epoch was cancelled: nothing is opened again.
    closed: bool,
}

/// A pool thread's next piece of work.
enum Work {
    /// Decode image `image` of the record at epoch position `pos` from
    /// `bytes`.
    Image { pos: usize, image: usize, bytes: ByteView },
    /// Settle the record at `pos`, just taken from the fetch hand-off.
    Record(usize, Fetched),
}

impl Pool {
    /// Claims the next image of the oldest open record that has one left.
    fn claim(&mut self) -> Option<Work> {
        let rec = self.open.iter_mut().filter(|r| r.next < r.images.len()).min_by_key(|r| r.pos)?;
        let image = rec.next;
        rec.next += 1;
        rec.running += 1;
        Some(Work::Image { pos: rec.pos, image, bytes: rec.rung.read.data.clone() })
    }
}

/// Everything one epoch's stage threads share.
struct EpochShared<S: ?Sized> {
    store: Arc<ObjectStore>,
    stats: Arc<ParallelStats>,
    /// Fetched records, from the fetch stage to the decode pool.
    fetched: Handoff<Fetched>,
    /// Settled records, from the decode pool to the assembler. The pool
    /// opens a record only once its position fits in this window, so the
    /// decoded records it holds stay within the window's depth, and no
    /// pool thread ever parks in `stage`. It cannot deadlock: the head
    /// record always fits, and the thread that opens it claims its images
    /// itself when no other thread does.
    records: Handoff<Settled>,
    /// The lock recovers from poison: every critical section leaves the
    /// pool consistent at each step, so a panic on a holder's thread
    /// cannot expose a half-updated one.
    pool: Mutex<Pool>,
    order: EpochOrder,
    scan_group: usize,
    decode: DecodeMode,
    io: IoModel,
    retry: RetryPolicy,
    budget: RetryBudget,
    source: Arc<S>,
    #[cfg(test)]
    hooks: tests::Hooks,
}

/// Closes the epoch if its stage thread unwinds, so a panic in one stage
/// cannot leave the others parked on a window that will never move.
struct CloseOnPanic<'a, S: ?Sized>(&'a EpochShared<S>);

impl<S: ?Sized> Drop for CloseOnPanic<'_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

impl<S: ?Sized> EpochShared<S> {
    /// Cancels the epoch: open records are dropped, nothing more is
    /// claimed, staged or taken, and every parked stage thread returns.
    fn close(&self) {
        let mut pool = self.pool.lock();
        pool.closed = true;
        pool.open.clear();
        drop(pool);
        self.fetched.close();
        self.records.close();
    }
}

impl<S: RecordSource + ?Sized> EpochShared<S> {
    /// One rung of a record's ladder on the wall clock: the store's
    /// clocked, cached, counted read path, wrapped in retry/backoff and
    /// read-failure degradation, then — for
    /// [`IoModel::EmulatedLatency`] — the successful read's service time,
    /// slept before the bytes go anywhere.
    fn fetch_rung(&self, ladder: &mut Ladder) -> Option<Rung> {
        let rung = ladder.fetch(&self.store, &*self.source, &self.retry, &self.budget)?;
        if self.io == IoModel::EmulatedLatency {
            let service = rung.read.finish - rung.read.start;
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_secs_f64(service.max(0.0)));
            add_elapsed(&self.stats.io_wait_nanos, t0);
        }
        Some(rung)
    }

    /// One fetcher: claim the next epoch-order position, resolve it
    /// through the streaming [`EpochOrder`] bijection, fetch the record's
    /// first deliverable rung, stage it — parking, read in hand, while
    /// the position lies beyond the window. Returns when every position
    /// is claimed or the hand-off closes.
    fn fetch_loop(&self) {
        let _guard = CloseOnPanic(self);
        while let Some(pos) = self.fetched.claim() {
            let mut ladder = Ladder::new(self.order.get(pos), self.scan_group);
            let rung = self.fetch_rung(&mut ladder);
            self.fetched.stage(pos, Fetched { ladder, rung });
        }
    }

    /// One pool thread's epoch: claim work, decode one image at a time
    /// into `scratch`, and settle every record whose last image it
    /// decoded. Returns when the epoch is drained or closed.
    fn decode_loop(&self, scratch: &mut RecordScratch) {
        let _guard = CloseOnPanic(self);
        while let Some(work) = self.next_work() {
            match work {
                Work::Record(pos, Fetched { ladder, rung }) => self.settle(pos, ladder, rung),
                Work::Image { pos, image, bytes } => {
                    #[cfg(test)]
                    self.hooks.before_decode(self.order.get(pos));
                    let (decoded, seconds) = crate::timing::measure(|| {
                        let rec = PcrRecord::parse(&bytes).ok()?;
                        let group = prefix_group(&rec, self.scan_group);
                        rec.decode_image_with(image, group, scratch).ok()
                    });
                    self.stats.decode_nanos.fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
                    self.finish(pos, image, decoded);
                }
            }
        }
    }

    /// A pool thread's next work: the next image of the oldest open
    /// record or — when no open record has one left — the next record
    /// from the fetch hand-off, once its position fits in the reorder
    /// window. `None` once the epoch is drained or closed.
    fn next_work(&self) -> Option<Work> {
        if let Some(work) = self.pool.lock().claim() {
            return Some(work);
        }
        let t0 = Instant::now();
        let taken = self.fetched.take();
        add_elapsed(&self.stats.decode_starved_nanos, t0);
        let (pos, fetched) = taken?;
        // Waiting for room is waiting on the consumer, not on storage.
        self.records.wait_for_room(pos).then_some(Work::Record(pos, fetched))
    }

    /// Files image `image` of the record at `pos` — `None`: it failed to
    /// decode, and the rung's unclaimed images are dropped. The thread
    /// that files a rung's last claimed image runs the record's decode
    /// check: delivered when every image decoded, else its ladder steps
    /// down a rung from this thread.
    fn finish(&self, pos: usize, image: usize, decoded: Option<ImageBuf>) {
        let mut pool = self.pool.lock();
        // Gone when the epoch closed meanwhile.
        let Some(at) = pool.open.iter().position(|r| r.pos == pos) else { return };
        let rec = &mut pool.open[at];
        rec.running -= 1;
        match (decoded, rec.images.get_mut(image)) {
            (Some(decoded), Some(slot)) => *slot = Some(decoded),
            _ => rec.next = rec.images.len(),
        }
        if rec.running > 0 || rec.next < rec.images.len() {
            return;
        }
        let OpenRecord { mut ladder, rung, images, .. } = pool.open.swap_remove(at);
        drop(pool);
        match images.into_iter().collect() {
            Some(images) => self.deliver(pos, ladder, &rung, images),
            None => {
                ladder.reject(&rung, "undecodable");
                let next = self.fetch_rung(&mut ladder);
                self.settle(pos, ladder, next);
            }
        }
    }

    /// Settles the record at `pos` on `rung`: quarantined when no rung is
    /// left, delivered at once when there is nothing to decode, otherwise
    /// opened in the pool as one unit per image. A rung whose bytes do not
    /// parse, or whose labels are not the source's labels for the record,
    /// fails the decode check here: the assembler pairs decoded images
    /// with the source's labels, so the two must agree image for image.
    /// A label mismatch ends the ladder at once: every rung is a prefix of
    /// the same record bytes, whose index — and so whose labels — each
    /// lower rung would repeat.
    fn settle(&self, pos: usize, mut ladder: Ladder, mut rung: Option<Rung>) {
        loop {
            let Some(candidate) = rung else {
                let faults = ladder.quarantine(&*self.source);
                return self.stage(pos, Settled { images: None, faults });
            };
            let images = match self.decode {
                // Nothing to decode: the bytes read are the delivery.
                DecodeMode::Skip => Ok(0),
                DecodeMode::Real => match PcrRecord::parse(&candidate.read.data) {
                    Ok(rec) if rec.labels() == self.source.labels(self.order.get(pos)) => {
                        Ok(rec.num_images())
                    }
                    Ok(_) => Err(("labels differ from the index's", false)),
                    Err(_) => Err(("undecodable", true)),
                },
            };
            match images {
                Ok(0) => return self.deliver(pos, ladder, &candidate, Vec::new()),
                Ok(n) => {
                    let images = std::iter::repeat_with(|| None).take(n).collect();
                    let record = OpenRecord { pos, ladder, rung: candidate, next: 0, running: 0, images };
                    let mut pool = self.pool.lock();
                    if !pool.closed {
                        pool.open.push(record);
                    }
                    return;
                }
                Err((why, step_down)) => {
                    ladder.reject(&candidate, why);
                    rung = if step_down { self.fetch_rung(&mut ladder) } else { None };
                }
            }
        }
    }

    /// Delivers the record at `pos` on `rung`, with its decoded `images`.
    fn deliver(&self, pos: usize, ladder: Ladder, rung: &Rung, images: Vec<ImageBuf>) {
        self.stats.bytes_read.fetch_add(rung.read.data.len() as u64, Ordering::Relaxed);
        self.stats.records_loaded.fetch_add(1, Ordering::Relaxed);
        self.stage(pos, Settled { images: Some(images), faults: ladder.accept(rung) });
    }

    /// Stages a settled record for the assembler; a closed window cancels
    /// the epoch.
    fn stage(&self, pos: usize, settled: Settled) {
        if !self.records.stage(pos, settled) {
            self.close();
        }
    }

    /// The assembler's epoch: takes settled records strictly in
    /// epoch-order position, merges their fault accounting and packs their
    /// images into fixed-size minibatches. Returns when the epoch drains
    /// or closes; a consumer gone closes it.
    fn assemble(&self, batch_tx: &SyncSender<Minibatch>, batch_size: usize) {
        let _guard = CloseOnPanic(self);
        let mut images: Vec<ImageBuf> = Vec::new();
        let mut labels: Vec<u32> = Vec::new();
        // Determinism invariant, checked under pcr-debug-sync: records
        // reach the assembler at positions 0, 1, 2, … — the epoch order,
        // whatever the pool's interleaving.
        #[cfg(feature = "pcr-debug-sync")]
        let mut positions = 0..;
        while let Some((pos, settled)) = self.records.take() {
            #[cfg(feature = "pcr-debug-sync")]
            assert_eq!(Some(pos), positions.next(), "pcr-debug-sync: assembled out of epoch order");
            if !settled.faults.is_clean() {
                self.stats.faults.lock().merge(settled.faults);
            }
            // A quarantined record delivers nothing.
            let Some(imgs) = settled.images else { continue };
            images.extend(imgs);
            labels.extend_from_slice(self.source.labels(self.order.get(pos)));
            // Labels set the pace: under Real decode `settle` has checked
            // that each record brings one image per label; otherwise
            // images stays empty.
            while labels.len() >= batch_size {
                let rest_i = images.split_off(batch_size.min(images.len()));
                let rest_l = labels.split_off(batch_size);
                let batch = Minibatch {
                    images: std::mem::replace(&mut images, rest_i),
                    labels: std::mem::replace(&mut labels, rest_l),
                };
                if batch_tx.send(batch).is_err() {
                    self.close();
                    return;
                }
            }
        }
        if !images.is_empty() || !labels.is_empty() {
            let _ = batch_tx.send(Minibatch { images, labels });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_storage::DeviceProfile;

    /// Test-only knobs a loader hands its crew and its epochs.
    #[derive(Debug, Clone, Default)]
    pub(super) struct Hooks {
        /// Pins the decode pool's size instead of the core-count rule.
        pub(super) pool: Option<usize>,
        /// A record whose next image decode panics, once.
        panic_decoding: Arc<Mutex<Option<usize>>>,
    }

    impl Hooks {
        /// Panics, once, as a pool thread holding a claimed image of the
        /// armed record is about to decode it.
        pub(super) fn before_decode(&self, idx: usize) {
            let mut armed = self.panic_decoding.lock();
            if *armed == Some(idx) {
                *armed = None;
                drop(armed);
                panic!("pool thread panicked decoding record {idx}");
            }
        }
    }

    impl<S: RecordSource + ?Sized + 'static> ParallelLoader<S> {
        /// The loader with its decode pool pinned at `pool` threads.
        fn with_pool(mut self, pool: usize) -> Self {
            self.hooks.pool = Some(pool);
            self
        }
    }

    fn make(n: usize, profile: DeviceProfile) -> (Arc<ObjectStore>, Arc<MetaDb>) {
        // One label per image, so a label sequence names a delivery
        // order, not just a multiset.
        let ds = crate::source::test_dataset(n, 4, |i| i as u32);
        let store = ObjectStore::new(profile);
        crate::source::populate_store(&store, &ds);
        (Arc::new(store), Arc::new(ds.db.clone()))
    }

    // A loader is shared across threads; a stream moves to the one
    // thread that consumes it.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        const fn send<T: Send>() {}
        send_sync::<ParallelLoader<crate::sharded::ShardedSource>>();
        send::<EpochStream>();
    };

    /// Under pcr-debug-sync every mutex acquisition in the loader and the
    /// storage layer feeds the lock-order graph, and the assembler checks
    /// that records arrive in epoch order; a contended real-decode epoch
    /// completing without tripping an assertion — twice, delivering
    /// EpochOrder — is the pass.
    #[cfg(feature = "pcr-debug-sync")]
    #[test]
    fn debug_sync_epoch_is_deterministic_and_clean() {
        let (store, db) = make(11, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 3, ..ParallelConfig::real(4, 10) };
        let loader = ParallelLoader::new(store, Arc::clone(&db), cfg.clone());
        let expected = expected_labels(&cfg, &db, 1);
        assert_eq!(expected.len(), 11);
        assert_eq!(epoch_labels(&loader, 1), expected);
        assert_eq!(epoch_labels(&loader, 1), expected);
    }

    #[test]
    fn real_decode_delivers_every_image_once() {
        let (store, db) = make(13, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 4, ..ParallelConfig::real(3, 10) };
        let loader = ParallelLoader::new(store, db, cfg);
        let stream = loader.spawn_epoch(0);
        let stats = Arc::clone(&stream.stats);
        let (sizes, report) = stream.fold(|batches| {
            batches
                .map(|b| {
                    assert_eq!(b.images.len(), b.labels.len());
                    b.images.len()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(sizes, [4, 4, 4, 1], "full batches, then the remainder");
        assert_eq!(report.images, 13);
        assert_eq!(stats.records_loaded.load(Ordering::Relaxed), 4);
        assert!(report.bytes > 0);
        // Decode throughput comes from wall-clock Instant deltas; a coarse
        // or virtualized CI clock can legitimately measure zero, so the
        // strictly-positive check is opt-in (PCR_STRICT_TIMING=1).
        if std::env::var_os("PCR_STRICT_TIMING").is_some() {
            assert!(report.decode_seconds > 0.0);
        }
    }

    #[test]
    fn a_record_whose_labels_disagree_with_its_index_is_quarantined() {
        // Record 0 holds 4 images, but its index lists only 3 labels.
        let (store, db) = make(13, DeviceProfile::ram());
        let mut db = (*db).clone();
        db.records[0].labels.pop();
        let index_labels = db.records[0].labels.clone();
        let db = Arc::new(db);
        let cfg = ParallelConfig { batch_size: 4, ..ParallelConfig::real(1, 10) };
        let expected: Vec<u32> = ReadPlanner::from_config(&cfg.loader)
            .epoch_order(db.records.len(), 2)
            .into_iter()
            .filter(|&idx| idx != 0)
            .flat_map(|idx| db.records[idx].labels.clone())
            .collect();
        for pool in 1..=3 {
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg.clone())
                .with_pool(pool);
            let reads_before = store.device_stats().reads;
            let (labels, report) = loader.spawn_epoch(2).fold(|batches| {
                batches
                    .flat_map(|b| {
                        assert_eq!(b.images.len(), b.labels.len(), "pool {pool}: one image per label");
                        b.labels
                    })
                    .collect::<Vec<u32>>()
            });
            assert_eq!(labels, expected, "pool {pool}: EpochOrder without record 0");
            let faults = &report.faults;
            assert_eq!(faults.quarantined_records, 1, "pool {pool}");
            let quarantined: Vec<u32> = faults
                .quarantined_labels
                .iter()
                .flat_map(|(&label, &n)| std::iter::repeat_n(label, n as usize))
                .collect();
            assert_eq!(quarantined, index_labels, "pool {pool}: the index's labels");
            assert_eq!(faults.quarantine[0].record, 0);
            assert!(faults.quarantine[0].reason.starts_with("labels differ"), "{faults:?}");
            // One read per record: the mismatch reads no lower rung.
            let reads = store.device_stats().reads - reads_before;
            assert_eq!(reads, db.records.len() as u64, "pool {pool}");
        }
    }

    #[test]
    fn worker_count_does_not_change_delivered_multiset() {
        let (store, db) = make(17, DeviceProfile::ram());
        let labels_at = |threads: usize| {
            let cfg = ParallelConfig {
                batch_size: 5,
                ..ParallelConfig::real(threads, 2)
            };
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg.clone());
            let mut labels = epoch_labels(&loader, 3);
            assert_eq!(labels, expected_labels(&cfg, &db, 3), "{threads} threads: EpochOrder");
            labels.sort_unstable();
            labels
        };
        let two = labels_at(2);
        assert_eq!(two.len(), 17);
        assert_eq!(two, labels_at(8));
    }

    #[test]
    fn skip_mode_delivers_labels_without_pixels() {
        let (store, db) = make(10, DeviceProfile::ram());
        let cfg = ParallelConfig {
            loader: LoaderConfig { threads: 2, decode: DecodeMode::Skip, ..LoaderConfig::at_group(1) },
            batch_size: 4,
            ..ParallelConfig::default()
        };
        let loader = ParallelLoader::new(store, db, cfg);
        let (images, report) = loader.spawn_epoch(0).fold(|batches| {
            batches
                .map(|b| {
                    assert!(b.labels.len() <= 4);
                    b.images.len()
                })
                .sum::<usize>()
        });
        assert_eq!(images, 0);
        assert_eq!(report.images, 10, "labels count the deliveries");
        assert_eq!(report.decode_seconds, 0.0);
    }

    /// A catalog that panics when asked to plan one record below group
    /// 10 — the lower-group re-plan a failed decode check makes on the
    /// pool thread that ran the check.
    struct PanicsOn(MetaDb, usize);

    impl RecordSource for PanicsOn {
        fn num_records(&self) -> usize {
            self.0.num_records()
        }
        fn plan(&self, idx: usize, scan_group: usize) -> crate::source::ReadPlan<'_> {
            if idx == self.1 && scan_group < 10 {
                panic!("pool thread panicked re-planning record {idx}");
            }
            self.0.plan(idx, scan_group)
        }
        fn labels(&self, idx: usize) -> &[u32] {
            self.0.labels(idx)
        }
    }

    /// A stage thread that dies cuts the epoch short; the fold must say
    /// so by panicking instead of reporting the partial epoch. Record 1
    /// is stored as bytes that fail the decode check, so the pool thread
    /// that settles it descends the ladder and panics in the re-plan.
    #[test]
    #[should_panic(expected = "pool thread panicked re-planning record 1")]
    fn stage_thread_panic_reaches_the_fold() {
        let (store, db) = make(9, DeviceProfile::ram());
        store.put(&db.records[1].name, b"not a record".to_vec());
        let source = Arc::new(PanicsOn((*db).clone(), 1));
        let loader = ParallelLoader::new(store, source, ParallelConfig::real(2, 10));
        loader.spawn_epoch(0).fold(|batches| batches.count());
    }

    #[test]
    fn run_epoch_reports_wall_clock_throughput() {
        let (store, db) = make(8, DeviceProfile::ram());
        let loader = ParallelLoader::new(store, db, ParallelConfig::real(2, 5));
        let r = loader.run_epoch(0);
        assert_eq!(r.images, 8);
        assert!(r.bytes > 0);
        assert!(r.mean_image_bytes() > 0.0);
        // Wall-clock measurements need a trustworthy monotonic clock; a
        // coarse CI clock can measure zero, so these are opt-in
        // (PCR_STRICT_TIMING=1, matching the loader timing tests).
        if std::env::var_os("PCR_STRICT_TIMING").is_some() {
            assert!(r.seconds > 0.0);
            assert!(r.images_per_sec() > 0.0);
        }
    }

    #[test]
    fn lower_scan_groups_read_fewer_bytes() {
        let (store, db) = make(12, DeviceProfile::ram());
        let at = |g: usize| {
            let loader =
                ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), ParallelConfig::real(2, g));
            loader.run_epoch(0).bytes
        };
        let low = at(1);
        // Wall-clock reads run through the clocked store path, so the
        // (uncached) device counted exactly the bytes the loader did.
        assert_eq!(store.device_stats().bytes, low, "device saw the same traffic");
        let full = at(10);
        assert!(low < full / 2, "group-1 bytes {low} vs full {full}");
    }

    #[test]
    fn emulated_io_latency_overlaps_across_prefetch_depth() {
        // Skip decode and one decode thread, so the epoch is pure emulated
        // I/O and nothing but `prefetch_records` can overlap it: a deeper
        // window overlaps that many sleeps even on a single core.
        let run = |prefetch_records: usize| {
            // 96 images in records of 4: 24 records, one seek each.
            let (store, db) = make(96, DeviceProfile::hdd_7200rpm());
            let cfg = ParallelConfig {
                loader: LoaderConfig {
                    threads: 1,
                    decode: DecodeMode::Skip,
                    ..LoaderConfig::at_group(1)
                },
                io: IoModel::EmulatedLatency,
                prefetch_records,
                ..ParallelConfig::default()
            };
            let loader = ParallelLoader::new(Arc::clone(&store), db, cfg);
            let (mut labels, epoch) =
                loader.spawn_epoch(0).fold(|b| b.flat_map(|b| b.labels).collect::<Vec<u32>>());
            labels.sort_unstable();
            (labels, epoch.seconds, store.device_stats().busy_time)
        };
        let (one_labels, one_wall, one_service) = run(1);
        let (six_labels, six_wall, _) = run(6);
        assert_eq!(one_labels.len(), 96);
        assert_eq!(one_labels, six_labels);
        // thread::sleep never returns early, so at depth 1 the epoch is
        // floored at its 24 serialized emulated seeks (~300ms) —
        // assertable even under coarse clocks.
        assert!(one_service > 0.012 * 24.0, "24 hdd seeks, got {one_service:.3}s");
        assert!(
            one_wall >= one_service,
            "depth 1 serializes every read: wall {one_wall:.3}s < service {one_service:.3}s"
        );
        // The >2x overlap ratio additionally assumes the depth-6 run is
        // not descheduled for long stretches; strict mode only.
        if std::env::var_os("PCR_STRICT_TIMING").is_some() {
            assert!(
                one_wall > six_wall * 2.0,
                "depth 1 {one_wall:.3}s should be >2x slower than depth 6 {six_wall:.3}s"
            );
        }
    }

    /// The fault mix of the benchmark's storage-bound workload, dense
    /// enough to hit a 20-record epoch several times over.
    fn noisy_plan() -> pcr_storage::FaultPlan {
        pcr_storage::FaultPlan {
            seed: 11,
            transient: 0.2,
            torn: 0.1,
            latency: 0.2,
            latency_factor: 8.0,
            ..pcr_storage::FaultPlan::default()
        }
    }

    #[test]
    fn racing_reads_deliver_the_epoch_order_exactly() {
        // Eight reads race — spiked, retried after backoff, torn — and
        // complete in any order, and the pool decodes in any order; the
        // consumer must still see EpochOrder, run after run.
        let (store, db) = make(80, DeviceProfile::ssd_sata());
        let cfg = ParallelConfig {
            batch_size: 7,
            prefetch_records: 8,
            io: IoModel::EmulatedLatency,
            ..ParallelConfig::real(1, 10)
        };
        let expected: Vec<u32> = ReadPlanner::from_config(&cfg.loader)
            .epoch_order(db.records.len(), 3)
            .into_iter()
            .flat_map(|idx| db.records[idx].labels.clone())
            .collect();
        assert_eq!(expected.len(), 80);
        for (pool, run) in [(1, 0), (3, 1), (3, 2)] {
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg.clone());
            // Re-arming the plan resets its per-site attempt counters.
            store.set_fault_plan(Some(noisy_plan()));
            let stream = loader.with_pool(pool).spawn_epoch(3);
            let labels: Vec<u32> = stream.batches.iter().flat_map(|b| b.labels).collect();
            let stats = Arc::clone(&stream.stats);
            stream.join();
            assert_eq!(labels, expected, "pool {pool}, run {run}");
            let faults = stats.fault_report();
            assert!(faults.retries > 0, "the plan injected faults");
            assert!(faults.quarantined_records == 0);
        }
    }

    #[test]
    fn shuffling_is_epoch_dependent() {
        // 8 records: enough that two epochs drawing the same permutation
        // by chance (legitimate for any shuffle at tiny n) cannot happen
        // in practice. The loader delivers the epoch order itself.
        let (store, db) = make(32, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 4, ..ParallelConfig::real(1, 10) };
        let loader = ParallelLoader::new(store, db, cfg);
        let order_of = |epoch: u64| {
            let stream = loader.spawn_epoch(epoch);
            let labels: Vec<u32> = stream.batches.iter().flat_map(|b| b.labels).collect();
            stream.join();
            labels
        };
        let e0 = order_of(0);
        let e1 = order_of(1);
        assert_eq!(e0.len(), 32);
        assert_ne!(e0, e1, "different epochs shuffle differently");
        assert_eq!(order_of(0), e0, "same epoch is deterministic");
    }

    #[test]
    fn consumer_can_drop_early() {
        let (store, db) = make(40, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 2, prefetch_records: 2, ..ParallelConfig::real(4, 10) };
        let loader = ParallelLoader::new(store, db, cfg);
        let stream = loader.spawn_epoch(0);
        let first = stream.batches.iter().next().expect("one batch");
        assert_eq!(first.images.len(), 2);
        // `join` drops the receiver, waits for every stage job and
        // re-raises a panic if one died: it must return cleanly.
        stream.join();
    }

    #[test]
    fn consumer_can_drop_early_with_fetchers_parked_on_a_full_window() {
        // The consumer takes one batch (one record) and stops. Every queue
        // then fills: batch channel (2 records), assembler (1), the
        // reorder window before it (1: no deeper than the pool), the one
        // pool thread holding the next record until that window has room
        // (1), the fetch hand-off window (8) and 8 fetchers each holding a
        // read beyond it — 1 + 2 + 1 + 1 + 1 + 8 + 8 = 22 records read, of
        // which the first 1 + 2 + 1 + 1 = 5 loaded, and nothing moves
        // again until the receiver goes away.
        let (store, db) = make(160, DeviceProfile::ssd_sata());
        let cfg = ParallelConfig {
            batch_size: 4,
            prefetch_records: 8,
            io: IoModel::EmulatedLatency,
            ..ParallelConfig::real(1, 10)
        };
        let loader = ParallelLoader::new(Arc::clone(&store), db, cfg).with_pool(1);
        let stream = loader.spawn_epoch(0);
        let first = stream.batches.recv().expect("one batch");
        assert_eq!(first.images.len(), 4);
        // The last read issued is the state to cancel from: each fetcher
        // has its final read in hand and parks as soon as it has slept
        // that read's ~0.1 ms of service.
        let deadline = Instant::now() + Duration::from_secs(60);
        while store.device_stats().reads < 22 {
            assert!(Instant::now() < deadline, "the pipeline never filled its queues");
            std::thread::yield_now();
        }
        let stats = Arc::clone(&stream.stats);
        // `join` drops the receiver itself and must return.
        stream.join();
        assert_eq!(store.device_stats().reads, 22, "backpressure reached the reads");
        assert_eq!(stats.records_loaded.load(Ordering::Relaxed), 5, "the epoch was cancelled");
    }

    /// The labels an epoch delivers, in delivery order.
    fn epoch_labels<S: RecordSource + 'static>(loader: &ParallelLoader<S>, epoch: u64) -> Vec<u32> {
        loader.spawn_epoch(epoch).fold(|b| b.flat_map(|b| b.labels).collect::<Vec<u32>>()).0
    }

    /// The epoch's delivery order, as labels (one label per image).
    fn expected_labels(cfg: &ParallelConfig, db: &MetaDb, epoch: u64) -> Vec<u32> {
        ReadPlanner::from_config(&cfg.loader)
            .epoch_order(db.records.len(), epoch)
            .into_iter()
            .flat_map(|idx| db.records[idx].labels.clone())
            .collect()
    }

    #[test]
    fn eight_epochs_on_one_loader_build_one_crew() {
        let (store, db) = make(13, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 4, ..ParallelConfig::real(2, 10) };
        let loader = ParallelLoader::new(store, db, cfg).with_pool(2);
        for epoch in 0..8 {
            assert_eq!(loader.run_epoch(epoch).images, 13, "epoch {epoch}");
        }
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 1);
    }

    /// A catalog whose plan of one record panics the first time it is
    /// asked — a fetcher dies once, then the store behaves.
    struct PanicsOnce(MetaDb, usize, std::sync::atomic::AtomicBool);

    impl RecordSource for PanicsOnce {
        fn num_records(&self) -> usize {
            self.0.num_records()
        }
        fn plan(&self, idx: usize, scan_group: usize) -> crate::source::ReadPlan<'_> {
            if idx == self.1 && self.2.swap(false, Ordering::Relaxed) {
                panic!("fetcher panicked planning record {idx}");
            }
            self.0.plan(idx, scan_group)
        }
        fn labels(&self, idx: usize) -> &[u32] {
            self.0.labels(idx)
        }
    }

    #[test]
    fn the_epoch_after_a_stage_panic_is_whole() {
        let (store, db) = make(24, DeviceProfile::ram());
        let source = Arc::new(PanicsOnce((*db).clone(), 3, true.into()));
        let cfg = ParallelConfig { batch_size: 5, ..ParallelConfig::real(1, 10) };
        let expected = expected_labels(&cfg, &db, 1);
        let loader = ParallelLoader::new(store, source, cfg).with_pool(2);
        let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loader.spawn_epoch(0).fold(|batches| batches.count())
        }));
        let payload = cut.expect_err("the fetcher's panic reaches the fold");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("fetcher panicked planning record 3"));
        assert_eq!(epoch_labels(&loader, 1), expected, "the next epoch delivers EpochOrder in full");
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 2, "the panicked crew was closed");
    }

    #[test]
    fn a_cancelled_epoch_leaves_nothing_for_the_next() {
        let (store, db) = make(80, DeviceProfile::ram());
        let cfg =
            ParallelConfig { batch_size: 2, prefetch_records: 4, ..ParallelConfig::real(1, 10) };
        let loader = ParallelLoader::new(store, Arc::clone(&db), cfg.clone()).with_pool(3);
        for (epoch, taken) in [(0u64, 1usize), (1, 0), (2, 7)] {
            let stream = loader.spawn_epoch(epoch);
            let head: Vec<u32> = stream.batches.iter().take(taken).flat_map(|b| b.labels).collect();
            assert_eq!(head.len(), 2 * taken);
            drop(stream);
            let next = epoch + 10;
            let expected = expected_labels(&cfg, &db, next);
            assert_eq!(epoch_labels(&loader, next), expected, "after {epoch}");
        }
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn two_live_streams_on_one_loader_both_deliver() {
        let (store, db) = make(21, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 4, ..ParallelConfig::real(1, 10) };
        let loader = ParallelLoader::new(store, Arc::clone(&db), cfg.clone()).with_pool(2);
        let first = loader.spawn_epoch(0);
        let second = loader.spawn_epoch(1);
        // The second stream drains while the first holds its crew, parked
        // on a full batch channel: it has a crew of its own.
        let labels = |s: EpochStream| s.fold(|b| b.flat_map(|b| b.labels).collect::<Vec<u32>>()).0;
        assert_eq!(labels(second), expected_labels(&cfg, &db, 1));
        assert_eq!(labels(first), expected_labels(&cfg, &db, 0));
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 2);
        // One crew went back idle, the other was closed.
        assert_eq!(epoch_labels(&loader, 2), expected_labels(&cfg, &db, 2));
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn crew_threads_end_with_the_last_loader_and_stream() {
        let (store, db) = make(20, DeviceProfile::ram());
        let cfg =
            ParallelConfig { batch_size: 4, prefetch_records: 2, ..ParallelConfig::real(2, 10) };
        let loader = ParallelLoader::new(store, db, cfg).with_pool(3);
        let live = Arc::clone(&loader.crew.live);
        assert_eq!(live.load(Ordering::Relaxed), 0, "no crew before the first epoch");
        loader.run_epoch(0);
        // Two fetchers, three pool threads and the assembler.
        assert_eq!(live.load(Ordering::Relaxed), 2 + 3 + 1);
        let clone = loader.clone();
        let stream = clone.spawn_epoch(1);
        drop((loader, clone));
        assert_eq!(live.load(Ordering::Relaxed), 6, "the live stream keeps its crew");
        assert_eq!(stream.fold(|b| b.count()).1.images, 20);
        assert_eq!(live.load(Ordering::Relaxed), 0, "every crew thread joined");
    }

    #[test]
    fn consumer_can_drop_early_with_the_pool_waiting_for_the_reorder_window() {
        // The consumer takes one batch (record 0) and stops. With windows
        // of 2 the pipeline stalls at: batch channel (records 1 and 2),
        // the assembler blocked sending record 3, the reorder window
        // (records 4 and 5), the two pool threads holding records 6 and 7
        // until it has room, the fetch window (8 and 9) and two fetchers
        // holding reads 10 and 11: 12 records read, records 0 to 5 loaded.
        let (store, db) = make(160, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 4, prefetch_records: 2, ..ParallelConfig::real(1, 10) };
        let loader =
            ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg.clone()).with_pool(2);
        let stream = loader.spawn_epoch(0);
        let first = stream.batches.recv().expect("one batch");
        assert_eq!(first.labels, expected_labels(&cfg, &db, 0)[..4]);
        let stats = Arc::clone(&stream.stats);
        let deadline = Instant::now() + Duration::from_secs(60);
        while stats.records_loaded.load(Ordering::Relaxed) < 6 || store.device_stats().reads < 12 {
            assert!(Instant::now() < deadline, "the pipeline never filled its windows");
            std::thread::yield_now();
        }
        // `join` drops the receiver itself and must return.
        stream.join();
        assert_eq!(store.device_stats().reads, 12, "backpressure reached the reads");
        assert_eq!(stats.records_loaded.load(Ordering::Relaxed), 6, "no record left the window");
        assert_eq!(epoch_labels(&loader, 1), expected_labels(&cfg, &db, 1), "the next epoch is whole");
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_pool_thread_panic_on_a_claimed_image_reaches_the_fold() {
        let (store, db) = make(24, DeviceProfile::ram());
        let cfg = ParallelConfig { batch_size: 5, ..ParallelConfig::real(1, 10) };
        let loader = ParallelLoader::new(store, Arc::clone(&db), cfg.clone()).with_pool(3);
        *loader.hooks.panic_decoding.lock() = Some(2);
        let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            loader.spawn_epoch(0).fold(|batches| batches.count())
        }));
        let payload = cut.expect_err("the pool thread's panic reaches the fold");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("pool thread panicked decoding record 2"));
        assert_eq!(epoch_labels(&loader, 1), expected_labels(&cfg, &db, 1), "the next epoch is whole");
        assert_eq!(loader.crew.built.load(Ordering::Relaxed), 2, "the panicked crew was closed");
    }

    /// Each delivered image's label with a hash of its pixels, in order.
    fn delivered_images(loader: &ParallelLoader, epoch: u64) -> (Vec<(u32, u64)>, EpochReport) {
        use std::hash::{Hash, Hasher};
        loader.spawn_epoch(epoch).fold(|batches| {
            batches
                .flat_map(|b| {
                    assert_eq!(b.images.len(), b.labels.len());
                    b.labels.into_iter().zip(b.images)
                })
                .map(|(label, image)| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    (image.width(), image.height(), image.channels(), image.data()).hash(&mut h);
                    (label, h.finish())
                })
                .collect()
        })
    }

    /// A 5-image-per-record catalog: 37 images, so the last record holds
    /// two and the larger pools are wider than some records.
    fn pool_catalog() -> pcr_core::PcrDataset {
        crate::source::test_dataset(37, 5, |i| i as u32)
    }

    fn stored(ds: &pcr_core::PcrDataset) -> (Arc<ObjectStore>, Arc<MetaDb>) {
        let store = ObjectStore::new(DeviceProfile::ram());
        crate::source::populate_store(&store, ds);
        (Arc::new(store), Arc::new(ds.db.clone()))
    }

    /// One epoch of `ds` at each pool size: the delivered (label, pixel
    /// hash) sequence and the fault report of each must be those of a
    /// pool of one, whose labels are returned with its report.
    fn same_at_every_pool_size(
        ds: &pcr_core::PcrDataset,
        cfg: &ParallelConfig,
        epoch: u64,
    ) -> (Vec<u32>, FaultReport) {
        let (store, db) = stored(ds);
        let at = |pool: usize| {
            let (store, db) = (Arc::clone(&store), Arc::clone(&db));
            let loader = ParallelLoader::new(store, db, cfg.clone()).with_pool(pool);
            let (images, report) = delivered_images(&loader, epoch);
            (images, report.faults)
        };
        let (serial, faults) = at(1);
        for pool in [2, 3, 8] {
            assert_eq!(at(pool), (serial.clone(), faults.clone()), "pool {pool}");
        }
        (serial.into_iter().map(|(label, _)| label).collect(), faults)
    }

    #[test]
    fn every_pool_size_delivers_the_same_pixels_in_epoch_order() {
        let ds = pool_catalog();
        for group in [3, 10] {
            let cfg = ParallelConfig { batch_size: 6, ..ParallelConfig::real(1, group) };
            let (labels, faults) = same_at_every_pool_size(&ds, &cfg, 4);
            assert_eq!(labels, expected_labels(&cfg, &ds.db, 4), "group {group}");
            assert!(faults.is_clean());
        }
    }

    #[test]
    fn every_pool_size_keeps_the_decode_check() {
        // Image 2 of record 3 loses its SOI: the record parses, that one
        // image fails at every group, and the ladder walks down to
        // quarantine — whichever thread decodes the image.
        let mut ds = pool_catalog();
        let rec = pcr_core::PcrRecord::parse(&ds.records[3]).expect("parses");
        let headers_end = rec.offset_for_group(0);
        let sois: Vec<usize> = (0..headers_end - 1)
            .filter(|&at| ds.records[3][at..at + 2] == [0xFF, 0xD8])
            .collect();
        assert_eq!(sois.len(), 5, "one SOI per image header");
        ds.records[3][sois[2]..sois[2] + 2].copy_from_slice(&[0, 0]);
        let cfg = ParallelConfig { batch_size: 6, ..ParallelConfig::real(1, 10) };
        let (labels, faults) = same_at_every_pool_size(&ds, &cfg, 0);
        assert_eq!(faults.quarantined_records, 1);
        assert_eq!(faults.quarantined_images(), 5);
        let mut expected = expected_labels(&cfg, &ds.db, 0);
        expected.retain(|label| !ds.db.records[3].labels.contains(label));
        assert_eq!(labels, expected, "EpochOrder minus the quarantined record");
    }

    #[test]
    fn a_record_degraded_mid_epoch_keeps_epoch_order_at_every_pool_size() {
        // One byte of the middle record's group-10 scans is flipped where
        // it breaks a decode at group 10; group 9's prefix is intact, so
        // the record's ladder resumes one rung down on the pool thread
        // that ran the check, and the record is delivered degraded.
        let mut ds = pool_catalog();
        let cfg = ParallelConfig { batch_size: 6, ..ParallelConfig::real(1, 10) };
        let order = ReadPlanner::from_config(&cfg.loader).epoch_order(ds.db.records.len(), 2);
        let victim = order[order.len() / 2];
        let bytes = &ds.records[victim];
        let rec = pcr_core::PcrRecord::parse(bytes).expect("parses");
        let group_10 = rec.offset_for_group(9)..rec.offset_for_group(10);
        let at = group_10
            .into_iter()
            .find(|&at| {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0xFF;
                let rec = pcr_core::PcrRecord::parse(&flipped).expect("the index is intact");
                (0..rec.num_images()).any(|i| rec.decode_image(i, 10).is_err())
            })
            .expect("some flip in group 10 breaks a decode");
        ds.records[victim][at] ^= 0xFF;
        let (labels, faults) = same_at_every_pool_size(&ds, &cfg, 2);
        assert_eq!(labels, expected_labels(&cfg, &ds.db, 2), "EpochOrder, degraded record included");
        assert_eq!((faults.degraded_records, faults.quarantined_records), (1, 0));
    }
}
