//! The wall-clock loader's standing stage threads: one *crew* of
//! fetchers, decode workers with their helpers, and an assembler, built
//! on a loader's first epoch and handed every later epoch as jobs.
//!
//! Spawning the stage threads anew each epoch costs more than the spawn:
//! each fresh thread that allocates draws on a fresh malloc arena, and the
//! process's resident set spreads with them. A crew keeps its threads —
//! and each decode thread its [`RecordScratch`] — for as long as the
//! loader lives:
//!
//! - [`CrewSlot`] is the loader's one idle crew. [`CrewSlot::lease`] takes
//!   it (or builds one when it is out — a second live epoch never waits
//!   for the first) and wraps it in a [`CrewLease`] for one epoch.
//! - [`CrewLease::assign`] queues one job per thread of a [`Stage`]; each
//!   job runs under `catch_unwind`, and its outcome — return or panic —
//!   comes back to the lease.
//! - [`CrewLease::finish`] (or dropping the lease) waits for every job of
//!   the epoch, then gives the crew back to the slot; a crew that saw a
//!   panic is closed instead, and the first panic is returned for the
//!   caller to re-raise.
//! - Dropping the last handle on the slot or on a crew closes its job
//!   queues and joins its threads.
//!
//! **Fan-out inside one record.** Each decode worker owns `fan − 1`
//! helper threads. [`Hand::decode_record`] lets the worker and its helpers
//! claim a record's images one at a time (an atomic index) and decode
//! them into image-index slots, all reading the same [`ByteView`]. The
//! images, their order and the decode check — every image must decode —
//! are those of decoding the record serially; only the wall time changes.

use crate::source::{decode_images, prefix_group};
use crossbeam::channel::{unbounded, Receiver, Sender};
use pcr_core::{PcrRecord, RecordScratch};
use pcr_jpeg::ImageBuf;
use pcr_storage::ByteView;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// How a job ended: `Err` carries its panic payload.
type Outcome = std::thread::Result<()>;

/// One unit of work for a crew thread.
type Job = Box<dyn FnOnce(&mut Hand) + Send>;

/// What a crew thread keeps from one job to the next.
#[derive(Default)]
pub(crate) struct Hand {
    /// Decode buffers, grown on first use (decode workers and helpers).
    scratch: RecordScratch,
    /// A decode worker's helpers; `None` on every other thread, and on
    /// decode workers when `fan` is 1.
    helpers: Option<Helpers>,
}

/// A decode worker's `fan − 1` helper threads: their job queues, and the
/// channel each reports its share of a record on.
struct Helpers {
    queues: Vec<Sender<Job>>,
    done_tx: Sender<Outcome>,
    done: Receiver<Outcome>,
}

impl Hand {
    /// Decodes the `.pcr` record prefix `bytes` at `scan_group` (clamped
    /// to the groups the bytes contain), splitting its images with this
    /// thread's helpers. `None` when the record does not parse or any of
    /// its images does not decode — the loader's decode check.
    ///
    /// # Panics
    ///
    /// Re-raises a helper's panic.
    pub(crate) fn decode_record(
        &mut self,
        bytes: &ByteView,
        scan_group: usize,
    ) -> Option<Vec<ImageBuf>> {
        let rec = PcrRecord::parse(bytes).ok()?;
        // One helper per image past the first is the most that can help.
        let wanted = rec.num_images().saturating_sub(1);
        let helpers = match &self.helpers {
            Some(helpers) if wanted > 0 => helpers,
            _ => return decode_images(&rec, scan_group, &mut self.scratch),
        };
        let record = Arc::new(FanRecord {
            bytes: bytes.clone(),
            scan_group,
            next: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            slots: Mutex::new(std::iter::repeat_with(|| None).take(rec.num_images()).collect()),
        });
        let mut dispatched = 0;
        for queue in helpers.queues.iter().take(wanted) {
            let record = Arc::clone(&record);
            let done_tx = helpers.done_tx.clone();
            let share: Job = Box::new(move |hand| {
                let outcome = catch_unwind(AssertUnwindSafe(|| record.share(&mut hand.scratch)));
                drop(record);
                let _ = done_tx.send(outcome);
            });
            // A helper's queue closes only when its decode worker exits.
            if queue.send(share).is_ok() {
                dispatched += 1;
            }
        }
        record.share_parsed(&rec, &mut self.scratch);
        for _ in 0..dispatched {
            match helpers.done.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => resume_unwind(payload),
                // `done_tx` lives as long as `done`; unreachable.
                Err(_) => return None,
            }
        }
        record.images()
    }
}

/// One record being decoded by a decode worker and its helpers.
///
/// The atomics are `Relaxed`: the claim index publishes nothing, images
/// travel under `slots`' lock, and the worker reads `failed` only after
/// every share has reported over its helper's `done` channel, which
/// orders the shares' writes before the read. A poisoned `slots` lock
/// still guards whole slots — each update is one assignment — so it is
/// recovered, not propagated.
struct FanRecord {
    bytes: ByteView,
    scan_group: usize,
    /// Next image index to claim.
    next: AtomicUsize,
    /// Set by the first image that fails to decode.
    failed: AtomicBool,
    /// Decoded images, by image index.
    slots: Mutex<Vec<Option<ImageBuf>>>,
}

impl FanRecord {
    /// A helper's share: parse the shared bytes, then claim images.
    fn share(&self, scratch: &mut RecordScratch) {
        match PcrRecord::parse(&self.bytes) {
            Ok(rec) => self.share_parsed(&rec, scratch),
            Err(_) => self.failed.store(true, Ordering::Relaxed),
        }
    }

    /// Claims and decodes images of `rec` until none is left or one has
    /// failed.
    fn share_parsed(&self, rec: &PcrRecord<'_>, scratch: &mut RecordScratch) {
        let group = prefix_group(rec, self.scan_group);
        while !self.failed.load(Ordering::Relaxed) {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= rec.num_images() {
                return;
            }
            match rec.decode_image_with(i, group, scratch) {
                Ok(image) => {
                    let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some(slot) = slots.get_mut(i) {
                        *slot = Some(image);
                    }
                }
                Err(_) => self.failed.store(true, Ordering::Relaxed),
            }
        }
    }

    /// The record's images in index order, once every share is done;
    /// `None` if any failed.
    fn images(&self) -> Option<Vec<ImageBuf>> {
        if self.failed.load(Ordering::Relaxed) {
            return None;
        }
        let slots = std::mem::take(&mut *self.slots.lock().unwrap_or_else(PoisonError::into_inner));
        slots.into_iter().collect()
    }
}

/// The crew's threads by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The fetch stage: plan, read, stage in the hand-off.
    Fetch,
    /// The decode workers (each with its helpers behind it).
    Decode,
    /// The one assembler.
    Assemble,
}

/// How many threads of each role a crew has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrewShape {
    /// Fetch threads.
    pub(crate) fetchers: usize,
    /// Decode workers — records decoding at once.
    pub(crate) decoders: usize,
    /// Threads decoding one record: its worker plus `fan − 1` helpers.
    pub(crate) fan: usize,
}

/// A built crew: its job queues and its threads.
struct Crew {
    shape: CrewShape,
    /// One queue per thread that takes epoch jobs: fetchers, then decode
    /// workers, then the assembler. Helpers are queued by their worker.
    queues: Vec<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

/// Stack of a fetch thread. A fetcher's deepest call chain is the store
/// read path plus an error `format!`; 256 KiB leaves that an order of
/// magnitude of headroom in debug builds.
const FETCH_STACK_BYTES: usize = 256 << 10;

/// Counts one crew thread alive until it exits.
struct Alive(Arc<AtomicUsize>);

impl Drop for Alive {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Crew {
    fn build(shape: CrewShape, live: &Arc<AtomicUsize>) -> Self {
        let mut threads = Vec::new();
        let mut spawn = |name: String, stack: Option<usize>, hand: Hand| {
            let (tx, rx) = unbounded::<Job>();
            live.fetch_add(1, Ordering::Relaxed);
            let alive = Alive(Arc::clone(live));
            let mut builder = std::thread::Builder::new().name(name);
            if let Some(bytes) = stack {
                builder = builder.stack_size(bytes);
            }
            let handle = builder
                .spawn(move || {
                    let _alive = alive;
                    let mut hand = hand;
                    for job in rx {
                        job(&mut hand);
                    }
                })
                .expect("spawn crew thread");
            threads.push(handle);
            tx
        };
        let mut queues = Vec::with_capacity(shape.fetchers + shape.decoders + 1);
        for f in 0..shape.fetchers {
            // Fetchers only plan, read and sleep: a small stack, and no
            // decode buffers, keep a deep window cheap in memory.
            queues.push(spawn(format!("pcr-fetch-{f}"), Some(FETCH_STACK_BYTES), Hand::default()));
        }
        for w in 0..shape.decoders {
            let helpers = (shape.fan > 1).then(|| {
                let (done_tx, done) = unbounded();
                let queues = (1..shape.fan)
                    .map(|h| spawn(format!("pcr-help-{w}.{h}"), None, Hand::default()))
                    .collect();
                Helpers { queues, done_tx, done }
            });
            let hand = Hand { helpers, ..Hand::default() };
            queues.push(spawn(format!("pcr-parallel-{w}"), None, hand));
        }
        queues.push(spawn("pcr-assembler".into(), None, Hand::default()));
        Self { shape, queues, threads }
    }

    fn queues(&self, stage: Stage) -> &[Sender<Job>] {
        let CrewShape { fetchers, decoders, .. } = self.shape;
        let range = match stage {
            Stage::Fetch => 0..fetchers,
            Stage::Decode => fetchers..fetchers + decoders,
            Stage::Assemble => fetchers + decoders..self.queues.len(),
        };
        self.queues.get(range).unwrap_or_default()
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        // Closing the queues ends each thread's job loop; a decode
        // worker's exit closes its helpers' queues in turn.
        self.queues.clear();
        for thread in self.threads.drain(..) {
            // Jobs run under catch_unwind, so a thread cannot die of one.
            let _ = thread.join();
        }
    }
}

/// A loader's idle crew, shared by its clones and its live epochs. The
/// `idle` lock only ever swaps a whole `Option`, so a poisoned lock is
/// recovered, not propagated.
pub(crate) struct CrewSlot {
    idle: Mutex<Option<Crew>>,
    /// Crews built over the slot's life.
    pub(crate) built: AtomicUsize,
    /// Crew threads alive now, across this slot's crews.
    pub(crate) live: Arc<AtomicUsize>,
}

impl std::fmt::Debug for CrewSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrewSlot")
            .field("built", &self.built.load(Ordering::Relaxed))
            .field("live", &self.live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CrewSlot {
    /// An empty slot; the first lease builds the crew.
    pub(crate) fn new() -> Self {
        Self { idle: Mutex::new(None), built: AtomicUsize::new(0), live: Arc::default() }
    }

    /// Takes the idle crew for one epoch, or builds one of `shape()`
    /// when none is idle.
    pub(crate) fn lease(self: &Arc<Self>, shape: impl FnOnce() -> CrewShape) -> CrewLease {
        let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner).take();
        let crew = idle.unwrap_or_else(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            Crew::build(shape(), &self.live)
        });
        let (tx, rx) = unbounded();
        CrewLease {
            crew: Some(crew),
            slot: Arc::clone(self),
            outcomes: rx,
            outcome_tx: Some(tx),
            pending: 0,
        }
    }

    /// Keeps `crew` as the idle crew, or closes it when one is already
    /// idle.
    fn give_back(&self, crew: Crew) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.is_none() {
            *idle = Some(crew);
            return;
        }
        drop(idle);
        drop(crew);
    }
}

/// One epoch's hold on a crew. See the [module documentation](self).
pub(crate) struct CrewLease {
    crew: Option<Crew>,
    slot: Arc<CrewSlot>,
    outcomes: Receiver<Outcome>,
    /// Cloned into every job; dropped once the epoch is waited on.
    outcome_tx: Option<Sender<Outcome>>,
    /// Jobs queued whose outcome has not arrived.
    pending: usize,
}

impl CrewLease {
    /// Queues one job on every thread of `stage`, made by `job` per
    /// thread. The job's captures drop when it returns, before its
    /// outcome is reported.
    pub(crate) fn assign<J>(&mut self, stage: Stage, mut job: impl FnMut() -> J)
    where
        J: FnOnce(&mut Hand) + Send + 'static,
    {
        let (Some(crew), Some(outcome_tx)) = (&self.crew, &self.outcome_tx) else { return };
        for queue in crew.queues(stage) {
            let job = job();
            let outcome_tx = outcome_tx.clone();
            let wrapped: Job = Box::new(move |hand| {
                let outcome = catch_unwind(AssertUnwindSafe(move || job(hand)));
                let _ = outcome_tx.send(outcome);
            });
            // A crew thread's queue closes only when the crew drops.
            if queue.send(wrapped).is_ok() {
                self.pending += 1;
            }
        }
    }

    /// Waits for every job of the epoch, then gives the crew back to the
    /// slot — or closes it if a job panicked, returning the first panic.
    /// A second call finds nothing left to wait for.
    pub(crate) fn finish(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        self.outcome_tx = None;
        let mut panic = None;
        let mut whole = true;
        while self.pending > 0 {
            self.pending -= 1;
            match self.outcomes.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    panic.get_or_insert(payload);
                }
                // Every job is gone, some without a word: never reuse
                // such a crew. Unreachable while jobs run under
                // catch_unwind.
                Err(_) => {
                    whole = false;
                    self.pending = 0;
                }
            }
        }
        if let Some(crew) = self.crew.take() {
            if panic.is_none() && whole {
                self.slot.give_back(crew);
            }
        }
        panic
    }
}

impl Drop for CrewLease {
    fn drop(&mut self) {
        self.finish();
    }
}
