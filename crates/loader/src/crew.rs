//! The wall-clock loader's standing stage threads: one *crew* of
//! fetchers, a pool of identical decode threads, and an assembler, built
//! on a loader's first epoch and handed every later epoch as jobs.
//!
//! Spawning the stage threads anew each epoch costs more than the spawn:
//! each fresh thread that allocates draws on a fresh malloc arena, and the
//! process's resident set spreads with them. A crew keeps its threads —
//! and each thread its [`RecordScratch`] — for as long as the loader
//! lives:
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

use parking_lot::Mutex;
use pcr_core::RecordScratch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a job ended: `Err` carries its panic payload.
type Outcome = std::thread::Result<()>;

/// One unit of work for a crew thread, given the thread's decode
/// buffers (grown on first use, so only decode threads grow them).
type Job = Box<dyn FnOnce(&mut RecordScratch) + Send>;

/// The crew's threads by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The fetch stage: plan, read, stage in the hand-off.
    Fetch,
    /// The decode pool.
    Decode,
    /// The one assembler.
    Assemble,
}

/// How many threads of each role a crew has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrewShape {
    /// Fetch threads.
    pub(crate) fetchers: usize,
    /// Decode pool threads.
    pub(crate) decoders: usize,
}

/// A built crew: its job queues and its threads.
struct Crew {
    shape: CrewShape,
    /// One queue per thread: fetchers, then the decode pool, then the
    /// assembler.
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
        let mut spawn = |name: String, stack: Option<usize>| {
            let (tx, rx) = channel::<Job>();
            live.fetch_add(1, Ordering::Relaxed);
            let alive = Alive(Arc::clone(live));
            let mut builder = std::thread::Builder::new().name(name);
            if let Some(bytes) = stack {
                builder = builder.stack_size(bytes);
            }
            let handle = builder
                .spawn(move || {
                    let _alive = alive;
                    let mut scratch = RecordScratch::default();
                    for job in rx {
                        job(&mut scratch);
                    }
                })
                .expect("spawn crew thread");
            threads.push(handle);
            tx
        };
        let mut queues = Vec::with_capacity(shape.fetchers + shape.decoders + 1);
        for f in 0..shape.fetchers {
            // Fetchers only plan, read and sleep: a small stack keeps a
            // deep window cheap in memory.
            queues.push(spawn(format!("pcr-fetch-{f}"), Some(FETCH_STACK_BYTES)));
        }
        for w in 0..shape.decoders {
            queues.push(spawn(format!("pcr-decode-{w}"), None));
        }
        queues.push(spawn("pcr-assembler".into(), None));
        Self { shape, queues, threads }
    }

    fn queues(&self, stage: Stage) -> &[Sender<Job>] {
        let CrewShape { fetchers, decoders } = self.shape;
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
        // Closing the queues ends each thread's job loop.
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
        let idle = self.idle.lock().take();
        let crew = idle.unwrap_or_else(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            Crew::build(shape(), &self.live)
        });
        let (tx, rx) = channel();
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
        let mut idle = self.idle.lock();
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
    /// The size of the leased crew's decode pool.
    pub(crate) fn decoders(&self) -> usize {
        self.crew.as_ref().map_or(0, |crew| crew.shape.decoders)
    }

    /// Queues one job on every thread of `stage`, made by `job` per
    /// thread. The job's captures drop when it returns, before its
    /// outcome is reported.
    pub(crate) fn assign<J>(&mut self, stage: Stage, mut job: impl FnMut() -> J)
    where
        J: FnOnce(&mut RecordScratch) + Send + 'static,
    {
        let (Some(crew), Some(outcome_tx)) = (&self.crew, &self.outcome_tx) else { return };
        for queue in crew.queues(stage) {
            let job = job();
            let outcome_tx = outcome_tx.clone();
            let wrapped: Job = Box::new(move |scratch| {
                let outcome = catch_unwind(AssertUnwindSafe(move || job(scratch)));
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
