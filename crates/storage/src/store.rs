//! An object store fronted by a simulated device: named objects whose
//! reads return both data and modeled completion times. This is what the
//! data loader reads records from.
//!
//! An object is one of two kinds behind the same read call. A blob
//! stored with [`ObjectStore::put`] lives in memory and reads are
//! zero-copy views into it. A file registered with
//! [`ObjectStore::put_file`] stays on disk: the store keeps one open
//! descriptor, and each read is a positional read of exactly the
//! requested range into a recycled buffer, so resident memory is bounded
//! by the reads in flight, not by the bytes addressable
//! ([`ObjectStore::resident_bytes`] vs [`ObjectStore::total_bytes`]).
//! Everything after the bytes — fault plan, page-cache model, readahead,
//! device statistics, virtual-time queueing — is the same code for both.
//! The page cache is a *model*: `cache_bytes` decides which reads are
//! charged device time, never what is held in memory; for registered
//! files the real caching is the operating system's.
//!
//! There is exactly **one** read path, [`ObjectStore::read`], parameterized
//! by a [`Clock`]: virtual-clock readers (the loader model in `pcr-sim`)
//! pass [`Clock::Virtual`] and get queueing against the simulated device;
//! wall-clock workers pass [`Clock::Wall`] and get the same page cache,
//! readahead, and device/cache statistics, with the modeled service time
//! returned (not queued) so they can realize it as real latency if they
//! choose.

use crate::bytes::{Buffer, BufferPool, ByteView};
use crate::cache::PageCache;
use crate::device::{DeviceStats, SharedDevice};
use crate::fault::{FaultDecision, FaultPlan, FaultStats, FaultStatsSnapshot, ReadError};
use crate::profile::DeviceProfile;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which timeline a read is issued on.
///
/// Every read — from the modeled loader timeline in `pcr-sim` or from a
/// wall-clock loader thread — flows through [`ObjectStore::read`] with
/// one of these, so the block cache, readahead, and statistics see *all*
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clock {
    /// A read issued at the given virtual timestamp. The simulated device
    /// queues it (FIFO behind any outstanding virtual requests) and the
    /// returned [`ReadResult::start`]/[`ReadResult::finish`] are virtual
    /// times on that shared timeline.
    Virtual(f64),
    /// A read issued by a real worker thread. The device records the
    /// traffic and models the service time, but does not queue it against
    /// the virtual timeline (real threads already contend in real time).
    /// `start` is 0 and `finish` is the modeled service *duration* in
    /// seconds — sleep it to emulate the device, or ignore it.
    Wall,
}

/// A read result: the data plus virtual timing.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The bytes read: a zero-copy view into an in-memory object, or the
    /// buffer a registered file's range was read into.
    pub data: ByteView,
    /// Virtual time the request started service.
    pub start: f64,
    /// Virtual time the request completed.
    pub finish: f64,
    /// Bytes served from cache (0 with DirectIO).
    pub cached_bytes: u64,
}

/// Where an object's bytes live.
#[derive(Debug, Clone)]
enum Object {
    /// Held in memory ([`ObjectStore::put`]).
    Memory(Arc<Buffer>),
    /// Left on disk ([`ObjectStore::put_file`]): the open file and the
    /// length it had when registered, which reads are clamped to.
    File { file: Arc<File>, len: u64 },
}

impl Object {
    fn len(&self) -> u64 {
        match self {
            Object::Memory(buf) => buf.len() as u64,
            Object::File { len, .. } => *len,
        }
    }
}

/// Positional read: up to `buf.len()` bytes at `offset`, without moving
/// (or depending on) the file's cursor, so concurrent readers share one
/// descriptor.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, offset)
}

/// Fills `buf` from `file` at `offset`, mapping real I/O outcomes onto
/// the [`ReadError`] classes the fault plan injects: end of file before
/// `buf` is full is a [`ReadError::ShortRead`] with the byte count that
/// did arrive; `Interrupted`/`WouldBlock`/`TimedOut` are
/// [`ReadError::Transient`]; any other error is the persistent
/// [`ReadError::CorruptRange`], which the loader answers by degrading and
/// then quarantining. The store counts attempts only for an installed
/// fault plan, so a real transient error reports attempt 1.
fn fill_from_file(file: &File, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), ReadError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match read_at(file, &mut buf[filled..], offset + filled as u64) {
            Ok(0) => {
                return Err(ReadError::ShortRead {
                    object: name.to_string(),
                    offset,
                    requested: buf.len() as u64,
                    delivered: filled as u64,
                })
            }
            Ok(n) => filled += n,
            Err(e) => return Err(classify_io_error(&e, name, offset, buf.len() as u64)),
        }
    }
    Ok(())
}

fn classify_io_error(e: &io::Error, name: &str, offset: u64, len: u64) -> ReadError {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ReadError::Transient { object: name.to_string(), offset, attempt: 1 }
        }
        _ => ReadError::CorruptRange { object: name.to_string(), offset, len },
    }
}

/// A named-object store with simulated read timing and an optional page
/// cache model.
#[derive(Debug)]
pub struct ObjectStore {
    device: SharedDevice,
    /// Object id plus where its bytes live.
    objects: Mutex<HashMap<String, (u64, Object)>>,
    /// Free list the buffers of file-backed reads return to.
    pool: Arc<BufferPool>,
    cache: Mutex<PageCache>,
    next_id: Mutex<u64>,
    /// Readahead granularity in bytes (0 = off): device reads are extended
    /// to the next multiple, so adjacent scan-group prefix reads coalesce.
    readahead: AtomicU64,
    /// Installed fault schedule (None = never fault). Guarded by
    /// `faults_on` so the zero-fault fast path is one relaxed load.
    fault: Mutex<Option<FaultPlan>>,
    faults_on: AtomicBool,
    /// Per-site 1-based attempt counters, keyed by
    /// `(name hash, offset, len)`, so error-once / error-N-times schedules
    /// can clear. Reset whenever a new plan is installed.
    attempts: Mutex<HashMap<(u64, u64, u64), u32>>,
    fault_stats: FaultStats,
}

impl ObjectStore {
    /// Creates a store on a device with caching disabled (the paper's
    /// DirectIO setting).
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_cache(profile, 0)
    }

    /// Creates a store with a page cache of `cache_bytes`.
    pub fn with_cache(profile: DeviceProfile, cache_bytes: u64) -> Self {
        Self {
            device: SharedDevice::new(profile),
            objects: Mutex::new(HashMap::new()),
            pool: Arc::new(BufferPool::default()),
            cache: Mutex::new(if cache_bytes == 0 {
                PageCache::disabled()
            } else {
                PageCache::new(cache_bytes)
            }),
            next_id: Mutex::new(0),
            readahead: AtomicU64::new(0),
            fault: Mutex::new(None),
            faults_on: AtomicBool::new(false),
            attempts: Mutex::new(HashMap::new()),
            fault_stats: FaultStats::default(),
        }
    }

    /// Installs (or with `None` removes) a deterministic fault schedule.
    /// Per-site attempt counters are reset, so re-installing the same plan
    /// replays the same fault sequence. A quiet plan (all probabilities
    /// zero) is treated as no plan: the read fast path stays untouched.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let plan = plan.filter(|p| !p.is_quiet());
        self.faults_on.store(plan.is_some(), Ordering::Release);
        *self.fault.lock() = plan;
        self.attempts.lock().clear();
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault.lock().clone()
    }

    /// Snapshot of injected-fault counters.
    pub fn fault_stats(&self) -> FaultStatsSnapshot {
        self.fault_stats.snapshot()
    }

    /// Sets the readahead granularity in bytes (0 disables readahead).
    ///
    /// When set, every device read is extended to the next `bytes`
    /// boundary (clamped to the object size) before consulting the cache,
    /// so a later read of an *adjacent* range — the next scan-group prefix
    /// of the same record — is served from cache instead of the device.
    /// Delivered data is never extended; only the cached/charged range is.
    pub fn set_readahead(&self, bytes: u64) {
        self.readahead.store(bytes, Ordering::Relaxed);
    }

    /// Current readahead granularity in bytes (0 = off).
    pub fn readahead(&self) -> u64 {
        self.readahead.load(Ordering::Relaxed)
    }

    /// Stores a blob under `name` in memory (instant; ingestion is not
    /// simulated).
    pub fn put(&self, name: &str, data: Vec<u8>) {
        self.insert(name, Object::Memory(Arc::new(Buffer::owned(data))));
    }

    /// Registers the open `file` under `name` without reading it: the
    /// store notes its current length and serves every later
    /// [`ObjectStore::read`] of `name` with a positional read of just the
    /// requested range on that handle, which it shares with the caller —
    /// so the caller can verify the very bytes the store will serve. A
    /// file that shrinks or fails afterwards surfaces as a [`ReadError`]
    /// on the reads it affects, never a panic.
    pub fn put_file(&self, name: &str, file: Arc<File>) -> io::Result<()> {
        let len = file.metadata()?.len();
        self.insert(name, Object::File { file, len });
        Ok(())
    }

    fn insert(&self, name: &str, object: Object) {
        let mut id = self.next_id.lock();
        let oid = *id;
        *id += 1;
        self.objects.lock().insert(name.to_string(), (oid, object));
    }

    /// Size of an object, if present.
    pub fn len_of(&self, name: &str) -> Option<u64> {
        self.objects.lock().get(name).map(|(_, o)| o.len())
    }

    /// Reads `[offset, offset+len)` of `name` on the given [`Clock`].
    /// Out-of-range reads are clamped to the object size.
    ///
    /// This is the single data-plane read path: both timelines consult the
    /// page cache, extend the device range by the configured readahead, and
    /// record device/cache statistics. They differ only in how modeled
    /// service time is realized — queued on the virtual timeline
    /// ([`Clock::Virtual`]) or returned as a duration for the caller to
    /// spend ([`Clock::Wall`]).
    ///
    /// # `Clock::Wall` semantics
    ///
    /// For a wall-clock read the returned [`ReadResult`] is interpreted as:
    ///
    /// * `start` is always `0.0` — wall reads have no position on the
    ///   virtual timeline and never queue behind virtual requests (real
    ///   threads already contend in real time).
    /// * `finish` is the modeled service **duration** in seconds for the
    ///   *uncached* portion of the (readahead-extended) range; a fully
    ///   cached read costs only the device's request overhead. Sleep it to
    ///   emulate the device (`IoModel::EmulatedLatency` in `pcr-loader`)
    ///   or ignore it for memory-speed reads.
    /// * the device's `busy_until` is untouched, but its byte/request
    ///   statistics and the page cache **do** observe the read — wall
    ///   traffic is fully visible in [`ObjectStore::device_stats`] and
    ///   [`ObjectStore::cache_hit_rate`], and it warms the cache for
    ///   either timeline.
    ///
    /// # Failures
    ///
    /// A missing object returns [`ReadError::NotFound`]. With a
    /// [`FaultPlan`] installed ([`ObjectStore::set_fault_plan`]), reads can
    /// also fail with the plan's injected [`ReadError`]s. A registered
    /// file ([`ObjectStore::put_file`]) can fail for real, in the same
    /// classes: shorter on disk than when registered →
    /// [`ReadError::ShortRead`] with the bytes that did arrive; an
    /// interrupted or timed-out read → [`ReadError::Transient`]; any other
    /// I/O error → the persistent [`ReadError::CorruptRange`]. Failed
    /// attempts of either origin cost no modeled device time and leave
    /// cache/device statistics untouched (the retry layer charges backoff
    /// instead). With no plan installed and only in-memory objects the
    /// only possible error is `NotFound`.
    pub fn read(
        &self,
        clock: Clock,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<ReadResult, ReadError> {
        // The lock covers the lookup only; a file's positional read runs
        // outside it, on the cloned descriptor.
        let (oid, object) = self
            .objects
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ReadError::NotFound { object: name.to_string() })?;
        let size = object.len();
        let offset = offset.min(size);
        let end = offset.saturating_add(len).min(size);
        let len = end - offset;
        // Fault injection: decided on the clamped site before any cache or
        // device accounting, so injected failures are free of side effects
        // and deterministic given (plan seed, site, attempt number).
        let mut latency_factor = 1.0f64;
        let mut flip: Option<(u64, u32)> = None;
        if self.faults_on.load(Ordering::Acquire) {
            if let Some(plan) = self.fault.lock().clone() {
                self.apply_fault_plan(
                    &plan,
                    name,
                    offset,
                    len,
                    size,
                    &mut latency_factor,
                    &mut flip,
                )?;
            }
        }
        // The bytes, before any accounting: a real I/O failure leaves the
        // cache and device statistics as untouched as an injected one.
        let mut view = match object {
            Object::Memory(buf) => ByteView::from_shared(buf, offset as usize, end as usize),
            Object::File { file, .. } => {
                let mut buf = self.pool.take(len as usize);
                fill_from_file(&file, name, offset, &mut buf)?;
                ByteView::whole(Buffer::pooled(buf, Arc::clone(&self.pool)))
            }
        };
        // Readahead: extend the cached/charged range (never the delivered
        // data) to the next boundary so adjacent prefix reads coalesce.
        let ra = self.readahead.load(Ordering::Relaxed);
        let span_end = if ra > 0 { end.div_ceil(ra).saturating_mul(ra).min(size) } else { end };
        let span = span_end - offset;
        let missed = self.cache.lock().access(oid, offset, span);
        let cached = len.min(span.saturating_sub(missed));
        let overhead = self.device.profile().request_overhead_us * 1e-6;
        let (start, finish) = match clock {
            Clock::Virtual(now) => {
                if missed == 0 {
                    // Fully cached: only request overhead.
                    (now, now + overhead)
                } else {
                    let (s, f) = self.device.read_at(now, oid, offset, missed);
                    (s, s + (f - s) * latency_factor)
                }
            }
            Clock::Wall => {
                let service = if missed == 0 {
                    overhead
                } else {
                    self.device.service_wall(oid, offset, missed)
                };
                (0.0, service * latency_factor)
            }
        };
        // A silent bit flip must never touch the backing object (other
        // readers would see it): flip the bit in an owned copy of the
        // delivered window.
        if let Some((pos, bit)) = flip {
            self.fault_stats.bit_flips.fetch_add(1, Ordering::Relaxed);
            let mut owned = view.to_vec();
            if let Some(byte) = owned.get_mut((pos - offset) as usize) {
                *byte ^= 1u8 << bit;
            }
            view = ByteView::from_vec(owned);
        }
        Ok(ReadResult { data: view, start, finish, cached_bytes: cached })
    }

    /// Consults `plan` for the fate of one attempt at the clamped site
    /// `(name, offset, len)`. Returns `Err` for injected failures; on
    /// delivery fills in the latency multiplier and any silent bit flip
    /// covered by the range.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault_plan(
        &self,
        plan: &FaultPlan,
        name: &str,
        offset: u64,
        len: u64,
        size: u64,
        latency_factor: &mut f64,
        flip: &mut Option<(u64, u32)>,
    ) -> Result<(), ReadError> {
        let attempt = {
            let mut g = self.attempts.lock();
            let n = g.entry((crate::fault::site_key(name), offset, len)).or_insert(0);
            *n += 1;
            *n
        };
        match plan.decide(name, offset, len, attempt) {
            FaultDecision::Deliver { latency_factor: f } => {
                if f > 1.0 {
                    self.fault_stats.latency_spikes.fetch_add(1, Ordering::Relaxed);
                }
                *latency_factor = f;
            }
            FaultDecision::Transient => {
                self.fault_stats.transient.fetch_add(1, Ordering::Relaxed);
                return Err(ReadError::Transient { object: name.to_string(), offset, attempt });
            }
            FaultDecision::Torn { delivered } => {
                self.fault_stats.torn.fetch_add(1, Ordering::Relaxed);
                return Err(ReadError::ShortRead {
                    object: name.to_string(),
                    offset,
                    requested: len,
                    delivered,
                });
            }
            FaultDecision::Corrupt => {
                self.fault_stats.corrupt.fetch_add(1, Ordering::Relaxed);
                return Err(ReadError::CorruptRange { object: name.to_string(), offset, len });
            }
            FaultDecision::Timeout => {
                self.fault_stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(ReadError::Timeout {
                    object: name.to_string(),
                    offset,
                    service_s: f64::INFINITY,
                });
            }
        }
        if let Some((pos, bit)) = plan.flipped_bit(name, size) {
            if pos >= offset && pos < offset.saturating_add(len) {
                *flip = Some((pos, bit));
            }
        }
        Ok(())
    }

    /// Reads `[offset, offset+len)` of `name` as a request issued at virtual
    /// time `now`. Convenience for [`ObjectStore::read`] with
    /// [`Clock::Virtual`].
    pub fn read_at(
        &self,
        now: f64,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<ReadResult, ReadError> {
        self.read(Clock::Virtual(now), name, offset, len)
    }

    /// Device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// The underlying device (for busy-time queries).
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// Cache hit rate so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.lock().hit_rate()
    }

    /// Total bytes addressable through the store: the lengths of all
    /// objects, in memory or on disk.
    pub fn total_bytes(&self) -> u64 {
        self.objects.lock().values().map(|(_, o)| o.len()).sum()
    }

    /// Bytes the store itself keeps resident: in-memory objects plus read
    /// buffers parked in the free list. Registered files contribute only
    /// the latter, so this stays bounded by (free-list cap × largest read)
    /// however large the files are. Buffers currently lent out to
    /// [`ByteView`]s belong to their holders and are not counted.
    pub fn resident_bytes(&self) -> u64 {
        let in_memory: u64 = self
            .objects
            .lock()
            .values()
            .map(|(_, o)| match o {
                Object::Memory(buf) => buf.len() as u64,
                Object::File { .. } => 0,
            })
            .sum();
        in_memory + self.pool.parked_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_read_roundtrip() {
        let store = ObjectStore::new(DeviceProfile::ssd_sata());
        store.put("rec0", (0..=255).collect());
        let r = store.read_at(0.0, "rec0", 10, 16).unwrap();
        assert_eq!(r.data, (10..26).collect::<Vec<u8>>());
        assert!(r.finish > r.start);
    }

    #[test]
    fn read_clamps_to_object_end() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("x", vec![1, 2, 3]);
        let r = store.read_at(0.0, "x", 2, 100).unwrap();
        assert_eq!(r.data, vec![3]);
    }

    #[test]
    fn missing_object_is_not_found() {
        let store = ObjectStore::new(DeviceProfile::ram());
        match store.read_at(0.0, "nope", 0, 1) {
            Err(ReadError::NotFound { object }) => assert_eq!(object, "nope"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn larger_reads_take_longer() {
        let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
        store.put("a", vec![0; 32 << 20]);
        let r1 = store.read_at(0.0, "a", 0, 1 << 20).unwrap();
        store.device().reset();
        let r2 = store.read_at(0.0, "a", 0, 16 << 20).unwrap();
        assert!(r2.finish - r2.start > r1.finish - r1.start);
    }

    #[test]
    fn cached_rereads_are_fast() {
        let store = ObjectStore::with_cache(DeviceProfile::hdd_7200rpm(), 64 << 20);
        store.put("a", vec![0; 8 << 20]);
        let cold = store.read_at(0.0, "a", 0, u64::MAX).unwrap();
        let warm = store.read_at(cold.finish, "a", 0, u64::MAX).unwrap();
        assert_eq!(warm.cached_bytes, 8 << 20);
        assert!((warm.finish - warm.start) < (cold.finish - cold.start) / 100.0);
    }

    #[test]
    fn wall_reads_share_cache_and_statistics() {
        let store = ObjectStore::with_cache(DeviceProfile::hdd_7200rpm(), 64 << 20);
        store.put("a", vec![0; 4 << 20]);
        let cold = store.read(Clock::Wall, "a", 0, 4 << 20).unwrap();
        assert_eq!(cold.cached_bytes, 0);
        assert!(cold.finish > 0.0, "modeled service time returned");
        let s = store.device_stats();
        assert_eq!(s.reads, 1);
        assert!(s.bytes >= 4 << 20);
        // Warm read: fully cached, only request overhead, no device read.
        let warm = store.read(Clock::Wall, "a", 0, 4 << 20).unwrap();
        assert_eq!(warm.cached_bytes, 4 << 20);
        assert!(warm.finish < cold.finish / 100.0);
        assert_eq!(store.device_stats().reads, 1);
        assert!(store.cache_hit_rate() > 0.0);
    }

    #[test]
    fn wall_reads_do_not_queue_on_the_virtual_timeline() {
        let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
        store.put("a", vec![0; 8 << 20]);
        let wall = store.read(Clock::Wall, "a", 0, 8 << 20).unwrap();
        assert_eq!(wall.start, 0.0);
        // The wall read's `finish` is exactly the modeled service time of
        // its (uncached) range — no queueing delay mixed in.
        let expected = DeviceProfile::hdd_7200rpm().read_time(8 << 20, false);
        assert!(
            (wall.finish - expected).abs() < expected * 1e-9,
            "wall service {} vs modeled {expected}",
            wall.finish
        );
        // A virtual read issued at t=0 afterwards starts at t=0: the wall
        // read recorded stats but left `busy_until` alone.
        let virt = store.read(Clock::Virtual(0.0), "a", 0, 1024).unwrap();
        assert_eq!(virt.start, 0.0);
        assert_eq!(store.device_stats().reads, 2);
    }

    #[test]
    fn readahead_coalesces_adjacent_prefix_reads() {
        let store = ObjectStore::with_cache(DeviceProfile::hdd_7200rpm(), 64 << 20);
        store.set_readahead(1 << 20);
        store.put("rec", vec![0; 1 << 20]);
        // A small prefix read is extended to the 1 MiB boundary...
        let r = store.read(Clock::Wall, "rec", 0, 100_000).unwrap();
        assert_eq!(r.data.len(), 100_000, "delivered data is never extended");
        assert!(store.device_stats().bytes >= 1 << 20);
        // ...so the *next* scan group's prefix is already resident.
        let next = store.read(Clock::Wall, "rec", 0, 400_000).unwrap();
        assert_eq!(next.cached_bytes, 400_000);
        assert_eq!(store.device_stats().reads, 1, "no second device read");
    }

    #[test]
    fn transient_fault_clears_after_repeats_and_costs_no_device_time() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("rec", vec![7; 4096]);
        store.set_fault_plan(Some(FaultPlan {
            seed: 1,
            transient: 1.0,
            transient_repeats: 2,
            ..FaultPlan::default()
        }));
        for attempt in 1..=2u32 {
            match store.read_at(0.0, "rec", 0, 1024) {
                Err(ReadError::Transient { attempt: a, .. }) => assert_eq!(a, attempt),
                other => panic!("expected transient, got {other:?}"),
            }
        }
        assert_eq!(store.device_stats().reads, 0, "failed attempts are free");
        let r = store.read_at(0.0, "rec", 0, 1024).unwrap();
        assert_eq!(r.data.len(), 1024);
        assert_eq!(store.fault_stats().transient, 2);
        // Installing a fresh plan resets the attempt counters.
        store.set_fault_plan(Some(FaultPlan {
            seed: 1,
            transient: 1.0,
            transient_repeats: 2,
            ..FaultPlan::default()
        }));
        assert!(store.read_at(0.0, "rec", 0, 1024).is_err());
    }

    #[test]
    fn bit_flip_corrupts_the_delivered_copy_not_the_store() {
        let store = ObjectStore::new(DeviceProfile::ram());
        let original: Vec<u8> = (0..=255).cycle().take(4096).collect();
        store.put("rec", original.clone());
        store.set_fault_plan(Some(FaultPlan { seed: 3, bit_flip: 1.0, ..FaultPlan::default() }));
        let plan = store.fault_plan().unwrap();
        let (pos, _bit) = plan.flipped_bit("rec", 4096).unwrap();
        // A read covering the flipped bit sees exactly one corrupt byte...
        let full = store.read_at(0.0, "rec", 0, 4096).unwrap();
        let diffs: Vec<usize> =
            (0..4096).filter(|&i| full.data[i] != original[i]).collect();
        assert_eq!(diffs, vec![pos as usize]);
        // ...a prefix read that excludes it is byte-clean...
        let prefix = store.read_at(0.0, "rec", 0, pos).unwrap();
        assert_eq!(&prefix.data[..], &original[..pos as usize]);
        // ...and the backing store itself is untouched.
        store.set_fault_plan(None);
        let clean = store.read_at(0.0, "rec", 0, 4096).unwrap();
        assert_eq!(&clean.data[..], &original[..]);
    }

    #[test]
    fn latency_spike_extends_service_time_on_both_clocks() {
        let mk = || {
            let s = ObjectStore::new(DeviceProfile::hdd_7200rpm());
            s.put("a", vec![0; 4 << 20]);
            s
        };
        let clean = mk();
        let spiked = mk();
        spiked.set_fault_plan(Some(FaultPlan {
            seed: 2,
            latency: 1.0,
            latency_factor: 10.0,
            ..FaultPlan::default()
        }));
        let c = clean.read(Clock::Wall, "a", 0, 4 << 20).unwrap();
        let s = spiked.read(Clock::Wall, "a", 0, 4 << 20).unwrap();
        assert!(s.finish > c.finish * 5.0, "wall spike {} vs clean {}", s.finish, c.finish);
        let cv = clean.read_at(0.0, "a", 0, 4 << 20).unwrap();
        let sv = spiked.read_at(0.0, "a", 0, 4 << 20).unwrap();
        assert!(sv.finish - sv.start > (cv.finish - cv.start) * 5.0);
        assert_eq!(spiked.fault_stats().latency_spikes, 2);
    }

    #[test]
    fn quiet_plan_is_equivalent_to_no_plan() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("rec", vec![1; 64]);
        store.set_fault_plan(Some(FaultPlan::quiet(99)));
        assert!(store.fault_plan().is_none(), "quiet plans are dropped");
        assert!(store.read_at(0.0, "rec", 0, 64).is_ok());
    }

    #[test]
    fn concurrent_readers_share_bandwidth() {
        let store = Arc::new(ObjectStore::new(DeviceProfile::ssd_sata()));
        store.put("a", vec![0; 4 << 20]);
        store.put("b", vec![0; 4 << 20]);
        let r1 = store.read_at(0.0, "a", 0, u64::MAX).unwrap();
        let r2 = store.read_at(0.0, "b", 0, u64::MAX).unwrap();
        // Issued simultaneously, the second finishes ~2x later.
        assert!(r2.finish > r1.finish * 1.8);
    }

    /// A scratch file holding `bytes`, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(tag: &str, bytes: &[u8]) -> Self {
            let path = std::env::temp_dir().join(format!(
                "pcr-store-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&path, bytes).unwrap();
            Self(path)
        }

        fn open(&self) -> Arc<File> {
            Arc::new(File::open(&self.0).unwrap())
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_object_reads_ranges_and_clamps_like_memory() {
        let bytes: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let file = TempFile::new("ranges", &bytes);
        let store = ObjectStore::new(DeviceProfile::ssd_sata());
        store.put_file("f", file.open()).unwrap();
        assert_eq!(store.len_of("f"), Some(10_000));
        assert_eq!(store.total_bytes(), 10_000);
        let r = store.read_at(0.0, "f", 300, 4096).unwrap();
        assert_eq!(&r.data[..], &bytes[300..4396]);
        assert!(r.finish > r.start);
        assert_eq!(store.read_at(0.0, "f", 9_990, 100).unwrap().data, bytes[9_990..].to_vec());
        assert!(store.read_at(0.0, "f", 20_000, 5).unwrap().data.is_empty());
        assert!(store.read_at(0.0, "f", 5, 0).unwrap().data.is_empty());
    }

    #[test]
    fn file_object_keeps_only_recycled_buffers_resident() {
        let file = TempFile::new("resident", &vec![7u8; 1 << 20]);
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put_file("f", file.open()).unwrap();
        store.put("m", vec![0; 100]);
        assert_eq!(store.resident_bytes(), 100, "a registered file holds nothing");
        let held = store.read_at(0.0, "f", 0, 1000).unwrap();
        for k in 0..50u64 {
            let r = store.read_at(0.0, "f", k * 2000, 2000).unwrap();
            assert_eq!(r.data.len(), 2000);
        }
        // Fifty sequential reads recycled one buffer; `held` still owns its
        // own and still reads its own bytes.
        assert_eq!(store.resident_bytes(), 100 + 2000);
        assert_eq!(held.data, vec![7u8; 1000]);
        drop(held);
        assert_eq!(store.resident_bytes(), 100 + 2000 + 1000);
        assert_eq!(store.total_bytes(), (1 << 20) + 100);
    }

    #[test]
    fn file_shorter_than_registered_is_a_short_read_with_real_count() {
        let file = TempFile::new("short", &[9u8; 8192]);
        let store = ObjectStore::with_cache(DeviceProfile::ssd_sata(), 1 << 20);
        store.put_file("f", file.open()).unwrap();
        std::fs::OpenOptions::new().write(true).open(&file.0).unwrap().set_len(5000).unwrap();
        // Wholly before the cut: unaffected.
        assert_eq!(store.read_at(0.0, "f", 0, 4096).unwrap().data, vec![9u8; 4096]);
        let stats = store.device_stats();
        // Straddling and beyond the cut: ShortRead, with what arrived.
        match store.read_at(0.0, "f", 4096, 4096) {
            Err(ReadError::ShortRead { object, offset, requested, delivered }) => {
                assert_eq!((object.as_str(), offset, requested, delivered), ("f", 4096, 4096, 904));
            }
            other => panic!("expected ShortRead, got {other:?}"),
        }
        match store.read_at(0.0, "f", 6000, 100) {
            Err(ReadError::ShortRead { delivered, .. }) => assert_eq!(delivered, 0),
            other => panic!("expected ShortRead, got {other:?}"),
        }
        assert_eq!(store.device_stats(), stats, "failed real reads are free, like injected ones");
    }

    #[test]
    fn real_io_errors_map_onto_the_injected_classes() {
        use io::ErrorKind::*;
        for kind in [Interrupted, WouldBlock, TimedOut] {
            let e = classify_io_error(&io::Error::from(kind), "f", 10, 20);
            assert_eq!(e, ReadError::Transient { object: "f".into(), offset: 10, attempt: 1 });
            assert!(e.is_retryable());
        }
        for kind in [PermissionDenied, InvalidInput, Other, UnexpectedEof] {
            let e = classify_io_error(&io::Error::from(kind), "f", 10, 20);
            assert_eq!(e, ReadError::CorruptRange { object: "f".into(), offset: 10, len: 20 });
            assert!(!e.is_retryable(), "persistent: the ladder degrades, then quarantines");
        }
    }

    #[test]
    fn bit_flip_on_a_file_object_leaves_the_file_alone() {
        let original: Vec<u8> = (0..=255).cycle().take(4096).collect();
        let file = TempFile::new("flip", &original);
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put_file("rec", file.open()).unwrap();
        store.set_fault_plan(Some(FaultPlan { seed: 3, bit_flip: 1.0, ..FaultPlan::default() }));
        let (pos, _) = store.fault_plan().unwrap().flipped_bit("rec", 4096).unwrap();
        let full = store.read_at(0.0, "rec", 0, 4096).unwrap();
        let diffs: Vec<usize> = (0..4096).filter(|&i| full.data[i] != original[i]).collect();
        assert_eq!(diffs, vec![pos as usize]);
        drop(full);
        store.set_fault_plan(None);
        // Neither the file nor the recycled buffer carries the flip on.
        assert_eq!(std::fs::read(&file.0).unwrap(), original);
        assert_eq!(&store.read_at(0.0, "rec", 0, 4096).unwrap().data[..], &original[..]);
    }
}
