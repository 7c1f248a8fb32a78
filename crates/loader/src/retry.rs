//! Retry, backoff, and fidelity degradation around the storage read path,
//! and the per-record accounting the loader's stages share.
//!
//! Every loader read is retried under a [`RetryPolicy`]: transient
//! [`ReadError`]s back off with capped decorrelated jitter, a per-read
//! deadline on modeled service time turns latency spikes into retryable
//! faults, and a per-epoch retry budget shared by every worker keeps a
//! pathological store from stalling an epoch forever.
//!
//! When retries are exhausted, a record's fidelity ladder makes PCR's
//! progressive structure the recovery mechanism: scan-group prefixes are
//! nested, so if groups `k+1..=G` of a record are unreadable the loader
//! steps the request down — `G, G-1, …, 1` — and delivers the record at
//! the longest intact prefix instead of failing the epoch. Records whose
//! shortest prefix is still unreadable (or undecodable — silent bit flips
//! surface here as decode failures) go to a bounded quarantine with exact
//! per-label accounting in a [`FaultReport`], so the delivered label
//! multiset always equals the expected multiset minus the quarantined one.
//!
//! A record walks its ladder as one value, the record's `Ladder`: the
//! fetch stage reads its first rung, the decode pool runs the decode
//! check on it and — when the check fails — fetches the next lower rung,
//! and the ladder accounts the outcome: retries and backoff, degradation
//! or quarantine.
//!
//! Backoff is deterministic: the jitter is a pure hash of
//! `(policy seed, record, group, attempt)`, never a clock or RNG, so a
//! seeded fault plan replays the identical recovery sequence run after
//! run.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::source::{ReadPlan, RecordSource};
use pcr_metrics::EpochFaultCounters;
use pcr_storage::fault::{mix, unit};
use pcr_storage::{Clock, ObjectStore, ReadError, ReadResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How many quarantined records keep full detail (index + error text);
/// past the cap only the exact counters and label counts grow.
pub const QUARANTINE_DETAIL_CAP: usize = 64;

/// Retry/backoff policy wrapped around every loader read.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries per read after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay in seconds.
    pub base_backoff_s: f64,
    /// Backoff cap in seconds.
    pub max_backoff_s: f64,
    /// Per-read deadline on *modeled service time* in seconds (0 = off):
    /// a read whose device service exceeds it is treated as
    /// [`ReadError::Timeout`] and retried — the knob that turns injected
    /// latency spikes into recoverable faults.
    pub read_deadline_s: f64,
    /// Total backoff seconds one epoch may spend across all of its
    /// workers; once exhausted, failures stop retrying and degrade (or
    /// quarantine) immediately.
    pub epoch_retry_budget_s: f64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_s: 1e-3,
            max_backoff_s: 0.1,
            read_deadline_s: 0.0,
            epoch_retry_budget_s: 30.0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The next backoff delay after a delay of `prev` seconds:
    /// decorrelated jitter (`sleep = min(cap, base + u * (prev*3 - base))`
    /// with `u` a deterministic hash of `(seed, key, attempt)` in [0,1)),
    /// so delays spread without a shared RNG and replay exactly.
    pub fn backoff(&self, prev: f64, key: u64, attempt: u32) -> f64 {
        let u = unit(mix(self.seed ^ mix(key) ^ u64::from(attempt)));
        let span = (prev * 3.0 - self.base_backoff_s).max(0.0);
        (self.base_backoff_s + u * span).min(self.max_backoff_s)
    }
}

/// A shared per-epoch budget of backoff seconds, decremented by every
/// retry on any worker. Stored as integer microseconds so concurrent
/// spends stay exact.
#[derive(Debug)]
pub(crate) struct RetryBudget(AtomicU64);

impl RetryBudget {
    /// A budget of `seconds` (values beyond ~584k years saturate).
    pub(crate) fn new(seconds: f64) -> Self {
        let micros = if seconds.is_finite() && seconds >= 0.0 {
            (seconds * 1e6).min(u64::MAX as f64) as u64
        } else if seconds.is_infinite() && seconds > 0.0 {
            u64::MAX
        } else {
            0
        };
        Self(AtomicU64::new(micros))
    }

    /// Attempts to reserve `seconds` from the budget; false when the
    /// remaining budget is smaller (nothing is deducted then).
    pub(crate) fn try_spend(&self, seconds: f64) -> bool {
        let want = (seconds.max(0.0) * 1e6).min(u64::MAX as f64) as u64;
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if cur < want {
                return false;
            }
            match self.0.compare_exchange_weak(
                cur,
                cur - want,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

/// Reads `plan` on the wall clock with retry/backoff under `policy`,
/// spending from the epoch's shared `budget` and sleeping each backoff
/// on the calling thread. `key` seeds the jitter (callers pass a hash of
/// record/group). Retries and backoff accumulate into `out`, so every
/// rung of a record's ladder adds to one report.
fn read_with_retry(
    store: &ObjectStore,
    plan: &ReadPlan<'_>,
    policy: &RetryPolicy,
    budget: &RetryBudget,
    key: u64,
    out: &mut FaultReport,
) -> Result<ReadResult, ReadError> {
    let mut prev_delay = policy.base_backoff_s;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let failure = match store.read(Clock::Wall, plan.name, plan.offset, plan.len) {
            Ok(read) => {
                let service = read.finish - read.start;
                if policy.read_deadline_s > 0.0 && service > policy.read_deadline_s {
                    ReadError::Timeout {
                        object: plan.name.to_string(),
                        offset: plan.offset,
                        service_s: service,
                    }
                } else {
                    return Ok(read);
                }
            }
            Err(e) => e,
        };
        if !failure.is_retryable() || attempt > policy.max_retries {
            return Err(failure);
        }
        let delay = policy.backoff(prev_delay, key, attempt);
        if !budget.try_spend(delay) {
            return Err(failure);
        }
        prev_delay = delay;
        out.retries += 1;
        out.backoff_s += delay;
        std::thread::sleep(Duration::from_secs_f64(delay));
    }
}

/// One successful rung of the fidelity ladder: the bytes the store
/// delivered and the scan group they cover.
#[derive(Debug)]
pub(crate) struct Rung {
    /// The successful read (of `group`'s prefix).
    pub(crate) read: ReadResult,
    /// Scan group the read covers.
    pub(crate) group: usize,
}

/// One record's walk down the fidelity ladder: which group to try next,
/// what failed on the way, and the retries spent so far.
///
/// The ladder is a value rather than a loop so that it can be carried
/// between pipeline stages: the wall-clock loader's fetch stage runs
/// [`Ladder::fetch`] ahead of time and hands the ladder on with the
/// [`Rung`] it produced; the decode pool runs the decode check on that
/// rung, and only a [`Ladder::reject`]ed rung makes it fetch again — from
/// the next lower group, with the same skip rule, budget and counters.
/// [`Ladder::accept`] or [`Ladder::quarantine`] ends the walk with the
/// record's [`FaultReport`].
#[derive(Debug)]
pub(crate) struct Ladder {
    idx: usize,
    requested: usize,
    /// Next group to try; 0 once the ladder is exhausted.
    next_group: usize,
    /// `(offset, len)` of the last plan tried — a lower group planning the
    /// same bytes is skipped.
    tried_plan: Option<(u64, u64)>,
    last_failure: String,
    faults: FaultReport,
}

impl Ladder {
    /// Record `idx`'s ladder, starting at `requested_group` (at least 1).
    pub(crate) fn new(idx: usize, requested_group: usize) -> Self {
        let requested = requested_group.max(1);
        Self {
            idx,
            requested,
            next_group: requested,
            tried_plan: None,
            last_failure: String::new(),
            faults: FaultReport::default(),
        }
    }

    /// Reads the longest prefix of the record the store will deliver at
    /// or below the current rung, with retry/backoff on every rung.
    /// Steps down one group per persistent failure (skipping groups whose
    /// plan is byte-identical to the one just tried) and returns `None`
    /// when group 1 itself is unreadable or the object is gone.
    pub(crate) fn fetch<S: RecordSource + ?Sized>(
        &mut self,
        store: &ObjectStore,
        source: &S,
        policy: &RetryPolicy,
        budget: &RetryBudget,
    ) -> Option<Rung> {
        while self.next_group >= 1 {
            let group = self.next_group;
            self.next_group -= 1;
            let plan = source.plan(self.idx, group);
            // A lower group that plans the exact same bytes (clamped
            // formats, baseline whole-object reads) cannot succeed where
            // the last one just failed — don't burn retries on it.
            if self.tried_plan.replace((plan.offset, plan.len)) == Some((plan.offset, plan.len)) {
                continue;
            }
            let key = mix((self.idx as u64) << 8 | group as u64);
            let faults = &mut self.faults;
            match read_with_retry(store, &plan, policy, budget, key, faults) {
                Ok(read) => return Some(Rung { read, group }),
                Err(e) => {
                    self.last_failure = e.to_string();
                    if matches!(e, ReadError::NotFound { .. }) {
                        // The object itself is gone; no prefix can help.
                        self.next_group = 0;
                    }
                }
            }
        }
        None
    }

    /// Notes that `rung`'s bytes failed the decode check — silent bit
    /// flips surface here — for the reason `why`, so the next
    /// [`Ladder::fetch`] steps below it.
    pub(crate) fn reject(&mut self, rung: &Rung, why: &str) {
        let (group, len) = (rung.group, rung.read.data.len());
        self.last_failure = format!("{why} at group {group} ({len} bytes)");
    }

    /// Ends the walk with `rung` delivered: degraded when it lies below
    /// the requested group.
    pub(crate) fn accept(mut self, rung: &Rung) -> FaultReport {
        if rung.group < self.requested {
            self.faults.degraded_records += 1;
        }
        self.faults
    }

    /// Ends the walk with no rung delivered: the record goes to
    /// quarantine, with its `source` labels and its last failure.
    pub(crate) fn quarantine<S: RecordSource + ?Sized>(mut self, source: &S) -> FaultReport {
        self.faults.note_quarantine(self.idx, source.labels(self.idx), self.last_failure);
        self.faults
    }
}

/// One quarantined record (detail kept for the first
/// [`QUARANTINE_DETAIL_CAP`] records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Record index in the source.
    pub record: usize,
    /// Why it could not be delivered.
    pub reason: String,
}

/// Exact per-epoch fault accounting: retry totals, degradation counts,
/// and the quarantined label multiset. The invariant the chaos harness
/// checks: `delivered labels + quarantined_labels == expected labels`,
/// as exact multisets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Read attempts that were retried.
    pub retries: u64,
    /// Backoff seconds the workers slept.
    pub backoff_s: f64,
    /// Records delivered below their requested scan group.
    pub degraded_records: u64,
    /// Records quarantined (no prefix deliverable).
    pub quarantined_records: u64,
    /// Exact label → count multiset of quarantined images.
    pub quarantined_labels: BTreeMap<u32, u64>,
    /// Per-record detail, capped at [`QUARANTINE_DETAIL_CAP`].
    pub quarantine: Vec<QuarantineEntry>,
}

impl FaultReport {
    /// True when the epoch saw no retries, degradations, or quarantines.
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.degraded_records == 0 && self.quarantined_records == 0
    }

    /// Total quarantined images (labels).
    pub fn quarantined_images(&self) -> u64 {
        self.quarantined_labels.values().sum()
    }

    /// Records a quarantined record: exact counters always, detail only
    /// under the cap.
    pub fn note_quarantine(&mut self, record: usize, labels: &[u32], reason: String) {
        self.quarantined_records += 1;
        for &label in labels {
            *self.quarantined_labels.entry(label).or_insert(0) += 1;
        }
        if self.quarantine.len() < QUARANTINE_DETAIL_CAP {
            self.quarantine.push(QuarantineEntry { record, reason });
        }
    }

    /// Adds `other`'s counters, labels and (capped) detail to this report.
    pub(crate) fn merge(&mut self, other: FaultReport) {
        self.retries += other.retries;
        self.backoff_s += other.backoff_s;
        self.degraded_records += other.degraded_records;
        self.quarantined_records += other.quarantined_records;
        for (label, n) in other.quarantined_labels {
            *self.quarantined_labels.entry(label).or_insert(0) += n;
        }
        let room = QUARANTINE_DETAIL_CAP.saturating_sub(self.quarantine.len());
        self.quarantine.extend(other.quarantine.into_iter().take(room));
    }

    /// The per-epoch counters a `FidelityEpoch` trace entry carries.
    pub fn epoch_counters(&self) -> EpochFaultCounters {
        EpochFaultCounters {
            retries: self.retries,
            degraded_records: self.degraded_records,
            quarantined_records: self.quarantined_records,
            quarantined_images: self.quarantined_images(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_storage::{DeviceProfile, FaultPlan};

    fn plan_of(name: &str) -> ReadPlan<'_> {
        ReadPlan { name, offset: 0, len: 1024 }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy { base_backoff_s: 0.01, max_backoff_s: 0.05, ..RetryPolicy::default() };
        let a = p.backoff(0.01, 7, 1);
        assert_eq!(a, p.backoff(0.01, 7, 1), "same inputs, same delay");
        assert!(a >= p.base_backoff_s && a <= p.max_backoff_s);
        assert!(p.backoff(10.0, 7, 2) <= p.max_backoff_s, "cap holds");
        assert_ne!(p.backoff(0.01, 7, 1), p.backoff(0.01, 8, 1), "keys decorrelate");
    }

    #[test]
    fn budget_spends_exactly_and_refuses_overdraft() {
        let b = RetryBudget::new(0.005);
        assert!(b.try_spend(0.003));
        assert!(!b.try_spend(0.003), "only 2ms left");
        assert!(b.try_spend(0.002));
        assert!(!b.try_spend(1e-6), "spent to the microsecond");
        assert!(RetryBudget::new(f64::INFINITY).try_spend(1e9));
        assert!(!RetryBudget::new(0.0).try_spend(1e-6));
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("rec", vec![9; 4096]);
        store.set_fault_plan(Some(FaultPlan {
            seed: 1,
            transient: 1.0,
            transient_repeats: 2,
            ..FaultPlan::default()
        }));
        let policy = RetryPolicy { base_backoff_s: 1e-6, max_backoff_s: 1e-5, ..RetryPolicy::default() };
        let budget = RetryBudget::new(1.0);
        let mut out = FaultReport::default();
        let read = read_with_retry(&store, &plan_of("rec"), &policy, &budget, 42, &mut out)
            .expect("third attempt succeeds");
        assert_eq!(read.data.len(), 1024);
        assert_eq!(out.retries, 2);
        assert!(out.backoff_s >= 2.0 * policy.base_backoff_s, "{out:?}");
    }

    #[test]
    fn corrupt_ranges_fail_fast_without_retries() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("rec", vec![9; 4096]);
        store.set_fault_plan(Some(FaultPlan { seed: 1, corrupt: 1.0, ..FaultPlan::default() }));
        let budget = RetryBudget::new(1.0);
        let mut out = FaultReport::default();
        let policy = RetryPolicy::default();
        let err = read_with_retry(&store, &plan_of("rec"), &policy, &budget, 0, &mut out)
            .expect_err("corrupt is persistent");
        assert!(matches!(err, pcr_storage::ReadError::CorruptRange { .. }));
        assert_eq!(out.retries, 0, "non-retryable errors spend nothing");
    }

    #[test]
    fn exhausted_budget_stops_retrying() {
        let store = ObjectStore::new(DeviceProfile::ram());
        store.put("rec", vec![9; 4096]);
        store.set_fault_plan(Some(FaultPlan {
            seed: 1,
            transient: 1.0,
            transient_repeats: 100,
            ..FaultPlan::default()
        }));
        let policy =
            RetryPolicy { max_retries: 50, base_backoff_s: 1e-3, ..RetryPolicy::default() };
        let budget = RetryBudget::new(0.0);
        let mut out = FaultReport::default();
        let r = read_with_retry(&store, &plan_of("rec"), &policy, &budget, 0, &mut out);
        assert!(r.is_err());
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn undecodable_reads_still_cost_their_service_time() {
        use crate::parallel::{IoModel, ParallelConfig, ParallelLoader};
        use std::sync::Arc;

        let ds = crate::source::test_dataset(4, 4, |i| i as u32);
        let db = Arc::new(ds.db.clone());
        // Every seed flips one bit somewhere in the record. Take the
        // first whose flip lands where the full prefix reads fine but
        // fails to decode while a shorter prefix is intact: two
        // successful reads, one delivery, on an uncached store.
        let (delivered, io_wait_s, device) = (0..256u64)
            .find_map(|seed| {
                let store = Arc::new(ObjectStore::new(DeviceProfile::ssd_sata()));
                crate::source::populate_store(&store, &ds);
                store.set_fault_plan(Some(FaultPlan { seed, bit_flip: 1.0, ..FaultPlan::default() }));
                let cfg = ParallelConfig { io: IoModel::EmulatedLatency, ..ParallelConfig::real(1, 10) };
                let stream = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg).spawn_epoch(0);
                let delivered: usize = stream.batches.iter().map(|b| b.images.len()).sum();
                let stats = Arc::clone(&stream.stats);
                stream.join();
                let io_wait_s = stats.io_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                (stats.fault_report().degraded_records == 1)
                    .then(|| (delivered, io_wait_s, store.device_stats()))
            })
            .expect("some flip lands in a late scan group");
        assert_eq!(delivered, 4, "degraded, not quarantined");
        assert!(device.reads >= 2, "the undecodable read and the delivered one");
        // busy_time sums the modeled service of every device read, and
        // thread::sleep never returns early.
        assert!(
            io_wait_s >= device.busy_time,
            "slept {io_wait_s:.6}s of {:.6}s modeled service: a read was free",
            device.busy_time
        );
    }

    #[test]
    fn fault_report_reconciles_label_multisets() {
        let mut r = FaultReport::default();
        r.note_quarantine(3, &[1, 1, 2], "corrupt".into());
        r.note_quarantine(9, &[2], "torn".into());
        assert_eq!(r.quarantined_records, 2);
        assert_eq!(r.quarantined_images(), 4);
        assert_eq!(r.quarantined_labels.get(&1), Some(&2));
        assert_eq!(r.quarantined_labels.get(&2), Some(&2));
        assert_eq!(r.quarantine.len(), 2);
        assert!(!r.is_clean());
        r.retries = 5;
        r.degraded_records = 1;
        assert_eq!(
            r.epoch_counters(),
            EpochFaultCounters {
                retries: 5,
                degraded_records: 1,
                quarantined_records: 2,
                quarantined_images: 4,
            }
        );
    }

    #[test]
    fn quarantine_detail_is_bounded() {
        let mut r = FaultReport::default();
        for i in 0..(QUARANTINE_DETAIL_CAP + 40) {
            r.note_quarantine(i, &[0], "x".into());
        }
        assert_eq!(r.quarantine.len(), QUARANTINE_DETAIL_CAP);
        assert_eq!(r.quarantined_records as usize, QUARANTINE_DETAIL_CAP + 40);
        assert_eq!(r.quarantined_images() as usize, QUARANTINE_DETAIL_CAP + 40);
    }
}
