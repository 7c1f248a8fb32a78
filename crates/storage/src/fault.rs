//! Deterministic fault injection for the object store.
//!
//! A [`FaultPlan`] is a seed-keyed description of *where* and *how often*
//! reads fail. Every read site — the (object name, offset, len) triple of
//! a ranged read — hashes to an independent decision for each fault kind,
//! so the same plan applied to the same store yields the same faults in
//! the same places on every run, under both `Clock::Virtual` and
//! `Clock::Wall`. There is no RNG state to share or race on: decisions are
//! pure functions of `(seed, kind, site)`, plus a per-site attempt counter
//! kept by the store so transient faults can clear after N failures.
//!
//! Fault kinds map onto the [`ReadError`] variants the read path returns:
//!
//! * **transient** — the first `transient_repeats` attempts at a site fail
//!   with [`ReadError::Transient`], later attempts succeed (error-once /
//!   error-N-times schedules).
//! * **torn** — the first attempts deliver fewer bytes than requested,
//!   surfaced as [`ReadError::ShortRead`].
//! * **corrupt** — the site persistently fails with
//!   [`ReadError::CorruptRange`]; retries never help and callers must
//!   degrade or quarantine.
//! * **timeout** — the site persistently fails with [`ReadError::Timeout`].
//! * **bit_flip** — one bit of the *object* is silently flipped whenever a
//!   read covers its position; the read succeeds and corruption must be
//!   caught downstream (decode failure, CRC mismatch).
//! * **latency** — the modeled service time of the read is multiplied by
//!   `latency_factor`; combined with a read deadline this surfaces as a
//!   loader-side timeout.
// A hot module: it runs per coefficient or parses untrusted bytes, so it
// may not panic. Each exception is an `#[expect]` with its reason.
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// A wire module: it moves integers between untrusted bytes and memory, so
// no cast may truncate and no allocation may be sized by an unchecked
// count (`clippy.toml` lists the banned allocation calls).
#![deny(clippy::cast_possible_truncation, clippy::disallowed_methods)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a read failed. Replaces the old `Option` read path: every failure
/// names the object and byte range so callers can log, retry, or degrade
/// with full context.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadError {
    /// The named object does not exist in the store. Never retryable.
    NotFound {
        /// Object name that was requested.
        object: String,
    },
    /// A transient fault (dropped connection, EINTR-class error). The
    /// `attempt` field is 1-based; retrying the same range may succeed.
    Transient {
        /// Object name that was requested.
        object: String,
        /// Byte offset of the failed range.
        offset: u64,
        /// 1-based attempt number at this site.
        attempt: u32,
    },
    /// A short (torn) read: fewer bytes than requested were delivered.
    ShortRead {
        /// Object name that was requested.
        object: String,
        /// Byte offset of the failed range.
        offset: u64,
        /// Bytes requested.
        requested: u64,
        /// Bytes actually delivered before the tear.
        delivered: u64,
    },
    /// The device reported an unreadable/corrupt range. Persistent:
    /// retrying the same range keeps failing; callers should degrade to a
    /// shorter prefix or quarantine the record.
    CorruptRange {
        /// Object name that was requested.
        object: String,
        /// Byte offset of the failed range.
        offset: u64,
        /// Length of the failed range.
        len: u64,
    },
    /// The read exceeded its deadline (injected, or detected by the
    /// loader when modeled service time overruns `read_deadline`).
    Timeout {
        /// Object name that was requested.
        object: String,
        /// Byte offset of the failed range.
        offset: u64,
        /// Modeled service seconds observed (or `f64::INFINITY` when the
        /// fault plan injected the timeout outright).
        service_s: f64,
    },
}

impl ReadError {
    /// True when retrying the *same* read could plausibly succeed.
    /// `NotFound` and `CorruptRange` are persistent; everything else is
    /// worth retrying under the loader's `RetryPolicy` budget.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ReadError::NotFound { .. } | ReadError::CorruptRange { .. })
    }

    /// The object name the failed read addressed.
    pub fn object(&self) -> &str {
        match self {
            ReadError::NotFound { object }
            | ReadError::Transient { object, .. }
            | ReadError::ShortRead { object, .. }
            | ReadError::CorruptRange { object, .. }
            | ReadError::Timeout { object, .. } => object,
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NotFound { object } => write!(f, "object {object:?} not found"),
            ReadError::Transient { object, offset, attempt } => {
                write!(f, "transient read error on {object:?} @ byte {offset} (attempt {attempt})")
            }
            ReadError::ShortRead { object, offset, requested, delivered } => write!(
                f,
                "short read on {object:?} @ byte {offset}: {delivered} of {requested} bytes"
            ),
            ReadError::CorruptRange { object, offset, len } => {
                write!(f, "corrupt range on {object:?} @ byte {offset} (+{len})")
            }
            ReadError::Timeout { object, offset, service_s } => {
                write!(f, "read timeout on {object:?} @ byte {offset} (service {service_s:.3}s)")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// A deterministic, seed-keyed fault schedule. All probabilities are per
/// read *site* — the `(object, offset, len)` triple — not per call, so a
/// site either always starts faulty or never does, and different
/// scan-group prefixes of the same record are independent sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed keying every decision; two plans with the same probabilities
    /// but different seeds fault different sites.
    pub seed: u64,
    /// Probability a site fails transiently for its first
    /// `transient_repeats` attempts.
    pub transient: f64,
    /// How many attempts a transient/torn site fails before succeeding
    /// (1 = error-once).
    pub transient_repeats: u32,
    /// Probability a site delivers a short (torn) read for its first
    /// `transient_repeats` attempts.
    pub torn: f64,
    /// Probability a site persistently reports a corrupt range.
    pub corrupt: f64,
    /// Probability an *object* carries one silently flipped bit.
    pub bit_flip: f64,
    /// Probability a site's modeled service time is multiplied by
    /// `latency_factor`.
    pub latency: f64,
    /// Service-time multiplier for latency-spiked sites.
    pub latency_factor: f64,
    /// Probability a site persistently times out.
    pub timeout: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            transient: 0.0,
            transient_repeats: 1,
            torn: 0.0,
            corrupt: 0.0,
            bit_flip: 0.0,
            latency: 0.0,
            latency_factor: 10.0,
            timeout: 0.0,
        }
    }
}

// Per-kind salts so one site's decisions are independent across kinds.
const SALT_TRANSIENT: u64 = 0x7261_6e73;
const SALT_TORN: u64 = 0x746f_726e;
const SALT_CORRUPT: u64 = 0x636f_7272;
const SALT_FLIP: u64 = 0x666c_6970;
const SALT_LATENCY: u64 = 0x6c61_7465;
const SALT_TIMEOUT: u64 = 0x7469_6d65;

/// splitmix64 finalizer: the standard 64-bit avalanche mix. With
/// [`unit()`] it is the workspace's seeded hash: fault decisions here and
/// the loader's backoff jitter draw from it, so both replay exactly from
/// their seeds without a shared RNG.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable 64-bit hash of an object name — the store keys per-site attempt
/// counters by `(site_key(name), offset, len)`.
pub fn site_key(name: &str) -> u64 {
    hash_name(name)
}

fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a hash to the unit interval [0, 1) (the top 53 bits, so every
/// value is an exact `f64`).
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan with the given seed and all fault probabilities zero.
    pub fn quiet(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// True when every probability is zero — installing such a plan is
    /// equivalent to no plan at all.
    pub fn is_quiet(&self) -> bool {
        self.transient == 0.0
            && self.torn == 0.0
            && self.corrupt == 0.0
            && self.bit_flip == 0.0
            && self.latency == 0.0
            && self.timeout == 0.0
    }

    fn site(&self, salt: u64, name_hash: u64, offset: u64, len: u64) -> u64 {
        mix(self.seed ^ mix(salt) ^ mix(name_hash) ^ mix(offset).rotate_left(17) ^ mix(len))
    }

    fn hit(&self, p: f64, salt: u64, name_hash: u64, offset: u64, len: u64) -> bool {
        p > 0.0 && unit(self.site(salt, name_hash, offset, len)) < p
    }

    /// Decides the fate of one read attempt at `(name, offset, len)`.
    /// `attempt` is 1-based. Returns what the store should do; the store
    /// itself owns the attempt counters and statistics.
    pub fn decide(&self, name: &str, offset: u64, len: u64, attempt: u32) -> FaultDecision {
        let nh = hash_name(name);
        if self.hit(self.timeout, SALT_TIMEOUT, nh, offset, len) {
            return FaultDecision::Timeout;
        }
        if self.hit(self.corrupt, SALT_CORRUPT, nh, offset, len) {
            return FaultDecision::Corrupt;
        }
        if attempt <= self.transient_repeats.max(1) {
            if self.hit(self.transient, SALT_TRANSIENT, nh, offset, len) {
                return FaultDecision::Transient;
            }
            if self.hit(self.torn, SALT_TORN, nh, offset, len) {
                // Deliver a deterministic fraction of the request.
                let frac = unit(mix(self.site(SALT_TORN, nh, offset, len)));
                #[expect(clippy::cast_possible_truncation, reason = "frac is in [0, 1), so the \
                          product stays below len, a u64")]
                let delivered = ((len as f64) * frac) as u64;
                return FaultDecision::Torn { delivered: delivered.min(len.saturating_sub(1)) };
            }
        }
        let spike = self.hit(self.latency, SALT_LATENCY, nh, offset, len);
        FaultDecision::Deliver { latency_factor: if spike { self.latency_factor.max(1.0) } else { 1.0 } }
    }

    /// The silently flipped bit of `name` (byte position, bit index), if
    /// the plan corrupts this object at all. Position is derived from the
    /// object name alone so every read covering it sees the same flip and
    /// reads of shorter prefixes that exclude it decode cleanly.
    pub fn flipped_bit(&self, name: &str, object_len: u64) -> Option<(u64, u32)> {
        if object_len == 0 {
            return None;
        }
        let nh = hash_name(name);
        if !self.hit(self.bit_flip, SALT_FLIP, nh, 0, 0) {
            return None;
        }
        let h = mix(self.seed ^ mix(SALT_FLIP ^ 0x5eed) ^ mix(nh));
        // Bias the position toward the back half of the object so short
        // scan-group prefixes usually stay intact — the recovery path the
        // chaos harness wants to exercise — while still covering early
        // bytes sometimes.
        let back_half = object_len / 2;
        let pos = back_half + (h % object_len.saturating_sub(back_half).max(1));
        Some((pos.min(object_len - 1), (h >> 32) as u32 & 7))
    }

    /// Parses a `key=value,key=value` CLI spec, e.g.
    /// `seed=7,transient=0.05,repeats=2,torn=0.01,corrupt=0.002,bit_flip=0.01,latency=0.05,latency_factor=20,timeout=0.001`.
    /// Unknown keys are rejected so typos fail loudly.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry {part:?} is not key=value"))?;
            let fval = || -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("fault-plan {key}={value:?}: not a number"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault-plan {key}={value}: must be in [0, 1]"));
                }
                Ok(v)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault-plan seed={value:?}: not a u64"))?;
                }
                "repeats" | "transient_repeats" => {
                    plan.transient_repeats = value
                        .parse()
                        .map_err(|_| format!("fault-plan {key}={value:?}: not a u32"))?;
                }
                "latency_factor" => {
                    plan.latency_factor = value
                        .parse()
                        .map_err(|_| format!("fault-plan latency_factor={value:?}: not a number"))?;
                }
                "transient" => plan.transient = fval()?,
                "torn" => plan.torn = fval()?,
                "corrupt" => plan.corrupt = fval()?,
                "bit_flip" | "bitflip" => plan.bit_flip = fval()?,
                "latency" => plan.latency = fval()?,
                "timeout" => plan.timeout = fval()?,
                other => {
                    return Err(format!(
                        "fault-plan key {other:?} unknown (seed, transient, repeats, torn, \
                         corrupt, bit_flip, latency, latency_factor, timeout)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// What the fault plan decided for one read attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Serve the read; multiply modeled service time by `latency_factor`
    /// (1.0 = no spike).
    Deliver {
        /// Service-time multiplier (1.0 = no latency spike).
        latency_factor: f64,
    },
    /// Fail with [`ReadError::Transient`].
    Transient,
    /// Fail with [`ReadError::ShortRead`] delivering only `delivered` bytes.
    Torn {
        /// Bytes "delivered" before the tear (strictly less than requested).
        delivered: u64,
    },
    /// Fail with [`ReadError::CorruptRange`] (persistent).
    Corrupt,
    /// Fail with [`ReadError::Timeout`] (persistent).
    Timeout,
}

/// Injection counters, kept by the store. All relaxed atomics: these are
/// observability counters, not synchronization.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transient errors injected.
    pub transient: AtomicU64,
    /// Short reads injected.
    pub torn: AtomicU64,
    /// Corrupt-range errors injected.
    pub corrupt: AtomicU64,
    /// Reads that covered a silently flipped bit.
    pub bit_flips: AtomicU64,
    /// Latency spikes applied.
    pub latency_spikes: AtomicU64,
    /// Timeouts injected.
    pub timeouts: AtomicU64,
}

impl FaultStats {
    /// Plain-value snapshot of the counters.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            transient: self.transient.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            latency_spikes: self.latency_spikes.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Transient errors injected.
    pub transient: u64,
    /// Short reads injected.
    pub torn: u64,
    /// Corrupt-range errors injected.
    pub corrupt: u64,
    /// Reads that covered a silently flipped bit.
    pub bit_flips: u64,
    /// Latency spikes applied.
    pub latency_spikes: u64,
    /// Timeouts injected.
    pub timeouts: u64,
}

impl FaultStatsSnapshot {
    /// Total injected failures (excludes silent bit flips and latency
    /// spikes, which deliver data).
    pub fn injected_errors(&self) -> u64 {
        self.transient + self.torn + self.corrupt + self.timeouts
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation, clippy::disallowed_methods,
             reason = "test fixtures: small literal sizes and values")]
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan { seed: 9, transient: 0.5, corrupt: 0.1, ..FaultPlan::default() };
        for offset in [0u64, 100, 4096] {
            let a = plan.decide("shard-0", offset, 512, 1);
            let b = plan.decide("shard-0", offset, 512, 1);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_fault_different_sites() {
        let mk = |seed| FaultPlan { seed, transient: 0.5, ..FaultPlan::default() };
        let (a, b) = (mk(1), mk(2));
        let differs = (0..64).any(|i| {
            a.decide("x", i * 64, 64, 1) != b.decide("x", i * 64, 64, 1)
        });
        assert!(differs, "two seeds should not produce identical schedules");
    }

    #[test]
    fn transient_faults_clear_after_repeats() {
        let plan =
            FaultPlan { seed: 3, transient: 1.0, transient_repeats: 2, ..FaultPlan::default() };
        assert_eq!(plan.decide("a", 0, 16, 1), FaultDecision::Transient);
        assert_eq!(plan.decide("a", 0, 16, 2), FaultDecision::Transient);
        assert_eq!(plan.decide("a", 0, 16, 3), FaultDecision::Deliver { latency_factor: 1.0 });
    }

    #[test]
    fn corrupt_sites_never_clear() {
        let plan = FaultPlan { seed: 3, corrupt: 1.0, ..FaultPlan::default() };
        for attempt in 1..10 {
            assert_eq!(plan.decide("a", 0, 16, attempt), FaultDecision::Corrupt);
        }
    }

    #[test]
    fn torn_reads_deliver_fewer_bytes_than_requested() {
        let plan = FaultPlan { seed: 5, torn: 1.0, ..FaultPlan::default() };
        match plan.decide("a", 32, 100, 1) {
            FaultDecision::Torn { delivered } => assert!(delivered < 100),
            other => panic!("expected torn, got {other:?}"),
        }
    }

    #[test]
    fn flipped_bit_lands_in_back_half_and_is_stable() {
        let plan = FaultPlan { seed: 11, bit_flip: 1.0, ..FaultPlan::default() };
        let a = plan.flipped_bit("rec", 1000);
        let b = plan.flipped_bit("rec", 1000);
        assert_eq!(a, b);
        let (pos, bit) = a.expect("bit_flip=1.0 always flips");
        assert!((500..1000).contains(&pos), "pos {pos} should land in the back half");
        assert!(bit < 8);
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = FaultPlan::quiet(7);
        assert!(plan.is_quiet());
        for i in 0..256u64 {
            assert_eq!(
                plan.decide("obj", i, 64, 1),
                FaultDecision::Deliver { latency_factor: 1.0 }
            );
        }
        assert_eq!(plan.flipped_bit("obj", 4096), None);
    }

    #[test]
    fn spec_round_trip_and_errors() {
        let plan = FaultPlan::parse_spec(
            "seed=7,transient=0.25,repeats=3,torn=0.1,corrupt=0.01,bit_flip=0.02,latency=0.5,latency_factor=20,timeout=0.001",
        )
        .expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.transient, 0.25);
        assert_eq!(plan.transient_repeats, 3);
        assert_eq!(plan.latency_factor, 20.0);
        assert!(FaultPlan::parse_spec("bogus=1").is_err());
        assert!(FaultPlan::parse_spec("transient=2.0").is_err());
        assert!(FaultPlan::parse_spec("transient").is_err());
        assert!(FaultPlan::parse_spec("").expect("empty spec ok").is_quiet());
    }

    #[test]
    fn read_error_display_names_object_and_offset() {
        let e = ReadError::CorruptRange { object: "s-0".into(), offset: 128, len: 64 };
        let msg = e.to_string();
        assert!(msg.contains("s-0") && msg.contains("128"), "{msg}");
        assert!(!e.is_retryable());
        assert!(ReadError::Transient { object: "x".into(), offset: 0, attempt: 1 }.is_retryable());
    }
}
