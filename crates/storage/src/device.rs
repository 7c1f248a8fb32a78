//! The simulated device: a thread-safe shared device that serializes
//! concurrent requests the way a saturated drive queue does, with
//! sequential-access detection and cumulative statistics.

use crate::profile::DeviceProfile;
use parking_lot::Mutex;

/// Cumulative statistics kept by every simulated device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Total read requests.
    pub reads: u64,
    /// Requests detected as sequential continuations.
    pub sequential_reads: u64,
    /// Requests that paid a seek.
    pub random_reads: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total device busy time in seconds.
    pub busy_time: f64,
}

impl DeviceStats {
    /// Mean achieved bandwidth in MiB/s over busy time.
    pub fn achieved_bw_mib_s(&self) -> f64 {
        if self.busy_time <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / (1024.0 * 1024.0) / self.busy_time
        }
    }
}

/// A thread-safe device shared by loader threads. Requests are serviced
/// FIFO: a request arriving at `now` starts at `max(now, busy_until)`; the
/// returned completion time models queueing at a saturated drive.
/// Sequential detection: a read of object `o` at the exact offset where
/// the previous read of `o` ended is sequential and pays no seek.
#[derive(Debug)]
pub struct SharedDevice {
    inner: Mutex<SharedInner>,
    profile: DeviceProfile,
}

#[derive(Debug)]
struct SharedInner {
    busy_until: f64,
    last: Option<(u64, u64)>,
    stats: DeviceStats,
    /// Multiplier on effective bandwidth (1.0 = profile value). Models
    /// fluctuating shared-storage conditions (multi-tenant clusters,
    /// cross-datacenter links) without rebuilding the device.
    bandwidth_scale: f64,
}

impl SharedDevice {
    /// Creates an idle shared device.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            inner: Mutex::new(SharedInner {
                busy_until: 0.0,
                last: None,
                stats: DeviceStats::default(),
                bandwidth_scale: 1.0,
            }),
            profile,
        }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Submits a read at virtual time `now`; returns `(start, finish)`
    /// virtual timestamps.
    pub fn read_at(&self, now: f64, object: u64, offset: u64, len: u64) -> (f64, f64) {
        let mut g = self.inner.lock();
        let service = g.account(&self.profile, object, offset, len);
        let start = now.max(g.busy_until);
        let finish = start + service;
        g.busy_until = finish;
        (start, finish)
    }

    /// Accounts for a read performed by a *wall-clock* worker: updates the
    /// statistics and sequential-access history exactly like
    /// [`SharedDevice::read_at`] and returns the modeled service time, but
    /// does **not** advance the virtual request queue (`busy_until`). Wall
    /// workers contend in real time — queueing them against the virtual
    /// timeline would corrupt any virtual-clock reader sharing the store.
    pub fn service_wall(&self, object: u64, offset: u64, len: u64) -> f64 {
        self.inner.lock().account(&self.profile, object, offset, len)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }

    /// Virtual time at which the device becomes idle.
    pub fn busy_until(&self) -> f64 {
        self.inner.lock().busy_until
    }

    /// Sets the effective-bandwidth multiplier (1.0 = nominal). Used to
    /// model fluctuating shared-storage bandwidth at runtime.
    pub fn set_bandwidth_scale(&self, scale: f64) {
        self.inner.lock().bandwidth_scale = scale.max(1e-6);
    }

    /// Current effective-bandwidth multiplier.
    pub fn bandwidth_scale(&self) -> f64 {
        self.inner.lock().bandwidth_scale
    }

    /// Resets the device (clock, stats, and access history; the bandwidth
    /// scale is preserved).
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        g.busy_until = 0.0;
        g.last = None;
        g.stats = DeviceStats::default();
    }
}

impl SharedInner {
    /// Counts one read in the statistics and the sequential-access
    /// history, returning its modeled service time.
    fn account(&mut self, profile: &DeviceProfile, object: u64, offset: u64, len: u64) -> f64 {
        let sequential = self.last == Some((object, offset));
        let service = profile.read_time(len, sequential) / self.bandwidth_scale.max(1e-6);
        self.last = Some((object, offset + len));
        self.stats.reads += 1;
        if sequential {
            self.stats.sequential_reads += 1;
        } else {
            self.stats.random_reads += 1;
        }
        self.stats.bytes += len;
        self.stats.busy_time += service;
        service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_detection() {
        let d = SharedDevice::new(DeviceProfile::hdd_7200rpm());
        let (s1, f1) = d.read_at(0.0, 1, 0, 4096); // random (first)
        let (s2, f2) = d.read_at(0.0, 1, 4096, 4096); // sequential
        assert!(f2 - s2 < f1 - s1, "a sequential read pays no seek");
        assert_eq!(d.service_wall(1, 100_000, 4096), f1 - s1, "random (gap)");
        d.read_at(0.0, 2, 104_096, 4096); // random (different object)
        let s = d.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.sequential_reads, 1);
        assert_eq!(s.random_reads, 3);
    }

    #[test]
    fn shared_device_serializes_overlapping_requests() {
        let d = SharedDevice::new(DeviceProfile::ssd_sata());
        // Two requests issued at the same instant must queue.
        let (s1, f1) = d.read_at(0.0, 0, 0, 4 << 20);
        let (s2, f2) = d.read_at(0.0, 1, 0, 4 << 20);
        assert_eq!(s1, 0.0);
        assert!((s2 - f1).abs() < 1e-12, "second starts when first finishes");
        assert!(f2 > f1);
    }

    #[test]
    fn shared_device_idles_between_sparse_requests() {
        let d = SharedDevice::new(DeviceProfile::ssd_sata());
        let (_, f1) = d.read_at(0.0, 0, 0, 1024);
        let (s2, _) = d.read_at(f1 + 10.0, 0, 1024, 1024);
        assert!((s2 - (f1 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn achieved_bandwidth_close_to_profile_for_large_sequential() {
        let d = SharedDevice::new(DeviceProfile::ssd_sata());
        let mut off = 0u64;
        for _ in 0..100 {
            d.read_at(0.0, 0, off, 8 << 20);
            off += 8 << 20;
        }
        let bw = d.stats().achieved_bw_mib_s();
        assert!((bw - 400.0).abs() < 5.0, "achieved {bw} MiB/s");
    }

    #[test]
    fn bandwidth_scale_slows_and_speeds_reads() {
        let d = SharedDevice::new(DeviceProfile::ssd_sata());
        let (_, f_nominal) = d.read_at(0.0, 0, 0, 8 << 20);
        d.reset();
        d.set_bandwidth_scale(0.5);
        let (_, f_half) = d.read_at(0.0, 0, 0, 8 << 20);
        assert!((f_half / f_nominal - 2.0).abs() < 0.05, "ratio {}", f_half / f_nominal);
        d.reset();
        assert_eq!(d.bandwidth_scale(), 0.5, "reset preserves the scale");
        d.set_bandwidth_scale(2.0);
        let (_, f_double) = d.read_at(0.0, 0, 0, 8 << 20);
        assert!(f_double < f_nominal);
    }

    #[test]
    fn reset_clears_state() {
        let d = SharedDevice::new(DeviceProfile::ram());
        let (_, first) = d.read_at(0.0, 0, 0, 100);
        d.read_at(0.0, 0, 100, 100);
        d.reset();
        assert_eq!(d.busy_until(), 0.0);
        assert_eq!(d.stats(), DeviceStats::default());
        assert_eq!(d.read_at(0.0, 0, 100, 100).1, first, "the access history is gone too");
    }
}
