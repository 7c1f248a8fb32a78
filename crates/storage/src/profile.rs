//! Storage device profiles: parametric seek/bandwidth models for the
//! hardware classes in the paper's evaluation.

/// Parameters of a simulated storage device (or aggregate storage system).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Latency charged to a non-sequential access, in microseconds
    /// (head seek + rotational delay for HDDs; command overhead for SSDs;
    /// RPC + placement for distributed stores).
    pub seek_latency_us: f64,
    /// Fixed per-request overhead charged to *every* access, in
    /// microseconds.
    pub request_overhead_us: f64,
    /// Sustained sequential read bandwidth in MiB/s.
    pub sequential_bw_mib_s: f64,
}

impl DeviceProfile {
    /// The paper's storage node drive: 4TB 7200RPM Seagate ST4000NM0023.
    /// ~4.16ms rotational + ~8.5ms avg seek, ~175 MiB/s outer-track reads.
    pub fn hdd_7200rpm() -> Self {
        Self {
            name: "hdd-7200rpm".into(),
            seek_latency_us: 12_600.0,
            request_overhead_us: 50.0,
            sequential_bw_mib_s: 175.0,
        }
    }

    /// The paper's microbenchmark drive: Micron 1100 2TB SATA SSD, measured
    /// at ~400 MiB/s in their reader benchmark (Appendix A.5).
    pub fn ssd_sata() -> Self {
        Self {
            name: "ssd-sata".into(),
            seek_latency_us: 90.0,
            request_overhead_us: 20.0,
            sequential_bw_mib_s: 400.0,
        }
    }

    /// An aggregate Ceph-like cluster of `n_osds` HDD-backed OSDs reached
    /// over the network. The paper's 5-OSD cluster delivered 400+ MiB/s of
    /// aggregate bandwidth to 10 workers; we model per-request network RPC
    /// latency plus striped aggregate bandwidth with a parallel-efficiency
    /// factor.
    pub fn ceph_cluster(n_osds: usize) -> Self {
        let hdd = Self::hdd_7200rpm();
        let efficiency = 0.5; // replication + striping + network overheads
        Self {
            name: format!("ceph-{n_osds}osd"),
            seek_latency_us: hdd.seek_latency_us + 300.0, // + network RTT
            request_overhead_us: 250.0,
            sequential_bw_mib_s: hdd.sequential_bw_mib_s * n_osds as f64 * efficiency,
        }
    }

    /// The paper's evaluation cluster: 5 OSDs, "400+ MiB/s".
    pub fn paper_cluster() -> Self {
        Self::ceph_cluster(5)
    }

    /// A remote object store reached over a wide-area or congested link
    /// (S3-like blob storage): high first-byte latency, modest per-stream
    /// bandwidth. Requests to *different* objects are served by independent
    /// backends, so a multi-worker loader overlaps their latencies — the
    /// regime the wall-clock `pcr-loader::parallel` benchmark exercises.
    pub fn remote_object_store() -> Self {
        Self {
            name: "remote-object-store".into(),
            seek_latency_us: 80_000.0, // RPC + placement + first byte
            request_overhead_us: 4_000.0,
            sequential_bw_mib_s: 60.0, // per-stream
        }
    }

    /// A local NVMe-class flash drive — the default device profile for
    /// *file-backed* shard containers (`pcr-core::container`) opened on a
    /// workstation: microsecond-scale command latency and multi-GiB/s
    /// sequential bandwidth, so emulated-latency runs against packed
    /// shards behave like a modern local disk rather than the paper's
    /// SATA-era hardware.
    pub fn nvme_local() -> Self {
        Self {
            name: "nvme-local".into(),
            seek_latency_us: 20.0,
            request_overhead_us: 8.0,
            sequential_bw_mib_s: 3_000.0,
        }
    }

    /// In-memory "device": effectively instant (used as the compute-bound
    /// reference, e.g. the paper's from-RAM training rates).
    pub fn ram() -> Self {
        Self {
            name: "ram".into(),
            seek_latency_us: 0.1,
            request_overhead_us: 0.1,
            sequential_bw_mib_s: 20_000.0,
        }
    }

    /// Time in seconds for one read of `len` bytes.
    pub fn read_time(&self, len: u64, sequential: bool) -> f64 {
        let overhead = if sequential {
            self.request_overhead_us
        } else {
            self.request_overhead_us + self.seek_latency_us
        };
        overhead * 1e-6 + len as f64 / (self.sequential_bw_mib_s * 1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_read_time_scales_linearly() {
        let p = DeviceProfile::ssd_sata();
        let t1 = p.read_time(1 << 20, true);
        let t2 = p.read_time(2 << 20, true);
        // Doubling bytes roughly doubles time (overhead is small).
        assert!((t2 / t1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn random_reads_pay_seek() {
        let p = DeviceProfile::hdd_7200rpm();
        let seq = p.read_time(4096, true);
        let rnd = p.read_time(4096, false);
        assert!(rnd > seq * 50.0, "seek must dominate small random reads");
    }

    #[test]
    fn hdd_small_random_iops_realistic() {
        // A 7200RPM drive does on the order of 75-120 random IOPS.
        let p = DeviceProfile::hdd_7200rpm();
        let iops = 1.0 / p.read_time(4096, false);
        assert!((40.0..200.0).contains(&iops), "iops {iops}");
    }

    #[test]
    fn cluster_bandwidth_exceeds_single_disk() {
        let one = DeviceProfile::hdd_7200rpm();
        let cluster = DeviceProfile::paper_cluster();
        assert!(cluster.sequential_bw_mib_s > 2.0 * one.sequential_bw_mib_s);
        // Paper reports "400+ MiB/s of storage bandwidth".
        assert!(cluster.sequential_bw_mib_s >= 400.0);
    }

    #[test]
    fn ram_is_fast() {
        let p = DeviceProfile::ram();
        assert!(p.read_time(1 << 20, false) < 1e-3);
    }
}
