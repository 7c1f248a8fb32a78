//! The paper's Appendix A.2 queueing analysis (Lemmas A.1-A.5), as
//! executable code, plus the Figure 14 roofline-style throughput model.

use pcr_storage::DeviceProfile;

/// Lemma A.1: expected time to read one item of mean size `mean_bytes` at
/// device bandwidth (amortized; the Θ(1) setup cost — one seek plus the
/// request overhead, since each record is an independent object — is
/// spread across a record of `n` items).
pub fn expected_item_read_time(profile: &DeviceProfile, mean_bytes: f64, items_per_record: usize) -> f64 {
    let n = items_per_record.max(1) as f64;
    profile.read_time((mean_bytes * n) as u64, false) / n
}

/// Lemma A.2: loader throughput `X_g = W / E[s(x, g)]` in items/second,
/// for a single outstanding request (`W = 1`).
pub fn loader_throughput(profile: &DeviceProfile, mean_bytes: f64, items_per_record: usize) -> f64 {
    1.0 / expected_item_read_time(profile, mean_bytes, items_per_record)
}

/// Lemma A.2 with `W = depth` requests outstanding against independent
/// backends (the regime `DeviceProfile::remote_object_store` models):
/// each request stream delivers [`loader_throughput`], so the loader
/// delivers `depth` times that. `depth` is the wall-clock loader's I/O
/// depth (`ParallelConfig::prefetch_records`), not its decode thread
/// count; 0 is treated as 1.
pub fn loader_throughput_at_depth(
    profile: &DeviceProfile,
    mean_bytes: f64,
    items_per_record: usize,
    depth: usize,
) -> f64 {
    depth.max(1) as f64 * loader_throughput(profile, mean_bytes, items_per_record)
}

/// Lemma A.3: the data-pipeline speedup of scan group `g` is the ratio of
/// mean item sizes.
pub fn pipeline_speedup(mean_bytes_full: f64, mean_bytes_group: f64) -> f64 {
    mean_bytes_full / mean_bytes_group.max(1e-9)
}

/// Lemma A.4: the end-to-end training throughput is bounded by
/// `min(X_c, X_g)`.
pub fn system_throughput(compute_items_per_s: f64, loader_items_per_s: f64) -> f64 {
    compute_items_per_s.min(loader_items_per_s)
}

/// Theorem A.5: maximum achievable speedup from switching to group `g` on a
/// data-bound pipeline, clipped by the compute roof.
pub fn max_system_speedup(
    profile: &DeviceProfile,
    compute_items_per_s: f64,
    mean_bytes_full: f64,
    mean_bytes_group: f64,
    items_per_record: usize,
) -> f64 {
    let x_full = system_throughput(
        compute_items_per_s,
        loader_throughput(profile, mean_bytes_full, items_per_record),
    );
    let x_g = system_throughput(
        compute_items_per_s,
        loader_throughput(profile, mean_bytes_group, items_per_record),
    );
    x_g / x_full
}

/// One point of the Figure 14 roofline: system throughput as a function of
/// per-item byte intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Mean bytes per item.
    pub bytes_per_item: f64,
    /// Loader-bound throughput at this intensity.
    pub loader_throughput: f64,
    /// Achieved system throughput `min(Xc, Xg)`.
    pub system_throughput: f64,
    /// True when the compute roof is the binding constraint.
    pub compute_bound: bool,
}

/// Sweeps byte intensity to produce the Figure 14 curve.
pub fn roofline_sweep(
    profile: &DeviceProfile,
    compute_items_per_s: f64,
    bytes_range: (f64, f64),
    points: usize,
    items_per_record: usize,
) -> Vec<RooflinePoint> {
    let (lo, hi) = bytes_range;
    let n = points.max(2);
    (0..n)
        .map(|i| {
            // Log-spaced sweep.
            let t = i as f64 / (n - 1) as f64;
            let bytes = lo * (hi / lo).powf(t);
            let xl = loader_throughput(profile, bytes, items_per_record);
            let xs = system_throughput(compute_items_per_s, xl);
            RooflinePoint {
                bytes_per_item: bytes,
                loader_throughput: xl,
                system_throughput: xs,
                compute_bound: compute_items_per_s <= xl,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> DeviceProfile {
        DeviceProfile::ssd_sata()
    }

    #[test]
    fn read_time_proportional_to_mean_size() {
        let p = ssd();
        let t1 = expected_item_read_time(&p, 50_000.0, 64);
        let t2 = expected_item_read_time(&p, 100_000.0, 64);
        // Linear up to the per-record seek overhead.
        assert!((t2 / t1 - 2.0).abs() < 0.04, "ratio {}", t2 / t1);
    }

    #[test]
    fn throughput_inverse_of_read_time() {
        let p = ssd();
        let x = loader_throughput(&p, 110_000.0, 128);
        let t = expected_item_read_time(&p, 110_000.0, 128);
        assert!((x * t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depth_scales_lemma_a2_linearly() {
        let p = DeviceProfile::remote_object_store();
        let one = loader_throughput(&p, 18_000.0, 8);
        for depth in [1usize, 2, 8, 64] {
            let x = loader_throughput_at_depth(&p, 18_000.0, 8, depth);
            assert!((x - one * depth as f64).abs() <= 1e-9 * x, "depth {depth}: {x} vs {one}");
        }
        assert_eq!(loader_throughput_at_depth(&p, 18_000.0, 8, 0), one, "depth 0 reads as 1");
    }

    #[test]
    fn speedup_is_size_ratio() {
        assert!((pipeline_speedup(100_000.0, 50_000.0) - 2.0).abs() < 1e-12);
        assert!((pipeline_speedup(100_000.0, 10_000.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn min_rule_binds() {
        assert_eq!(system_throughput(400.0, 1000.0), 400.0);
        assert_eq!(system_throughput(400.0, 100.0), 100.0);
    }

    #[test]
    fn data_bound_speedup_matches_theorem_a5() {
        // Very fast compute: system is storage-bound, so speedup should be
        // exactly the size ratio.
        let p = ssd();
        let s = max_system_speedup(&p, 1e9, 100_000.0, 25_000.0, 64);
        assert!((s - 4.0).abs() < 0.15, "speedup {s}");
    }

    #[test]
    fn compute_bound_speedup_saturates() {
        // Slow compute: already compute-bound at full quality, no speedup.
        let p = ssd();
        let x_full = loader_throughput(&p, 100_000.0, 64);
        let s = max_system_speedup(&p, x_full / 10.0, 100_000.0, 25_000.0, 64);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_has_knee() {
        let p = ssd();
        let pts = roofline_sweep(&p, 4000.0, (1_000.0, 1_000_000.0), 40, 64);
        assert_eq!(pts.len(), 40);
        // Small items: compute bound; large items: loader bound.
        assert!(pts.first().unwrap().compute_bound);
        assert!(!pts.last().unwrap().compute_bound);
        // Throughput is non-increasing along the sweep.
        for w in pts.windows(2) {
            assert!(w[1].system_throughput <= w[0].system_throughput + 1e-9);
        }
        // In the compute-bound region the roof is flat at Xc.
        assert!((pts[0].system_throughput - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn paper_scale_sanity_imagenet() {
        // Paper: ImageNet images ~110 KiB; 10-worker cluster consumes
        // 465 MB/s for ResNet (4050 img/s aggregate); the 5-OSD cluster
        // delivers ~437 MiB/s. Full quality should thus be borderline
        // storage-bound, and scan group 1 (~6x smaller) clearly
        // compute-bound — the regime the paper exploits.
        let cluster = DeviceProfile::paper_cluster();
        let resnet_cluster_rate = 405.0 * 10.0;
        let x_full = loader_throughput(&cluster, 110.0 * 1024.0, 1024);
        let x_g1 = loader_throughput(&cluster, 18.0 * 1024.0, 1024);
        assert!(x_full < resnet_cluster_rate * 1.3, "full quality near/below compute roof");
        assert!(x_g1 > resnet_cluster_rate, "scan 1 is compute bound");
    }
}
