//! Loader configuration: thread count, prefetch depth, scan group, decode
//! modeling. [`LoaderConfig`] is shared by the virtual-time
//! ([`crate::loader::PcrLoader`]) and wall-clock ([`crate::parallel`])
//! paths so experiments can switch between modeled and measured runs.

/// How the loader accounts for JPEG decode cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeMode {
    /// Do not decode; byte accounting only (pure reader benchmarks, which
    /// the paper notes are bandwidth-bound regardless of decoding).
    Skip,
    /// Actually decode every image with `pcr-jpeg`, attributing measured
    /// CPU time to the worker's virtual timeline.
    Real,
    /// Charge a modeled per-byte decode cost. The default constants follow
    /// the paper's Appendix A.5: ~150 progressive images/s per core at
    /// ~110 KiB/image.
    Modeled {
        /// Seconds of CPU per byte of compressed data.
        seconds_per_byte: f64,
    },
}

impl DecodeMode {
    /// Modeled progressive-JPEG decode cost (paper A.5: 150 img/s/core on
    /// ~110KiB ImageNet images -> ~6e-8 s/B).
    pub fn modeled_progressive() -> Self {
        DecodeMode::Modeled { seconds_per_byte: 1.0 / (150.0 * 110.0 * 1024.0) }
    }

    /// Modeled baseline-JPEG decode cost (230 img/s/core -> ~40-50% faster
    /// than progressive, matching the paper's measured overhead).
    pub fn modeled_baseline() -> Self {
        DecodeMode::Modeled { seconds_per_byte: 1.0 / (230.0 * 110.0 * 1024.0) }
    }
}

/// Data loader configuration (the paper uses 4-8 prefetch threads).
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderConfig {
    /// Worker (prefetch) threads.
    pub threads: usize,
    /// Scan group to read (1..=10); `num_groups` means full quality.
    pub scan_group: usize,
    /// Shuffle record order each epoch.
    pub shuffle: bool,
    /// Shuffle seed.
    pub seed: u64,
    /// Decode cost accounting.
    pub decode: DecodeMode,
    /// Retry/backoff policy around every read (see [`crate::retry`]).
    /// With a clean store the policy is never exercised; under faults it
    /// governs retries, deadlines, and the per-epoch retry budget.
    pub retry: crate::retry::RetryPolicy,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        Self {
            threads: 8,
            scan_group: 10,
            shuffle: true,
            seed: 0,
            decode: DecodeMode::modeled_progressive(),
            retry: crate::retry::RetryPolicy::default(),
        }
    }
}

impl LoaderConfig {
    /// Convenience constructor for a scan group.
    pub fn at_group(scan_group: usize) -> Self {
        Self { scan_group, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_costs_reflect_paper_overhead() {
        let (DecodeMode::Modeled { seconds_per_byte: prog },
             DecodeMode::Modeled { seconds_per_byte: base }) =
            (DecodeMode::modeled_progressive(), DecodeMode::modeled_baseline())
        else {
            panic!("constructors must return Modeled")
        };
        let overhead = prog / base - 1.0;
        assert!(
            (0.4..=0.6).contains(&overhead),
            "progressive decode overhead {overhead:.2} should be 40-50%"
        );
    }

    #[test]
    fn default_matches_paper_loader() {
        let c = LoaderConfig::default();
        assert_eq!(c.threads, 8);
        assert_eq!(c.scan_group, 10);
        assert!(c.shuffle);
    }
}
