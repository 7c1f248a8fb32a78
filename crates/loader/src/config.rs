//! Loader configuration: thread count, scan group, shuffle, decode and
//! retry policy. [`LoaderConfig`] is the part of
//! [`crate::parallel::ParallelConfig`] every reader of a record source
//! shares; the modeled timeline in `pcr-sim` plans with the same
//! [`crate::ReadPlanner`] it yields.

/// What the loader does with the bytes it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeMode {
    /// Do not decode; byte accounting only (pure reader benchmarks, which
    /// the paper notes are bandwidth-bound regardless of decoding).
    Skip,
    /// Actually decode every image with `pcr-jpeg`, timing the work.
    Real,
}

/// Data loader configuration (the paper uses 4-8 prefetch threads).
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderConfig {
    /// The least size of the wall-clock loader's decode pool: it runs
    /// `max(threads, available_parallelism())` identical decode threads,
    /// counted once when its stage threads are built. Delivery order does
    /// not depend on it — every pool size delivers the epoch order.
    pub threads: usize,
    /// Scan group to read (1..=10); `num_groups` means full quality.
    pub scan_group: usize,
    /// Shuffle record order each epoch.
    pub shuffle: bool,
    /// Shuffle seed.
    pub seed: u64,
    /// What the workers do with the bytes.
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
            decode: DecodeMode::Real,
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
    fn default_matches_paper_loader() {
        let c = LoaderConfig::default();
        assert_eq!(c.threads, 8);
        assert_eq!(c.scan_group, 10);
        assert!(c.shuffle);
        assert_eq!(c.decode, DecodeMode::Real);
    }
}
