//! The one per-epoch report the loader folds an epoch into.

use crate::retry::FaultReport;

/// One wall-clock epoch: what it delivered, how long it took, where its
/// decode pool's time went, and what faults cost it.
///
/// A pool thread waits for bytes until a read completes, then decodes,
/// then may wait for room in the reorder window behind a consumer that is
/// not keeping up. The counts and the [`FaultReport`] do not depend on timing: with
/// one read in flight, the same store, source, configuration and fault
/// plan give the same `images`, `bytes` and `faults` run after run, at
/// any pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Images delivered (labels delivered under non-decoding modes).
    pub images: usize,
    /// Compressed bytes read.
    pub bytes: u64,
    /// Seconds from the epoch's start to its last delivery.
    pub seconds: f64,
    /// Decode seconds summed over every image the pool decoded — the
    /// epoch's decode CPU cost.
    pub decode_seconds: f64,
    /// Share of the I/O lanes' time (lanes × `seconds`) spent waiting on
    /// storage. The lanes are the prefetch window and only realized
    /// device service counts, so it is 0 under `IoModel::Instant`.
    pub io_wait_share: f64,
    /// Share of the decode pool's time (pool size × `seconds`) spent
    /// decoding.
    pub decode_busy_share: f64,
    /// The stage that took most of the decode pool's time.
    pub bottleneck: Bottleneck,
    /// Retry/degradation/quarantine accounting for the epoch. Clean runs
    /// report [`FaultReport::is_clean`].
    pub faults: FaultReport,
}

impl EpochReport {
    /// Delivered throughput in images per second.
    pub fn images_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.images as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Mean compressed bytes read per image.
    pub fn mean_image_bytes(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.bytes as f64 / self.images as f64
        }
    }
}

/// `busy` seconds as a share of `lanes` parallel lanes over `seconds`;
/// 0 for an epoch that took no time.
pub(crate) fn share(busy: f64, lanes: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        busy / (seconds * lanes.max(1) as f64)
    } else {
        0.0
    }
}

/// The stage an epoch's throughput was bound by (see
/// [`EpochReport::bottleneck`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The decode pool mostly waited for bytes to arrive.
    Storage,
    /// The decode pool was mostly busy decoding.
    Decode,
    /// The decode pool mostly waited for the consumer to take batches.
    Consumer,
}

impl Bottleneck {
    /// Where most of the decode pool's time went: `starved` seconds
    /// waiting for bytes, `busy` decoding, `blocked` handing records to
    /// the consumer. Ties go to storage, then decode.
    pub(crate) fn of(starved: f64, busy: f64, blocked: f64) -> Self {
        if starved >= busy && starved >= blocked {
            Bottleneck::Storage
        } else if busy >= blocked {
            Bottleneck::Decode
        } else {
            Bottleneck::Consumer
        }
    }

    /// The verdict as one lower-case word (`storage`/`decode`/`consumer`).
    pub fn as_str(self) -> &'static str {
        match self {
            Bottleneck::Storage => "storage",
            Bottleneck::Decode => "decode",
            Bottleneck::Consumer => "consumer",
        }
    }
}
