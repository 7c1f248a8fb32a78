//! `PcrDatasetBuilder`'s conversion crew counted from the outside, as
//! the entries of `/proc/self/task`. The count is process-wide, so this
//! file holds one test: nothing else in its process starts a thread.

#![cfg(target_os = "linux")]

use std::time::Duration;

use pcr_core::{PcrDatasetBuilder, SampleMeta};
use pcr_jpeg::{EncodeConfig, ImageBuf};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Waits up to about ten seconds for the thread count to come back to
/// `want`: a joined thread leaves `/proc/self/task` a moment after `join`
/// returns.
fn settles_at(want: usize) -> bool {
    (0..10_000).any(|_| {
        let settled = threads() == want;
        if !settled {
            std::thread::sleep(Duration::from_millis(1));
        }
        settled
    })
}

fn jpeg(i: usize, config: &EncodeConfig) -> Vec<u8> {
    let data = (0..24 * 16 * 3)
        .map(|p| ((p * 7 + i * 13) % 251) as u8)
        .collect();
    let img = ImageBuf::from_raw(24, 16, 3, data).unwrap();
    pcr_jpeg::encode(&img, config).unwrap()
}

#[test]
fn the_crew_starts_at_the_first_conversion_and_leaves_nothing_behind() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let meta = |i: usize| SampleMeta {
        label: 0,
        id: format!("s{i}"),
    };
    let before = threads();
    for finish in [false, true] {
        let mut b = PcrDatasetBuilder::new(3, 10);
        // Ready progressive JPEGs convert nothing: no crew yet.
        for i in 0..4 {
            b.add_progressive_jpeg(meta(i), jpeg(i, &EncodeConfig::progressive(80)))
                .unwrap();
        }
        assert_eq!(threads(), before, "progressive adds started threads");
        // The first queued conversion starts the crew, and only it.
        for i in 4..11 {
            b.add_baseline_jpeg(meta(i), &jpeg(i, &EncodeConfig::baseline(80)))
                .unwrap();
        }
        assert_eq!(
            threads(),
            before + cores,
            "one crew of available_parallelism() threads"
        );
        if finish {
            assert_eq!(b.finish().unwrap().db.num_images(), 11);
        } else {
            // Dropped with conversions still queued or in flight.
            drop(b);
        }
        assert!(
            settles_at(before),
            "crew threads left behind (finish: {finish})"
        );
    }
}
