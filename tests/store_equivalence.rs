//! Equivalent stores: an [`ObjectStore`] that *registers* a container's
//! shard files and one that holds the same shards in memory are two
//! implementations of one read call, so the same sequence of reads must
//! produce the same answers and leave the same state behind — bytes,
//! virtual timing, cache accounting, device statistics and injected
//! faults alike. One query, two engines, equal results: the property is
//! checked over random ranges (zero-length and past-the-end included)
//! under one seeded fault plan, with every result held until the end so a
//! recycled read buffer that leaked into a live view would show.

use pcr::core::container::{write_container, PcrContainer};
use pcr::core::{PcrDatasetBuilder, SampleMeta};
use pcr::jpeg::ImageBuf;
use pcr::loader::{open_container_store, ShardStoreConfig};
use pcr::storage::{Clock, DeviceProfile, FaultPlan, ObjectStore, ReadError, ReadResult};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// JPEG-encoding the images is the slow part: do it once.
fn dataset() -> &'static pcr::core::PcrDataset {
    static DS: OnceLock<pcr::core::PcrDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let mut b = PcrDatasetBuilder::new(2, 10).with_name_prefix("eq");
        for i in 0..12u32 {
            let mut data = Vec::new();
            for y in 0..40u32 {
                for x in 0..40u32 {
                    data.push(((x * 7 + y * 3 + i * 17) % 256) as u8);
                    data.push(((x * y + i) % 256) as u8);
                    data.push(((x + y * 5) % 256) as u8);
                }
            }
            let img = ImageBuf::from_raw(40, 40, 3, data).unwrap();
            b.add_image(SampleMeta { label: i % 3, id: format!("e{i}") }, &img, 90).unwrap();
        }
        b.finish().unwrap()
    })
}

/// A freshly packed two-shard container in its own directory.
fn packed_container() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pcr-store-eq-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    write_container(dataset(), &dir, 3).unwrap();
    dir
}

fn store_config() -> ShardStoreConfig {
    ShardStoreConfig {
        profile: DeviceProfile::ssd_sata(),
        // Smaller than the container, so evictions are part of the state.
        cache_bytes: 16 << 10,
        readahead: 4 << 10,
        verify: true,
    }
}

/// The same container loaded by hand: every shard read whole and `put`.
fn in_memory_store(container: &PcrContainer, config: &ShardStoreConfig) -> ObjectStore {
    let store = ObjectStore::with_cache(config.profile.clone(), config.cache_bytes);
    store.set_readahead(config.readahead);
    for (i, shard) in container.manifest.shards.iter().enumerate() {
        store.put(&shard.file_name, container.read_shard(i).unwrap());
    }
    store
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.0f64..0.4, 1u32..3, 0.0f64..0.3, 0.0f64..0.4, 0.0f64..0.6).prop_map(
        |(seed, transient, repeats, torn, latency, bit_flip)| FaultPlan {
            seed,
            transient,
            transient_repeats: repeats,
            torn,
            latency,
            latency_factor: 7.0,
            bit_flip,
            ..FaultPlan::default()
        },
    )
}

/// `(shard selector, offset selector, length selector, virtual issue gap)`
/// — resolved against the shard's size in the test so ranges land before,
/// across and past its end, and on a handful of repeated sites so
/// transient faults get the attempts they need to clear.
fn arb_reads() -> impl Strategy<Value = Vec<(u8, u16, u16, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 1..40)
}

type Outcome = Result<ReadResult, ReadError>;

fn assert_same_outcome(file: &Outcome, memory: &Outcome, what: &str) {
    match (file, memory) {
        (Ok(f), Ok(m)) => {
            assert_eq!(&f.data[..], &m.data[..], "{what}: bytes");
            assert_eq!(f.start.to_bits(), m.start.to_bits(), "{what}: start");
            assert_eq!(f.finish.to_bits(), m.finish.to_bits(), "{what}: finish");
            assert_eq!(f.cached_bytes, m.cached_bytes, "{what}: cached bytes");
        }
        (Err(f), Err(m)) => assert_eq!(f, m, "{what}"),
        _ => panic!("{what}: file store {file:?} vs in-memory store {memory:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn file_backed_and_in_memory_stores_answer_identically(
        plan in arb_plan(),
        reads in arb_reads(),
    ) {
        let dir = packed_container();
        let config = store_config();
        let opened = open_container_store(&dir, &config).unwrap();
        let memory = in_memory_store(&opened.container, &config);
        let on_disk_before: Vec<Vec<u8>> =
            (0..opened.container.shards.len()).map(|i| opened.container.read_shard(i).unwrap()).collect();
        prop_assert_eq!(opened.store.total_bytes(), memory.total_bytes());
        prop_assert_eq!(opened.store.resident_bytes(), 0);
        prop_assert_eq!(memory.resident_bytes(), memory.total_bytes());
        opened.store.set_fault_plan(Some(plan.clone()));
        memory.set_fault_plan(Some(plan));

        let shards = &opened.container.manifest.shards;
        let mut now = 0.0f64;
        let mut held: Vec<(String, Outcome, Outcome)> = Vec::new();
        for (shard_sel, off_sel, len_sel, gap) in reads {
            let shard = &shards[shard_sel as usize % shards.len()];
            let size = shard.file_len;
            // Offsets: a few fixed sites, anywhere in the shard, or past it.
            let offset = match off_sel % 4 {
                0 => u64::from(off_sel % 3) * 4096,
                1 => size.saturating_sub(u64::from(off_sel) % 512),
                2 => size + u64::from(off_sel % 64),
                _ => u64::from(off_sel) * size / u64::from(u16::MAX),
            };
            // Lengths: zero, small, and long enough to clamp at the end.
            let len = match len_sel % 4 {
                0 => 0,
                1 => 1024,
                2 => u64::from(len_sel),
                _ => size,
            };
            now += f64::from(gap) * 1e-5;
            let what = format!("{} @ {offset} + {len} at t={now}", shard.file_name);
            let f = opened.store.read(Clock::Virtual(now), &shard.file_name, offset, len);
            let m = memory.read(Clock::Virtual(now), &shard.file_name, offset, len);
            assert_same_outcome(&f, &m, &what);
            held.push((what, f, m));
        }
        // Every view, however many reads ago it was handed out, still
        // reads the bytes it was handed.
        for (what, f, m) in &held {
            assert_same_outcome(f, m, what);
        }
        prop_assert_eq!(opened.store.device_stats(), memory.device_stats());
        prop_assert_eq!(
            opened.store.cache_hit_rate().to_bits(),
            memory.cache_hit_rate().to_bits()
        );
        prop_assert_eq!(opened.store.fault_stats(), memory.fault_stats());
        // Injected bit flips and torn reads never touch the files.
        for (i, before) in on_disk_before.iter().enumerate() {
            prop_assert_eq!(&opened.container.read_shard(i).unwrap(), before, "shard {}", i);
        }
        drop(held);
        prop_assert!(
            opened.store.resident_bytes()
                <= pcr::storage::bytes::POOL_CAP as u64 * shards.iter().map(|s| s.file_len).max().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Wall-clock reads are the same call: service time comes back as a
/// duration instead of queueing, for both kinds of object alike.
#[test]
fn wall_clock_reads_agree_across_store_kinds() {
    let dir = packed_container();
    let config = store_config();
    let opened = open_container_store(&dir, &config).unwrap();
    let memory = in_memory_store(&opened.container, &config);
    for (shard, summary) in opened.container.manifest.shards.iter().enumerate() {
        for k in 0..opened.container.shards[shard].len() {
            let rec = opened.container.shards[shard].entry(k).unwrap();
            for group in [1usize, 4, 10] {
                let what = format!("{} record {k} group {group}", summary.file_name);
                let f = opened.store.read(Clock::Wall, &summary.file_name, rec.offset, rec.prefix_len(group));
                let m = memory.read(Clock::Wall, &summary.file_name, rec.offset, rec.prefix_len(group));
                assert_same_outcome(&f, &m, &what);
            }
        }
    }
    assert_eq!(opened.store.device_stats(), memory.device_stats());
    assert_eq!(opened.store.cache_hit_rate(), memory.cache_hit_rate());
    std::fs::remove_dir_all(&dir).unwrap();
}
