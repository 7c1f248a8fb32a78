//! One open file per shard: `open_container_store` opens each shard file
//! once, and the lazy columnar index, the streamed verification and the
//! object store all read that one handle. Counted through
//! `/proc/self/fd`, so Linux only; the test is alone in its binary so no
//! concurrent test opens files while it counts.

#![cfg(target_os = "linux")]

use pcr::core::{write_container, PcrDatasetBuilder, SampleMeta};
use pcr::jpeg::ImageBuf;
use pcr::loader::{open_container_store, ShardStoreConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn open_container_store_holds_one_descriptor_per_shard() {
    let mut b = PcrDatasetBuilder::new(2, 10).with_name_prefix("fd");
    for i in 0..8u32 {
        let data: Vec<u8> = (0..24 * 24).map(|k| ((k * 7 + i * 31) % 256) as u8).collect();
        let img = ImageBuf::from_raw(24, 24, 1, data).unwrap();
        b.add_image(SampleMeta { label: i % 3, id: format!("img{i}") }, &img, 85).unwrap();
    }
    let ds = b.finish().unwrap();
    let dir = std::env::temp_dir().join(format!("pcr-shard-handles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_container(&ds, &dir, 1).unwrap();
    assert_eq!(manifest.shards.len(), 4);

    let before = open_fds();
    let config = ShardStoreConfig::default();
    assert!(config.verify, "the count covers the streamed verification");
    let opened = open_container_store(&dir, &config).unwrap();
    assert_eq!(open_fds(), before + 4, "one descriptor per shard");
    // Reading every record through the store and the index opens nothing.
    for i in 0..opened.container.num_records() {
        let (shard, rec) = opened.container.entry(i).unwrap();
        let bytes = opened.container.read_record(shard, &rec).unwrap();
        let name = &opened.container.manifest.shards[shard].file_name;
        let served = opened.store.read_at(0.0, name, rec.offset, rec.len()).unwrap();
        assert_eq!(served.data, bytes);
    }
    opened.container.verify().unwrap();
    assert_eq!(open_fds(), before + 4, "reads reuse the open handles");
    drop(opened);
    assert_eq!(open_fds(), before, "dropping the container closes them");
    std::fs::remove_dir_all(&dir).unwrap();
}
