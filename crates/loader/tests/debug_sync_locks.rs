//! Under `pcr-debug-sync`, every lock a loader epoch takes joins the
//! shim's lock-order graph. Lock ids are process-wide, so this file holds
//! one test: nothing else in its process takes a lock while it counts.

#![cfg(feature = "pcr-debug-sync")]

use std::sync::Arc;

use parking_lot::debug_sync::lock_count;
use pcr_core::{PcrDatasetBuilder, SampleMeta};
use pcr_jpeg::ImageBuf;
use pcr_loader::{source::populate_store, ParallelConfig, ParallelLoader};
use pcr_storage::{DeviceProfile, ObjectStore};

/// Runs one epoch of nine images and returns how many locks it registered.
fn locks_registered_by_epoch(loader: &ParallelLoader, epoch: u64) -> u64 {
    let before = lock_count();
    assert_eq!(loader.run_epoch(epoch).images, 9);
    lock_count() - before
}

#[test]
fn each_loader_lock_joins_the_lock_order_graph() {
    let mut b = PcrDatasetBuilder::new(2, 10);
    for i in 0..9 {
        let data = (0..32 * 32 * 3).map(|p| ((p * 7 + i * 5) % 256) as u8).collect();
        let img = ImageBuf::from_raw(32, 32, 3, data).unwrap();
        b.add_image(SampleMeta { label: i as u32, id: format!("s{i}") }, &img, 85).unwrap();
    }
    let ds = b.finish().unwrap();
    let store = ObjectStore::new(DeviceProfile::ram());
    populate_store(&store, &ds);
    let (store, db) = (Arc::new(store), Arc::new(ds.db));
    let cfg = ParallelConfig { batch_size: 3, ..ParallelConfig::real(4, 10) };

    // A first loader registers the store's locks, shared by later loaders.
    let warm = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg.clone());
    locks_registered_by_epoch(&warm, 0);

    // A loader's first epoch registers its crew slot; each epoch its own
    // two hand-off windows, decode pool and fault report.
    let loader = ParallelLoader::new(store, db, cfg);
    assert_eq!(locks_registered_by_epoch(&loader, 0), 1 + 4, "crew slot, windows, pool, faults");
    assert_eq!(locks_registered_by_epoch(&loader, 1), 4, "windows, pool, faults");
}
