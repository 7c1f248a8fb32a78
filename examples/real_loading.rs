//! Wall-clock parallel loading: real worker threads, real decodes, real
//! buffers — the measured counterpart of `loading_rates` (which models the
//! same pipeline in virtual time).
//!
//! Generates the dermatology (HAM10000-like) dataset, stores its PCR
//! encoding in an object store behind an emulated remote-object-store
//! latency profile, and sweeps worker counts × scan groups, printing
//! delivered images/second and bytes/image. Two effects should be visible:
//!
//! * scan group 1-2 cuts bytes/image by ~2x or more versus full quality
//!   (the paper's headline storage saving), and
//! * adding workers overlaps storage latency with decode, multiplying
//!   delivered throughput even on a single core.
//!
//! Run with: `cargo run --release --example real_loading`

use pcr::datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{populate_store, IoModel, ParallelConfig, ParallelLoader};
use pcr::storage::{DeviceProfile, ObjectStore};
use std::sync::Arc;

fn main() {
    let spec = DatasetSpec::ham10000_like(Scale::Tiny);
    println!("generating {} ({} train images)...", spec.name, spec.train_images);
    let ds = SyntheticDataset::generate(&spec);
    let (pcr, _) = to_pcr_dataset(&ds, 8);
    let store = Arc::new(ObjectStore::new(DeviceProfile::remote_object_store()));
    populate_store(&store, &pcr);
    let db = Arc::new(pcr.db.clone());
    println!(
        "{} records, {} images, {:.1} KiB/image at full quality\n",
        db.records.len(),
        db.num_images(),
        db.mean_image_bytes_at_group(db.num_groups()) / 1024.0
    );

    println!("{:>6} {:>7} {:>12} {:>12} {:>12}", "group", "workers", "images/s", "KiB/image", "epoch (s)");
    for group in [1usize, 5, 10] {
        let mut base = 0.0f64;
        for workers in [1usize, 2, 4] {
            let cfg = ParallelConfig {
                io: IoModel::EmulatedLatency,
                ..ParallelConfig::real(workers, group)
            };
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);
            let epoch = loader.run_epoch(0);
            let rate = epoch.images_per_sec();
            if workers == 1 {
                base = rate;
            }
            println!(
                "{:>6} {:>7} {:>12.1} {:>12.1} {:>12.3}  ({:.2}x vs 1 worker)",
                group,
                workers,
                rate,
                epoch.mean_image_bytes() / 1024.0,
                epoch.seconds,
                rate / base.max(1e-9),
            );
        }
        println!();
    }
}
