//! The sharded container round trip in one file: pack a synthetic
//! dataset to on-disk shards, reopen it, lay its epochs on the paper's
//! loader model, and stream it through the loader — the library face of
//! `pcr pack` / `pcr bench` (see `docs/GUIDE.md` for the CLI tour and
//! `docs/FORMAT.md` for the byte-level format).
//!
//! Run with: `cargo run --release --example sharded_container`

use pcr::datasets::{pack_to_container, DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{
    open_container_store, ParallelConfig, ParallelLoader, ReadPlanner, RecordSource,
    ShardStoreConfig,
};
use pcr::sim::model_epoch;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pack: generate the dermatology stand-in and write shards.
    let dir = std::env::temp_dir().join(format!("pcr-example-container-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (manifest, secs) = pack_to_container(&ds, &dir, 4, 3)?;
    println!(
        "packed {} images into {} shard(s) / {} record(s) in {secs:.2}s at {}",
        manifest.num_images(),
        manifest.shards.len(),
        manifest.num_records(),
        dir.display()
    );

    // 2. Reopen: checksum-verified, loaded into an object store with
    //    per-shard readahead, NVMe-class device profile.
    let opened = open_container_store(&dir, &ShardStoreConfig::default())?;
    println!(
        "reopened: {} records, {} images, {} scan groups",
        opened.source.num_records(),
        opened.source.num_images(),
        opened.source.num_groups()
    );

    // 3. Virtual time: a modeled epoch per scan group (8 lanes, reads
    //    only) — the fidelity byte/time tradeoff from on-disk shards.
    println!("\nmodeled epochs (virtual time):");
    println!("{:>6} {:>12} {:>12}", "group", "bytes", "img/s");
    for g in [1usize, 2, 5, 10] {
        opened.store.device().reset();
        let planner = ReadPlanner { scan_group: g, shuffle: true, seed: 0 };
        let epoch = model_epoch(&opened.store, &*opened.source, &planner, 8, 0.0, 0, 0.0)?;
        println!("{:>6} {:>12} {:>12.0}", g, epoch.bytes, epoch.images_per_sec());
    }

    // 4. Wall clock: real worker threads decoding pixels out of the
    //    same shard objects.
    let loader = ParallelLoader::new(
        Arc::clone(&opened.store),
        Arc::clone(&opened.source),
        ParallelConfig::real(4, 2),
    );
    let epoch = loader.run_epoch(0);
    println!(
        "\nwall clock: {} images decoded at scan group 2, {} bytes, {:.0} img/s, cache hit rate {:.2}",
        epoch.images,
        epoch.bytes,
        epoch.images_per_sec(),
        opened.store.cache_hit_rate()
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
