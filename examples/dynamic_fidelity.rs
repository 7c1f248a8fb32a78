//! Online fidelity control on the wall-clock loader — the paper's
//! *dynamic* compression knob (§4.5) end to end:
//!
//! 1. build the HAM10000-like dataset as PCR records in a cache-backed
//!    object store (with readahead, so adjacent prefix reads coalesce),
//! 2. probe per-scan-group MSSIM against full quality (`pcr-metrics`),
//! 3. run the one epoch loop (`ParallelLoader::run_dynamic`), consuming
//!    every decoded minibatch it hands over — "training" is a synthetic
//!    loss curve here — until the plateau detector trips, at which point
//!    the `FidelityController` drops the scan-group prefix to the
//!    cheapest qualifying group,
//! 4. export the per-epoch trajectory as JSON (the `BENCH_*.json` format
//!    the bench harness records).
//!
//! Run with: `cargo run --release --example dynamic_fidelity`

use pcr::datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{
    populate_store, probe_source_scores, FidelityConfig, FidelityController, ParallelConfig,
    ParallelLoader,
};
use pcr::storage::{DeviceProfile, ObjectStore};
use std::sync::Arc;

fn main() {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr_ds, _) = to_pcr_dataset(&ds, 8);
    let store = Arc::new(ObjectStore::with_cache(DeviceProfile::remote_object_store(), 1 << 30));
    store.set_readahead(64 << 10);
    populate_store(&store, &pcr_ds);
    let db = Arc::new(pcr_ds.db.clone());
    let full = db.num_groups();

    // Per-group quality scores: MSSIM vs full quality on a record sample.
    let scores = probe_source_scores(&store, &*db, &[1, 2, 5, full], 12);
    println!("probed MSSIM per scan group:");
    for &(g, s) in &scores {
        println!("  group {g:>2}: {s:.4}");
    }

    // The controller starts at full quality and watches the loss.
    let mut controller = FidelityController::new(
        FidelityConfig { plateau_window: 1, ..FidelityConfig::default() },
        scores,
    );

    // Synthetic loss: improves, then flatlines — a stand-in for a real
    // training loop (see examples/train_dermatology.rs for one).
    let loss_at = |epoch: u64| 0.4 + 0.6 * 0.3f64.powi(epoch.min(3) as i32);

    let loader =
        ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), ParallelConfig::real(4, full));
    let mut pixels = 0u64;
    let trace = loader
        .run_dynamic(
            8,
            Some(&mut controller),
            // The training step: every minibatch of the epoch arrives
            // here, decoded at the group the controller chose. Leaving
            // batches unread would cancel the rest of the epoch.
            |epoch, batches| {
                pixels += batches.flat_map(|b| b.images).map(|i| u64::from(i.width() * i.height())).sum::<u64>();
                loss_at(epoch)
            },
            // No decision log attached: the per-epoch records go nowhere.
            |_, _, _| Ok(()),
        )
        .expect("the sink never fails");

    println!("\n{:>6} {:>6} {:>12} {:>10} {:>10} {:>8}", "epoch", "group", "bytes", "img/s", "hit rate", "loss");
    for e in &trace.epochs {
        println!(
            "{:>6} {:>6} {:>12} {:>10.1} {:>10.2} {:>8.3}",
            e.epoch, e.scan_group, e.bytes_read, e.images_per_sec, e.cache_hit_rate, e.loss
        );
    }
    println!(
        "\ntotal: {} bytes over {} images (fixed full quality would read {})",
        trace.total_bytes(),
        trace.total_images(),
        8 * db.bytes_at_group(full),
    );
    println!("decoded {:.1} Mpx in all", pixels as f64 / 1e6);
    println!("controller decisions: {:?}", controller.decisions());
    println!("\ntrajectory JSON:\n{}", trace.to_json());
}
