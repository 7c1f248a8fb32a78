//! Reader microbenchmark (paper Appendix A.5 / Figure 18): PCR records on
//! a simulated SATA SSD, the paper's loader model with 8 lanes, and
//! throughput per scan group — including the Lemma A.3 prediction that
//! throughput scales with the inverse of mean bytes per image.
//!
//! ```text
//! cargo run --release --example loading_rates
//! ```

use pcr::datasets::{DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{populate_store, ReadPlanner};
use pcr::sim::model_epoch;
use pcr::storage::{DeviceProfile, ObjectStore};

fn main() {
    let ds = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Small));
    // Big records amortize per-request overhead, as the paper's
    // 1024-image records do.
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 128);
    let store = ObjectStore::new(DeviceProfile::ssd_sata());
    populate_store(&store, &pcr);
    println!(
        "dataset: {} images in {} records, {:.2} MiB at full quality",
        pcr.db.num_images(),
        pcr.num_records(),
        pcr.db.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("device: {} ({} MiB/s)\n", store.device().profile().name, store.device().profile().sequential_bw_mib_s);

    let run = |g: usize| {
        store.device().reset();
        let planner = ReadPlanner { scan_group: g, shuffle: false, seed: 0 };
        model_epoch(&store, &pcr.db, &planner, 8, 0.0, 0, 0.0).expect("every record is stored")
    };

    let full = run(10);
    let full_rate = full.images_per_sec();
    let full_bytes = pcr.db.mean_image_bytes_at_group(10);

    println!(" scan | KiB/img | modeled img/s | predicted img/s (Lemma A.3)");
    for g in 1..=10usize {
        let r = run(g);
        let mean_bytes = pcr.db.mean_image_bytes_at_group(g);
        let predicted = full_rate * full_bytes / mean_bytes;
        println!(
            " {g:>4} | {:>7.1} | {:>13.0} | {:>27.0}",
            mean_bytes / 1024.0,
            r.images_per_sec(),
            predicted
        );
    }
    println!("\nAs in the paper: bandwidth is the bottleneck, so the images/second");
    println!("rate is simply the inverse of the mean bytes read per image.");
}
