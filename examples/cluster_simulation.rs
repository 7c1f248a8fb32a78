//! Full-cluster simulation in the paper's configuration: a 5-OSD
//! Ceph-like storage cluster feeding 10 GPU workers, with the compute
//! unit's data stalls traced per iteration (paper Appendix A.1 / Figure
//! 11) and the bandwidth-vs-compute roofline (Figure 14).
//!
//! ```text
//! cargo run --release --example cluster_simulation
//! ```

use pcr::datasets::{DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{populate_store, ReadPlanner};
use pcr::nn::ModelSpec;
use pcr::sim::{
    model_epoch, roofline_sweep, run_pipeline, ComputeUnit, PROGRESSIVE_DECODE_S_PER_BYTE,
};
use pcr::storage::{DeviceProfile, ObjectStore};

fn main() {
    let ds = SyntheticDataset::generate(&DatasetSpec::imagenet_like(Scale::Small));
    let (pcr, _) = pcr::datasets::to_pcr_dataset(&ds, 16);

    // The paper's hardware ratio, rescaled to our image sizes: see
    // pcr-bench's Ctx::storage_for for the calibration rationale.
    let sample_bytes = pcr.db.mean_image_bytes_at_group(10);
    let scale = sample_bytes / (110.0 * 1024.0) * 0.35;
    let paper = DeviceProfile::paper_cluster();
    let cluster = DeviceProfile {
        name: "ceph-5osd-scaled".into(),
        sequential_bw_mib_s: paper.sequential_bw_mib_s * scale,
        seek_latency_us: paper.seek_latency_us * scale,
        request_overhead_us: paper.request_overhead_us * scale,
    };
    let store = ObjectStore::new(cluster.clone());
    populate_store(&store, &pcr);

    let model = ModelSpec::resnet_like();
    let compute = ComputeUnit {
        images_per_sec: model.images_per_sec_fp16 * 10.0,
        batch_size: 128,
    };
    println!(
        "cluster: {:.1} MiB/s storage, {:.0} img/s aggregate compute ({} x10)",
        cluster.sequential_bw_mib_s, compute.images_per_sec, model.name
    );

    println!("\nPer-iteration data stalls (first epoch, batch=128):");
    println!(" group | stall fraction | achieved img/s | epoch time (s)");
    for g in [1usize, 2, 5, 10] {
        store.device().reset();
        let planner = ReadPlanner { scan_group: g, shuffle: true, seed: 7 };
        let epoch = model_epoch(&store, &pcr.db, &planner, 8, PROGRESSIVE_DECODE_S_PER_BYTE, 0, 0.0)
            .expect("every record is stored");
        let trace = run_pipeline(&epoch.records, &compute, 0.0);
        println!(
            " {g:>5} | {:>14.3} | {:>14.0} | {:>13.3}",
            trace.stall_fraction(),
            trace.images_per_sec(),
            trace.duration
        );
    }

    println!("\nRoofline (Figure 14): system throughput vs bytes/image");
    println!(" bytes/img | loader img/s | system img/s | bound by");
    for pt in roofline_sweep(&cluster, compute.images_per_sec, (200.0, 20_000.0), 10, 16) {
        println!(
            " {:>9.0} | {:>12.0} | {:>12.0} | {}",
            pt.bytes_per_item,
            pt.loader_throughput,
            pt.system_throughput,
            if pt.compute_bound { "compute" } else { "storage" }
        );
    }
    println!("\nLow scan groups move the workload left along the roofline until the");
    println!("compute roof binds — exactly the paper's bandwidth-reduction argument.");
}
