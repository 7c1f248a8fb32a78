//! Wall-clock parallel-loader benchmark: real worker threads decoding the
//! generated dermatology (HAM10000-like) dataset behind an emulated
//! remote-object-store latency profile, sweeping worker counts × scan
//! groups and reporting delivered images/second — plus a dynamic-fidelity
//! vs fixed-prefix sweep exercising the online [`FidelityController`].
//!
//! Numbers to look for in the output:
//!
//! * `images/s` grows with workers only while the `bound` column says
//!   `decode`. Storage latency is overlapped by the loader's fetch stage
//!   — `prefetch_records` (8) reads in flight whatever the worker count,
//!   the wall-clock realization of the paper's Appendix A.1 prefetching
//!   argument — so behind this high-latency profile one worker already
//!   sees 8-deep overlap and the 1 → 4 worker curve flattens as soon as
//!   the row turns `storage`-bound (before the fetch stage existed,
//!   workers *were* the I/O depth and this sweep showed ≥2x),
//! * bytes/image at scan group 1-2 lands ≥2x below full quality (the
//!   paper's headline traffic saving) while throughput *rises*, and
//! * the dynamic-fidelity run reads strictly fewer total bytes than the
//!   fixed full-prefix baseline at the identical epoch record order —
//!   asserted, not just printed. Its per-epoch trajectory is written to
//!   `target/BENCH_parallel_loader_fidelity.json`.
//!
//! Smoke mode (`PCR_BENCH_SMOKE=1`, used by CI) skips the Criterion
//! sampling loops and runs each sweep once with reduced configurations,
//! so the bench is exercised end to end — assertions included — in
//! seconds.
//!
//! Allocation note: the per-record hot path is copy-free — workers get
//! zero-copy `ByteView`s from the store's clocked read path (no `to_vec`
//! of record bytes), `PcrRecord::parse` borrows ids/offsets from the
//! buffer, and decodes reuse per-worker `RecordScratch`
//! coefficient/sample planes; the only allocation that escapes per image
//! is its delivered pixel buffer.

use criterion::{BenchmarkId, Criterion, Throughput};
use pcr_core::MetaDb;
use pcr_datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
use pcr_loader::{
    populate_store, probe_group_scores, FidelityConfig, FidelityController, IoModel,
    ParallelConfig, ParallelLoader,
};
use pcr_storage::{DeviceProfile, ObjectStore};
use std::sync::Arc;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const GROUPS: [usize; 3] = [1, 5, 10];

fn smoke() -> bool {
    std::env::var_os("PCR_BENCH_SMOKE").is_some()
}

fn setup() -> (Arc<ObjectStore>, Arc<MetaDb>) {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr, _) = to_pcr_dataset(&ds, 8);
    let store = Arc::new(ObjectStore::new(DeviceProfile::remote_object_store()));
    populate_store(&store, &pcr);
    let db = Arc::new(pcr.db.clone());
    (store, db)
}

fn loader_for(
    store: &Arc<ObjectStore>,
    db: &Arc<MetaDb>,
    workers: usize,
    group: usize,
) -> ParallelLoader {
    let cfg =
        ParallelConfig { io: IoModel::EmulatedLatency, ..ParallelConfig::real(workers, group) };
    ParallelLoader::new(Arc::clone(store), Arc::clone(db), cfg)
}

fn bench_worker_scaling(c: &mut Criterion) {
    let (store, db) = setup();
    let images = db.num_images() as u64;
    let mut g = c.benchmark_group("parallel_loader_epoch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(images));
    for group in GROUPS {
        for workers in WORKERS {
            let loader = loader_for(&store, &db, workers, group);
            g.bench_with_input(
                BenchmarkId::new(format!("group{group}"), format!("{workers}w")),
                &loader,
                |b, loader| b.iter(|| loader.run_epoch(0)),
            );
        }
    }
    g.finish();
}

/// Explicit summary: delivered images/sec and the bottleneck verdict per
/// configuration, and the first -> last worker-count speedup at each scan
/// group.
fn worker_scaling_summary(workers: &[usize], groups: &[usize]) {
    let (store, db) = setup();
    println!("\nimages/sec (DecodeMode::Real, emulated remote-object-store I/O):");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>9}",
        "group", "workers", "images/s", "KiB/image", "bound"
    );
    for &group in groups {
        let mut rates = Vec::with_capacity(workers.len());
        for &w in workers {
            let epoch = loader_for(&store, &db, w, group).run_epoch(0);
            rates.push(epoch.images_per_sec());
            println!(
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>9}",
                group,
                w,
                epoch.images_per_sec(),
                epoch.mean_image_bytes() / 1024.0,
                epoch.bottleneck.as_str()
            );
        }
        if let (Some(first), Some(last)) = (rates.first(), rates.last()) {
            println!(
                "group {group}: {} -> {} workers speedup {:.2}x\n",
                workers[0],
                workers[workers.len() - 1],
                last / first.max(1e-9)
            );
        }
    }
}

/// Dynamic-fidelity vs fixed-prefix sweep: the same epochs (same seed,
/// same record order) run once pinned at full quality and once under the
/// online [`FidelityController`]; reports images/sec and total bytes, and
/// asserts the paper's headline claim — dynamic reads fewer bytes.
fn dynamic_fidelity_summary(epochs: u64) {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr, _) = to_pcr_dataset(&ds, 8);
    // A cache-backed store with readahead: the unified clocked read path
    // gives the wall-clock workers both, so repeat epochs are absorbed.
    let store = Arc::new(ObjectStore::with_cache(DeviceProfile::remote_object_store(), 1 << 30));
    store.set_readahead(64 << 10);
    populate_store(&store, &pcr);
    let db = Arc::new(pcr.db.clone());
    let full_group = db.num_groups();

    let scores = probe_group_scores(&store, &db, &[1, 2, 5, full_group], 12);
    let make_loader = || {
        ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), ParallelConfig::real(4, full_group))
    };

    // Synthetic loss trajectory: improves for two epochs, then flatlines —
    // the plateau trips and the controller drops to the cheapest
    // qualifying group for the remaining epochs.
    let loss_at = |e: u64| if e == 0 { 1.0 } else { 0.5 };

    // Fixed full-prefix baseline.
    let fixed_loader = make_loader();
    let mut fixed_bytes = 0u64;
    let mut fixed_images = 0u64;
    let mut fixed_rate = 0.0;
    for e in 0..epochs {
        let r = fixed_loader.run_epoch(e);
        fixed_bytes += r.bytes;
        fixed_images += r.images as u64;
        fixed_rate = r.images_per_sec();
    }

    // Dynamic run: identical seed and epoch indices, so the record order
    // of every epoch matches the fixed run exactly.
    let dynamic_loader = make_loader();
    let mut ctrl = FidelityController::new(
        FidelityConfig { plateau_window: 1, ..FidelityConfig::default() },
        scores.clone(),
    );
    let trace = dynamic_loader.run_dynamic(epochs, &mut ctrl, |e, _| loss_at(e));

    println!("\ndynamic fidelity vs fixed full prefix ({epochs} epochs, 4 workers):");
    println!("{:>8} {:>8} {:>14} {:>12} {:>10}", "epoch", "group", "bytes", "images/s", "hit rate");
    for e in &trace.epochs {
        println!(
            "{:>8} {:>8} {:>14} {:>12.1} {:>10.2}",
            e.epoch, e.scan_group, e.bytes_read, e.images_per_sec, e.cache_hit_rate
        );
    }
    println!(
        "fixed   : {fixed_bytes:>14} bytes, {fixed_images} images, last epoch {fixed_rate:.1} img/s"
    );
    println!(
        "dynamic : {:>14} bytes, {} images, groups {:?}",
        trace.total_bytes(),
        trace.total_images(),
        trace.groups_used()
    );

    // Acceptance: equal record order and delivered data, fewer bytes.
    assert_eq!(trace.total_images(), fixed_images, "same epochs deliver the same images");
    assert!(
        trace.groups_used().len() > 1,
        "controller must have switched groups: {:?}",
        trace.groups_used()
    );
    assert!(
        trace.total_bytes() < fixed_bytes,
        "dynamic fidelity must read fewer bytes ({} vs fixed {fixed_bytes})",
        trace.total_bytes()
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_parallel_loader_fidelity.json");
    match trace.write_json(out) {
        Ok(()) => println!("trajectory written to {out}"),
        Err(e) => println!("could not write {out}: {e}"),
    }
}

criterion::criterion_group!(benches, bench_worker_scaling);

fn main() {
    // `cargo test --benches` passes test-harness flags; measurements run
    // only under `cargo bench` (or bare invocation).
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    if smoke() {
        println!("PCR_BENCH_SMOKE=1: skipping sampling loops, running each sweep once");
        worker_scaling_summary(&[1, 4], &[1, 10]);
        // The plateau detector needs 2*window = 4 loss observations before
        // it can trip, so 6 epochs leaves 2 running at the tuned group.
        dynamic_fidelity_summary(6);
    } else {
        benches();
        worker_scaling_summary(&WORKERS, &GROUPS);
        dynamic_fidelity_summary(8);
    }
}
