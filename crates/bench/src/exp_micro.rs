//! Systems microbenchmarks: Figure 9 (training image rates), Figure 11
//! (data-stall traces), Figure 18 (reader throughput + prediction + batch
//! times), Appendix A.5 (decode overhead), and the layout / record-size
//! ablations.

use crate::context::{banner, Ctx, STANDARD_GROUPS};
use pcr_datasets::{to_pcr_dataset, IMAGES_PER_RECORD};
use pcr_core::MetaDb;
use pcr_loader::{populate_store, ReadPlanner};
use pcr_nn::ModelSpec;
use pcr_sim::{model_epoch, run_pipeline, ComputeUnit, ModeledEpoch, Trainer};
use pcr_storage::{DeviceProfile, ObjectStore};

/// One modeled epoch 0 from virtual time 0 over `db`'s records on
/// `store`: eight lanes, no decode — the reader benchmarks' setting.
fn reader_epoch(store: &ObjectStore, db: &MetaDb, group: usize, shuffle: bool) -> ModeledEpoch {
    let planner = ReadPlanner { scan_group: group, shuffle, seed: 0 };
    model_epoch(store, db, &planner, 8, 0.0, 0, 0.0).expect("every record is in the store")
}

/// Figure 9: achieved training rates per dataset, model, and scan group,
/// plus the from-RAM (compute-bound) reference rates.
pub fn fig9(ctx: &Ctx) {
    banner("fig9", &[("columns", "dataset,model,group,images_per_sec,ram_rate".into())]);
    for ds in ctx.suite() {
        for model in [ModelSpec::resnet_like(), ModelSpec::shufflenet_like()] {
            let (feats, pcr) = ctx.prepare(&ds, &model);
            let cfg = ctx.train_config(&ds);
            let trainer = Trainer::new(&feats, &pcr, model.clone(), cfg);
            let ram_rate = trainer.compute_rate();
            for &g in &STANDARD_GROUPS {
                let t = trainer.simulate_epoch_timing(g);
                println!(
                    "{},{},{},{:.0},{:.0}",
                    ds.spec.name,
                    model.name,
                    g,
                    t.images_per_sec(),
                    ram_rate
                );
            }
        }
    }
}

/// Figure 11: per-iteration data load (stall) times on the ImageNet-like
/// dataset with ResNet, for each scan group.
pub fn fig11(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let model = ModelSpec::resnet_like();
    let (feats, pcr) = ctx.prepare(&ds, &model);
    let cfg = ctx.train_config(&ds);
    let trainer = Trainer::new(&feats, &pcr, model, cfg);
    banner("fig11", &[("columns", "group,iteration,data_stall_s".into())]);
    for &g in &STANDARD_GROUPS {
        let t = trainer.simulate_epoch_timing(g);
        for it in t.iterations.iter().take(40) {
            println!("{},{},{:.4}", g, it.iter, it.data_stall);
        }
        println!(
            "# group {} summary: stall_fraction={:.3} rate={:.0} img/s",
            g,
            t.stall_fraction(),
            t.images_per_sec()
        );
    }
}

/// Figure 18: reader microbenchmark on the CelebAHQ-like dataset and an
/// SSD profile — the modeled mean throughput per scan
/// ([`pcr_sim::model_epoch`] over the device model, no decode), the
/// Lemma-A.3 prediction extrapolated from scan 10, and per-record batch
/// times.
pub fn fig18(ctx: &Ctx) {
    let ds = ctx.dataset("celebahq");
    // The paper's reader benchmark uses 1024-image records; large records
    // amortize per-request overhead so the size-ratio prediction holds.
    let (pcr, _) = to_pcr_dataset(&ds, 128);
    let store = ObjectStore::new(DeviceProfile::ssd_sata());
    populate_store(&store, &pcr);
    banner(
        "fig18",
        &[("columns", "scan,modeled_img_s,predicted_img_s,mean_batch_time_ms".into())],
    );
    // Scan-10 reference rate for the prediction.
    let full_bytes = pcr.db.mean_image_bytes_at_group(10);
    let run = |g: usize| {
        store.device().reset();
        reader_epoch(&store, &pcr.db, g, false)
    };
    let full_rate = run(10).images_per_sec();
    for g in 1..=10usize {
        let r = run(g);
        let predicted = full_rate * full_bytes / pcr.db.mean_image_bytes_at_group(g).max(1.0);
        let batch_times: Vec<f64> = r.records.iter().map(|rec| rec.ready - rec.issued).collect();
        let mean_batch = pcr_metrics::mean(&batch_times);
        println!(
            "{},{:.0},{:.0},{:.2}",
            g,
            r.images_per_sec(),
            predicted,
            mean_batch * 1000.0
        );
    }
}

/// Alternating baseline/progressive timing pairs in `a5`: the box's
/// speed drifts within a run, so each pair times both formats back to
/// back (alternating which goes first) and the report is over pairs.
const A5_PAIRS: usize = 7;

/// Appendix A.5: real decode throughput, baseline vs progressive (and the
/// overhead ratio the paper pegs at 40-50%), as the median and quartiles
/// over seven alternating pairs; then the entropy time of both decodes
/// split by scan kind and component (`a5-scan-split`).
pub fn a5_decode_overhead(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let images: Vec<_> = ds.train.iter().take(24).map(|s| &s.image).collect();
    let mut baseline_jpegs = Vec::new();
    let mut progressive_jpegs = Vec::new();
    for img in images.iter() {
        baseline_jpegs.push(
            pcr_jpeg::encode(img, &pcr_jpeg::EncodeConfig::baseline(ds.spec.jpeg_quality))
                .expect("encode"),
        );
        progressive_jpegs.push(
            pcr_jpeg::encode(img, &pcr_jpeg::EncodeConfig::progressive(ds.spec.jpeg_quality))
                .expect("encode"),
        );
    }
    let time_decode = |jpegs: &[Vec<u8>]| {
        let t0 = std::time::Instant::now();
        for j in jpegs {
            let _ = pcr_jpeg::decode(j).expect("decode");
        }
        t0.elapsed().as_secs_f64()
    };
    // Warm up, then measure.
    let _ = time_decode(&baseline_jpegs[..4.min(baseline_jpegs.len())]);
    let _ = time_decode(&progressive_jpegs[..4.min(progressive_jpegs.len())]);
    let n = images.len() as f64;
    let (mut rb, mut rp, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..A5_PAIRS {
        let (tb, tp) = if pair % 2 == 0 {
            let tb = time_decode(&baseline_jpegs);
            (tb, time_decode(&progressive_jpegs))
        } else {
            let tp = time_decode(&progressive_jpegs);
            (time_decode(&baseline_jpegs), tp)
        };
        let (tb, tp) = (tb.max(1e-12), tp.max(1e-12));
        rb.push(n / tb);
        rp.push(n / tp);
        overhead.push(tp / tb);
    }
    banner(
        "a5",
        &[
            ("pairs", A5_PAIRS.to_string()),
            ("columns", "format,images_per_sec_per_core,q1,q3".into()),
        ],
    );
    for (name, xs) in [("baseline", &rb), ("progressive", &rp)] {
        let (q1, med, q3) = pcr_metrics::quartiles(xs);
        println!("{name},{med:.1},{q1:.1},{q3:.1}");
    }
    let (q1, med, q3) = pcr_metrics::quartiles(&overhead);
    println!("progressive_overhead,{med:.2},{q1:.2},{q3:.2}");
    println!("# paper: 230 vs 150 img/s (PIL), 40-50% overhead");
    a5_scan_split(&progressive_jpegs, &baseline_jpegs);
}

/// Scan kinds of a progressive stream, then the baseline stream's one
/// sequential scan, in `a5-scan-split` row order.
const SCAN_KINDS: [&str; 5] = ["dc_first", "dc_refine", "ac_first", "ac_refine", "sequential"];

/// Times every restart segment (one per scan in these streams) through
/// [`pcr_jpeg::DecodeObserver`], keyed by scan index.
#[derive(Default)]
struct ScanTimer {
    started: Option<std::time::Instant>,
    secs: Vec<f64>,
}

impl pcr_jpeg::DecodeObserver for ScanTimer {
    fn segment_begin(&mut self, _scan_idx: usize, _seg: usize, _units: u32) {
        self.started = Some(std::time::Instant::now());
    }
    fn segment_end(&mut self, scan_idx: usize, _seg: usize) {
        let dt = self.started.take().map_or(0.0, |t0| t0.elapsed().as_secs_f64());
        if self.secs.len() <= scan_idx {
            self.secs.resize(scan_idx + 1, 0.0);
        }
        self.secs[scan_idx] += dt;
    }
}

/// The `a5-scan-split` table: entropy-decode µs per image for each scan
/// kind (DC/AC × first/refine over `progressive`, sequential over
/// `baseline`) and component class (luma = component 0, chroma = the
/// rest), best of [`A5_PAIRS`] passes over both sets. An interleaved
/// scan (the DC scans and the sequential scan) is shared out by block
/// count: exact for DC scans, which code one symbol per block whatever
/// the component, an estimate for the sequential scan.
fn a5_scan_split(progressive: &[Vec<u8>], baseline: &[Vec<u8>]) {
    let mut best = [[f64::INFINITY; 2]; SCAN_KINDS.len()];
    let mut pool = Vec::new();
    for _ in 0..A5_PAIRS {
        let mut pass = [[0f64; 2]; SCAN_KINDS.len()];
        for jpegs in [progressive, baseline] {
            let per_image = 1.0 / jpegs.len().max(1) as f64;
            for j in jpegs {
                let mut timer = ScanTimer::default();
                let d = pcr_jpeg::decode_coeffs_observed(j, &mut pool, &mut timer).expect("decode");
                for (scan, &secs) in d.scans.iter().zip(&timer.secs) {
                    let kind = if d.frame.progressive {
                        2 * usize::from(!scan.is_dc()) + usize::from(scan.is_refinement())
                    } else {
                        4
                    };
                    let blocks = |ci: usize| {
                        let c = &d.frame.components[ci];
                        f64::from(c.blocks_w * c.blocks_h)
                    };
                    let total: f64 = scan.components.iter().map(|sc| blocks(sc.comp_index)).sum();
                    for sc in &scan.components {
                        let class = usize::from(sc.comp_index != 0);
                        pass[kind][class] +=
                            per_image * secs * blocks(sc.comp_index) / total.max(1.0);
                    }
                }
                d.coeffs.recycle_into(&mut pool);
            }
        }
        for (b, p) in best.iter_mut().flatten().zip(pass.iter().flatten()) {
            *b = b.min(*p);
        }
    }
    banner(
        "a5-scan-split",
        &[("columns", "scan_kind,luma_entropy_us_per_image,chroma_entropy_us_per_image".into())],
    );
    for (kind, row) in SCAN_KINDS.iter().zip(&best) {
        println!("{kind},{:.1},{:.1}", row[0] * 1e6, row[1] * 1e6);
    }
}

/// Ablation: PCR scan-group layout vs an interleaved progressive record
/// (scans of each image stored together). Reading quality g from the
/// interleaved layout needs one ranged read *per image* instead of one
/// sequential prefix read per record.
pub fn ablate_layout(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let (pcr, _) = to_pcr_dataset(&ds, IMAGES_PER_RECORD);
    let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
    populate_store(&store, &pcr);
    banner("ablate-layout", &[("columns", "layout,group,epoch_seconds,device_reads".into())]);
    for &g in &STANDARD_GROUPS {
        // PCR: one sequential prefix read per record.
        store.device().reset();
        let pcr_epoch = reader_epoch(&store, &pcr.db, g, false);
        println!("pcr,{},{:.4},{}", g, pcr_epoch.seconds, store.device_stats().reads);

        // Interleaved: per image, read its header+scan byte ranges
        // individually (random access within each record).
        store.device().reset();
        let mut clock = 0.0f64;
        let mut reads = 0u64;
        for (ri, meta) in pcr.db.records.iter().enumerate() {
            let rec = pcr.open_record(ri).expect("record");
            for i in 0..rec.num_images() {
                // One ranged read per image approximating its scattered
                // scans up to group g: same byte count as the PCR chunks,
                // but not sequential with the previous image.
                let bytes: u64 = rec
                    .jpeg_at_group(i, g.min(rec.available_groups()))
                    .map(|j| j.len() as u64)
                    .unwrap_or(0);
                let offset = (i as u64) * 7919 % meta.total_len(); // scattered
                let r = store.read_at(clock, &meta.name, offset, bytes).expect("read");
                clock = r.finish;
                reads += 1;
            }
        }
        println!("interleaved,{},{:.4},{}", g, clock, reads);
    }
}

/// Ablation: images per record vs loader throughput at full quality.
pub fn ablate_record_size(ctx: &Ctx) {
    let ds = ctx.dataset("celebahq");
    banner("ablate-record-size", &[("columns", "images_per_record,images_per_sec".into())]);
    for ipr in [1usize, 4, 16, 64] {
        let (pcr, _) = to_pcr_dataset(&ds, ipr);
        let store = ObjectStore::new(DeviceProfile::hdd_7200rpm());
        populate_store(&store, &pcr);
        println!("{},{:.0}", ipr, reader_epoch(&store, &pcr.db, 10, true).images_per_sec());
    }
}

/// Validates the pipeline model against the queueing lemmas (a self-check
/// experiment, cf. Appendix A.2 "we find these bounds to be predictive").
pub fn lemma_check(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let (pcr, _) = to_pcr_dataset(&ds, IMAGES_PER_RECORD);
    let profile = ctx.storage_for(&ds);
    let store = ObjectStore::new(profile.clone());
    populate_store(&store, &pcr);
    banner("lemma-check", &[("columns", "group,simulated_img_s,lemma_img_s,rel_err".into())]);
    for &g in &STANDARD_GROUPS {
        store.device().reset();
        let epoch = reader_epoch(&store, &pcr.db, g, false);
        let compute = ComputeUnit { images_per_sec: 1e12, batch_size: 16 };
        let t = run_pipeline(&epoch.records, &compute, 0.0);
        let mean = pcr.db.mean_image_bytes_at_group(g);
        let lemma = pcr_sim::loader_throughput(&profile, mean, IMAGES_PER_RECORD);
        let rel = (t.images_per_sec() - lemma).abs() / lemma;
        println!("{},{:.0},{:.0},{:.3}", g, t.images_per_sec(), lemma, rel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_datasets::Scale;

    #[test]
    fn fig18_prediction_close_to_measurement() {
        // Smoke-run fig18's internals at tiny scale and check Lemma A.3
        // predictions track measurements.
        let ctx = Ctx { scale: Scale::Tiny };
        let ds = ctx.dataset("celebahq");
        let (pcr, _) = to_pcr_dataset(&ds, 8);
        let store = ObjectStore::new(DeviceProfile::ssd_sata());
        populate_store(&store, &pcr);
        let run = |g: usize| {
            store.device().reset();
            reader_epoch(&store, &pcr.db, g, false)
        };
        let full = run(10);
        let r2 = run(2);
        let predicted = full.images_per_sec() * pcr.db.mean_image_bytes_at_group(10)
            / pcr.db.mean_image_bytes_at_group(2);
        // At tiny scale the fixed per-request overheads (which the pure
        // size-ratio prediction ignores) are a large fraction of each read,
        // so the tolerance is loose; `experiments fig18` at small/full
        // scale tracks much tighter, as in the paper.
        let rel = (r2.images_per_sec() - predicted).abs() / predicted;
        assert!(rel < 0.6, "prediction off by {rel:.2}");
        // Ordering must hold regardless of scale.
        assert!(r2.images_per_sec() > full.images_per_sec());
    }

    #[test]
    fn a5_runs_tiny() {
        a5_decode_overhead(&Ctx { scale: Scale::Tiny });
    }
}
