//! Table 1 (dataset statistics), Figure 2 (scan quality progression),
//! Figure 12 (image-size histogram), and Figure 14 (throughput roofline).

use crate::context::{banner, Ctx};
use pcr_datasets::{to_pcr_dataset, IMAGES_PER_RECORD};
use pcr_jpeg::scansplit::{assemble_prefix, split_scans};
use pcr_jpeg::EncodeConfig;
use pcr_metrics::{Log2Histogram, MsssimReference, Plane};
use pcr_nn::ModelSpec;
use pcr_storage::DeviceProfile;

/// Table 1: record count, image count, dataset size, JPEG quality, classes.
pub fn table1(ctx: &Ctx) {
    banner("table1", &[("columns", "dataset,records,images,size_mib,jpeg_quality,classes".into())]);
    for ds in ctx.suite() {
        let (pcr, _) = to_pcr_dataset(&ds, IMAGES_PER_RECORD);
        // Estimate the stored quality from the first image's tables.
        let rec = pcr.open_record(0).expect("record");
        let jpeg = rec.jpeg_at_group(1, rec.num_groups()).expect("jpeg");
        let quality = pcr_jpeg::decode_coeffs(&jpeg)
            .expect("decode")
            .estimated_quality()
            .unwrap_or(0);
        println!(
            "{},{},{},{:.2},{},{}",
            ds.spec.name,
            pcr.num_records(),
            pcr.db.num_images(),
            pcr.db.total_bytes() as f64 / (1024.0 * 1024.0),
            quality,
            ds.spec.num_classes,
        );
    }
}

/// Figure 2: bytes, PSNR, and MSSIM of scans 1, 3, and 10 of one image.
pub fn fig2(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let img = &ds.train[0].image;
    let jpeg = pcr_jpeg::encode(img, &EncodeConfig::progressive(ds.spec.jpeg_quality))
        .expect("encode");
    let layout = split_scans(&jpeg).expect("layout");
    let full = pcr_jpeg::decode(&jpeg).expect("decode");
    let full_luma = full.to_luma();
    let mut reference = MsssimReference::new(&Plane::from_u8(
        full_luma.width() as usize,
        full_luma.height() as usize,
        full_luma.data(),
    ));
    banner("fig2", &[("columns", "scan,bytes,psnr_db,msssim".into())]);
    for n in [1usize, 3, 10] {
        let prefix = assemble_prefix(&jpeg, &layout, n).expect("prefix");
        let dec = pcr_jpeg::decode(&prefix).expect("decode");
        let psnr = pcr_jpeg::psnr(&full, &dec);
        let luma = dec.to_luma();
        let ms = reference.score(&Plane::from_u8(
            luma.width() as usize,
            luma.height() as usize,
            luma.data(),
        ));
        println!("{n},{},{:.2},{:.4}", prefix.len(), psnr, ms);
    }
}

/// Figure 12: log2 histogram of full-quality encoded image sizes
/// (ImageNet-like).
pub fn fig12(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    let mut hist = Log2Histogram::image_sizes();
    for s in &ds.train {
        let jpeg = pcr_jpeg::encode(&s.image, &EncodeConfig::baseline(ds.spec.jpeg_quality))
            .expect("encode");
        hist.add(jpeg.len() as u64);
    }
    banner("fig12", &[("dataset", ds.spec.name.clone()), ("columns", "bucket_bytes,probability".into())]);
    for (bucket, p) in hist.probabilities() {
        if p > 0.0 {
            println!("{bucket},{p:.4}");
        }
    }
    println!("mode_bucket,{}", hist.mode_bucket());
}

/// Figure 14: system throughput vs per-image byte intensity, with the
/// compute roofs of both models.
pub fn fig14(_ctx: &Ctx) {
    let cluster = DeviceProfile::paper_cluster();
    banner(
        "fig14",
        &[("columns", "model,bytes_per_image,loader_img_s,system_img_s,compute_bound".into())],
    );
    for spec in [ModelSpec::resnet_like(), ModelSpec::shufflenet_like()] {
        let compute = spec.images_per_sec_fp16 * 10.0;
        for pt in pcr_sim::roofline_sweep(&cluster, compute, (2_000.0, 400_000.0), 24, 1024) {
            println!(
                "{},{:.0},{:.0},{:.0},{}",
                spec.name,
                pt.bytes_per_item,
                pt.loader_throughput,
                pt.system_throughput,
                pt.compute_bound
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_datasets::Scale;

    #[test]
    fn table1_runs_tiny() {
        table1(&Ctx { scale: Scale::Tiny });
    }

    #[test]
    fn fig2_runs_tiny() {
        fig2(&Ctx { scale: Scale::Tiny });
    }

    #[test]
    fn fig14_runs() {
        fig14(&Ctx { scale: Scale::Tiny });
    }
}
