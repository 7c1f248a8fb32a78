//! Byte-size and quality-vs-scan experiments: Figure 15 / Appendix A.4
//! (encoding times and space amplification), Figure 16 (scan sizes),
//! Figure 17 (MSSIM per scan), Figure 31 (per-scan sizes of examples), and
//! the 4:2:0 vs 4:4:4 subsampling ablation.

use crate::context::{banner, Ctx};
use pcr_datasets::{test_progressive_jpegs, to_pcr_dataset, to_record_files, IMAGES_PER_RECORD};
use pcr_jpeg::scansplit::split_scans;
use pcr_jpeg::{EncodeConfig, Subsampling};
use pcr_metrics::{quartiles, MsssimReference, Plane};

/// Figure 15 + A.4: conversion time and bytes for PCR vs static re-encodes
/// at 50/75/90/95% quality.
pub fn fig15(ctx: &Ctx) {
    banner("fig15", &[("columns", "dataset,format,encode_s,total_mib,space_amplification".into())]);
    for ds in ctx.suite() {
        let (pcr, pcr_secs) = to_pcr_dataset(&ds, IMAGES_PER_RECORD);
        let pcr_bytes = pcr.db.total_bytes();
        println!(
            "{},PCR,{:.2},{:.2},1.00",
            ds.spec.name,
            pcr_secs,
            pcr_bytes as f64 / (1024.0 * 1024.0)
        );
        let mut static_total = 0u64;
        let mut static_secs = 0.0;
        for quality in [50u8, 75, 90, 95] {
            let (records, secs) = to_record_files(&ds, IMAGES_PER_RECORD, quality);
            let bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
            static_total += bytes;
            static_secs += secs;
            println!(
                "{},static-q{},{:.2},{:.2},{:.2}",
                ds.spec.name,
                quality,
                secs,
                bytes as f64 / (1024.0 * 1024.0),
                bytes as f64 / pcr_bytes as f64
            );
        }
        println!(
            "{},static-all-4,{:.2},{:.2},{:.2}",
            ds.spec.name,
            static_secs,
            static_total as f64 / (1024.0 * 1024.0),
            static_total as f64 / pcr_bytes as f64
        );
    }
}

/// Figure 16: cumulative bytes read per scan group, with interquartile
/// ranges across images.
pub fn fig16(ctx: &Ctx) {
    banner("fig16", &[("columns", "dataset,scan,q1_bytes,median_bytes,q3_bytes".into())]);
    for ds in ctx.suite() {
        let jpegs = test_progressive_jpegs(&ds);
        let mut per_scan: Vec<Vec<f64>> = vec![Vec::new(); 11];
        for jpeg in &jpegs {
            let layout = split_scans(jpeg).expect("layout");
            per_scan[0].push(layout.header_len as f64);
            for (g, sizes) in per_scan.iter_mut().enumerate().skip(1) {
                let gg = g.min(layout.num_scans());
                sizes.push(layout.prefix_size(gg - 1) as f64);
            }
        }
        for (scan, sizes) in per_scan.iter().enumerate() {
            let (q1, med, q3) = quartiles(sizes);
            println!("{},{},{:.0},{:.0},{:.0}", ds.spec.name, scan, q1, med, q3);
        }
    }
}

/// Figure 17: MSSIM of the scan-n reconstruction vs full quality, with
/// interquartile ranges.
pub fn fig17(ctx: &Ctx) {
    banner("fig17", &[("columns", "dataset,scan,q1,median,q3".into())]);
    for ds in ctx.suite() {
        let jpegs = test_progressive_jpegs(&ds);
        let sample: Vec<&Vec<u8>> = jpegs.iter().take(16).collect();
        let mut per_scan: Vec<Vec<f64>> = vec![Vec::new(); 11];
        for jpeg in sample {
            let layout = split_scans(jpeg).expect("layout");
            let full = pcr_jpeg::decode(jpeg).expect("decode").to_luma();
            let mut reference = MsssimReference::new(&Plane::from_u8(
                full.width() as usize,
                full.height() as usize,
                full.data(),
            ));
            for (g, vals) in per_scan.iter_mut().enumerate().skip(1) {
                let gg = g.min(layout.num_scans());
                let prefix =
                    pcr_jpeg::assemble_prefix(jpeg, &layout, gg).expect("prefix");
                let dec = pcr_jpeg::decode(&prefix).expect("decode").to_luma();
                let dp = Plane::from_u8(dec.width() as usize, dec.height() as usize, dec.data());
                vals.push(reference.score(&dp));
            }
        }
        for (scan, vals) in per_scan.iter().enumerate().skip(1) {
            let (q1, med, q3) = quartiles(vals);
            println!("{},{},{:.4},{:.4},{:.4}", ds.spec.name, scan, q1, med, q3);
        }
    }
}

/// Figure 31: per-scan byte sizes of one example image per dataset.
pub fn fig31(ctx: &Ctx) {
    banner("fig31", &[("columns", "dataset,scan,cumulative_kib".into())]);
    for ds in ctx.suite() {
        let jpeg = pcr_jpeg::encode(
            &ds.test[0].image,
            &EncodeConfig::progressive(ds.spec.jpeg_quality),
        )
        .expect("encode");
        let layout = split_scans(&jpeg).expect("layout");
        for g in 1..=layout.num_scans() {
            println!(
                "{},{},{:.1}",
                ds.spec.name,
                g,
                layout.prefix_size(g - 1) as f64 / 1024.0
            );
        }
    }
}

/// Ablation: how chroma subsampling changes scan sizes.
pub fn ablate_subsampling(ctx: &Ctx) {
    let ds = ctx.dataset("imagenet");
    banner("ablate-subsampling", &[("columns", "subsampling,scan,median_cumulative_bytes".into())]);
    for (name, sub) in [("4:2:0", Subsampling::S420), ("4:4:4", Subsampling::S444)] {
        let mut per_scan: Vec<Vec<f64>> = vec![Vec::new(); 11];
        for s in ds.test.iter().take(12) {
            let cfg = EncodeConfig { subsampling: sub, ..EncodeConfig::progressive(ds.spec.jpeg_quality) };
            let jpeg = pcr_jpeg::encode(&s.image, &cfg).expect("encode");
            let layout = split_scans(&jpeg).expect("layout");
            for (g, sizes) in per_scan.iter_mut().enumerate().skip(1) {
                let gg = g.min(layout.num_scans());
                sizes.push(layout.prefix_size(gg - 1) as f64);
            }
        }
        for (scan, sizes) in per_scan.iter().enumerate().skip(1) {
            let (_, med, _) = quartiles(sizes);
            println!("{name},{scan},{med:.0}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_datasets::Scale;

    #[test]
    fn fig16_runs_tiny() {
        fig16(&Ctx { scale: Scale::Tiny });
    }

    #[test]
    fn fig31_runs_tiny() {
        fig31(&Ctx { scale: Scale::Tiny });
    }
}
