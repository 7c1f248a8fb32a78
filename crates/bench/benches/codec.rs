//! Codec microbenchmarks: encode/decode/transcode throughput, including
//! the paper's Appendix A.5 baseline-vs-progressive decode comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcr_datasets::{DatasetSpec, Scale, SyntheticDataset};
use pcr_jpeg::encoder::encode_from_coeffs;
use pcr_jpeg::{
    decode, decode_coeffs, encode, to_progressive, DecodedCoeffs, EncodeConfig, ImageBuf,
};

fn test_image(side: u32) -> ImageBuf {
    let mut data = Vec::with_capacity((side * side * 3) as usize);
    for y in 0..side {
        for x in 0..side {
            let fx = x as f32 / side as f32;
            let fy = y as f32 / side as f32;
            let v = 128.0 + 80.0 * (fx * 11.0).sin() * (fy * 7.0).cos() + 20.0 * (fx * 50.0).sin();
            data.push(v.clamp(0.0, 255.0) as u8);
            data.push((v * 0.7 + 40.0).clamp(0.0, 255.0) as u8);
            data.push((220.0 - v * 0.6).clamp(0.0, 255.0) as u8);
        }
    }
    ImageBuf::from_raw(side, side, 3, data).expect("valid")
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    g.sample_size(20);
    for side in [64u32, 128] {
        let img = test_image(side);
        let pixels = u64::from(side) * u64::from(side);
        g.throughput(Throughput::Elements(pixels));
        g.bench_with_input(BenchmarkId::new("baseline_q85", side), &img, |b, img| {
            b.iter(|| encode(img, &EncodeConfig::baseline(85)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("progressive_q85", side), &img, |b, img| {
            b.iter(|| encode(img, &EncodeConfig::progressive(85)).unwrap())
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    g.sample_size(30);
    let img = test_image(128);
    let baseline = encode(&img, &EncodeConfig::baseline(85)).unwrap();
    let progressive = encode(&img, &EncodeConfig::progressive(85)).unwrap();
    // The paper's A.5 result: progressive decode costs ~40-50% extra.
    g.bench_function("baseline_128", |b| b.iter(|| decode(&baseline).unwrap()));
    g.bench_function("progressive_128", |b| b.iter(|| decode(&progressive).unwrap()));
    // Partial decode (scan 2 prefix) is *cheaper* than full decode.
    let layout = pcr_jpeg::split_scans(&progressive).unwrap();
    let prefix = pcr_jpeg::assemble_prefix(&progressive, &layout, 2).unwrap();
    g.bench_function("progressive_128_scan2_prefix", |b| b.iter(|| decode(&prefix).unwrap()));
    g.finish();
}

fn bench_transcode(c: &mut Criterion) {
    let mut g = c.benchmark_group("transcode");
    g.sample_size(20);
    let img = test_image(128);
    let baseline = encode(&img, &EncodeConfig::baseline(85)).unwrap();
    g.throughput(Throughput::Bytes(baseline.len() as u64));
    g.bench_function("to_progressive_128", |b| b.iter(|| to_progressive(&baseline).unwrap()));
    // The image `pcr pack` and the `pack_write` benchmark workload spend
    // their time on: a HAM10000-like 167 px source at quality 100, where
    // the four AC-refinement scans carry most of the bits.
    let spec = DatasetSpec {
        mean_side: 167,
        side_jitter: 0,
        train_images: 1,
        test_images: 0,
        ..DatasetSpec::ham10000_like(Scale::Tiny)
    };
    let dense = &SyntheticDataset::generate(&spec).train[0].image;
    let baseline = encode(dense, &EncodeConfig::baseline(spec.jpeg_quality)).unwrap();
    g.throughput(Throughput::Bytes(baseline.len() as u64));
    g.bench_function("to_progressive_167_q100", |b| b.iter(|| to_progressive(&baseline).unwrap()));
    // The encode half of that transcode alone: the coefficients are
    // decoded once, outside the timed loop.
    let DecodedCoeffs { mut frame, coeffs, qtables, .. } = decode_coeffs(&baseline).unwrap();
    frame.progressive = true;
    g.bench_function("encode_from_coeffs_167_q100", |b| {
        b.iter(|| encode_from_coeffs(&frame, &coeffs, &qtables, true, None).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_transcode);
criterion_main!(benches);
