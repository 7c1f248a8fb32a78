//! Property-based tests over the core invariants: JPEG round-trip fidelity,
//! lossless transcoding, the PCR prefix property, and loader conservation.

use pcr::core::{PcrRecord, PcrRecordBuilder, SampleMeta};
use pcr::jpeg::{decode, decode_coeffs, encode, to_progressive, EncodeConfig, ImageBuf};
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = ImageBuf> {
    // Dimensions that exercise MCU padding paths; contents from a small
    // set of pattern generators rather than raw noise so quality bounds
    // stay meaningful.
    (9u32..80, 9u32..80, 0u32..4, any::<u32>()).prop_map(|(w, h, kind, seed)| {
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        for y in 0..h {
            for x in 0..w {
                let v = match kind {
                    0 => (x * 255 / w) as u8,
                    1 => (((x / 8 + y / 8) % 2) * 200 + 28) as u8,
                    2 => (128.0
                        + 100.0
                            * ((x as f32 * 0.4 + seed as f32 % 7.0)
                                + (y as f32 * 0.3))
                                .sin()) as u8,
                    _ => ((x.wrapping_mul(31).wrapping_add(y.wrapping_mul(17)).wrapping_add(seed))
                        % 256) as u8,
                };
                data.push(v);
                data.push(v.wrapping_add(40));
                data.push(255 - v);
            }
        }
        ImageBuf::from_raw(w, h, 3, data).expect("valid dims")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jpeg_roundtrip_holds_psnr_floor(img in arb_image()) {
        let bytes = encode(&img, &EncodeConfig::baseline(90)).unwrap();
        let out = decode(&bytes).unwrap();
        prop_assert_eq!(out.width(), img.width());
        prop_assert_eq!(out.height(), img.height());
        let psnr = pcr::jpeg::psnr(&img, &out);
        // Floor covers the worst generator (per-pixel modular noise with
        // inverted chroma, which 4:2:0 subsampling cannot represent);
        // smooth generators land far higher.
        prop_assert!(psnr > 14.0, "psnr {} too low", psnr);
    }

    #[test]
    fn progressive_transcode_is_coefficient_lossless(img in arb_image()) {
        let base = encode(&img, &EncodeConfig::baseline(85)).unwrap();
        let prog = to_progressive(&base).unwrap();
        let a = decode_coeffs(&base).unwrap();
        let b = decode_coeffs(&prog).unwrap();
        prop_assert_eq!(a.qtables, b.qtables);
        // Compare only decoder-visible blocks: baseline interleaved scans
        // also code the MCU padding blocks, progressive AC scans (being
        // non-interleaved) do not — the padding is invisible to any
        // decoder, so equality is required only inside the real grid.
        for (ci, comp) in a.frame.components.iter().enumerate() {
            for row in 0..comp.blocks_h {
                for col in 0..comp.blocks_w {
                    prop_assert_eq!(
                        a.coeffs.block(&a.frame, ci, row, col),
                        b.coeffs.block(&b.frame, ci, row, col),
                        "component {} block ({}, {})", ci, row, col
                    );
                }
            }
        }
        // And the reconstructed pixels are bit-identical.
        prop_assert_eq!(decode(&base).unwrap(), decode(&prog).unwrap());
    }

    #[test]
    fn progressive_prefix_quality_is_monotone(img in arb_image()) {
        let prog = encode(&img, &EncodeConfig::progressive(88)).unwrap();
        let layout = pcr::jpeg::split_scans(&prog).unwrap();
        let reference = decode(&prog).unwrap();
        let mut last = -1.0f64;
        for n in 1..=layout.num_scans() {
            let prefix = pcr::jpeg::assemble_prefix(&prog, &layout, n).unwrap();
            let out = decode(&prefix).unwrap();
            let p = pcr::jpeg::psnr(&reference, &out);
            let p_cmp = if p.is_infinite() { 1e9 } else { p };
            prop_assert!(
                p_cmp >= last - 1.0,
                "psnr regressed at scan {}: {} < {}", n, p_cmp, last
            );
            last = p_cmp;
        }
        // Full prefix is the original stream.
        let full = pcr::jpeg::assemble_prefix(&prog, &layout, layout.num_scans()).unwrap();
        prop_assert_eq!(full, prog);
    }

    #[test]
    fn pcr_prefix_property(images in prop::collection::vec(arb_image(), 1..5), cut in 1usize..=10) {
        // Reading bytes [0, offset_for_group(g)) always yields a record
        // with available_groups() == g whose images decode.
        let mut builder = PcrRecordBuilder::with_default_groups();
        for (i, img) in images.iter().enumerate() {
            builder
                .add_image(SampleMeta { label: i as u32, id: format!("p{i}") }, img, 85)
                .unwrap();
        }
        let bytes = builder.build().unwrap();
        let full = PcrRecord::parse(&bytes).unwrap();
        let g = cut.min(full.num_groups());
        let prefix = &bytes[..full.offset_for_group(g)];
        let view = PcrRecord::parse(prefix).unwrap();
        prop_assert_eq!(view.available_groups(), g);
        for (i, img) in images.iter().enumerate().take(view.num_images()) {
            let out = view.decode_image(i, g).unwrap();
            prop_assert_eq!(out.width(), img.width());
            prop_assert_eq!(out.height(), img.height());
        }
        // One byte short of the group boundary must report g-1.
        if full.offset_for_group(g) > full.offset_for_group(g - 1) {
            let short = &bytes[..full.offset_for_group(g) - 1];
            let view = PcrRecord::parse(short).unwrap();
            prop_assert_eq!(view.available_groups(), g - 1);
        }
    }

    #[test]
    fn record_labels_and_ids_roundtrip(labels in prop::collection::vec(0u32..1000, 1..6)) {
        let img = ImageBuf::from_raw(16, 16, 3, vec![99; 16 * 16 * 3]).unwrap();
        let mut builder = PcrRecordBuilder::with_default_groups();
        for (i, &l) in labels.iter().enumerate() {
            builder
                .add_image(SampleMeta { label: l, id: format!("id-{i}-{l}") }, &img, 80)
                .unwrap();
        }
        let bytes = builder.build().unwrap();
        let rec = PcrRecord::parse(&bytes).unwrap();
        prop_assert_eq!(rec.labels(), labels.clone());
        for (i, &l) in labels.iter().enumerate() {
            prop_assert_eq!(rec.meta(i).id, format!("id-{i}-{l}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn epoch_order_is_a_permutation(
        n in 0usize..3000,
        seed in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        // The Feistel shuffle must be a true bijection on 0..n for every
        // (n, seed, epoch) — a single repeated or skipped index silently
        // breaks sample-exactly-once training semantics.
        use pcr::loader::EpochOrder;
        let order = EpochOrder::shuffled(n, seed, epoch);
        prop_assert_eq!(order.num_records(), n);
        let walked: Vec<usize> = order.clone().collect();
        prop_assert_eq!(walked.len(), n);
        // Random access agrees with iteration (the parallel loader uses
        // get(); the sequential loaders iterate).
        for (i, &idx) in walked.iter().enumerate() {
            prop_assert_eq!(order.get(i), idx);
        }
        let mut sorted = walked;
        sorted.sort_unstable();
        let identity: Vec<usize> = (0..n).collect();
        prop_assert_eq!(sorted, identity);
    }

    #[test]
    fn epoch_order_is_deterministic_and_epoch_sensitive(
        n in 2usize..2000,
        seed in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        use pcr::loader::EpochOrder;
        let a: Vec<usize> = EpochOrder::shuffled(n, seed, epoch).collect();
        let b: Vec<usize> = EpochOrder::shuffled(n, seed, epoch).collect();
        // Same (seed, epoch) → same schedule on every loader replica.
        prop_assert_eq!(&a, &b);
        // Across many epochs the schedule must change: n! orderings make
        // 8 consecutive identical epochs vanishingly unlikely unless the
        // epoch key derivation is broken.
        let repeats = (1..=8u64)
            .filter(|d| {
                EpochOrder::shuffled(n, seed, epoch.wrapping_add(*d))
                    .eq(a.iter().copied())
            })
            .count();
        prop_assert!(repeats < 8, "epoch key ignored: 8 epochs, one order");
    }
}

#[test]
fn loader_conserves_images_across_epochs_and_seeds() {
    use pcr::loader::{populate_store, DecodeMode, LoaderConfig, ParallelConfig, ParallelLoader};
    use pcr::storage::{DeviceProfile, ObjectStore};
    use std::sync::Arc;
    let ds = pcr::datasets::SyntheticDataset::generate(
        &pcr::datasets::DatasetSpec::celebahq_smile_like(pcr::datasets::Scale::Tiny),
    );
    let (pcr_ds, _) = pcr::datasets::to_pcr_dataset(&ds, 5);
    let store = Arc::new(ObjectStore::new(DeviceProfile::ram()));
    populate_store(&store, &pcr_ds);
    let db = Arc::new(pcr_ds.db.clone());
    let mut expected: Vec<u32> = db.records.iter().flat_map(|r| r.labels.clone()).collect();
    expected.sort_unstable();
    for seed in 0..4u64 {
        for epoch in 0..3u64 {
            let cfg = ParallelConfig {
                loader: LoaderConfig {
                    threads: 3,
                    scan_group: 5,
                    shuffle: true,
                    seed,
                    decode: DecodeMode::Skip,
                    ..LoaderConfig::default()
                },
                ..ParallelConfig::default()
            };
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);
            let (mut labels, r) =
                loader.spawn_epoch(epoch).fold(|b| b.flat_map(|b| b.labels).collect::<Vec<_>>());
            assert_eq!(r.images, ds.train.len());
            assert_eq!(r.bytes, db.bytes_at_group(5), "each record read exactly once");
            labels.sort_unstable();
            assert_eq!(labels, expected, "each image exactly once");
        }
    }
}
