//! The no-panic contract of every untrusted-bytes parser, checked the
//! direct way: feed arbitrary, truncated, and bit-flipped bytes into
//! `PcrRecord::parse`, `ShardIndex::parse`, `ContainerManifest::from_bytes`,
//! `PcrContainer::open`, `DecisionLog::parse`, and the restart-marker
//! entropy paths (`split_restart_segments`, restart-stream decode,
//! per-group `segment_count`) and require a `Result` back — never a
//! panic. Formats the program only reads (row footers, version-2
//! records, restart-marker JPEGs) come from committed fixtures. This is
//! the runtime twin of the `no-panic-in-hot-path` / `bounded-alloc` lint
//! rules `pcr-analyze` enforces statically over the same modules.

use pcr::core::container::{ContainerManifest, ShardIndex};
use pcr::core::declog::{DecisionLog, DecisionRecord};
use pcr::core::{write_container, PcrContainer, PcrRecord};
use pcr::metrics::TriggerKind;
use pcr::datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
use proptest::{prop, proptest, ProptestConfig};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pcr-noparse-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny but real container on disk: valid manifest, valid shards.
fn packed(tag: &str) -> PathBuf {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr, _) = to_pcr_dataset(&ds, 4);
    let dir = tmpdir(tag);
    write_container(&pcr, &dir, 4).expect("pack");
    dir
}

/// One valid serialized manifest and one valid shard file's bytes in the
/// default (columnar, v3) format, packed once and cached (each proptest
/// case mutates its own copy).
fn valid_bytes(tag: &str) -> (Vec<u8>, Vec<u8>) {
    static CACHE: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let dir = packed(tag);
            let manifest_bytes =
                std::fs::read(dir.join("manifest.pcrm")).expect("manifest written");
            let container = PcrContainer::open(&dir).expect("container reopens");
            let shard_bytes = container.read_shard(0).expect("shard readable");
            let _ = std::fs::remove_dir_all(&dir);
            (manifest_bytes, shard_bytes)
        })
        .clone()
}

/// A committed legacy fixture (`tests/fixtures/legacy`): bytes in
/// formats the program reads but no longer writes.
fn legacy(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy");
    std::fs::read(path.join(name)).expect("legacy fixture")
}

/// Same as [`valid_bytes`], but in the legacy row-footer (v1) format —
/// the committed fixture — so both footer parse paths stay under fuzz.
fn valid_bytes_v1() -> (Vec<u8>, Vec<u8>) {
    (legacy("rows-v1/manifest.pcrm"), legacy("rows-v1/shard-00000.pcrshard"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(proptest::any::<u8>(), 0..512)
    ) {
        let _ = PcrRecord::parse(&bytes);
    }

    #[test]
    fn shard_index_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(proptest::any::<u8>(), 0..512)
    ) {
        let _ = ShardIndex::parse("fuzz.pcrs", &bytes);
    }

    #[test]
    fn manifest_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(proptest::any::<u8>(), 0..512)
    ) {
        let _ = ContainerManifest::from_bytes(&bytes);
    }
}

proptest! {
    // Truncation/bit-flip cases re-read real serialized bytes, so fewer,
    // heavier cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn truncated_real_bytes_error_instead_of_panicking(cut_permille in 0u64..1000) {
        for (manifest, shard) in [valid_bytes("trunc"), valid_bytes_v1()] {
            let cut = |b: &[u8]| b.len() * usize::try_from(cut_permille).unwrap() / 1000;
            let m = &manifest[..cut(&manifest)];
            let s = &shard[..cut(&shard)];
            assert!(ContainerManifest::from_bytes(m).is_err());
            // A truncated shard must never index back into the full file.
            let _ = ShardIndex::parse("trunc.pcrs", s);
        }
    }

    #[test]
    fn bit_flipped_real_bytes_never_panic(seed in proptest::any::<u64>()) {
        for (mut manifest, mut shard) in [valid_bytes("flip"), valid_bytes_v1()] {
            let flip = |b: &mut [u8], s: u64| {
                if !b.is_empty() {
                    let pos = (s as usize) % b.len();
                    b[pos] ^= 1 << (s % 8);
                }
            };
            flip(&mut manifest, seed);
            flip(&mut shard, seed.rotate_left(17));
            // Either outcome is fine (the checksum usually catches it); the
            // contract is only that corruption cannot panic the parser.
            let _ = ContainerManifest::from_bytes(&manifest);
            let _ = ShardIndex::parse("flip.pcrs", &shard);
        }
    }

    #[test]
    fn corrupted_columnar_footers_never_panic_lazy_entry(seed in proptest::any::<u64>()) {
        // The v3 lazy path reads footer columns *on demand*, after the
        // geometry-only open checks — so corruption that slips past open
        // must surface as an `Err` from `entry`/`read_record`, never as
        // a panic or out-of-bounds read. Flip one byte anywhere in the
        // first shard file and walk every entry.
        let dir = packed(&format!("lazy-flip-{seed}"));
        let container = PcrContainer::open(&dir).expect("open clean");
        let path = container.shard_path(0);
        let mut bytes = std::fs::read(&path).expect("shard bytes");
        let pos = (seed as usize) % bytes.len();
        bytes[pos] ^= 1 << (seed % 8);
        std::fs::write(&path, &bytes).expect("write corrupted shard");
        if let Ok(reopened) = PcrContainer::open(&dir) {
            for k in 0..reopened.num_records() {
                if let Ok((shard, rec)) = reopened.entry(k) {
                    let _ = reopened.read_record(shard, &rec);
                }
            }
            let _ = reopened.verify();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn container_open_survives_a_corrupted_manifest_on_disk() {
    let dir = packed("open-corrupt");
    let path = dir.join("manifest.pcrm");
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one bit in every byte position stride to probe headers, body,
    // and the trailing checksum alike.
    for stride in [1usize, 7, 13] {
        let mut mutated = bytes.clone();
        let mut i = 0;
        while i < mutated.len() {
            mutated[i] ^= 0x20;
            i += stride.max(mutated.len() / 16).max(1);
        }
        std::fs::write(&path, &mutated).unwrap();
        let _ = PcrContainer::open(&dir); // must not panic
    }
    // Truncated on-disk manifest.
    bytes.truncate(bytes.len() / 2);
    std::fs::write(&path, &bytes).unwrap();
    assert!(PcrContainer::open(&dir).is_err());
    // Empty and missing manifest.
    std::fs::write(&path, b"").unwrap();
    assert!(PcrContainer::open(&dir).is_err());
    std::fs::remove_file(&path).unwrap();
    assert!(PcrContainer::open(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One real restart-marker progressive JPEG: the committed 48×40 fixture
/// with restart interval 2 (each case mutates its own copy).
fn restart_jpeg() -> Vec<u8> {
    legacy("restart-48x40.jpg")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restart_splitter_survives_arbitrary_bytes(
        bytes in prop::collection::vec(proptest::any::<u8>(), 0..512)
    ) {
        // The restart-segment splitter is the first thing untrusted
        // entropy bytes of a restart stream hit: any input must yield
        // in-bounds, non-overlapping, ordered segments — never a panic.
        let segs = pcr::jpeg::bitio::split_restart_segments(&bytes);
        let mut prev_end = 0usize;
        for &(start, end) in &segs {
            assert!(start >= prev_end, "segments ordered and disjoint");
            assert!(start <= end, "non-negative length");
            assert!(end <= bytes.len(), "in bounds");
            prev_end = end;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corrupted_restart_streams_never_panic(seed in proptest::any::<u64>()) {
        // Bit-flip anywhere in a real restart-marker stream — including
        // inside DRI payloads and RSTn markers — then decode. Errors are
        // fine; panics are not.
        let mut jpeg = restart_jpeg();
        let pos = (seed as usize) % jpeg.len();
        jpeg[pos] ^= 1 << (seed % 8);
        let _ = pcr::jpeg::decode(&jpeg);
    }

    #[test]
    fn truncated_restart_streams_never_panic(cut_permille in 0u64..1000) {
        let jpeg = restart_jpeg();
        let cut = jpeg.len() * usize::try_from(cut_permille).unwrap() / 1000;
        let _ = pcr::jpeg::decode(&jpeg[..cut]);
    }
}

#[test]
fn restart_record_truncations_never_panic() {
    // Version-2 (restart-marker) records under truncation: parse,
    // per-group segment counting, and image decode must all return
    // Results at every cut point. The standalone record is grayscale;
    // the first record of the row-footer v2 fixture is colour
    // (subsampled chroma, interleaved DC scans).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy");
    let container = PcrContainer::open(&dir.join("rows-v2")).expect("rows-v2 fixture opens");
    let (shard, entry) = container.entry(0).expect("record 0");
    let colour = container.read_record(shard, &entry).expect("record 0 bytes");
    for (bytes, channels) in [(legacy("record-v2.pcr"), 1u8), (colour, 3)] {
        let rec = PcrRecord::parse(&bytes).expect("fixture record parses");
        assert_eq!(rec.restart_interval(), 1);
        assert_eq!(rec.decode_image(0, 10).expect("full decode").channels(), channels);
        for permille in (0..=1000).step_by(17) {
            let cut = bytes.len() * permille / 1000;
            if let Ok(rec) = PcrRecord::parse(&bytes[..cut]) {
                for g in 1..=10usize {
                    let _ = rec.segment_count(0, g);
                    let _ = rec.decode_image(0, g);
                }
            }
        }
    }
}

/// One valid serialized decision log (three records, mixed triggers,
/// probe-score lists), built once and cached.
fn valid_declog_bytes() -> Vec<u8> {
    static CACHE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let rec = |epoch: u64, trigger, group: u16| DecisionRecord {
                epoch,
                trigger,
                scan_group: group,
                bytes_read: 10_000 / u64::from(group).max(1),
                bytes_full: 10_000,
                images: 32,
                cache_hit_rate: 0.5,
                loss: 1.0 / (epoch + 1) as f64,
                probe_scores: vec![(1, 0.62), (2, 0.88), (5, 0.96), (10, 1.0)],
            };
            DecisionLog::from_records(vec![
                rec(0, TriggerKind::Start, 10),
                rec(1, TriggerKind::Plateau, 5),
                rec(2, TriggerKind::Hold, 5),
            ])
            .expect("encode")
            .to_bytes()
            .expect("serialize")
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn declog_parse_survives_arbitrary_bytes(
        bytes in prop::collection::vec(proptest::any::<u8>(), 0..512)
    ) {
        if let Ok(log) = DecisionLog::parse(&bytes) {
            let _ = log.verify();
            let _ = log.bytes_saved();
        }
    }

    #[test]
    fn declog_parse_survives_truncation(cut_permille in 0u64..1000) {
        let bytes = valid_declog_bytes();
        let cut = bytes.len() * usize::try_from(cut_permille).unwrap() / 1000;
        if let Ok(log) = DecisionLog::parse(&bytes[..cut]) {
            // A truncated log delivers a prefix of the records; the cut
            // can never invent records or pass the strict verify unless
            // it happens to land exactly on a record boundary.
            assert!(log.len() <= 3);
            if log.undecoded_tail() > 0 {
                assert!(log.verify().is_err());
            }
        }
    }

    #[test]
    fn declog_parse_survives_bit_flips(seed in proptest::any::<u64>()) {
        let mut bytes = valid_declog_bytes();
        let pos = (seed as usize) % bytes.len();
        bytes[pos] ^= 1 << (seed % 8);
        // Either outcome is fine (header flips error, body flips are
        // caught by verify); the contract is no panic either way.
        if let Ok(log) = DecisionLog::parse(&bytes) {
            let _ = log.verify();
        }
    }
}

#[test]
fn declog_corrupted_chain_fails_verify_but_delivers_records() {
    // The satellite contract verbatim: corrupt a chain CRC byte — the
    // strict verify must fail, record delivery must not.
    let clean = valid_declog_bytes();
    let parsed_clean = DecisionLog::parse(&clean).unwrap();
    parsed_clean.verify().expect("clean log verifies");
    let n = parsed_clean.len();
    let mut corrupt = clean.clone();
    let last = corrupt.len() - 1; // final chain CRC byte
    corrupt[last] ^= 0xFF;
    let parsed = DecisionLog::parse(&corrupt).unwrap();
    assert_eq!(parsed.len(), n, "corruption must not drop records");
    assert_eq!(parsed.records(), parsed_clean.records());
    assert!(parsed.verify().is_err(), "verify must catch the broken chain");
}

#[test]
fn record_parse_survives_truncations_of_a_real_record() {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr, _) = to_pcr_dataset(&ds, 4);
    let bytes = pcr.records.first().expect("non-empty dataset").clone();
    assert!(PcrRecord::parse(&bytes).is_ok());
    for len in 0..bytes.len().min(256) {
        let _ = PcrRecord::parse(&bytes[..len]);
    }
    // And coarse truncations across the whole record.
    for permille in (0..1000).step_by(31) {
        let _ = PcrRecord::parse(&bytes[..bytes.len() * permille / 1000]);
    }
}
