//! Container round-trip: packing a freshly generated dermatology dataset
//! to on-disk shards and streaming it back through `ShardedSource` must
//! be *observationally identical* to the in-memory `MetaDb` path — same
//! record/label multisets, same per-scan-group byte counts — and
//! corrupted shards must be rejected before any loader runs.

use pcr::core::{PcrContainer, PcrDataset, RecordMeta};
use pcr::datasets::{to_pcr_dataset, DatasetSpec, Scale, SyntheticDataset};
use pcr::loader::{
    open_container_store, populate_store, DecodeMode, FidelityConfig, FidelityController,
    LoaderConfig, OpenedContainer, ParallelConfig, ParallelLoader, ReadPlanner, RecordSource,
    ShardStoreConfig,
};
use pcr::storage::{DeviceProfile, ObjectStore};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pcr-roundtrip-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A freshly generated dermatology (HAM10000-like) dataset, encoded once.
fn dermatology() -> (SyntheticDataset, PcrDataset) {
    let ds = SyntheticDataset::generate(&DatasetSpec::ham10000_like(Scale::Tiny));
    let (pcr, _) = to_pcr_dataset(&ds, 4);
    (ds, pcr)
}

fn pack(pcr: &PcrDataset, tag: &str, records_per_shard: usize) -> (PathBuf, OpenedContainer) {
    let dir = tmpdir(tag);
    pcr::core::write_container(pcr, &dir, records_per_shard).expect("pack");
    let opened = open_container_store(&dir, &ShardStoreConfig::default()).expect("open");
    (dir, opened)
}

/// Sorted (record name, labels) pairs delivered by an epoch — the record
/// multiset, not just the label multiset. The loader delivers whole
/// records in epoch order, so the label stream splits back into records.
fn epoch_records<S: RecordSource + ?Sized + 'static>(
    store: &Arc<ObjectStore>,
    source: &Arc<S>,
    names: &dyn Fn(usize) -> String,
    g: usize,
    epoch: u64,
) -> (Vec<(String, Vec<u32>)>, u64) {
    let loader =
        LoaderConfig { threads: 1, decode: DecodeMode::Skip, ..LoaderConfig::at_group(g) };
    let order = ReadPlanner::from_config(&loader).epoch_order(source.num_records(), epoch);
    let cfg = ParallelConfig { loader, ..ParallelConfig::default() };
    let (labels, report) = ParallelLoader::new(Arc::clone(store), Arc::clone(source), cfg)
        .spawn_epoch(epoch)
        .fold(|batches| batches.flat_map(|b| b.labels).collect::<Vec<u32>>());
    let mut labels = labels.into_iter();
    let mut pairs: Vec<(String, Vec<u32>)> = order
        .into_iter()
        .map(|idx| {
            let record: Vec<u32> = labels.by_ref().take(source.labels(idx).len()).collect();
            assert_eq!(record, source.labels(idx), "record {idx} delivered whole, in order");
            (names(idx), record)
        })
        .collect();
    assert!(labels.next().is_none(), "nothing beyond the epoch's records");
    pairs.sort();
    (pairs, report.bytes)
}

#[test]
fn sharded_epoch_matches_in_memory_loader_exactly() {
    let (_, pcr) = dermatology();
    let (dir, opened) = pack(&pcr, "exact", 3);

    let mem_store = Arc::new(ObjectStore::new(DeviceProfile::nvme_local()));
    populate_store(&mem_store, &pcr);
    let mem_db = Arc::new(pcr.db.clone());

    let shard_names = {
        let source = Arc::clone(&opened.source);
        move |idx: usize| source.record_name(idx).to_string()
    };
    let db = pcr.db.clone();
    let mem_names = move |idx: usize| db.records[idx].name.clone();

    for g in [1usize, 2, 5, 10] {
        for epoch in [0u64, 3] {
            let (sharded, sharded_bytes) =
                epoch_records(&opened.store, &opened.source, &shard_names, g, epoch);
            let (memory, memory_bytes) = epoch_records(&mem_store, &mem_db, &mem_names, g, epoch);
            assert_eq!(sharded, memory, "record multiset at group {g} epoch {epoch}");
            assert_eq!(sharded_bytes, memory_bytes, "bytes at group {g} epoch {epoch}");
            assert_eq!(
                sharded_bytes,
                pcr.db.bytes_at_group(g),
                "per-group byte count matches the metadata DB"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wall_clock_dynamic_run_from_shards_matches_in_memory_traffic() {
    // The acceptance-criterion path: pack a fresh dermatology dataset,
    // then run a dynamic-fidelity wall-clock training loop from the
    // on-disk shards, and check its per-epoch traffic equals the
    // in-memory loader's under the identical controller trajectory.
    let (_, pcr) = dermatology();
    let (dir, opened) = pack(&pcr, "dynamic", 3);
    let epochs = 5u64;
    let scores = vec![(1, 0.90), (2, 0.96), (5, 0.99), (10, 1.0)];
    let losses = |e: u64| if e == 0 { 1.0 } else { 0.5 }; // plateau after epoch 1

    let run = |loader: ParallelLoader<dyn RecordSource>| {
        let fidelity = FidelityConfig { plateau_window: 1, ..FidelityConfig::default() };
        let mut ctrl = FidelityController::new(fidelity, scores.clone());
        loader
            .run_dynamic(
                epochs,
                Some(&mut ctrl),
                |e, batches| {
                    batches.for_each(drop);
                    losses(e)
                },
                |_, _, _| Ok(()),
            )
            .expect("the sink never fails")
    };

    let cfg = ParallelConfig {
        loader: LoaderConfig { threads: 2, decode: DecodeMode::Skip, ..LoaderConfig::at_group(10) },
        ..ParallelConfig::default()
    };

    let sharded_loader: ParallelLoader<dyn RecordSource> = ParallelLoader::new(
        Arc::clone(&opened.store),
        Arc::clone(&opened.source) as Arc<dyn RecordSource>,
        cfg.clone(),
    );
    let sharded_trace = run(sharded_loader);

    let mem_store = Arc::new(ObjectStore::new(DeviceProfile::nvme_local()));
    populate_store(&mem_store, &pcr);
    let mem_loader: ParallelLoader<dyn RecordSource> = ParallelLoader::new(
        Arc::clone(&mem_store),
        Arc::new(pcr.db.clone()) as Arc<dyn RecordSource>,
        cfg,
    );
    let mem_trace = run(mem_loader);

    assert_eq!(sharded_trace.epochs.len(), epochs as usize);
    assert_eq!(sharded_trace.groups_used(), mem_trace.groups_used());
    assert_eq!(sharded_trace.groups_used(), vec![10, 2], "full quality, then tuned");
    for (s, m) in sharded_trace.epochs.iter().zip(&mem_trace.epochs) {
        assert_eq!(s.scan_group, m.scan_group, "epoch {}", s.epoch);
        assert_eq!(s.bytes_read, m.bytes_read, "epoch {}", s.epoch);
        assert_eq!(s.images, m.images, "epoch {}", s.epoch);
        assert_eq!(s.bytes_read, pcr.db.bytes_at_group(s.scan_group));
    }
    assert!(sharded_trace.total_bytes() < epochs * pcr.db.bytes_at_group(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_shard_checksum_is_rejected() {
    let (_, pcr) = dermatology();
    let dir = tmpdir("corrupt");
    pcr::core::write_container(&pcr, &dir, 2).expect("pack");

    // Flip a single record byte; the footer CRC still parses fine, so
    // only per-record verification can catch it.
    let container = PcrContainer::open(&dir).expect("open");
    let (_, rec) = container.record(1).expect("record 1");
    let path = container.shard_path(0);
    let mut bytes = std::fs::read(&path).unwrap();
    let victim = rec.offset as usize + rec.len() as usize / 3;
    bytes[victim] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let err = open_container_store(&dir, &ShardStoreConfig::default()).unwrap_err();
    assert!(matches!(err, pcr::core::Error::Corrupt(_)), "{err:?}");
    assert!(container.verify().is_err(), "verify() agrees");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A committed legacy fixture container (`tests/fixtures/legacy`): one
/// 8-image dataset packed in formats the program reads but no longer
/// writes, two records of two images per shard.
fn legacy(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy").join(name)
}

/// Images in every legacy fixture container.
const LEGACY_IMAGES: usize = 8;

/// Every record of an opened container, read back into a dataset — bytes
/// plus the metadata its shard index carries.
fn dataset_of(container: &PcrContainer) -> PcrDataset {
    let mut ds = PcrDataset::default();
    for i in 0..container.num_records() {
        let (shard, rec) = container.entry(i).expect("entry");
        ds.records.push(container.read_record(shard, &rec).expect("record"));
        ds.db.records.push(RecordMeta {
            name: rec.name,
            num_images: rec.num_images,
            group_offsets: rec.group_offsets,
            labels: rec.labels,
        });
    }
    ds
}

#[test]
fn restart_marker_containers_roundtrip_end_to_end() {
    // Format-compat matrix for the restart-marker (record version 2)
    // format, read from committed fixtures of one dataset: marker-less
    // records (interval 0) and restart-interval-1 records. Each goes
    // verify() → stream an epoch → decode. Version-1 and version-2
    // records must deliver the same labels and byte-identical pixels;
    // only v2 may report multiple entropy segments per chunk.
    let mut delivered: Vec<Vec<(u32, Vec<u8>)>> = Vec::new();
    for (fixture, interval) in [("rows-v1", 0u16), ("columnar-v2", 1)] {
        let dir = legacy(fixture);

        // Integrity: the container CRCs verify regardless of version.
        let container = PcrContainer::open(&dir).expect("open");
        container.verify().expect("verify");
        assert_eq!(container.num_images(), LEGACY_IMAGES);

        // Record-level metadata: version and per-chunk segment counts.
        let shard_bytes = container.read_shard(0).expect("shard");
        let (_, rec) = container.record(0).expect("record 0");
        let rec_bytes = &shard_bytes[rec.offset as usize..(rec.offset + rec.len()) as usize];
        let parsed = pcr::core::PcrRecord::parse(rec_bytes).expect("parse");
        assert_eq!(parsed.restart_interval(), interval);
        let max_segments = (1..=parsed.num_groups())
            .flat_map(|g| (0..parsed.num_images()).map(move |i| (i, g)))
            .map(|(i, g)| parsed.segment_count(i, g).unwrap())
            .max()
            .unwrap();
        if interval == 0 {
            assert_eq!(max_segments, 1, "marker-less chunks are one segment");
        } else {
            assert!(max_segments > 1, "restart markers split the entropy");
        }

        // Stream a real decode epoch through the sharded source — old
        // and new containers take the same path.
        let opened = open_container_store(&dir, &ShardStoreConfig::default()).expect("store");
        let loader = ParallelLoader::new(
            Arc::clone(&opened.store),
            Arc::clone(&opened.source) as Arc<dyn RecordSource>,
            ParallelConfig { batch_size: 4, ..ParallelConfig::real(2, 10) },
        );
        let stream = loader.spawn_epoch(0);
        let mut samples: Vec<(u32, Vec<u8>)> = Vec::new();
        for b in stream.batches.iter() {
            for (img, &label) in b.images.iter().zip(&b.labels) {
                assert!(img.width() > 0 && img.height() > 0);
                samples.push((label, img.data().to_vec()));
            }
        }
        stream.join();
        samples.sort_unstable();
        delivered.push(samples);
    }
    assert_eq!(delivered[0].len(), LEGACY_IMAGES);
    assert!(
        delivered[0] == delivered[1],
        "v1 and v2 records deliver the same labels and byte-identical pixels"
    );
}

#[test]
fn container_format_matrix_v1_v2_v3() {
    // Format-compat matrix across *container* format versions, read from
    // committed fixtures of one dataset: v1 (row footers, plain records),
    // v2 (row footers, restart-marker records), v3 (columnar footers +
    // manifest stats, restart-marker records). Every variant must open,
    // verify, resolve entries identical to the records they index, and
    // deliver the same label multiset through both a virtual-time skip
    // epoch and a wall-clock real-decode epoch.
    use pcr::core::{COLUMNAR_VERSION, CONTAINER_VERSION_ROWS};
    // (fixture, container version, restart interval, expect columnar index)
    let variants: [(&str, u16, u16, bool); 3] = [
        ("rows-v1", CONTAINER_VERSION_ROWS, 0, false),
        ("rows-v2", CONTAINER_VERSION_ROWS, 1, false),
        ("columnar-v2", COLUMNAR_VERSION, 1, true),
    ];
    let mut native: Option<Vec<u32>> = None;
    // (virtual-time epoch bytes, wall-clock epoch bytes) per variant.
    let mut streamed: Vec<(u64, u64)> = Vec::new();
    for (tag, version, restart, columnar) in variants {
        let dir = legacy(tag);
        let container = PcrContainer::open(&dir).expect("open");
        container.verify().expect("verify");
        assert_eq!(container.manifest.version, version, "{tag}");
        for shard in &container.shards {
            assert_eq!(shard.is_columnar(), columnar, "{tag}");
        }
        // Format compat: containers packed without a decision log (every
        // pre-audit-plane container) open, verify, and load unchanged,
        // and report the log as absent rather than erroring.
        assert!(
            container.decision_log().expect("absent log is not an error").is_none(),
            "{tag}: no decision log was written"
        );
        // Lazy (v3) and eager (v1/v2) entry resolution see the metadata
        // the records themselves carry.
        let pcr = dataset_of(&container);
        for (i, (meta, bytes)) in pcr.db.records.iter().zip(&pcr.records).enumerate() {
            let parsed = pcr::core::PcrRecord::parse(bytes).expect("parse");
            assert_eq!(parsed.restart_interval(), restart, "{tag} record {i}");
            assert_eq!(meta.labels, parsed.labels(), "{tag} record {i}");
            assert_eq!(meta.num_images as usize, meta.labels.len(), "{tag} record {i}");
            let offsets: Vec<u64> =
                parsed.cumulative_group_offsets().iter().map(|&o| o as u64).collect();
            assert_eq!(meta.group_offsets, offsets, "{tag} record {i}");
        }
        let mut labels_db: Vec<u32> =
            pcr.db.records.iter().flat_map(|r| r.labels.iter().copied()).collect();
        labels_db.sort_unstable();
        let native = native.get_or_insert(labels_db);
        assert_eq!(native.len(), LEGACY_IMAGES, "{tag}");

        let opened = open_container_store(&dir, &ShardStoreConfig::default()).expect("store");
        let names = {
            let source = Arc::clone(&opened.source);
            move |idx: usize| source.record_name(idx).to_string()
        };
        let (pairs, seq_bytes) = epoch_records(&opened.store, &opened.source, &names, 10, 0);
        let mut labels: Vec<u32> = pairs.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        labels.sort_unstable();
        assert_eq!(&labels, native, "{tag} label multiset");
        assert_eq!(seq_bytes, pcr.db.bytes_at_group(10), "{tag} bytes vs metadata DB");

        // One wall-clock real-decode epoch.
        let loader = ParallelLoader::new(
            Arc::clone(&opened.store),
            Arc::clone(&opened.source) as Arc<dyn RecordSource>,
            ParallelConfig { batch_size: 4, ..ParallelConfig::real(2, 10) },
        );
        let epoch = loader.run_epoch(0);
        assert_eq!(epoch.images, LEGACY_IMAGES, "{tag} parallel epoch images");
        streamed.push((seq_bytes, epoch.bytes));
    }
    // v2 and v3 hold byte-identical record encodings; the container
    // format must not change a single byte a loader reads.
    assert_eq!(streamed[1], streamed[2], "row vs columnar delivery");

    // Repacking: the v1 fixture's records written by today's writer give
    // a v3 container that delivers the same labels and bytes per group.
    let v1 = open_container_store(&legacy("rows-v1"), &ShardStoreConfig::default()).expect("v1");
    let pcr = dataset_of(&v1.container);
    let dir = tmpdir("matrix-repack");
    pcr::core::write_container(&pcr, &dir, 2).expect("pack");
    let v3 = open_container_store(&dir, &ShardStoreConfig::default()).expect("v3");
    assert_eq!(v3.container.manifest.version, COLUMNAR_VERSION);
    let names = |opened: &OpenedContainer| {
        let source = Arc::clone(&opened.source);
        move |idx: usize| source.record_name(idx).to_string()
    };
    for g in 1..=pcr.db.num_groups() {
        let old = epoch_records(&v1.store, &v1.source, &names(&v1), g, 0);
        let new = epoch_records(&v3.store, &v3.source, &names(&v3), g, 0);
        assert_eq!(new, old, "repacked v1 records at group {g}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn decision_log_accumulates_across_runs_and_is_covered_by_verify() {
    // The audit plane riding in the container: two dynamic sessions
    // append to one decisions.pcrd, the CRC chain spans both, the
    // container-level verify() covers it — and corrupting the log is
    // caught by verify() while record delivery (both the log's and the
    // shards') stays intact.
    use pcr::core::declog::{DecisionLog, DecisionLogWriter};
    use pcr::metrics::TriggerKind;
    let (_, pcr) = dermatology();
    let (dir, opened) = pack(&pcr, "declog", 3);
    // plateau_window clamps to 2 and needs 2*window observations, so the
    // tune-down lands on epoch 4 — run 5 so it is recorded.
    let epochs = 5u64;
    let scores = vec![(1, 0.90), (2, 0.96), (5, 0.99), (10, 1.0)];

    let cfg = ParallelConfig {
        loader: LoaderConfig { threads: 1, decode: DecodeMode::Skip, ..LoaderConfig::at_group(10) },
        ..ParallelConfig::default()
    };
    let loader: ParallelLoader<dyn RecordSource> = ParallelLoader::new(
        Arc::clone(&opened.store),
        Arc::clone(&opened.source) as Arc<dyn RecordSource>,
        cfg,
    );
    let log_path = dir.join(pcr::core::DECISION_LOG_FILE);
    for session in 0..2u64 {
        let fidelity = FidelityConfig { plateau_window: 1, ..FidelityConfig::default() };
        let mut ctrl = FidelityController::new(fidelity, scores.clone());
        let mut w = DecisionLogWriter::open(&log_path).expect("open log");
        let trace = loader
            .run_dynamic(
                epochs,
                Some(&mut ctrl),
                |e, batches| {
                    batches.for_each(drop);
                    if e == 0 { 1.0 } else { 0.5 }
                },
                |_, records, _| records.iter().try_for_each(|r| w.append(r)),
            )
            .expect("logged run");
        assert_eq!(w.records_written(), epochs, "session {session}");
        assert_eq!(trace.epochs.len(), epochs as usize);
    }

    // Reopen from the artifact alone: both sessions' decisions are
    // there, the chain verifies, and the trace schema round-trips.
    let container = PcrContainer::open(&dir).expect("reopen");
    let log = container.decision_log().expect("read log").expect("log present");
    log.verify().expect("chain spans both sessions");
    container.verify().expect("container verify covers the log");
    assert_eq!(log.len(), 2 * epochs as usize);
    let triggers: Vec<TriggerKind> = log.records().iter().map(|r| r.trigger).collect();
    assert_eq!(triggers[0], TriggerKind::Start, "each run starts at full quality");
    assert_eq!(triggers[epochs as usize], TriggerKind::Start, "second session restarts");
    assert!(triggers.contains(&TriggerKind::Plateau), "the tune-down is recorded");
    // "Why did fidelity change at epoch 2?" — answerable from the log.
    let tuned = log.records().iter().find(|r| r.trigger == TriggerKind::Plateau).unwrap();
    assert_eq!(usize::from(tuned.scan_group), 2, "cheapest group clearing 0.95");
    assert!(!tuned.probe_scores.is_empty(), "probe scores travel with the decision");
    assert!(tuned.bytes_saved() > 0, "the tuned epoch read a shorter prefix");
    assert_eq!(tuned.bytes_full, pcr.db.bytes_at_group(10));
    assert_eq!(tuned.bytes_read, pcr.db.bytes_at_group(2));

    // Corruption: flip one byte in a record body. The strict verify
    // fails; lenient parsing still delivers every decision; and the
    // loaders' own shard path is unaffected.
    let mut bytes = std::fs::read(&log_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&log_path, &bytes).unwrap();
    let err = container.verify().unwrap_err();
    assert!(matches!(err, pcr::core::Error::Corrupt(_)), "{err:?}");
    let damaged = container.decision_log().expect("lenient parse").expect("present");
    assert!(damaged.len() >= epochs as usize, "delivery survives corruption");
    assert!(DecisionLog::parse(&bytes).unwrap().verify().is_err());
    open_container_store(&dir, &ShardStoreConfig::default())
        .expect("shard streaming ignores the audit log");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metadb_view_survives_disk_roundtrip() {
    // The flattened sharded view carries exactly the metadata the
    // in-memory DB had: same names, labels, group offsets, totals.
    let (_, pcr) = dermatology();
    let (dir, opened) = pack(&pcr, "view", 4);
    let src = &opened.source;
    assert_eq!(src.num_records(), pcr.db.records.len());
    assert_eq!(src.num_images(), pcr.db.num_images());
    assert_eq!(src.num_groups(), pcr.db.num_groups());
    for (i, meta) in pcr.db.records.iter().enumerate() {
        assert_eq!(src.record_name(i), meta.name);
        assert_eq!(src.labels(i), &meta.labels[..]);
        for g in 0..=pcr.db.num_groups() {
            assert_eq!(src.plan(i, g).len, meta.prefix_len(g), "record {i} group {g}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
