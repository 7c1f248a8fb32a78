//! Golden-trace regression harness for the fidelity controller.
//!
//! A committed fixture container (`tests/fixtures/golden-trace/container/`)
//! carries a committed `decisions.pcrd` produced by a fully deterministic
//! controller run: single worker thread, `DecodeMode::Skip`,
//! `IoModel::Instant`, pinned probe scores, and a scripted loss curve.
//! Replaying the same run against the committed container must reproduce
//! the decision log **byte for byte** — any drift in the controller, the
//! trigger classification, the byte accounting, or the wire encoding
//! fails the test with a per-decision diff instead of a hex blob.
//!
//! To regenerate the fixtures after an *intentional* controller or
//! format change:
//!
//! ```text
//! PCR_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and commit the updated `tests/fixtures/golden-trace/` directory with a
//! note in the PR about why the trajectory moved.

use pcr::core::declog::{DecisionLog, DecisionLogWriter};
use pcr::core::{PcrContainer, PcrDataset, PcrDatasetBuilder, SampleMeta, DECISION_LOG_FILE};
use pcr::jpeg::ImageBuf;
use pcr::loader::{
    open_container_store, DecodeMode, FidelityConfig, FidelityController, IoModel, LoaderConfig,
    ParallelConfig, ParallelLoader, RecordSource, ShardStoreConfig,
};
use pcr::metrics::{FidelityTrace, TriggerKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Epochs in the golden run. The plateau window (clamped to 2) needs
/// 2*window observations, so the tune-down lands on epoch 4.
const GOLDEN_EPOCHS: u64 = 6;
/// Pinned per-group MSSIM scores: group 2 is the cheapest clearing the
/// default 0.95 threshold, so the plateau switch targets it.
const GOLDEN_SCORES: [(usize, f64); 4] = [(1, 0.90), (2, 0.96), (5, 0.99), (10, 1.0)];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-trace/container")
}

/// The deterministic dataset behind the fixture: 12 procedurally
/// patterned 32x32 images, 4 per record, 10 scan groups. No RNG, no
/// clock — regenerating it always yields identical bytes.
fn golden_dataset() -> PcrDataset {
    let mut b = PcrDatasetBuilder::new(4, 10).with_name_prefix("golden");
    for i in 0..12u32 {
        let mut data = Vec::new();
        for y in 0..32u32 {
            for x in 0..32u32 {
                data.push(((x * 3 + y * 7 + i * 5) % 256) as u8);
                data.push(((x + y * 2 + i * 11) % 256) as u8);
                data.push(((x * 2 + y + i * 3) % 256) as u8);
            }
        }
        let img = ImageBuf::from_raw(32, 32, 3, data).unwrap();
        b.add_image(SampleMeta { label: i % 3, id: format!("g{i}") }, &img, 85).unwrap();
    }
    b.finish().unwrap()
}

/// The scripted loss curve: one big improvement, then a flatline. With
/// `plateau_window: 1` (clamped to 2) the detector fires after epoch 3,
/// so epoch 4 runs at the tuned-down group with trigger `plateau`.
fn golden_loss(epoch: u64) -> f64 {
    if epoch == 0 {
        1.0
    } else {
        0.5
    }
}

/// Replays the golden controller run against `container_dir`, appending
/// every decision to a fresh log at `log_path`.
fn replay(container_dir: &Path, log_path: &Path) -> FidelityTrace {
    let opened = open_container_store(container_dir, &ShardStoreConfig::default()).expect("open");
    let loader: ParallelLoader<dyn RecordSource> = ParallelLoader::new(
        Arc::clone(&opened.store),
        Arc::clone(&opened.source) as Arc<dyn RecordSource>,
        ParallelConfig {
            loader: LoaderConfig {
                threads: 1,
                decode: DecodeMode::Skip,
                seed: 7,
                ..LoaderConfig::at_group(10)
            },
            io: IoModel::Instant,
            ..ParallelConfig::default()
        },
    );
    let fidelity = FidelityConfig { plateau_window: 1, ..FidelityConfig::default() };
    let mut ctrl = FidelityController::new(fidelity, GOLDEN_SCORES.to_vec());
    let _ = std::fs::remove_file(log_path);
    let mut w = DecisionLogWriter::open(log_path).expect("open fresh log");
    loader
        .run_dynamic(
            GOLDEN_EPOCHS,
            Some(&mut ctrl),
            |e, batches| {
                batches.for_each(drop);
                golden_loss(e)
            },
            // Strict: the first failed append ends the run.
            |_, records, _| records.iter().try_for_each(|r| w.append(r)),
        )
        .expect("logged golden run")
}

/// Regenerates the committed fixture in place (container + log).
fn regen_fixtures(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    pcr::core::write_container(&golden_dataset(), dir, 2).expect("pack fixture");
    replay(dir, &dir.join(DECISION_LOG_FILE));
}

fn regen_requested() -> bool {
    std::env::var("PCR_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcr-golden-{tag}-{}", std::process::id()))
}

#[test]
fn golden_trace_replays_byte_for_byte() {
    let dir = fixture_dir();
    if regen_requested() {
        regen_fixtures(&dir);
        println!("regenerated golden fixtures in {}", dir.display());
    }
    let committed_path = dir.join(DECISION_LOG_FILE);
    let committed = std::fs::read(&committed_path).expect("committed decisions.pcrd");

    let replay_path = scratch("replay");
    replay(&dir, &replay_path);
    let replayed = std::fs::read(&replay_path).expect("replayed log");
    std::fs::remove_file(&replay_path).unwrap();

    if committed != replayed {
        // Byte drift: decode both sides and explain per decision instead
        // of dumping hex. `diff` is None only if the divergence is in
        // framing alone, so fall through to a generic message then.
        let want = DecisionLog::parse(&committed).expect("committed log parses");
        let got = DecisionLog::parse(&replayed).expect("replayed log parses");
        let explain = want
            .diff(&got)
            .unwrap_or_else(|| "records identical; framing bytes differ".to_string());
        panic!(
            "golden decision log diverged from {}:\n{explain}\n\
             If the controller change is intentional, regenerate with\n\
             PCR_REGEN_GOLDEN=1 cargo test --test golden_trace\n\
             and explain the new trajectory in the PR.",
            committed_path.display()
        );
    }
}

#[test]
fn golden_container_verifies_and_log_explains_the_trajectory() {
    let dir = fixture_dir();
    if regen_requested() {
        regen_fixtures(&dir);
    }
    // The fixture is a real container: shards verify, and container-level
    // verify() covers the decision log's CRC chain too.
    let container = PcrContainer::open(&dir).expect("open fixture container");
    container.verify().expect("fixture container verifies");
    let log = container.decision_log().expect("read log").expect("log present");
    log.verify().expect("chain intact");
    assert_eq!(log.len(), GOLDEN_EPOCHS as usize);

    // The log alone answers "why did fidelity change at epoch 4": the
    // loss plateaued, and the probe scores carried in the record show
    // group 2 was the cheapest one clearing the quality bar.
    let records = log.records();
    assert_eq!(records.first().unwrap().trigger, TriggerKind::Start);
    let tuned = records.iter().find(|r| r.trigger == TriggerKind::Plateau).expect("a plateau");
    assert_eq!(tuned.epoch, 4);
    assert_eq!(tuned.scan_group, 2);
    assert!(tuned.bytes_saved() > 0, "tuned epoch reads a shorter prefix");
    assert_eq!(tuned.probe_scores.len(), GOLDEN_SCORES.len());
    assert!(
        tuned.probe_scores.iter().any(|&(g, s)| g == 2 && s >= 0.95),
        "the record carries the score that justified group 2"
    );
    // Epochs before the switch hold at full quality and save nothing.
    for r in records.iter().take(4) {
        assert_eq!(r.bytes_saved(), 0, "epoch {} ran at full quality", r.epoch);
        assert!(matches!(r.trigger, TriggerKind::Start | TriggerKind::Hold));
    }
    assert!(log.bytes_saved() > 0, "rollup shows the run beat fixed-full-quality");
}

#[test]
fn golden_divergence_produces_a_readable_per_decision_diff() {
    let dir = fixture_dir();
    if regen_requested() {
        regen_fixtures(&dir);
    }
    let committed =
        std::fs::read(dir.join(DECISION_LOG_FILE)).expect("committed decisions.pcrd");
    let want = DecisionLog::parse(&committed).expect("parses");

    // Simulate a controller regression: the plateau switch picks group 5
    // instead of 2 and reads more bytes.
    let mut records = want.records().to_vec();
    let tuned = records.iter().position(|r| r.trigger == TriggerKind::Plateau).expect("plateau");
    let broken = records.get_mut(tuned).unwrap();
    broken.scan_group = 5;
    broken.bytes_read += 1234;
    let got = DecisionLog::from_records(records).expect("re-encode");

    let diff = want.diff(&got).expect("divergence is detected");
    assert!(diff.contains(&format!("decision {tuned}")), "names the decision: {diff}");
    assert!(diff.contains("scan_group"), "names the field: {diff}");
    assert!(diff.contains("expected 2"), "shows the expected value: {diff}");
    assert!(diff.contains("actual 5"), "shows the actual value: {diff}");
    assert!(diff.contains("bytes_read"), "reports every diverging field: {diff}");
    // And identical logs produce no diff at all.
    assert!(want.diff(&want).is_none());
}
