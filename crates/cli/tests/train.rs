//! `pcr train` through the built binary: the decision log it leaves in
//! the container is the history of the loop that ships, and
//! `pcr inspect --trace` is how it is read back.

use pcr_core::{
    write_container, DecisionLogWriter, DecisionRecord, PcrContainer, PcrDatasetBuilder, SampleMeta,
    DECISION_LOG_FILE,
};
use pcr_jpeg::{encode, EncodeConfig, ImageBuf};
use pcr_metrics::TriggerKind;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const IMAGES: u32 = 10;

fn pcr() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcr"));
    cmd.env_remove("PCR_BENCH_SMOKE");
    cmd
}

/// Packs ten 24x24 JPEGs in two class directories into `<tag>/container`
/// and runs `pcr train` over it with `options`.
fn pack_and_train(tag: &str, options: &[&str]) -> (PathBuf, Output) {
    let container = pack(tag);
    let trained = pcr().arg("train").arg(&container).args(options).output().unwrap();
    (container, trained)
}

/// Image `i` of the test set: 24x24, class `i % 2`.
fn image(i: u32) -> ImageBuf {
    let data = (0..24 * 24 * 3).map(|p| ((p * 7 + i * 31 + (i % 2) * 90) % 251) as u8).collect();
    ImageBuf::from_raw(24, 24, 3, data).unwrap()
}

/// Packs ten 24x24 JPEGs in two class directories into `<tag>/container`.
fn pack(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    for i in 0..IMAGES {
        let class = dir.join("src").join(format!("class{}", i % 2));
        std::fs::create_dir_all(&class).unwrap();
        let jpeg = encode(&image(i), &EncodeConfig::baseline(90)).unwrap();
        std::fs::write(class.join(format!("{i}.jpg")), jpeg).unwrap();
    }
    let container = dir.join("container");
    let packed = pcr()
        .args(["pack", "--images-per-record", "4", "--images"])
        .arg(dir.join("src"))
        .arg("--out")
        .arg(&container)
        .output()
        .unwrap();
    assert!(packed.status.success(), "pack failed: {}", String::from_utf8_lossy(&packed.stderr));
    container
}

/// The verified container and the records `pcr train` appended to it.
fn audit(dir: &Path, trained: &Output) -> (PcrContainer, Vec<DecisionRecord>) {
    assert!(trained.status.success(), "train failed: {}", String::from_utf8_lossy(&trained.stderr));
    let container = PcrContainer::open(dir).unwrap();
    container.verify().expect("container and its decision log verify");
    let log = container.decision_log().unwrap().expect("decisions.pcrd written");
    (container, log.records().to_vec())
}

#[test]
fn fixed_group_run_logs_one_fixed_record_per_epoch() {
    let (dir, out) = pack_and_train("train-fixed", &["--group", "2", "--epochs", "2", "--threads", "1"]);
    let (container, records) = audit(&dir, &out);
    assert_eq!(records.len(), 2);
    for (epoch, r) in records.iter().enumerate() {
        assert_eq!((r.epoch, r.trigger, r.scan_group), (epoch as u64, TriggerKind::Fixed, 2));
        assert_eq!(r.bytes_read, container.bytes_at_group(2).unwrap());
        assert_eq!(r.images, u64::from(IMAGES));
        assert!(r.probe_scores.is_empty() && r.loss.is_finite());
    }
}

#[test]
fn dynamic_run_starts_at_full_quality_with_its_probe_scores() {
    let (dir, out) = pack_and_train("train-dynamic", &["--dynamic", "--epochs", "3", "--threads", "1"]);
    let (container, records) = audit(&dir, &out);
    assert_eq!(records.len(), 3);
    let first = &records[0];
    assert_eq!(first.trigger, TriggerKind::Start);
    assert_eq!(usize::from(first.scan_group), container.num_groups());
    assert_eq!(first.probe_scores.len(), 4, "groups 1, 2, 5 and full");
    assert_eq!(first.bytes_read, first.bytes_full);
    assert!(records[1..].iter().all(|r| r.trigger != TriggerKind::Start));
}

#[test]
fn a_record_whose_labels_disagree_with_the_index_is_quarantined() {
    // Record 0 holds four images, but the index lists three labels for it.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("train-label-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = PcrDatasetBuilder::new(4, 10);
    for i in 0..IMAGES {
        builder.add_image(SampleMeta { label: i % 2, id: format!("{i}") }, &image(i), 90).unwrap();
    }
    let mut dataset = builder.finish().unwrap();
    dataset.db.records[0].labels.pop();
    dataset.db.records[0].num_images -= 1;
    write_container(&dataset, &dir, 8).unwrap();
    PcrContainer::open(&dir).unwrap().verify().expect("the container itself is intact");

    let out = pcr()
        .arg("train")
        .arg(&dir)
        .args(["--epochs", "1", "--no-declog", "--batch", "4"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let faults = stdout.lines().find(|l| l.contains("!! faults:")).expect("a faults line");
    assert!(faults.ends_with("1 quarantined (3 image(s))"), "{faults}");
}

#[test]
fn dynamic_with_a_fixed_group_is_rejected() {
    let (dir, out) = pack_and_train("train-conflict", &["--dynamic", "--group", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--dynamic") && stderr.contains("--group"), "stderr: {stderr}");
    assert!(!dir.join(DECISION_LOG_FILE).exists(), "nothing ran");
}

#[test]
fn trace_rollup_counts_a_faulted_epoch_once() {
    // Two epochs reading 1000 of 4000 bytes; the second was faulted, so
    // its decision is followed by a `degraded` audit record repeating
    // its bytes.
    let dir = pack("inspect-rollup");
    let record = |epoch, trigger| DecisionRecord {
        epoch,
        trigger,
        scan_group: 2,
        bytes_read: 1_000,
        bytes_full: 4_000,
        images: 10,
        cache_hit_rate: 0.0,
        loss: 1.0,
        probe_scores: Vec::new(),
    };
    let mut log = DecisionLogWriter::open(&dir.join(DECISION_LOG_FILE)).unwrap();
    let records = [(0, TriggerKind::Fixed), (1, TriggerKind::Fixed), (1, TriggerKind::Degraded)];
    for (epoch, trigger) in records {
        log.append(&record(epoch, trigger)).unwrap();
    }
    drop(log);
    let rollup = |filter: &[&str]| {
        let mut inspect = pcr();
        inspect.arg("inspect").arg(&dir).args(["--trace", "--json"]).args(filter);
        let out = inspect.output().unwrap();
        assert!(out.status.success(), "inspect failed: {}", String::from_utf8_lossy(&out.stderr));
        let json = String::from_utf8(out.stdout).unwrap();
        let at = json.find("\"rollup\":").expect("a rollup");
        json[at..].split_once('}').unwrap().0.to_string()
    };
    assert_eq!(
        rollup(&[]),
        r#""rollup":{"bytes_read":2000,"bytes_full":8000,"bytes_saved":6000,"saved_fraction":0.75"#
    );
    assert_eq!(
        rollup(&["--trigger", "degraded"]),
        r#""rollup":{"bytes_read":1000,"bytes_full":4000,"bytes_saved":3000,"saved_fraction":0.75"#
    );
}
