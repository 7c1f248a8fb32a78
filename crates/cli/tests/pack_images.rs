//! `pcr pack --images` against a real directory, through the built binary.

use pcr_jpeg::{encode, EncodeConfig, ImageBuf};
use std::path::PathBuf;
use std::process::Command;

fn jpeg(seed: u32) -> Vec<u8> {
    let data = (0..24 * 24 * 3).map(|i| ((i * 7 + seed * 31) % 251) as u8).collect();
    let img = ImageBuf::from_raw(24, 24, 3, data).unwrap();
    encode(&img, &EncodeConfig::baseline(90)).unwrap()
}

/// An entry that cannot be read, among good ones, is named on stderr
/// with the I/O error, counted as skipped, and does not fail the pack.
#[cfg(unix)]
#[test]
fn unreadable_file_is_named_and_skipped() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pack-unreadable");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("a.jpg"), jpeg(1)).unwrap();
    std::fs::write(src.join("c.jpg"), jpeg(2)).unwrap();
    // A dangling link fails `read` for every user, root included.
    let broken = src.join("b.jpg");
    std::os::unix::fs::symlink(src.join("missing"), &broken).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pcr"))
        .args(["pack", "--images"])
        .arg(&src)
        .arg("--out")
        .arg(dir.join("container"))
        .output()
        .unwrap();
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "pack failed: {stderr}");
    let named = format!("skipping {}: ", broken.display());
    assert!(stderr.contains(&named), "stderr does not name the file: {stderr}");
    assert!(stdout.contains("packed 2 image(s), skipped 1"), "stdout: {stdout}");
    assert!(stdout.contains("2 image(s)") && stdout.contains("images/s)"), "stdout: {stdout}");
}

/// Runs `pcr pack --images <dir>/src --out <dir>/container`.
fn pack_dir(dir: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pcr"))
        .args(["pack", "--images"])
        .arg(dir.join("src"))
        .arg("--out")
        .arg(dir.join("container"))
        .output()
        .unwrap()
}

/// A file with a JPEG name whose bytes no fallback can use, among good
/// ones, is named on stderr with the codec's error, counted as skipped,
/// and does not fail the pack — whichever record it would have landed in.
#[test]
fn corrupt_file_is_named_and_skipped() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pack-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    for (name, seed) in [("a.jpg", 1), ("b.jpg", 2), ("d.jpg", 4)] {
        std::fs::write(src.join(name), jpeg(seed)).unwrap();
    }
    // SOI, then an APP0 whose length (1) is shorter than its own field.
    let mut corrupt = jpeg(3);
    assert_eq!(
        &corrupt[2..4],
        &[0xFF, 0xE0],
        "encoder no longer writes APP0 first"
    );
    corrupt[4..6].copy_from_slice(&[0, 1]);
    let bad = src.join("c.jpg");
    std::fs::write(&bad, corrupt).unwrap();

    let out = pack_dir(&dir);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "pack failed: {stderr}");
    let named = format!("skipping {}: jpeg error: ", bad.display());
    assert!(
        stderr.contains(&named),
        "stderr does not name the file: {stderr}"
    );
    assert_eq!(stderr.matches("skipping ").count(), 1, "stderr: {stderr}");
    assert!(
        stdout.contains("packed 3 image(s), skipped 1"),
        "stdout: {stdout}"
    );
}

/// A progressive stream cut at a scan boundary has no EOI, so the lossless
/// transcode refuses it; it still splits into scans, so it is regrouped
/// as-is — its five scans, not a ten-scan re-encode from pixels.
#[test]
fn truncated_progressive_stream_is_regrouped_as_is() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pack-regroup");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("a.jpg"), jpeg(1)).unwrap();
    let data = (0..24 * 24 * 3)
        .map(|i| ((i * 5 + 11) % 253) as u8)
        .collect();
    let img = ImageBuf::from_raw(24, 24, 3, data).unwrap();
    let progressive = encode(&img, &EncodeConfig::progressive(90)).unwrap();
    let layout = pcr_jpeg::split_scans(&progressive).unwrap();
    assert_eq!(layout.num_scans(), 10);
    let cut = layout.header_len + (0..5).map(|s| layout.scan_size(s)).sum::<usize>();
    let truncated = &progressive[..cut];
    assert!(
        pcr_jpeg::to_progressive(truncated).is_err(),
        "transcode accepts the cut stream"
    );
    std::fs::write(src.join("b.jpg"), truncated).unwrap();

    let out = pack_dir(&dir);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "pack failed: {stderr}");
    assert!(
        stdout.contains("packed 2 image(s), skipped 0"),
        "stdout: {stdout}"
    );

    let container = pcr_core::PcrContainer::open(&dir.join("container")).unwrap();
    let (shard, entry) = container.record(0).unwrap();
    let bytes = container.read_record(shard, &entry).unwrap();
    let rec = pcr_core::PcrRecord::parse(&bytes).unwrap();
    assert_eq!(rec.meta(1).id, "b");
    let scans = |i| {
        pcr_jpeg::split_scans(&rec.jpeg_at_group(i, 10).unwrap())
            .unwrap()
            .num_scans()
    };
    assert_eq!((scans(0), scans(1)), (10, 5));
}

/// Every file of `dir`, recursively, as (relative path, bytes), sorted.
fn tree(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

/// `pcr pack --images` converts each record's files across the cores:
/// pinned to one core (`taskset -c 0`) and unpinned it writes the same
/// container, byte for byte, and names the same corrupt file.
#[cfg(target_os = "linux")]
#[test]
fn images_pack_the_same_bytes_on_one_core_and_on_all() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pack-cores");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    for class in ["x", "y"] {
        std::fs::create_dir_all(src.join(class)).unwrap();
    }
    for seed in 0..14u32 {
        let data = (0..24 * 24 * 3).map(|i| ((i * 7 + seed * 31) % 251) as u8).collect();
        let img = ImageBuf::from_raw(24, 24, 3, data).unwrap();
        let config = if seed % 3 == 0 {
            EncodeConfig::progressive(80)
        } else {
            EncodeConfig::baseline(70 + seed as u8)
        };
        let class = if seed % 2 == 0 { "x" } else { "y" };
        let path = src.join(class).join(format!("{seed:02}.jpg"));
        std::fs::write(path, encode(&img, &config).unwrap()).unwrap();
    }
    let bad = src.join("y").join("05b.jpg");
    std::fs::write(&bad, b"not a jpeg").unwrap();

    let pack = |pinned: bool, out: &str| {
        let mut cmd = if pinned {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", "0", env!("CARGO_BIN_EXE_pcr")]);
            cmd
        } else {
            Command::new(env!("CARGO_BIN_EXE_pcr"))
        };
        let out = cmd
            .args(["pack", "--images-per-record", "3", "--records-per-shard", "2", "--images"])
            .arg(&src)
            .arg("--out")
            .arg(dir.join(out))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "pack failed: {stderr}");
        assert!(stderr.contains(&format!("skipping {}: ", bad.display())), "stderr: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("packed 14 image(s), skipped 1"));
    };
    pack(true, "one-core");
    pack(false, "all-cores");
    let (one, all) = (tree(&dir.join("one-core")), tree(&dir.join("all-cores")));
    assert_eq!(one.len(), 4, "a manifest and three shards");
    assert!(one == all, "containers differ between one core and all cores");
}
