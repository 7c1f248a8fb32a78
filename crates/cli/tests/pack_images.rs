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
