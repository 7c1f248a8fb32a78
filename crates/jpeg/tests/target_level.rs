//! The default build's target level. `.cargo/config.toml` builds the
//! workspace for x86-64-v3 on Linux x86_64; any `RUSTFLAGS` in the
//! environment replaces that flag, and the build silently falls back to
//! baseline x86-64. This test fails in such a build. A build made for an
//! older CPU on purpose (`RUSTFLAGS="-C target-cpu=x86-64"`) fails it too,
//! which is why CI's portable-build job runs named suites only.

#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]

#[test]
fn the_default_build_targets_x86_64_v3() {
    let enabled = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi1", cfg!(target_feature = "bmi1")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("fma", cfg!(target_feature = "fma")),
        ("lzcnt", cfg!(target_feature = "lzcnt")),
        ("movbe", cfg!(target_feature = "movbe")),
        ("popcnt", cfg!(target_feature = "popcnt")),
    ];
    let missing: Vec<&str> = enabled
        .iter()
        .filter(|(_, on)| !on)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        missing.is_empty(),
        "built without {missing:?}: a RUSTFLAGS in the environment replaced \
         .cargo/config.toml's -C target-cpu=x86-64-v3"
    );
}
