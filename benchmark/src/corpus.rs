//! Set-up: the seeded corpus every workload runs on, built through the
//! same public calls `pcr pack` makes and timed as `setup_s`.
//!
//! 480 HAM10000-like images (160 ± 16 px, source quality 100, 7 classes)
//! are generated from `--seed`, encoded as baseline JPEGs (the *source
//! bytes*), packed 8 to a record and written 15 records to a shard:
//! 60 records, 4 shards, about 11.7 MB. The first 240 source JPEGs are
//! also written out as files, for the `pack_write` child rounds. Set-up
//! does the same work whichever workload follows.

use crate::api;
use crate::trace::{Layer, Tracer, NO_RECORD};
use std::path::{Path, PathBuf};

pub const CORPUS_IMAGES: usize = 480;
/// Source JPEGs `pack_write` packs each round.
pub const PACK_IMAGES: usize = 240;

/// What the rounds need from set-up.
pub struct Corpus {
    /// `benchmark/out/<workload>-<seed>/`.
    pub dir: PathBuf,
    /// Baseline JPEG source bytes, in image order (`pack_write` inputs).
    pub jpegs: Vec<Vec<u8>>,
    /// Total source bytes behind the packed container.
    pub source_bytes: u64,
    pub num_classes: usize,
}

impl Corpus {
    pub fn container_dir(&self) -> PathBuf {
        container_dir(&self.dir)
    }
}

pub fn container_dir(dir: &Path) -> PathBuf {
    dir.join("container")
}

pub fn source_dir(dir: &Path) -> PathBuf {
    dir.join("source")
}

/// Label of image `i`: classes interleaved, as `SyntheticDataset` does.
pub fn label_of(i: usize, num_classes: usize) -> u32 {
    (i % num_classes) as u32
}

/// Builds the corpus under `dir` (wiped first). With an enabled tracer,
/// `generate_image` and `encode` are recorded one span per image.
pub fn build(seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Corpus, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(source_dir(dir)).map_err(|e| format!("{}: {e}", dir.display()))?;

    let spec = api::SourceSpec::ham10000_like(CORPUS_IMAGES);
    let num_classes = spec.num_classes();
    let mut rng = api::SampleRng::new(seed);
    let mut jpegs = Vec::with_capacity(spec.num_images());
    let mut packer = api::Packer::new();
    for i in 0..spec.num_images() {
        let label = label_of(i, num_classes);
        let image = tracer.time(
            Layer::Datasets,
            "datasets.generate_image",
            NO_RECORD,
            || api::generate_image(&spec, label, &mut rng),
        );
        let jpeg = tracer.time(Layer::Jpeg, "jpeg.encode", NO_RECORD, || {
            api::encode_baseline(&image, spec.jpeg_quality())
        })?;
        packer.add_baseline_jpeg(label, i, &jpeg)?;
        jpegs.push(jpeg);
    }
    let packed = packer.finish()?;
    api::write_container(&packed, &container_dir(dir))?;
    for (i, jpeg) in jpegs.iter().take(PACK_IMAGES).enumerate() {
        let path = source_dir(dir).join(format!("{i:05}.jpg"));
        std::fs::write(&path, jpeg).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let source_bytes = jpegs.iter().map(|j| j.len() as u64).sum();
    Ok(Corpus {
        dir: dir.to_path_buf(),
        jpegs,
        source_bytes,
        num_classes,
    })
}

/// What a child round loads in place of running set-up again: the source
/// JPEG files (for `pack_write`) and the class count.
pub fn load_for_child(dir: &Path, with_jpegs: bool) -> Result<Corpus, String> {
    let num_classes = api::SourceSpec::ham10000_like(CORPUS_IMAGES).num_classes();
    let mut jpegs = Vec::new();
    if with_jpegs {
        for i in 0..PACK_IMAGES {
            let path = source_dir(dir).join(format!("{i:05}.jpg"));
            jpegs.push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let source_bytes = jpegs.iter().map(|j| j.len() as u64).sum();
    Ok(Corpus {
        dir: dir.to_path_buf(),
        jpegs,
        source_bytes,
        num_classes,
    })
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
