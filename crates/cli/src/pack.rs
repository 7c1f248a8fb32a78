//! `pcr pack`: encode images into a sharded PCR container on disk.

use crate::args::{parse, ArgSpec};
use crate::human_bytes;
use pcr_core::container::{write_container, ContainerManifest};
use pcr_core::{PcrDatasetBuilder, SampleMeta, CONTAINER_VERSION, DEFAULT_NUM_GROUPS};
use pcr_datasets::{DatasetSpec, Scale, SyntheticDataset, IMAGES_PER_RECORD, RECORDS_PER_SHARD};
use pcr_metrics::JsonValue;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const HELP: &str = "pcr pack — pack a dataset into a sharded PCR container

USAGE:
    pcr pack --dataset <name> --out <dir> [options]
    pcr pack --images <srcdir> --out <dir> [options]

SOURCES (exactly one):
    --dataset <name>        Generate a synthetic dataset and pack it.
                            Names: dermatology (HAM10000-like), imagenet,
                            cars, celeba
    --images <srcdir>       Pack existing JPEG files. Either a flat
                            directory (every file gets label 0) or one
                            level of class subdirectories (each class
                            gets its sorted index as the label, the
                            ImageFolder convention); mixing both layouts
                            is an error. Subdirectories without JPEGs
                            are ignored. Every decodable JPEG, baseline
                            or progressive, is losslessly re-scripted to
                            the default 10-scan progressive script, so
                            scan group k means the same fidelity for
                            every image. Files that cannot be read or
                            decoded are named on stderr and skipped.

OPTIONS:
    --out <dir>             Output container directory (required)
    --scale <s>             Synthetic dataset scale: tiny | small | full
                            (default tiny)
    --images-per-record <n> Images packed per .pcr record (default 16)
    --records-per-shard <n> Records packed per shard file (default 8)
    --quality <q>           JPEG quality for --images files the lossless
                            transcode refuses (e.g. missing EOI) and that
                            are re-encoded from pixels (default 85)
    --json                  Print a machine-readable summary to stdout
                            and suppress progress output

Long packs report progress on stderr (images, records, MB/s, ETA),
throttled to a few updates per second; --json silences it.";

const SPEC: ArgSpec = ArgSpec {
    value_flags: &[
        "dataset",
        "images",
        "out",
        "scale",
        "images-per-record",
        "records-per-shard",
        "quality",
    ],
    bool_flags: &["json"],
};

/// Throttled progress meter on stderr: images packed, records flushed,
/// encode throughput, ETA. Inert when disabled (`--json`) so scripted
/// output stays parseable.
struct Progress {
    total_images: usize,
    start: Instant,
    last: Instant,
    enabled: bool,
}

impl Progress {
    fn new(total_images: usize, enabled: bool) -> Self {
        let now = Instant::now();
        Self { total_images, start: now, last: now, enabled }
    }

    /// Reports after image `done` (1-based) was added; throttled to ~5
    /// updates/sec except for the final image.
    fn tick(&mut self, done: usize, builder: &PcrDatasetBuilder) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if done < self.total_images && now.duration_since(self.last).as_millis() < 200 {
            return;
        }
        self.last = now;
        let secs = now.duration_since(self.start).as_secs_f64().max(1e-9);
        let mb_per_sec = builder.bytes_flushed() as f64 / (1024.0 * 1024.0) / secs;
        let eta = secs * (self.total_images.saturating_sub(done)) as f64 / done.max(1) as f64;
        eprint!(
            "\rpacking: {done}/{} image(s), {} record(s), {mb_per_sec:.1} MB/s, ETA {eta:.0}s   ",
            self.total_images,
            builder.records_flushed(),
        );
        let _ = std::io::stderr().flush();
    }

    /// Ends the progress line (the meter draws with `\r`, not newlines).
    fn done(&self) {
        if self.enabled {
            eprintln!();
        }
    }
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv, &SPEC)?;
    let out = args.value("out").ok_or("--out <dir> is required")?;
    let out = Path::new(out);
    let images_per_record = args.number("images-per-record", IMAGES_PER_RECORD)?.max(1);
    let records_per_shard = args.number("records-per-shard", RECORDS_PER_SHARD)?.max(1);
    let json = args.flag("json");

    let start = Instant::now();
    // When packing proper began: synthetic generation is not packing.
    let mut pack_start = start;
    let manifest = match (args.value("dataset"), args.value("images")) {
        (Some(_), Some(_)) => return Err("--dataset and --images are mutually exclusive".into()),
        (None, None) => return Err("one of --dataset or --images is required".into()),
        (Some(name), None) => {
            let scale = args.value_or("scale", "tiny");
            let scale = Scale::from_name(scale)
                .ok_or_else(|| format!("unknown scale {scale:?} (tiny | small | full)"))?;
            let mut spec = DatasetSpec::named(name, scale).ok_or_else(|| {
                format!("unknown dataset {name:?} (dermatology | imagenet | cars | celeba)")
            })?;
            // Only the train split is packed. Its draws come first, so
            // leaving the test split out cannot change its bytes.
            spec.test_images = 0;
            if !json {
                println!(
                    "generating {} at {:?} scale ({} train images)...",
                    spec.name, scale, spec.train_images
                );
            }
            let ds = SyntheticDataset::generate(&spec);
            pack_start = Instant::now();
            let mut builder = PcrDatasetBuilder::new(images_per_record, DEFAULT_NUM_GROUPS)
                .with_name_prefix(&spec.name);
            let mut progress = Progress::new(ds.train.len(), !json);
            for (i, s) in ds.train.iter().enumerate() {
                builder
                    .add_image(
                        SampleMeta { label: s.label, id: s.id.clone() },
                        &s.image,
                        spec.jpeg_quality,
                    )
                    .map_err(|e| e.to_string())?;
                progress.tick(i + 1, &builder);
            }
            progress.done();
            let dataset = builder.finish().map_err(|e| e.to_string())?;
            write_container(&dataset, out, records_per_shard).map_err(|e| e.to_string())?
        }
        (None, Some(srcdir)) => {
            let quality: u8 = args.number("quality", 85u8)?;
            pack_image_dir(
                Path::new(srcdir),
                out,
                images_per_record,
                records_per_shard,
                quality,
                json,
            )?
        }
    };

    let pack_seconds = pack_start.elapsed().as_secs_f64();
    let images_per_sec = manifest.num_images() as f64 / pack_seconds.max(1e-9);
    if json {
        let doc = JsonValue::object([
            ("out", JsonValue::str(out.display().to_string())),
            ("format_version", JsonValue::U64(u64::from(CONTAINER_VERSION))),
            ("shards", JsonValue::U64(manifest.shards.len() as u64)),
            ("records", JsonValue::U64(manifest.num_records() as u64)),
            ("images", JsonValue::U64(manifest.num_images() as u64)),
            ("file_bytes", JsonValue::U64(manifest.total_file_bytes())),
            ("seconds", JsonValue::F64(start.elapsed().as_secs_f64())),
            ("images_per_sec", JsonValue::F64(images_per_sec)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "wrote {} -> {} shard(s), {} record(s), {} image(s), {} in {pack_seconds:.1}s \
             ({images_per_sec:.0} images/s)",
            out.display(),
            manifest.shards.len(),
            manifest.num_records(),
            manifest.num_images(),
            human_bytes(manifest.total_file_bytes()),
        );
        println!("next: pcr inspect {}", out.display());
    }
    Ok(())
}

/// Packs a directory of JPEG files: `<srcdir>/*.jpg` at label 0 and
/// `<srcdir>/<class>/*.jpg` labeled by sorted class-directory index.
fn pack_image_dir(
    srcdir: &Path,
    out: &Path,
    images_per_record: usize,
    records_per_shard: usize,
    quality: u8,
    json: bool,
) -> Result<ContainerManifest, String> {
    let mut builder =
        PcrDatasetBuilder::new(images_per_record, DEFAULT_NUM_GROUPS).with_name_prefix("pack");
    let mut packed = 0usize;
    let mut skipped = 0usize;

    let mut classes: Vec<(std::path::PathBuf, Vec<std::path::PathBuf>)> = Vec::new();
    let mut loose: Vec<std::path::PathBuf> = Vec::new();
    for entry in std::fs::read_dir(srcdir).map_err(|e| format!("{}: {e}", srcdir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && is_jpeg_name(p))
                .collect();
            // A subdirectory with no JPEGs is not a class: it must not
            // occupy a label index and shift every later class's label.
            if !files.is_empty() {
                files.sort();
                classes.push((path, files));
            }
        } else if is_jpeg_name(&path) {
            loose.push(path);
        }
    }
    classes.sort();
    loose.sort();
    // Loose files get label 0, class directories get their sorted index —
    // the two schemes collide, so a mixed layout is ambiguous: refuse it
    // rather than silently merging unrelated images into one class.
    if !loose.is_empty() && !classes.is_empty() {
        return Err(format!(
            "{}: mixed layout — found both loose JPEG files ({}) and class \
             subdirectories ({}); move the loose files into a class directory",
            srcdir.display(),
            loose.len(),
            classes.len()
        ));
    }

    let files: Vec<(&Path, u32)> = loose
        .iter()
        .map(|path| (path.as_path(), 0))
        .chain(classes.iter().enumerate().flat_map(|(label, (_, files))| {
            files.iter().map(move |path| (path.as_path(), label as u32))
        }))
        .collect();
    let mut progress = Progress::new(files.len(), !json);
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut seen = 0usize;
    // One record's worth of files at a time: read and convert them across
    // the cores, then add or skip each in file order.
    for batch in files.chunks(images_per_record) {
        let converted = pcr_core::dataset::map_in_order(batch.to_vec(), workers, |(path, _)| {
            packable_jpeg(path, quality)
        });
        for (&(path, label), jpeg) in batch.iter().zip(converted) {
            let id =
                path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            let added = jpeg.and_then(|jpeg| {
                builder
                    .add_progressive_jpeg(SampleMeta { label, id }, jpeg)
                    .map_err(|e| e.to_string())
            });
            match added {
                Ok(()) => packed += 1,
                Err(e) => {
                    eprintln!("skipping {}: {e}", path.display());
                    skipped += 1;
                }
            }
            seen += 1;
            progress.tick(seen, &builder);
        }
    }
    progress.done();
    if packed == 0 {
        return Err(format!("no packable JPEG files under {}", srcdir.display()));
    }
    if !json {
        println!("packed {packed} image(s), skipped {skipped}");
    }
    let dataset = builder.finish().map_err(|e| e.to_string())?;
    write_container(&dataset, out, records_per_shard).map_err(|e| e.to_string())
}

/// Reads one source file and returns the progressive JPEG it is packed
/// as, or the error that skips it. Every JPEG the codec can decode to
/// coefficients — baseline or progressive, whatever its scan script — is
/// losslessly re-scripted to the default progressive script, so scan
/// group k means the same fidelity for every image of the dataset. A
/// progressive stream the transcode refuses is regrouped as-is; anything
/// else that still decodes to pixels is re-encoded from them.
fn packable_jpeg(path: &Path, quality: u8) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    if let Ok(jpeg) = pcr_jpeg::to_progressive(&bytes) {
        return Ok(jpeg);
    }
    if pcr_jpeg::split_scans(&bytes).is_ok_and(|l| l.num_scans() <= DEFAULT_NUM_GROUPS) {
        return Ok(bytes);
    }
    pcr_jpeg::decode(&bytes)
        .and_then(|img| pcr_jpeg::encode(&img, &pcr_jpeg::EncodeConfig::progressive(quality)))
        .map_err(|e| pcr_core::Error::Jpeg(e).to_string())
}

fn is_jpeg_name(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()).map(str::to_ascii_lowercase).as_deref(),
        Some("jpg") | Some("jpeg")
    )
}
