//! `pcr bench`: stream a container with the wall-clock parallel loader,
//! sweeping worker counts × scan groups, with optional JSON output. Each
//! sweep cell carries where the time went (I/O and decode shares, a
//! bottleneck verdict) and, under emulated I/O, how far the measured rate
//! sits from the Appendix A.2 prediction at the loader's I/O depth.

use crate::args::{parse, ArgSpec};
use crate::{human_bytes, smoke};
use pcr_core::container::PcrContainer;
use pcr_loader::{
    open_container_store, DecodeMode, EpochReport, IoModel, LoaderConfig, OpenedContainer,
    ParallelConfig, ParallelLoader, ShardStoreConfig,
};
use pcr_metrics::JsonValue;
use pcr_sim::queueing;
use std::path::Path;

pub const HELP: &str = "pcr bench — worker x scan-group streaming sweep over a container

USAGE:
    pcr bench <dir> [options]

OPTIONS:
    --workers <list>   Comma-separated loader thread counts (default 1,2,4);
                       each row's decode pool has max(workers, cores)
    --groups <list>    Comma-separated scan groups (default 1,5,10), clamped
                       to the container's group count
    --batch <n>        Minibatch size (default 32)
    --decode <mode>    real | skip (default real: decode pixels)
    --io <mode>        instant | emulated (default emulated: sleep each
                       read's modeled device service time, 8 reads in
                       flight whatever the worker count)
    --readahead <b>    Store readahead in bytes (default 262144)
    --json <path>      Also write the sweep as a JSON report

Every sweep row runs against a freshly opened store — cold modeled cache,
zeroed device statistics — so rows are independent, comparable
measurements. The store registers the shard files and reads each record
range from them with a positional read, so the bytes are real file reads;
the operating system's page cache is warm after the first row (and after
the verify pass every open makes), which is what `meas/pred` is measured
against: modeled device time on top of warm real reads.

Per row: `io` is the share of the I/O window's slot-time spent in device
service, `dec` the share of the decode pool's time spent decoding,
`bound` where most of the decode pool's time went — waiting for bytes
(storage), decoding (decode), or waiting for the consumer (consumer) —
and, with --io emulated, `meas/pred` is measured img/s over
min(decode rate, Lemma A.2 at the I/O depth) for a cold modeled cache.
`resident` is what the store itself holds after the epoch (recycled read
buffers) next to the `addressable` bytes it serves.

With PCR_BENCH_SMOKE=1 the sweep is clamped to 1,2 workers and the
lowest/highest requested groups, so CI finishes in seconds.";

const SPEC: ArgSpec = ArgSpec {
    value_flags: &["workers", "groups", "batch", "decode", "io", "readahead", "json"],
    bool_flags: &[],
};

/// One sweep cell: the loader's own epoch report plus what only the
/// sweep knows.
struct Row {
    workers: usize,
    group: usize,
    epoch: EpochReport,
    cache_hit_rate: f64,
    /// `ObjectStore::resident_bytes` / `total_bytes` after the epoch.
    resident_bytes: u64,
    total_bytes: u64,
    /// Appendix A.2's images/s for this cell; `None` under `--io instant`,
    /// where storage is not modeled.
    predicted_images_per_sec: Option<f64>,
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv, &SPEC)?;
    let dir = args.positional.first().ok_or("usage: pcr bench <dir> [options]")?;
    let mut workers = args.usize_list("workers", &[1, 2, 4])?;
    let mut groups = args.usize_list("groups", &[1, 5, 10])?;
    let batch = args.number("batch", 32usize)?.max(1);
    let decode = match args.value_or("decode", "real") {
        "real" => DecodeMode::Real,
        "skip" => DecodeMode::Skip,
        other => return Err(format!("unknown --decode {other:?} (real | skip)")),
    };
    let io = match args.value_or("io", "emulated") {
        "instant" => IoModel::Instant,
        "emulated" => IoModel::EmulatedLatency,
        other => return Err(format!("unknown --io {other:?} (instant | emulated)")),
    };
    if smoke() {
        workers.retain(|&w| w <= 2);
        if workers.is_empty() {
            workers.push(1);
        }
        groups = vec![
            *groups.iter().min().unwrap_or(&1),
            *groups.iter().max().unwrap_or(&10),
        ];
        groups.dedup();
        println!("PCR_BENCH_SMOKE=1: clamping sweep to workers {workers:?}, groups {groups:?}");
    }

    // Every sweep row opens the container into a *fresh* store (cold
    // cache, zeroed device stats), so rows are independent measurements —
    // without this, later rows would be served from the cache earlier
    // rows warmed and the worker/group comparison would be meaningless.
    let store_cfg = ShardStoreConfig {
        readahead: args.number("readahead", 256u64 << 10)?,
        ..ShardStoreConfig::default()
    };
    let container = PcrContainer::open(Path::new(dir)).map_err(|e| e.to_string())?;
    let full_group = container.num_groups().max(1);
    let requested = std::mem::take(&mut groups);
    for &g in &requested {
        let clamped = g.clamp(1, full_group);
        if !groups.contains(&clamped) {
            groups.push(clamped);
        }
    }
    if requested.iter().any(|g| !(1..=full_group).contains(g)) {
        println!(
            "container has {full_group} scan group(s): requested groups {requested:?} \
             clamped to {groups:?}"
        );
    }
    println!(
        "container {}: {} record(s), {} image(s), {} | device {} | {:?} decode",
        dir,
        container.num_records(),
        container.num_images(),
        human_bytes(container.total_data_bytes()),
        store_cfg.profile.name,
        decode,
    );

    let mut rows = Vec::new();
    println!(
        "\n{:>7} {:>5} {:>7} {:>12} {:>8} {:>9} {:>10} {:>9} {:>5} {:>5} {:>8} {:>9} {:>10} {:>11}",
        "workers",
        "group",
        "images",
        "bytes",
        "wall s",
        "img/s",
        "bytes/img",
        "hit rate",
        "io",
        "dec",
        "bound",
        "meas/pred",
        "resident",
        "addressable"
    );
    for &g in &groups {
        for &w in &workers {
            let cfg = ParallelConfig {
                loader: LoaderConfig { threads: w, scan_group: g, decode, ..LoaderConfig::default() },
                batch_size: batch,
                io,
                ..ParallelConfig::default()
            };
            let OpenedContainer { store, source, .. } =
                open_container_store(Path::new(dir), &store_cfg).map_err(|e| e.to_string())?;
            let loader = ParallelLoader::new(store.clone(), source, cfg);
            let epoch = loader.run_epoch(0);
            // Lemma A.4 over Lemma A.2 at the loader's I/O depth: the
            // decode roof is what the decode pool measured — the images
            // over its decode time per thread — the storage roof what the
            // device profile predicts for uncached reads.
            let predicted_images_per_sec = (io == IoModel::EmulatedLatency).then(|| {
                let decode_rate = match decode {
                    DecodeMode::Real => {
                        let per_thread = epoch.decode_busy_share * epoch.seconds;
                        epoch.images as f64 / per_thread.max(1e-9)
                    }
                    _ => f64::INFINITY,
                };
                queueing::system_throughput(
                    decode_rate,
                    queueing::loader_throughput_at_depth(
                        &store_cfg.profile,
                        epoch.mean_image_bytes(),
                        container.num_images() / container.num_records().max(1),
                        loader.config().prefetch_records,
                    ),
                )
            });
            let cache_hit_rate = store.cache_hit_rate();
            let row = Row {
                workers: w,
                group: g,
                epoch,
                cache_hit_rate,
                resident_bytes: store.resident_bytes(),
                total_bytes: store.total_bytes(),
                predicted_images_per_sec,
            };
            let e = &row.epoch;
            println!(
                "{:>7} {:>5} {:>7} {:>12} {:>8.3} {:>9.1} {:>10.0} {:>9.2} {:>5.2} {:>5.2} {:>8} {:>9} {:>10} {:>11}",
                w,
                g,
                e.images,
                e.bytes,
                e.seconds,
                e.images_per_sec(),
                e.mean_image_bytes(),
                cache_hit_rate,
                e.io_wait_share,
                e.decode_busy_share,
                e.bottleneck.as_str(),
                row.measured_over_predicted().map_or("-".to_string(), |r| format!("{r:.2}")),
                human_bytes(row.resident_bytes),
                human_bytes(row.total_bytes),
            );
            rows.push(row);
        }
    }

    if let Some(path) = args.value("json") {
        let json = report_json(dir, &rows);
        std::fs::write(path, json.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

impl Row {
    fn measured_over_predicted(&self) -> Option<f64> {
        self.predicted_images_per_sec.filter(|&p| p > 0.0).map(|p| self.epoch.images_per_sec() / p)
    }
}

fn report_json(dir: &str, rows: &[Row]) -> JsonValue {
    let number = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::F64);
    let entries = rows
        .iter()
        .map(|r| {
            let e = &r.epoch;
            JsonValue::object([
                ("workers", JsonValue::U64(r.workers as u64)),
                ("scan_group", JsonValue::U64(r.group as u64)),
                ("images", JsonValue::U64(e.images as u64)),
                ("bytes", JsonValue::U64(e.bytes)),
                ("wall_seconds", JsonValue::F64(e.seconds)),
                ("images_per_sec", JsonValue::F64(e.images_per_sec())),
                ("mean_image_bytes", JsonValue::F64(e.mean_image_bytes())),
                ("cache_hit_rate", JsonValue::F64(r.cache_hit_rate)),
                ("io_wait_share", JsonValue::F64(e.io_wait_share)),
                ("decode_busy_share", JsonValue::F64(e.decode_busy_share)),
                ("bottleneck", JsonValue::str(e.bottleneck.as_str())),
                ("predicted_images_per_sec", number(r.predicted_images_per_sec)),
                ("measured_over_predicted", number(r.measured_over_predicted())),
                ("resident_bytes", JsonValue::U64(r.resident_bytes)),
                ("total_bytes", JsonValue::U64(r.total_bytes)),
            ])
        })
        .collect();
    JsonValue::object([
        ("container", JsonValue::str(dir)),
        // What the byte source was, for whoever compares these rows with
        // Lemma A.2: real positional reads, not a cold device.
        ("reads", JsonValue::str("shard files, positional reads, OS page cache warm")),
        ("sweep", JsonValue::Array(entries)),
    ])
}
