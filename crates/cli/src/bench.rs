//! `pcr bench`: stream a container with the wall-clock parallel loader,
//! sweeping worker counts × scan groups, with optional JSON output. Each
//! sweep cell carries where the time went (I/O and decode shares, a
//! bottleneck verdict) and, under emulated I/O, how far the measured rate
//! sits from the Appendix A.2 prediction at the loader's I/O depth.

use crate::args::{parse, ArgSpec};
use crate::{human_bytes, smoke};
use pcr_core::container::PcrContainer;
use pcr_loader::{
    DecodeMode, IoModel, LoaderConfig, ParallelConfig, ParallelLoader, RecordSource,
    ShardStoreConfig, ShardedSource,
};
use pcr_metrics::JsonValue;
use pcr_sim::queueing;
use pcr_storage::ObjectStore;
use std::path::Path;
use std::sync::Arc;

pub const HELP: &str = "pcr bench — worker x scan-group streaming sweep over a container

USAGE:
    pcr bench <dir> [options]

OPTIONS:
    --workers <list>   Comma-separated decode worker counts (default 1,2,4)
    --groups <list>    Comma-separated scan groups (default 1,5,10)
    --batch <n>        Minibatch size (default 32)
    --decode <mode>    real | skip (default real: decode pixels)
    --io <mode>        instant | emulated (default emulated: sleep each
                       read's modeled device service time, 8 reads in
                       flight whatever the worker count)
    --readahead <b>    Store readahead in bytes (default 262144)
    --json <path>      Also write the sweep as a JSON report

Every sweep row runs against a freshly loaded store — cold cache, zeroed
device statistics — so rows are independent, comparable measurements.

Per row: `io` is the share of the I/O window's slot-time spent in device
service, `dec` the share of the decode workers' time spent decoding,
`bound` where most of the decode workers' time went — waiting for bytes
(storage), decoding (decode), or waiting for the consumer (consumer) —
and, with --io emulated, `meas/pred` is measured img/s over
min(decode rate, Lemma A.2 at the I/O depth) for a cold cache.

With PCR_BENCH_SMOKE=1 the sweep is clamped to 1,2 workers and the
lowest/highest requested groups, so CI finishes in seconds.";

const SPEC: ArgSpec = ArgSpec {
    value_flags: &["workers", "groups", "batch", "decode", "io", "readahead", "json"],
    bool_flags: &[],
};

struct Row {
    workers: usize,
    group: usize,
    images: usize,
    bytes: u64,
    wall_seconds: f64,
    images_per_sec: f64,
    mean_image_bytes: f64,
    cache_hit_rate: f64,
    io_wait_share: f64,
    decode_busy_share: f64,
    bottleneck: &'static str,
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

    // Open + verify once; the shard bytes are re-loaded into a *fresh*
    // store (cold cache, zeroed device stats) for every sweep row, so
    // rows are independent measurements — without this, later rows would
    // be served from the cache earlier rows warmed and the worker/group
    // comparison would be meaningless.
    let store_cfg = ShardStoreConfig {
        readahead: args.number("readahead", 256u64 << 10)?,
        ..ShardStoreConfig::default()
    };
    let container = PcrContainer::open(Path::new(dir)).map_err(|e| e.to_string())?;
    let mut shard_blobs = Vec::with_capacity(container.shards.len());
    for i in 0..container.shards.len() {
        let bytes = container.read_shard_verified(i).map_err(|e| e.to_string())?;
        shard_blobs.push((container.manifest.shards[i].file_name.clone(), bytes));
    }
    let source = Arc::new(ShardedSource::from_container(&container).map_err(|e| e.to_string())?);
    let fresh_store = || {
        let store =
            Arc::new(ObjectStore::with_cache(store_cfg.profile.clone(), store_cfg.cache_bytes));
        store.set_readahead(store_cfg.readahead);
        for (name, bytes) in &shard_blobs {
            store.put(name, bytes.clone());
        }
        store
    };
    println!(
        "container {}: {} record(s), {} image(s), {} | device {} | {:?} decode",
        dir,
        source.num_records(),
        source.num_images(),
        human_bytes(container.total_data_bytes()),
        store_cfg.profile.name,
        decode,
    );

    let mut rows = Vec::new();
    println!(
        "\n{:>7} {:>5} {:>7} {:>12} {:>8} {:>9} {:>10} {:>9} {:>5} {:>5} {:>8} {:>9}",
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
        "meas/pred"
    );
    for &g in &groups {
        for &w in &workers {
            let cfg = ParallelConfig {
                loader: LoaderConfig { threads: w, scan_group: g, decode, ..LoaderConfig::default() },
                batch_size: batch,
                io,
                ..ParallelConfig::default()
            };
            let store = fresh_store();
            let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&source), cfg);
            let epoch = loader.run_epoch(0);
            // Lemma A.4 over Lemma A.2 at the loader's I/O depth: the
            // decode roof is what the workers measured, the storage roof
            // what the device profile predicts for uncached reads.
            let predicted_images_per_sec = (io == IoModel::EmulatedLatency).then(|| {
                let decode_rate = match decode {
                    DecodeMode::Real => {
                        w as f64 * epoch.images as f64 / epoch.decode_cpu_seconds.max(1e-9)
                    }
                    _ => f64::INFINITY,
                };
                queueing::system_throughput(
                    decode_rate,
                    queueing::loader_throughput_at_depth(
                        &store_cfg.profile,
                        epoch.mean_image_bytes(),
                        source.num_images() / source.num_records().max(1),
                        loader.config().prefetch_records,
                    ),
                )
            });
            let row = Row {
                workers: w,
                group: g,
                images: epoch.images,
                bytes: epoch.bytes,
                wall_seconds: epoch.wall_seconds,
                images_per_sec: epoch.images_per_sec(),
                mean_image_bytes: epoch.mean_image_bytes(),
                cache_hit_rate: store.cache_hit_rate(),
                io_wait_share: epoch.io_wait_share,
                decode_busy_share: epoch.decode_busy_share,
                bottleneck: epoch.bottleneck.as_str(),
                predicted_images_per_sec,
            };
            println!(
                "{:>7} {:>5} {:>7} {:>12} {:>8.3} {:>9.1} {:>10.0} {:>9.2} {:>5.2} {:>5.2} {:>8} {:>9}",
                row.workers,
                row.group,
                row.images,
                row.bytes,
                row.wall_seconds,
                row.images_per_sec,
                row.mean_image_bytes,
                row.cache_hit_rate,
                row.io_wait_share,
                row.decode_busy_share,
                row.bottleneck,
                row.measured_over_predicted().map_or("-".to_string(), |r| format!("{r:.2}"))
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
        self.predicted_images_per_sec.filter(|&p| p > 0.0).map(|p| self.images_per_sec / p)
    }
}

fn report_json(dir: &str, rows: &[Row]) -> JsonValue {
    let number = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::F64);
    let entries = rows
        .iter()
        .map(|r| {
            JsonValue::object([
                ("workers", JsonValue::U64(r.workers as u64)),
                ("scan_group", JsonValue::U64(r.group as u64)),
                ("images", JsonValue::U64(r.images as u64)),
                ("bytes", JsonValue::U64(r.bytes)),
                ("wall_seconds", JsonValue::F64(r.wall_seconds)),
                ("images_per_sec", JsonValue::F64(r.images_per_sec)),
                ("mean_image_bytes", JsonValue::F64(r.mean_image_bytes)),
                ("cache_hit_rate", JsonValue::F64(r.cache_hit_rate)),
                ("io_wait_share", JsonValue::F64(r.io_wait_share)),
                ("decode_busy_share", JsonValue::F64(r.decode_busy_share)),
                ("bottleneck", JsonValue::str(r.bottleneck)),
                ("predicted_images_per_sec", number(r.predicted_images_per_sec)),
                ("measured_over_predicted", number(r.measured_over_predicted())),
            ])
        })
        .collect();
    JsonValue::object([
        ("container", JsonValue::str(dir)),
        ("sweep", JsonValue::Array(entries)),
    ])
}
