//! Catalog scale benchmark: proves `PcrContainer::open` stays O(shards),
//! not O(records), as the catalog grows from 10k to 1M records — the
//! number the columnar (v3) shard footer exists to hold flat.
//!
//! The dataset is fabricated, not encoded: each "record" is a small stub
//! blob with a real `RecordMeta` row, because this bench measures the
//! *catalog* path (manifest + footer + lazy entry resolution), which
//! never decodes a JPEG. Shard count is pinned at 8 across all scales so
//! records-per-shard is the only thing growing; an eager row-footer open
//! would scale linearly with it, the lazy columnar open must not.
//!
//! Per scale it measures:
//!
//! * **open latency** — best-of-N `PcrContainer::open` wall time;
//! * **first-record latency** — `entry(k)` + `read_record` on the opened
//!   container (the time-to-first-sample a loader sees);
//! * **index bytes** — `index_bytes_read()` after open and after the
//!   first entry: the lazy path's actual footer I/O;
//! * **epoch-order footprint** — `size_of::<EpochOrder>()` against the
//!   `n × 8` bytes a materialized Fisher–Yates permutation would hold;
//! * **RSS delta** across open (Linux `/proc/self/statm`, best-effort).
//!
//! A second, **store arm** proves the other half of a bounded open: that
//! `open_container_store` (with `verify: true`) plus one epoch holds
//! memory that does not grow with the container's *data bytes*. It
//! fabricates containers of same-sized records at 1× and 16× data bytes,
//! opens each as a store, streams one `DecodeMode::Skip` epoch through
//! the wall-clock loader, and records the RSS delta across open + epoch.
//!
//! Outputs and gating:
//!
//! * writes a fresh `target/BENCH_catalog.json`;
//! * **fails** when best-of open latency at the largest scale exceeds
//!   `FLATNESS_GATE` (2.0) × the smallest scale's, with a small absolute
//!   slack so microsecond-level noise can't flake CI. A committed
//!   `BENCH_catalog.json` at the repo root records the trajectory;
//! * **fails** when the store arm's RSS delta at 16× data bytes exceeds
//!   `STORE_RSS_GATE` (1.2) × the 1× delta plus `STORE_RSS_SLACK`, or
//!   when the store's own `resident_bytes()` exceeds its free-list bound.
//!
//! `PCR_BENCH_SMOKE=1` (CI) shrinks the scales to 1k/5k/20k so the run
//! finishes in seconds; the flatness gates still apply (the store arm is
//! the same size either way).

use pcr_core::container::{write_container, PcrContainer};
use pcr_core::{MetaDb, PcrDataset, RecordMeta};
use pcr_loader::{
    open_container_store, DecodeMode, EpochOrder, LoaderConfig, ParallelConfig, ParallelLoader,
    ShardStoreConfig,
};
use pcr_metrics::JsonValue;
use std::time::Instant;

/// Shard count held constant across scales: growth lands entirely in
/// records-per-shard, the dimension an O(records) open would scale with.
const SHARDS: usize = 8;

/// Open-latency flatness gate: largest-scale open must stay under this
/// multiple of the smallest-scale open (plus [`SLACK_SECS`]).
const FLATNESS_GATE: f64 = 2.0;

/// Absolute slack on the flatness gate. Opens are O(8 shards) ≈ tens of
/// microseconds; without a floor, scheduler jitter alone could trip a
/// 2× ratio between two sub-millisecond numbers.
const SLACK_SECS: f64 = 0.5e-3;

/// Store arm: record payload length. Above glibc's 128 KiB mmap
/// threshold on purpose — the fabricated dataset's blobs are then mapped
/// one by one and unmapped when it drops, so RSS is back at its floor
/// before the measured open instead of sitting in the allocator's free
/// lists where the store's reads could hide in it.
const STORE_RECORD_LEN: usize = 160 << 10;

/// Store arm: records at 1× and 16× data bytes (5 MiB and 80 MiB). The
/// small one already has more records than the loader's prefetch window
/// and the store's free list hold, so both epochs reach steady state.
const STORE_SCALES: [usize; 2] = [32, 512];

/// Store-arm gate: RSS growth across open + one epoch at 16× data bytes
/// must stay under this multiple of the 1× growth (plus
/// [`STORE_RSS_SLACK`]).
const STORE_RSS_GATE: f64 = 1.2;

/// Absolute slack on the store gate: the delta is a few MiB of read
/// buffers and thread arenas and moves by about one MiB between runs. A
/// store that held the dataset would overshoot by the 75 MiB between the
/// scales.
const STORE_RSS_SLACK: u64 = 2 << 20;

/// Timed repetitions per measurement; best-of filters preemption noise.
const REPS: usize = 11;

/// Scan groups in the fabricated records (small on purpose — the catalog
/// path is group-count-agnostic, and fewer groups keep the 1M-record
/// fabrication fast).
const NUM_GROUPS: usize = 2;

/// Stub record payload length. Real records are megabytes; the catalog
/// never reads past the first record here, so bytes are ballast.
const RECORD_LEN: usize = 24;

fn smoke() -> bool {
    std::env::var_os("PCR_BENCH_SMOKE").is_some()
}

/// Fabricates an `n`-record dataset of `record_len`-byte stub blobs with
/// real metadata rows. Deterministic; no encoder in the loop.
fn fabricate(n: usize, record_len: usize) -> PcrDataset {
    let mut records = Vec::with_capacity(n);
    let mut metas = Vec::with_capacity(n);
    for i in 0..n {
        let mut blob = vec![0u8; record_len];
        for (j, b) in blob.iter_mut().enumerate() {
            *b = (i.wrapping_mul(31).wrapping_add(j * 7) & 0xFF) as u8;
        }
        records.push(blob);
        metas.push(RecordMeta {
            name: format!("r{i:07}"),
            num_images: 1,
            // [headers, half, full]: monotone, last == blob length.
            group_offsets: vec![4, (record_len / 2) as u64, record_len as u64],
            labels: vec![(i % 10) as u32],
        });
    }
    debug_assert_eq!(metas.first().map(|m| m.group_offsets.len()), Some(NUM_GROUPS + 1));
    PcrDataset { records, db: MetaDb { records: metas } }
}

/// Resident-set size in bytes from `/proc/self/statm` (Linux; `None`
/// elsewhere). Field 2 is resident pages.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

struct ScaleRow {
    records: usize,
    open_secs: f64,
    first_record_secs: f64,
    open_index_bytes: u64,
    first_record_index_bytes: u64,
    rss_delta_bytes: Option<u64>,
    epoch_order_bytes: usize,
    materialized_order_bytes: u64,
}

fn measure_scale(n: usize) -> ScaleRow {
    let dir = std::env::temp_dir().join(format!("pcr-catalog-scale-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = fabricate(n, RECORD_LEN);
    let records_per_shard = n.div_ceil(SHARDS);
    write_container(&ds, &dir, records_per_shard).expect("pack stub container");
    drop(ds); // the catalog path must not depend on in-memory records

    let rss_before = rss_bytes();
    let mut open_best = f64::INFINITY;
    let mut container = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let c = PcrContainer::open(&dir).expect("open container");
        open_best = open_best.min(t0.elapsed().as_secs_f64());
        container = Some(c);
    }
    let container = container.expect("at least one open rep");
    let rss_after = rss_bytes();
    let open_index_bytes = container.index_bytes_read();

    // First-record latency: resolve + read one record per rep, spread
    // across the catalog so no rep re-reads another's footer columns.
    let mut first_best = f64::INFINITY;
    for r in 0..REPS {
        let k = (n / REPS).max(1).wrapping_mul(r) % n;
        let t0 = Instant::now();
        let (shard, rec) = container.entry(k).expect("entry resolves");
        let bytes = container.read_record(shard, &rec).expect("record bytes");
        first_best = first_best.min(t0.elapsed().as_secs_f64());
        assert_eq!(bytes.len(), RECORD_LEN);
    }
    let first_record_index_bytes = container.index_bytes_read() - open_index_bytes;

    // Streaming shuffle footprint: the Feistel order is a fixed-size
    // struct at any n; a materialized permutation is 8 bytes per record.
    let order = EpochOrder::shuffled(n, 0x5eed, 3);
    assert_eq!(order.num_records(), n);
    let epoch_order_bytes = std::mem::size_of::<EpochOrder>();

    std::fs::remove_dir_all(&dir).expect("cleanup");
    ScaleRow {
        records: n,
        open_secs: open_best,
        first_record_secs: first_best,
        open_index_bytes,
        first_record_index_bytes,
        rss_delta_bytes: match (rss_before, rss_after) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        },
        epoch_order_bytes,
        materialized_order_bytes: n as u64 * 8,
    }
}

struct StoreRow {
    records: usize,
    data_bytes: u64,
    total_bytes: u64,
    resident_bytes: u64,
    rss_delta_bytes: Option<u64>,
}

/// The store arm at one scale: pack `n` same-sized records, then measure
/// what a verified `open_container_store` plus one full-group
/// `DecodeMode::Skip` epoch adds to the process's resident set.
fn measure_store(n: usize) -> StoreRow {
    let dir = std::env::temp_dir().join(format!("pcr-catalog-store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = fabricate(n, STORE_RECORD_LEN);
    write_container(&ds, &dir, n.div_ceil(SHARDS)).expect("pack store-arm container");
    drop(ds);

    let rss_before = rss_bytes();
    let opened = open_container_store(&dir, &ShardStoreConfig { verify: true, ..Default::default() })
        .expect("open container store");
    let loader = ParallelLoader::new(
        opened.store.clone(),
        opened.source.clone(),
        ParallelConfig {
            loader: LoaderConfig { decode: DecodeMode::Skip, ..LoaderConfig::at_group(NUM_GROUPS) },
            ..ParallelConfig::default()
        },
    );
    let epoch = loader.run_epoch(0);
    let rss_after = rss_bytes();
    assert_eq!(epoch.images, n, "the epoch delivers every record");
    assert_eq!(epoch.bytes, (n * STORE_RECORD_LEN) as u64, "and reads every byte of it");

    let row = StoreRow {
        records: n,
        data_bytes: opened.container.total_data_bytes(),
        total_bytes: opened.store.total_bytes(),
        resident_bytes: opened.store.resident_bytes(),
        rss_delta_bytes: match (rss_before, rss_after) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        },
    };
    std::fs::remove_dir_all(&dir).expect("cleanup");
    row
}

/// Extracts `"<key>":<number>` following `"<section>":{` in a committed
/// BENCH_catalog.json (machine-written by this bench; positional scan).
fn committed_field(text: &str, section: &str, key: &str) -> Option<f64> {
    let sec = text.find(&format!("\"{section}\""))?;
    let tail = &text[sec..];
    let pat = format!("\"{key}\":");
    let at = tail.find(&pat)?;
    let num = &tail[at + pat.len()..];
    let end = num.find([',', '}'])?;
    num[..end].trim().parse().ok()
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        return; // `cargo test --benches` compiles + smoke-invokes only
    }
    let scales: &[usize] =
        if smoke() { &[1_000, 5_000, 20_000] } else { &[10_000, 100_000, 1_000_000] };

    let mut rows = Vec::new();
    println!(
        "{:>9} {:>10} {:>12} {:>11} {:>13} {:>11} {:>12}",
        "records", "open µs", "1st-rec µs", "open idx B", "1st-rec idx B", "order B", "vs mater. B"
    );
    for &n in scales {
        let row = measure_scale(n);
        println!(
            "{:>9} {:>10.1} {:>12.1} {:>11} {:>13} {:>11} {:>12}",
            row.records,
            row.open_secs * 1e6,
            row.first_record_secs * 1e6,
            row.open_index_bytes,
            row.first_record_index_bytes,
            row.epoch_order_bytes,
            row.materialized_order_bytes,
        );
        rows.push(row);
    }

    let first = rows.first().expect("at least one scale");
    let last = rows.last().expect("at least one scale");
    let ratio = if first.open_secs > 0.0 { last.open_secs / first.open_secs } else { 0.0 };
    println!(
        "open latency {}x records -> {ratio:.2}x time (gate {FLATNESS_GATE:.1}x + {:.1}ms slack)",
        last.records / first.records.max(1),
        SLACK_SECS * 1e3,
    );

    println!(
        "\n{:>9} {:>12} {:>14} {:>14} {:>12}",
        "records", "data bytes", "addressable B", "resident B", "rss delta B"
    );
    let store_rows: Vec<StoreRow> = STORE_SCALES.iter().map(|&n| measure_store(n)).collect();
    for r in &store_rows {
        println!(
            "{:>9} {:>12} {:>14} {:>14} {:>12}",
            r.records,
            r.data_bytes,
            r.total_bytes,
            r.resident_bytes,
            r.rss_delta_bytes.map_or("-".to_string(), |d| d.to_string()),
        );
    }
    let (store_first, store_last) = (&store_rows[0], &store_rows[store_rows.len() - 1]);
    let store_rss_ratio = match (store_first.rss_delta_bytes, store_last.rss_delta_bytes) {
        (Some(a), Some(b)) if a > 0 => Some(b as f64 / a as f64),
        _ => None,
    };
    println!(
        "store open + epoch: {}x data bytes -> {} RSS delta (gate {STORE_RSS_GATE:.1}x + {} KiB slack)",
        store_last.data_bytes / store_first.data_bytes.max(1),
        store_rss_ratio.map_or("unmeasured".to_string(), |r| format!("{r:.2}x")),
        STORE_RSS_SLACK >> 10,
    );

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let committed = std::fs::read_to_string(format!("{root}/BENCH_catalog.json")).ok();
    let committed_ratio =
        committed.as_deref().and_then(|t| committed_field(t, "flatness", "open_ratio"));

    let scale_entries = rows
        .iter()
        .map(|r| {
            JsonValue::object([
                ("records", JsonValue::U64(r.records as u64)),
                ("open_us", JsonValue::F64(r.open_secs * 1e6)),
                ("first_record_us", JsonValue::F64(r.first_record_secs * 1e6)),
                ("open_index_bytes", JsonValue::U64(r.open_index_bytes)),
                ("first_record_index_bytes", JsonValue::U64(r.first_record_index_bytes)),
                (
                    "rss_delta_bytes",
                    r.rss_delta_bytes.map_or(JsonValue::Null, JsonValue::U64),
                ),
                ("epoch_order_bytes", JsonValue::U64(r.epoch_order_bytes as u64)),
                ("materialized_order_bytes", JsonValue::U64(r.materialized_order_bytes)),
            ])
        })
        .collect();
    let doc = JsonValue::object([
        ("bench", JsonValue::str("catalog_scale")),
        ("shards", JsonValue::U64(SHARDS as u64)),
        ("smoke", JsonValue::Bool(smoke())),
        ("scales", JsonValue::Array(scale_entries)),
        (
            "store",
            JsonValue::object([
                ("record_bytes", JsonValue::U64(STORE_RECORD_LEN as u64)),
                (
                    "scales",
                    JsonValue::Array(
                        store_rows
                            .iter()
                            .map(|r| {
                                JsonValue::object([
                                    ("records", JsonValue::U64(r.records as u64)),
                                    ("data_bytes", JsonValue::U64(r.data_bytes)),
                                    ("total_bytes", JsonValue::U64(r.total_bytes)),
                                    ("resident_bytes", JsonValue::U64(r.resident_bytes)),
                                    (
                                        "rss_delta_bytes",
                                        r.rss_delta_bytes.map_or(JsonValue::Null, JsonValue::U64),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("rss_ratio", store_rss_ratio.map_or(JsonValue::Null, JsonValue::F64)),
                ("gate", JsonValue::F64(STORE_RSS_GATE)),
            ]),
        ),
        (
            "flatness",
            JsonValue::object([
                ("open_ratio", JsonValue::F64(ratio)),
                ("gate", JsonValue::F64(FLATNESS_GATE)),
                (
                    "committed_open_ratio",
                    committed_ratio.map_or(JsonValue::Null, JsonValue::F64),
                ),
            ]),
        ),
    ]);
    let out = format!("{root}/target/BENCH_catalog.json");
    match std::fs::write(&out, doc.render() + "\n") {
        Ok(()) => println!("measurement written to {out}"),
        Err(e) => println!("could not write {out}: {e}"),
    }

    // The flatness gate: open must not scale with the record count. The
    // absolute slack keeps microsecond-level numbers from flaking; any
    // real O(records) regression at 100x scale blows through both.
    assert!(
        last.open_secs <= first.open_secs * FLATNESS_GATE + SLACK_SECS,
        "container open latency scales with record count: {} records opened in \
         {:.1}us but {} records took {:.1}us ({ratio:.2}x, gate {FLATNESS_GATE:.1}x); \
         the columnar lazy-open path has regressed to O(records)",
        first.records,
        first.open_secs * 1e6,
        last.records,
        last.open_secs * 1e6,
    );

    // The lazy index must not read footer columns at open time, and a
    // single entry resolution must read a bounded number of bytes —
    // independent of the catalog size.
    assert_eq!(
        last.open_index_bytes, 0,
        "open read {} footer-column bytes; the v3 open path must defer all \
         column reads to entry()",
        last.open_index_bytes
    );
    assert!(
        last.first_record_index_bytes <= 4096,
        "resolving one record read {} index bytes at {} records; entry() has \
         regressed from O(1) column probes",
        last.first_record_index_bytes,
        last.records
    );
    assert!(
        last.epoch_order_bytes as u64 <= 64.min(last.materialized_order_bytes),
        "EpochOrder is {} bytes; the streaming shuffle must stay a fixed-size \
         struct, not a materialized permutation",
        last.epoch_order_bytes
    );

    // The store gates: what a verified open plus an epoch keeps resident
    // must not scale with the container's data bytes. The store's own
    // count is exact and portable; the RSS delta is the process's view of
    // the same thing (Linux only).
    let pool_bound = (pcr_storage::bytes::POOL_CAP * STORE_RECORD_LEN) as u64;
    for r in &store_rows {
        assert!(
            r.resident_bytes <= pool_bound,
            "store over {} data bytes keeps {} bytes resident, more than its free list \
             can park ({pool_bound}); it is holding record data",
            r.data_bytes,
            r.resident_bytes,
        );
    }
    if let (Some(small), Some(large)) = (store_first.rss_delta_bytes, store_last.rss_delta_bytes) {
        assert!(
            large as f64 <= small as f64 * STORE_RSS_GATE + STORE_RSS_SLACK as f64,
            "open_container_store + one epoch grew RSS by {small} bytes over {} data bytes \
             but by {large} over {} ({:.2}x, gate {STORE_RSS_GATE:.1}x + {STORE_RSS_SLACK} \
             bytes); resident memory is scaling with the dataset",
            store_first.data_bytes,
            store_last.data_bytes,
            large as f64 / small.max(1) as f64,
        );
    }
}
