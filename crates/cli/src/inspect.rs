//! `pcr inspect`: manifest, shard, and record views of a container,
//! including the per-scan-group fidelity byte breakdown.

use crate::args::{parse, ArgSpec};
use crate::human_bytes;
use pcr_core::container::PcrContainer;
use pcr_metrics::JsonValue;
use std::path::Path;

pub const HELP: &str = "pcr inspect — look inside a sharded PCR container

USAGE:
    pcr inspect <dir> [options]

OPTIONS:
    --shard <i>     Show shard i's record table instead of the manifest view
    --record <j>    Show global record j's per-scan-group byte layout
    --trace         Show the container's fidelity decision log: one row
                    per controller decision (trigger, scan group, probe
                    scores, bytes saved vs fixed fidelity)
    --epochs <r>    With --trace: only epochs in <r> — a single epoch
                    (\"40\") or a half-open range (\"32..48\", \"..8\", \"40..\")
    --trigger <t>   With --trace: only records with this trigger kind
                    (start | hold | plateau | retune | fixed | degraded)
    --verify        Stream every shard through a 64 KiB buffer and verify
                    its footer and all record checksums (and the
                    decision-log CRC chain, when present)
    --json          Emit the selected view as JSON on stdout

The default (manifest) view ends with the fidelity byte breakdown: for
every scan group, the bytes one epoch reads and the fraction of the
full-quality traffic they represent. The --trace view answers \"why did
fidelity change at epoch N\" from the container alone: what the
controller saw (probe scores, loss), why it acted (trigger kind), and
what the decision cost or saved.";

const SPEC: ArgSpec = ArgSpec {
    value_flags: &["shard", "record", "epochs", "trigger"],
    bool_flags: &["verify", "json", "trace"],
};

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv, &SPEC)?;
    let dir = args.positional.first().ok_or("usage: pcr inspect <dir> [options]")?;
    let container = PcrContainer::open(Path::new(dir)).map_err(|e| e.to_string())?;

    if args.flag("verify") {
        container.verify().map_err(|e| e.to_string())?;
        if !args.flag("json") {
            println!(
                "integrity OK: {} shard(s), {} record(s) verified",
                container.shards.len(),
                container.num_records()
            );
        }
    }

    if !args.flag("trace") && (args.value("epochs").is_some() || args.value("trigger").is_some())
    {
        return Err("--epochs/--trigger filter the decision log; add --trace".into());
    }

    let doc = if args.flag("trace") {
        trace_view(&container, &args)?
    } else if let Some(shard) = args.value("shard") {
        let i: usize = shard.parse().map_err(|_| format!("--shard: not an index: {shard}"))?;
        shard_view(&container, i, args.flag("json"))?
    } else if let Some(record) = args.value("record") {
        let j: usize =
            record.parse().map_err(|_| format!("--record: not an index: {record}"))?;
        record_view(&container, j, args.flag("json"))?
    } else {
        manifest_view(&container, args.flag("json"))?
    };
    if let Some(json) = doc {
        println!("{}", json.render());
    }
    Ok(())
}

/// Parses an `--epochs` filter: a single epoch (`"40"`) or a half-open
/// range (`"32..48"`, `"..8"`, `"40.."`). Returns `(start, end)` with
/// `start` inclusive and `end` exclusive.
fn parse_epoch_range(s: &str) -> Result<(u64, u64), String> {
    let bad = |part: &str| format!("--epochs: not an epoch index: {part:?}");
    if let Some((a, b)) = s.split_once("..") {
        let lo = if a.is_empty() { 0 } else { a.parse().map_err(|_| bad(a))? };
        let hi = if b.is_empty() { u64::MAX } else { b.parse().map_err(|_| bad(b))? };
        Ok((lo, hi))
    } else {
        let n: u64 = s.parse().map_err(|_| bad(s))?;
        Ok((n, n.saturating_add(1)))
    }
}

/// The `--trace` view: the container's durable fidelity decision log
/// (FORMAT.md §7), optionally filtered by epoch range and trigger kind,
/// with a bytes-saved-vs-fixed-fidelity rollup over the selection.
fn trace_view(
    container: &PcrContainer,
    args: &crate::args::Parsed,
) -> Result<Option<JsonValue>, String> {
    use pcr_core::declog::DecisionLog;
    use pcr_metrics::TriggerKind;

    let json = args.flag("json");
    let (lo, hi) = match args.value("epochs") {
        Some(r) => parse_epoch_range(r)?,
        None => (0, u64::MAX),
    };
    let trigger = match args.value("trigger") {
        Some(t) => Some(TriggerKind::from_name(t).ok_or_else(|| {
            format!(
                "--trigger: unknown kind {t:?} \
                 (start | hold | plateau | retune | fixed | degraded)"
            )
        })?),
        None => None,
    };

    let log: Option<DecisionLog> = container.decision_log().map_err(|e| e.to_string())?;
    let Some(log) = log else {
        if json {
            return Ok(Some(JsonValue::object([("present", JsonValue::Bool(false))])));
        }
        println!(
            "no decision log in {} — run `pcr train {} --dynamic` to record one",
            container.dir.display(),
            container.dir.display()
        );
        return Ok(None);
    };
    let chain = log.verify();
    let selected: Vec<_> = log
        .records()
        .iter()
        .filter(|r| (lo..hi).contains(&r.epoch) && trigger.is_none_or(|t| r.trigger == t))
        .collect();
    let (read, full) = DecisionLog::rollup(selected.iter().copied());
    let saved = full.saturating_sub(read);
    let saved_frac = if full > 0 { saved as f64 / full as f64 } else { 0.0 };

    if json {
        let records = selected
            .iter()
            .map(|r| {
                let probes = r
                    .probe_scores
                    .iter()
                    .map(|&(g, s)| {
                        JsonValue::object([
                            ("group", JsonValue::U64(u64::from(g))),
                            ("score", JsonValue::F64(s)),
                        ])
                    })
                    .collect();
                JsonValue::object([
                    ("epoch", JsonValue::U64(r.epoch)),
                    ("trigger", JsonValue::str(r.trigger.name())),
                    ("scan_group", JsonValue::U64(u64::from(r.scan_group))),
                    ("probe_scores", JsonValue::Array(probes)),
                    ("bytes_read", JsonValue::U64(r.bytes_read)),
                    ("bytes_full", JsonValue::U64(r.bytes_full)),
                    ("bytes_saved", JsonValue::U64(r.bytes_saved())),
                    ("images", JsonValue::U64(r.images)),
                    ("cache_hit_rate", JsonValue::F64(r.cache_hit_rate)),
                    ("loss", JsonValue::F64(r.loss)),
                ])
            })
            .collect();
        return Ok(Some(JsonValue::object([
            ("present", JsonValue::Bool(true)),
            ("total_records", JsonValue::U64(log.len() as u64)),
            ("chain_intact", JsonValue::Bool(chain.is_ok())),
            ("records", JsonValue::Array(records)),
            (
                "rollup",
                JsonValue::object([
                    ("bytes_read", JsonValue::U64(read)),
                    ("bytes_full", JsonValue::U64(full)),
                    ("bytes_saved", JsonValue::U64(saved)),
                    ("saved_fraction", JsonValue::F64(saved_frac)),
                ]),
            ),
        ])));
    }

    match &chain {
        Ok(()) => println!(
            "decision log {}: {} record(s), chain intact",
            container.decision_log_path().display(),
            log.len()
        ),
        Err(e) => println!(
            "decision log {}: {} record(s), CHAIN BROKEN: {e}",
            container.decision_log_path().display(),
            log.len()
        ),
    }
    if selected.len() != log.len() {
        println!("  showing {} of {} record(s) after filters", selected.len(), log.len());
    }
    println!(
        "  {:>6} {:<8} {:>5} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "epoch", "trigger", "group", "bytes read", "bytes full", "saved", "hit rate", "loss"
    );
    let mut last_probes: Option<&[(u16, f64)]> = None;
    for r in &selected {
        // Probe scores repeat across epochs of one run; print them only
        // when they change (a new run or a re-probe).
        if !r.probe_scores.is_empty() && last_probes != Some(r.probe_scores.as_slice()) {
            let rendered: Vec<String> =
                r.probe_scores.iter().map(|(g, s)| format!("{g}:{s:.4}")).collect();
            println!("  probes @ epoch {}: {}", r.epoch, rendered.join(" "));
            last_probes = Some(r.probe_scores.as_slice());
        }
        println!(
            "  {:>6} {:<8} {:>5} {:>12} {:>12} {:>12} {:>9.2} {:>9.4}",
            r.epoch,
            r.trigger.name(),
            r.scan_group,
            r.bytes_read,
            r.bytes_full,
            r.bytes_saved(),
            r.cache_hit_rate,
            r.loss
        );
    }
    println!(
        "\n  rollup: read {} ({}), fixed-fidelity {} ({}) — saved {} ({:.1}%)",
        read,
        human_bytes(read),
        full,
        human_bytes(full),
        human_bytes(saved),
        saved_frac * 100.0
    );
    Ok(None)
}

/// Per-scan-group `(bytes, fraction of full)` rows — answered from the
/// manifest's zone-map stats for columnar containers, so no footer reads.
fn fidelity_rows(container: &PcrContainer) -> Result<Vec<(usize, u64, f64)>, String> {
    let full = container.total_data_bytes().max(1);
    (0..=container.num_groups())
        .map(|g| {
            let bytes = container.bytes_at_group(g).map_err(|e| e.to_string())?;
            Ok((g, bytes, bytes as f64 / full as f64))
        })
        .collect()
}

fn manifest_view(
    container: &PcrContainer,
    json: bool,
) -> Result<Option<JsonValue>, String> {
    let m = &container.manifest;
    if json {
        let shards = m
            .shards
            .iter()
            .map(|s| {
                JsonValue::object([
                    ("file", JsonValue::str(&*s.file_name)),
                    ("file_bytes", JsonValue::U64(s.file_len)),
                    ("records", JsonValue::U64(u64::from(s.records))),
                    ("images", JsonValue::U64(u64::from(s.images))),
                    ("footer_crc32", JsonValue::str(format!("{:#010x}", s.footer_crc))),
                ])
            })
            .collect();
        let fidelity = fidelity_rows(container)?
            .into_iter()
            .map(|(g, bytes, frac)| {
                JsonValue::object([
                    ("scan_group", JsonValue::U64(g as u64)),
                    ("epoch_bytes", JsonValue::U64(bytes)),
                    ("fraction_of_full", JsonValue::F64(frac)),
                ])
            })
            .collect();
        return Ok(Some(JsonValue::object([
            ("dir", JsonValue::str(container.dir.display().to_string())),
            ("version", JsonValue::U64(u64::from(m.version))),
            ("num_groups", JsonValue::U64(u64::from(m.num_groups))),
            ("records", JsonValue::U64(container.num_records() as u64)),
            ("images", JsonValue::U64(container.num_images() as u64)),
            ("data_bytes", JsonValue::U64(container.total_data_bytes())),
            ("file_bytes", JsonValue::U64(m.total_file_bytes())),
            ("shards", JsonValue::Array(shards)),
            ("fidelity", JsonValue::Array(fidelity)),
        ])));
    }
    println!("container {}", container.dir.display());
    println!(
        "  format v{}, {} scan groups | {} shard(s), {} record(s), {} image(s)",
        m.version,
        m.num_groups,
        m.shards.len(),
        container.num_records(),
        container.num_images()
    );
    println!(
        "  {} record data in {} of shard files",
        human_bytes(container.total_data_bytes()),
        human_bytes(m.total_file_bytes())
    );
    println!("\n  {:<24} {:>12} {:>8} {:>8}", "shard", "bytes", "records", "images");
    for s in &m.shards {
        println!(
            "  {:<24} {:>12} {:>8} {:>8}",
            s.file_name, s.file_len, s.records, s.images
        );
    }
    println!("\n  fidelity byte breakdown (one epoch of reads per scan group):");
    println!("  {:>5} {:>14} {:>10} {:>9}", "group", "bytes", "", "of full");
    for (g, bytes, frac) in fidelity_rows(container)? {
        println!(
            "  {:>5} {:>14} {:>10} {:>8.1}%",
            g,
            bytes,
            human_bytes(bytes),
            frac * 100.0
        );
    }
    Ok(None)
}

fn shard_view(
    container: &PcrContainer,
    i: usize,
    json: bool,
) -> Result<Option<JsonValue>, String> {
    let shard = container.shards.get(i).ok_or(format!(
        "shard {i} out of range (container has {})",
        container.shards.len()
    ))?;
    let entries = shard
        .entries()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if json {
        let records = entries
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("name", JsonValue::str(&*r.name)),
                    ("offset", JsonValue::U64(r.offset)),
                    ("bytes", JsonValue::U64(r.len())),
                    ("images", JsonValue::U64(u64::from(r.num_images))),
                    (
                        "labels",
                        JsonValue::Array(
                            r.labels.iter().map(|&l| JsonValue::U64(u64::from(l))).collect(),
                        ),
                    ),
                    ("crc32", JsonValue::str(format!("{:#010x}", r.crc32))),
                ])
            })
            .collect();
        return Ok(Some(JsonValue::object([
            ("file", JsonValue::str(&*shard.file_name)),
            ("file_bytes", JsonValue::U64(shard.file_len)),
            ("records", JsonValue::Array(records)),
        ])));
    }
    println!("shard {} ({}, {})", i, shard.file_name, human_bytes(shard.file_len));
    println!(
        "  {:<20} {:>10} {:>10} {:>7} {:>11}  labels",
        "record", "offset", "bytes", "images", "crc32"
    );
    for r in &entries {
        println!(
            "  {:<20} {:>10} {:>10} {:>7} {:>#11x}  {:?}",
            r.name,
            r.offset,
            r.len(),
            r.num_images,
            r.crc32,
            r.labels
        );
    }
    Ok(None)
}

fn record_view(
    container: &PcrContainer,
    j: usize,
    json: bool,
) -> Result<Option<JsonValue>, String> {
    // Lazy entry resolution + a single ranged record read: bytes touched
    // stay O(record), independent of how big the shard or catalog is.
    let (shard_idx, rec) = container.entry(j).map_err(|e| e.to_string())?;
    let shard_file = &container.manifest.shards[shard_idx].file_name;
    let groups: Vec<(usize, u64, u64)> = (0..rec.group_offsets.len())
        .map(|g| {
            let cumulative = rec.group_offsets[g];
            let delta = if g == 0 { cumulative } else { cumulative - rec.group_offsets[g - 1] };
            (g, cumulative, delta)
        })
        .collect();
    // Restart-entropy layout: parse the record bytes and count segments
    // per scan group (summed over the record's images).
    let rec_bytes = container.read_record(shard_idx, &rec).map_err(|e| e.to_string())?;
    let parsed = pcr_core::PcrRecord::parse(&rec_bytes).map_err(|e| e.to_string())?;
    let restart_interval = parsed.restart_interval();
    let segment_counts: Vec<usize> = (1..=parsed.num_groups())
        .map(|g| {
            (0..parsed.num_images()).map(|i| parsed.segment_count(i, g).unwrap_or(0)).sum()
        })
        .collect();
    if json {
        let group_rows = groups
            .iter()
            .map(|&(g, cumulative, delta)| {
                JsonValue::object([
                    ("scan_group", JsonValue::U64(g as u64)),
                    ("prefix_bytes", JsonValue::U64(cumulative)),
                    ("group_bytes", JsonValue::U64(delta)),
                ])
            })
            .collect();
        return Ok(Some(JsonValue::object([
            ("name", JsonValue::str(&*rec.name)),
            ("shard", JsonValue::str(&**shard_file)),
            ("offset", JsonValue::U64(rec.offset)),
            ("bytes", JsonValue::U64(rec.len())),
            ("images", JsonValue::U64(u64::from(rec.num_images))),
            (
                "labels",
                JsonValue::Array(
                    rec.labels.iter().map(|&l| JsonValue::U64(u64::from(l))).collect(),
                ),
            ),
            ("crc32", JsonValue::str(format!("{:#010x}", rec.crc32))),
            ("restart_interval", JsonValue::U64(u64::from(restart_interval))),
            (
                "entropy_segments",
                JsonValue::Array(
                    segment_counts.iter().map(|&n| JsonValue::U64(n as u64)).collect(),
                ),
            ),
            ("groups", JsonValue::Array(group_rows)),
        ])));
    }
    println!("record {} ({})", j, rec.name);
    println!(
        "  in {} at offset {} | {} | {} image(s), labels {:?}, crc32 {:#010x}",
        shard_file,
        rec.offset,
        human_bytes(rec.len()),
        rec.num_images,
        rec.labels,
        rec.crc32
    );
    println!("  restart interval {restart_interval} (0 = no restart markers)");
    println!("  {:>5} {:>14} {:>14} {:>9}", "group", "prefix bytes", "group bytes", "segments");
    for (g, cumulative, delta) in groups {
        let segs = if g == 0 { 0 } else { segment_counts.get(g - 1).copied().unwrap_or(0) };
        println!("  {g:>5} {cumulative:>14} {delta:>14} {segs:>9}");
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_datasets::{pack_to_container, DatasetSpec, Scale, SyntheticDataset};
    use std::path::Path;

    /// Reads the committed legacy fixtures (`tests/fixtures/legacy`): a
    /// container of marker-less (version-1) records and one of restart
    /// interval 1 (version-2) records — the writer of the latter is gone.
    #[test]
    fn json_record_view_reports_restart_segments() {
        let legacy = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy");
        for (fixture, interval) in [("rows-v1", 0u16), ("columnar-v2", 1)] {
            let container = PcrContainer::open(&legacy.join(fixture)).unwrap();
            let doc = record_view(&container, 0, true).unwrap().expect("json doc");
            let rendered = doc.render();
            assert!(
                rendered.contains(&format!("\"restart_interval\":{interval}")),
                "{rendered}"
            );
            assert!(rendered.contains("\"entropy_segments\""), "{rendered}");
            // Marker-less records report one segment per image per group;
            // restart records report more for at least one group.
            let parsed = {
                let shard = container.read_shard(0).unwrap();
                let (_, rec) = container.record(0).unwrap();
                shard[rec.offset as usize..(rec.offset + rec.len()) as usize].to_vec()
            };
            let rec = pcr_core::PcrRecord::parse(&parsed).unwrap();
            let max_per_chunk = (1..=rec.num_groups())
                .flat_map(|g| (0..rec.num_images()).map(move |i| (i, g)))
                .map(|(i, g)| rec.segment_count(i, g).unwrap())
                .max()
                .unwrap();
            if interval == 0 {
                assert_eq!(max_per_chunk, 1);
            } else {
                assert!(max_per_chunk > 1);
            }
        }
    }

    #[test]
    fn record_view_index_bytes_stay_o1_in_shard_size() {
        let ds = SyntheticDataset::generate(&DatasetSpec::celebahq_smile_like(Scale::Tiny));
        let mk = |tag: &str, records_per_shard: usize| {
            let dir = std::env::temp_dir().join(format!(
                "pcr-inspect-o1-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            pack_to_container(&ds, &dir, 2, records_per_shard).unwrap();
            let container = PcrContainer::open(&dir).unwrap();
            (dir, container)
        };
        // Same records, one per shard vs all in one shard: resolving the
        // last record must not read more index bytes in the big shard
        // (modulo the extra 4-byte name_ends neighbor read for k > 0).
        let (dir_many, many) = mk("many", 1);
        let (dir_one, one) = mk("one", 1 << 20);
        assert_eq!(one.shards.len(), 1);
        let last = many.num_records() - 1;
        record_view(&many, last, true).unwrap();
        record_view(&one, last, true).unwrap();
        let (r_many, r_one) = (many.index_bytes_read(), one.index_bytes_read());
        assert!(r_many > 0, "columnar record view must resolve lazily");
        assert!(
            r_one <= r_many + 4,
            "index bytes must not grow with shard size ({r_one} vs {r_many})"
        );
        std::fs::remove_dir_all(&dir_many).unwrap();
        std::fs::remove_dir_all(&dir_one).unwrap();
    }
}
