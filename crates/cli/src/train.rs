//! `pcr train`: wall-clock training epochs streamed from a container,
//! optionally under online (dynamic) fidelity control, exporting the
//! per-epoch trajectory as a `FidelityTrace` JSON file.

use crate::args::{parse, ArgSpec};
use crate::{human_bytes, smoke};
use pcr_loader::{
    open_container_store, probe_source_scores, FidelityConfig, FidelityController,
    IoModel, LoaderConfig, ParallelConfig, ParallelLoader, RecordSource, ShardStoreConfig,
};
use pcr_core::{DecisionLogWriter, DecisionRecord, DECISION_LOG_FILE};
use pcr_storage::FaultPlan;
use pcr_nn::{Matrix, Mlp, ModelSpec, SgdMomentum};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const HELP: &str = "pcr train — wall-clock training epochs from a container

USAGE:
    pcr train <dir> [options]

OPTIONS:
    --epochs <n>      Epochs to run (default 8)
    --dynamic         Online fidelity control: start at full quality,
                      probe per-group MSSIM, drop the scan-group prefix
                      when the training loss plateaus
    --group <g>       Fixed scan group (default: full); not with --dynamic
    --model <name>    resnet | shufflenet (default resnet)
    --threads <n>     Least loader decode threads (default 4); the pool
                      has max(n, cores), and batches come in the same
                      order at any n
    --batch <n>       Minibatch size (default 32)
    --lr <x>          SGD learning rate (default 0.05)
    --io <mode>       instant | emulated (default instant)
    --seed <s>        Model init / shuffle seed (default 42)
    --json <path>     Write the per-epoch FidelityTrace as JSON
    --no-declog       Do not append this run's decisions to the
                      container's decisions.pcrd audit log
    --fault-plan <s>  Arm deterministic storage-fault injection, e.g.
                      \"seed=7,transient=0.05,torn=0.02,latency=0.1\"
                      (see pcr-storage FaultPlan::parse_spec for keys)
    --max-retries <n> Read retry attempts before degrading (default 3)
    --read-deadline-ms <ms>
                      Per-read service deadline; slower reads count as
                      timeouts and are retried (default: off)

The container is verified once at open (every shard streamed through its
checksums) and its shard files are then read in place, one positional
read per record prefix — the dataset is never held in memory. Each epoch
streams decoded minibatches from the packed shards through the
wall-clock parallel loader and trains a small MLP on them; the loss
the fidelity controller observes is the real training loss of that
epoch. Unless --no-declog is given, every epoch's fidelity decision is
appended to the container's own decisions.pcrd audit log (inspect it
with `pcr inspect <dir> --trace`); epochs where storage faults degraded
or quarantined records additionally log a `degraded` audit record. With PCR_BENCH_SMOKE=1 the run is
clamped to at most 4 epochs.";

const SPEC: ArgSpec = ArgSpec {
    value_flags: &[
        "epochs",
        "group",
        "model",
        "threads",
        "batch",
        "lr",
        "io",
        "seed",
        "json",
        "fault-plan",
        "max-retries",
        "read-deadline-ms",
    ],
    bool_flags: &["dynamic", "no-declog"],
};

/// Appends the records one epoch owes the decision log (its decision,
/// plus a `degraded` audit record when the storage plane degraded it) and
/// returns how many were *not* persisted. An append failure may leave a
/// torn frame, so the writer is retired on the first one
/// (`DecisionLogWriter::open` recovers the tail next session), the run
/// continues, and every record from then on counts as unpersisted. A log
/// that was never open (`--no-declog`, open failure) counts nothing.
fn persist(
    declog: &mut Option<(PathBuf, DecisionLogWriter)>,
    log_failed: &mut bool,
    records: &[DecisionRecord],
) -> u64 {
    let mut unpersisted = 0;
    for record in records {
        match declog.take() {
            Some((path, mut w)) => match w.append(record) {
                Ok(()) => *declog = Some((path, w)),
                Err(e) => {
                    unpersisted += 1;
                    *log_failed = true;
                    eprintln!("warning: decision log write failed ({}): {e}", path.display());
                }
            },
            None if *log_failed => unpersisted += 1,
            None => {}
        }
    }
    unpersisted
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv, &SPEC)?;
    let dir = args.positional.first().ok_or("usage: pcr train <dir> [options]")?;
    let mut epochs: u64 = args.number("epochs", 8u64)?.max(1);
    let dynamic = args.flag("dynamic");
    if dynamic && args.value("group").is_some() {
        return Err("--dynamic and --group cannot be combined: --dynamic starts at full quality \
                    and lets the controller pick each epoch's scan group, --group fixes it"
            .into());
    }
    let threads = args.number("threads", 4usize)?.max(1);
    let batch = args.number("batch", 32usize)?.max(1);
    let lr: f32 = args.number("lr", 0.05f32)?;
    let seed: u64 = args.number("seed", 42u64)?;
    let io = match args.value_or("io", "instant") {
        "instant" => IoModel::Instant,
        "emulated" => IoModel::EmulatedLatency,
        other => return Err(format!("unknown --io {other:?} (instant | emulated)")),
    };
    let model_spec = match args.value_or("model", "resnet") {
        "resnet" => ModelSpec::resnet_like(),
        "shufflenet" => ModelSpec::shufflenet_like(),
        other => return Err(format!("unknown --model {other:?} (resnet | shufflenet)")),
    };
    if smoke() && epochs > 4 {
        epochs = 4;
        println!("PCR_BENCH_SMOKE=1: clamping to {epochs} epochs");
    }

    let opened = open_container_store(Path::new(dir), &ShardStoreConfig::default())
        .map_err(|e| e.to_string())?;
    if let Some(spec) = args.value("fault-plan") {
        let plan = FaultPlan::parse_spec(spec).map_err(|e| format!("--fault-plan: {e}"))?;
        opened.store.set_fault_plan(Some(plan));
        println!("fault plan armed: {spec}");
    }
    let max_retries: u32 = args.number("max-retries", 3u32)?;
    let read_deadline_ms: f64 = args.number("read-deadline-ms", 0.0f64)?;
    let source = Arc::clone(&opened.source);
    let full_group = source.num_groups().max(1);
    let fixed_group = args.number("group", full_group)?.clamp(1, full_group);

    let num_classes = (0..source.num_records())
        .flat_map(|i| source.labels(i).iter().copied())
        .max()
        .map_or(2, |m| m as usize + 1)
        .max(2);
    println!(
        "container {}: {} image(s) over {} shard(s), {} classes | model {}",
        dir,
        source.num_images(),
        opened.container.shards.len(),
        num_classes,
        model_spec.name
    );

    // Dynamic mode: probe per-group quality, then let the controller
    // pick each epoch's scan group from the observed training loss.
    let mut controller = if dynamic {
        let probe_images = if smoke() { 8 } else { 32 };
        let candidates: Vec<usize> =
            [1, 2, 5, full_group].iter().copied().filter(|&g| g <= full_group).collect();
        let (scores, probe_s) = pcr_loader::timing::measure(|| {
            probe_source_scores(&opened.store, &*source, &candidates, probe_images)
        });
        println!(
            "probed MSSIM per scan group ({} images, {:.0} ms):",
            probe_images.min(source.num_images()),
            probe_s * 1e3
        );
        for &(g, s) in &scores {
            println!("  group {g:>2}: {s:.4}");
        }
        Some(FidelityController::new(FidelityConfig::default(), scores))
    } else {
        None
    };

    let loader = ParallelLoader::new(
        Arc::clone(&opened.store),
        Arc::clone(&source),
        ParallelConfig {
            loader: LoaderConfig {
                threads,
                seed,
                retry: pcr_loader::RetryPolicy {
                    max_retries,
                    read_deadline_s: read_deadline_ms / 1000.0,
                    ..pcr_loader::RetryPolicy::default()
                },
                // The group epochs run at unless a controller overrides it.
                ..LoaderConfig::at_group(fixed_group)
            },
            batch_size: batch,
            io,
            ..ParallelConfig::default()
        },
    );

    // Audit plane: append this run's decisions to the container's own
    // decision log so `pcr inspect --trace` can replay them later. A
    // log that cannot be opened (read-only dir, corrupt chain) downgrades
    // to a warning — training must not be blocked by its audit trail.
    let mut declog = if args.flag("no-declog") {
        None
    } else {
        let path = Path::new(dir).join(DECISION_LOG_FILE);
        match DecisionLogWriter::open(&path) {
            Ok(w) => Some((path, w)),
            Err(e) => {
                eprintln!("warning: decision log disabled: {e}");
                None
            }
        }
    };
    let mut model = Mlp::new(model_spec.clone(), num_classes, seed);
    let mut opt = SgdMomentum::new(0.9);
    let dim = model_spec.input_dim();
    let mut log_failed = false;
    let mut log_write_failures = 0;
    // The consumer's training accuracy, for the sink's table row.
    let train_acc = Cell::new(0.0f64);
    println!(
        "\n{:>6} {:>6} {:>12} {:>8} {:>9} {:>9} {:>8}",
        "epoch", "group", "bytes", "img/s", "loss", "train acc", "hit rate"
    );
    let mut trace = loader
        .run_dynamic(
            epochs,
            controller.as_mut(),
            // One epoch of MLP steps over the delivered minibatches; the
            // loss the controller observes is the epoch's mean.
            |_, batches| {
                let mut loss_sum = 0.0f64;
                let mut correct = 0usize;
                let mut seen = 0usize;
                for b in batches {
                    if b.images.is_empty() {
                        continue;
                    }
                    let mut features = Vec::with_capacity(b.images.len() * dim);
                    for img in &b.images {
                        features.extend(model_spec.featurize(img));
                    }
                    let x = Matrix::from_vec(b.images.len(), dim, features);
                    let step = model.backward(&x, &b.labels);
                    opt.step(&mut model, &step.grads, lr);
                    loss_sum += step.loss * step.n as f64;
                    correct += step.correct;
                    seen += step.n;
                }
                train_acc.set(if seen > 0 { correct as f64 / seen as f64 } else { 0.0 });
                if seen > 0 { loss_sum / seen as f64 } else { f64::NAN }
            },
            |entry, records, switched| {
                log_write_failures += persist(&mut declog, &mut log_failed, records);
                if entry.faults.degraded_records > 0 || entry.faults.quarantined_records > 0 {
                    println!(
                        "  !! faults: {} retried read(s), {} degraded, {} quarantined ({} image(s))",
                        entry.faults.retries,
                        entry.faults.degraded_records,
                        entry.faults.quarantined_records,
                        entry.faults.quarantined_images,
                    );
                }
                println!(
                    "{:>6} {:>6} {:>12} {:>8.1} {:>9.4} {:>9.3} {:>8.2}",
                    entry.epoch,
                    entry.scan_group,
                    entry.bytes_read,
                    entry.images_per_sec,
                    entry.loss,
                    train_acc.get(),
                    entry.cache_hit_rate
                );
                if let Some(next) = switched {
                    println!("  -> fidelity controller drops to scan group {next} for the next epoch");
                }
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?;
    trace.log_write_failures = log_write_failures;

    let full_cost = epochs * source.bytes_at_group(full_group);
    println!(
        "\ntotal bytes read: {} ({}); full-quality epochs would read {} ({})",
        trace.total_bytes(),
        human_bytes(trace.total_bytes()),
        full_cost,
        human_bytes(full_cost)
    );
    if let Some(ctrl) = &controller {
        println!("controller decisions: {:?}", ctrl.decisions());
        println!("scan groups used: {:?}", trace.groups_used());
    }
    let retries: u64 = trace.epochs.iter().map(|e| e.faults.retries).sum();
    let degraded: u64 = trace.epochs.iter().map(|e| e.faults.degraded_records).sum();
    let quarantined: u64 = trace.epochs.iter().map(|e| e.faults.quarantined_records).sum();
    if retries + degraded + quarantined > 0 || opened.store.fault_plan().is_some() {
        let injected = opened.store.fault_stats();
        println!(
            "fault summary: {} injected error(s) ({} transient, {} torn, {} corrupt, \
             {} timeout(s)), {} bit flip(s), {} latency spike(s)",
            injected.injected_errors(),
            injected.transient,
            injected.torn,
            injected.corrupt,
            injected.timeouts,
            injected.bit_flips,
            injected.latency_spikes,
        );
        println!(
            "recovery: {retries} retried read(s), {degraded} degraded record(s), \
             {quarantined} quarantined record(s)"
        );
    }
    if trace.log_write_failures > 0 {
        println!(
            "decision log: {} record(s) FAILED to persist (see warnings above)",
            trace.log_write_failures
        );
    }
    if let Some((path, w)) = &declog {
        println!(
            "decision log: {} (+{} record(s), chain {:#010x}) — query with `pcr inspect {} --trace`",
            path.display(),
            w.records_written(),
            w.chain(),
            dir
        );
    }
    if let Some(path) = args.value("json") {
        trace.write_json(path).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr_metrics::TriggerKind;

    #[test]
    fn every_record_after_a_failed_append_is_counted() {
        let path = std::env::temp_dir().join(format!("pcr-train-declog-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut declog = Some((path.clone(), DecisionLogWriter::open(&path).unwrap()));
        let mut failed = false;
        let ok = DecisionRecord {
            epoch: 0,
            trigger: TriggerKind::Hold,
            scan_group: 5,
            bytes_read: 10,
            bytes_full: 20,
            images: 4,
            cache_hit_rate: 0.5,
            loss: 1.0,
            probe_scores: Vec::new(),
        };
        // More probe scores than the wire's u16 count: append refuses it.
        let unencodable = DecisionRecord {
            probe_scores: vec![(1, 1.0); usize::from(u16::MAX) + 1],
            ..ok.clone()
        };
        assert_eq!(persist(&mut declog, &mut failed, std::slice::from_ref(&ok)), 0);
        // The decision fails; the same epoch's `degraded` record and every
        // later epoch's records have no writer left, and all are counted.
        assert_eq!(persist(&mut declog, &mut failed, &[unencodable, ok.clone()]), 2);
        assert!(declog.is_none() && failed);
        assert_eq!(persist(&mut declog, &mut failed, &[ok.clone(), ok.clone()]), 2);
        // A log that was never open is not a failure.
        assert_eq!(persist(&mut None, &mut false, &[ok]), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
