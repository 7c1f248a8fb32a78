//! The four workloads. A run is a sequence of identical **rounds**; this
//! file defines what one round does, for the untraced run (the real
//! `ParallelLoader` / the real pack calls, timed from outside) and for
//! the traced run (the benchmark's own single-threaded loop, one span
//! round each public call).
//!
//! Every round is closed-loop: the consumer takes the next minibatch only
//! after it has handled the previous one.

use crate::api::{self, Device, Io, StoreSetup};
use crate::corpus::{self, Corpus, PACK_IMAGES};
use crate::sys;
use crate::trace::{Layer, SpanId, Tracer, NO_RECORD};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeBound,
    StorageBound,
    TrainDynamic,
    PackWrite,
}

pub const ALL: [Workload; 4] = [
    Workload::DecodeBound,
    Workload::StorageBound,
    Workload::TrainDynamic,
    Workload::PackWrite,
];

/// Scan groups `train_dynamic` probes, as `pcr train --dynamic` does.
const PROBE_GROUPS: [usize; 4] = [1, 2, 5, 10];
const PROBE_IMAGES: usize = 32;
const TRAIN_EPOCHS: u64 = 8;
const LEARNING_RATE: f32 = 0.05;
/// `train_dynamic` reaches its target at the end of the first epoch whose
/// mean training loss is at or below this. With the controller below, the
/// loss falls about 11 % an epoch and seeds 1..8 all cross 1.39 at epoch
/// index 5 (their epoch-4 losses are ≥ 1.41, their epoch-5 losses ≤ 1.37),
/// in the cheap low-group phase where one epoch more or less moves the
/// time by about 4 %.
pub const TARGET_LOSS: f64 = 1.39;
/// Controller settings of `train_dynamic`. `pcr train`'s defaults (window
/// 3, 1 %) never see a plateau within 8 epochs on this corpus, so the run
/// would stay at group 10 throughout. A 2-epoch window that calls anything
/// short of a halving a plateau switches after the fourth loss on every
/// seed: 4 epochs at group 10, 4 at the cheapest group whose MSSIM clears
/// 0.95 — the same work whatever the seed.
const PLATEAU_WINDOW: usize = 2;
const MIN_REL_IMPROVEMENT: f64 = 0.5;

/// `storage_bound` fault mix: exactly this many of the pass's 60 read
/// sites fail once transiently, deliver one torn read, or take a ×4
/// latency spike; the rest are clean. See [`choose_fault_schedule`].
const TRANSIENT_SITES: usize = 3;
const TORN_SITES: usize = 1;
const SPIKED_SITES: usize = 3;
const FAULT_RATES: (f64, f64, f64) = (0.05, 0.02, 0.05);
const LATENCY_FACTOR: f64 = 4.0;
/// Records at the head of the epoch order the schedule leaves clean, so
/// the first minibatch (4 records) and the one staged behind it are not
/// the ones a spike lands on.
const CLEAN_HEAD_RECORDS: usize = 8;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeBound => "decode_bound",
            Workload::StorageBound => "storage_bound",
            Workload::TrainDynamic => "train_dynamic",
            Workload::PackWrite => "pack_write",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DecodeBound => {
                "full-fidelity epochs from a cached store: jpeg does over 80 % of the work and storage almost none, so a decode-kernel or worker-parallelism gain shows here"
            }
            Workload::StorageBound => {
                "group-5 epochs from a slow, faulty, cache-starved remote store: workers wait on storage over 80 % of the time, so readahead, cache, retry and backoff changes show here only"
            }
            Workload::TrainDynamic => {
                "the pcr train --dynamic loop: probe, controller, low-group decode, MLP step and audit log together; the paper's time to a loss target with fewer bytes"
            }
            Workload::PackWrite => {
                "the write path: transcode, scan split, record build, container write and verify, so a decode gain bought with slower packing shows"
            }
        }
    }

    /// Rounds a run measures at least, whatever `--seconds` says.
    pub fn min_rounds(self, traced: bool) -> usize {
        if traced {
            return 1;
        }
        match self {
            Workload::DecodeBound | Workload::PackWrite => 8,
            Workload::StorageBound | Workload::TrainDynamic => 3,
        }
    }

    fn store_setup(self) -> StoreSetup {
        match self {
            // 4 MiB is about a third of the 11.7 MB container.
            Workload::StorageBound => StoreSetup {
                device: Device::RemoteObjectStore,
                cache_bytes: 4 << 20,
                readahead: 64 << 10,
            },
            // `ShardStoreConfig::default()`: the whole container fits.
            _ => StoreSetup {
                device: Device::NvmeLocal,
                cache_bytes: 256 << 20,
                readahead: 256 << 10,
            },
        }
    }

    /// Loader worker threads: at most `min(2, nproc)`; `train_dynamic`
    /// uses one so batch order, losses and decisions are reproducible.
    pub fn workers(self) -> usize {
        match self {
            Workload::TrainDynamic | Workload::PackWrite => 1,
            _ => sys::nproc().min(2),
        }
    }

    fn io(self) -> Io {
        match self {
            Workload::StorageBound => Io::EmulatedLatency,
            _ => Io::Instant,
        }
    }

    /// `(epoch, scan group)` of the fixed-group read passes.
    fn fixed_epochs(self) -> &'static [(u64, usize)] {
        match self {
            Workload::DecodeBound => &[(0, 10), (1, 10)],
            Workload::StorageBound => &[(0, 5)],
            _ => &[],
        }
    }

    fn modelled_device(self) -> Option<Device> {
        (self.io() == Io::EmulatedLatency).then_some(self.store_setup().device)
    }
}

// ------------------------------------------------------------- run inputs

/// Per-run inputs derived from the corpus and the seed before any round.
pub struct Prepared {
    pub seed: u64,
    /// `storage_bound` only.
    schedule: Option<api::FaultSchedule>,
    /// Order-independent pixel checksum of one clean epoch per scan group,
    /// computed through the independent path (shard file → `read_record`
    /// → `PcrRecord::decode_image`) the first time a check asks for it.
    reference_pixels: RefCell<Vec<(usize, u64)>>,
    /// Where `pack_write` rounds of this process write.
    pack_dir: PathBuf,
}

/// 64-bit hash of one image's pixels; epoch checksums add these up.
fn hash_pixels(px: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ px.len() as u64;
    let mut chunks = px.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 32)
}

/// Picks the `storage_bound` fault schedule from the seed. The plan seed
/// is the first of `seed, seed+1, …` whose schedule, evaluated over the
/// pass's read sites with the program's own `FaultPlan::decide`, faults
/// exactly the fixed mix of sites and none at the head of the epoch
/// order. Which sites fail follows the seed; how much fault handling a
/// round does is the same for every seed.
fn choose_fault_schedule(seed: u64, opened: &api::Opened) -> Result<api::FaultSchedule, String> {
    let planner = api::Planner::new(seed);
    let (epoch, group) = Workload::StorageBound.fixed_epochs()[0];
    let order = planner.epoch_order(opened.container().num_records(), epoch);
    let sites: Vec<api::Plan<'_>> = order
        .iter()
        .map(|&idx| opened.plan(&planner, idx, group))
        .collect();
    let (transient, torn, latency) = FAULT_RATES;
    for k in 0..200_000u64 {
        let schedule = api::FaultSchedule::new(
            seed.wrapping_add(k),
            transient,
            torn,
            latency,
            LATENCY_FACTOR,
        );
        let fates: Vec<api::FirstAttempt> = sites
            .iter()
            .map(|s| schedule.first_attempt(s.name, s.offset, s.len))
            .collect();
        let count = |kind| fates.iter().filter(|&&f| f == kind).count();
        let head_clean = fates
            .iter()
            .take(CLEAN_HEAD_RECORDS)
            .all(|&f| f == api::FirstAttempt::Clean);
        if head_clean
            && count(api::FirstAttempt::Transient) == TRANSIENT_SITES
            && count(api::FirstAttempt::Torn) == TORN_SITES
            && count(api::FirstAttempt::LatencySpike) == SPIKED_SITES
            && count(api::FirstAttempt::Persistent) == 0
        {
            return Ok(schedule);
        }
    }
    Err("no fault schedule with the fixed site mix found".into())
}

fn reference_pixel_checksum(container: &api::Container, group: usize) -> Result<u64, String> {
    let mut sum = 0u64;
    for idx in 0..container.num_records() {
        let bytes = container.read_record_from_disk(idx)?;
        for img in api::decode_record_reference(&bytes, group)? {
            sum = sum.wrapping_add(hash_pixels(api::pixels(&img)));
        }
    }
    Ok(sum)
}

/// Derives the run's inputs; `slot` names this process's scratch space.
pub fn prepare(w: Workload, corpus: &Corpus, seed: u64, slot: &str) -> Result<Prepared, String> {
    let mut prepared = Prepared {
        seed,
        schedule: None,
        reference_pixels: RefCell::new(Vec::new()),
        pack_dir: corpus.dir.join(format!("packed-{slot}")),
    };
    if w == Workload::StorageBound {
        let opened = api::Opened::open(&corpus.container_dir(), &w.store_setup())?;
        prepared.schedule = Some(choose_fault_schedule(seed, &opened)?);
    }
    Ok(prepared)
}

// ----------------------------------------------------------- epoch runners

/// One minibatch as the consumer sees it.
pub struct Delivered<'a> {
    pub images: &'a [api::Image],
    pub labels: &'a [u32],
}

/// What one epoch delivered and what it cost, seen from the consumer.
#[derive(Default)]
pub struct EpochOutcome {
    pub counters: api::EpochCounters,
    pub images: u64,
    pub label_hist: Vec<u64>,
    /// Seconds from the epoch's start to `spawn_epoch_at` returning.
    pub spawn_s: f64,
    /// Seconds from the epoch's start to the first minibatch.
    pub first_batch_s: Option<f64>,
    /// Consumer-side seconds between consecutive minibatches.
    pub gaps_s: Vec<f64>,
    /// Seconds the consumer was blocked waiting for a minibatch.
    pub recv_wait_s: f64,
    /// Seconds the consumer spent handling minibatches.
    pub busy_s: f64,
    /// Traced loop only: modelled service seconds the store returned,
    /// bytes fed to the decoder, decode failures.
    pub modelled_service_s: f64,
    pub decode_input_bytes: u64,
    pub decode_failures: u64,
}

type Consumer<'c> = dyn FnMut(&Delivered<'_>, &mut Tracer) + 'c;

/// Runs one epoch at a scan group, handing each minibatch to `consume`.
pub trait EpochRunner {
    fn run_epoch(
        &mut self,
        epoch: u64,
        group: usize,
        tracer: &mut Tracer,
        consume: &mut Consumer<'_>,
    ) -> EpochOutcome;
    fn workers(&self) -> usize;
}

impl EpochOutcome {
    /// No record degraded or quarantined.
    fn is_clean(&self) -> bool {
        self.counters.degraded_records == 0 && self.counters.quarantined_records == 0
    }
}

fn add_label(hist: &mut Vec<u64>, label: u32, n: u64) {
    let l = label as usize;
    if hist.len() <= l {
        hist.resize(l + 1, 0);
    }
    hist[l] += n;
}

fn count_labels(hist: &mut Vec<u64>, labels: &[u32]) {
    for &l in labels {
        add_label(hist, l, 1);
    }
}

/// The container's label multiset, as a histogram.
fn container_label_hist(opened: &api::Opened) -> Vec<u64> {
    let mut hist = Vec::new();
    count_labels(&mut hist, &opened.labels());
    hist
}

/// The program's own pipeline: `ParallelLoader::spawn_epoch_at`, drained
/// by the calling thread.
pub struct LoaderRunner {
    loader: api::Loader,
    workers: usize,
}

impl LoaderRunner {
    pub fn new(w: Workload, opened: &api::Opened, workers: usize, seed: u64) -> Self {
        let loader = api::Loader::new(
            opened,
            workers,
            w.io(),
            seed,
            &api::RetryRules::non_binding(),
        );
        Self { loader, workers }
    }
}

impl EpochRunner for LoaderRunner {
    fn run_epoch(
        &mut self,
        epoch: u64,
        group: usize,
        tracer: &mut Tracer,
        consume: &mut Consumer<'_>,
    ) -> EpochOutcome {
        let mut out = EpochOutcome::default();
        let start = Instant::now();
        let stream = self.loader.spawn_epoch_at(epoch, group);
        out.spawn_s = start.elapsed().as_secs_f64();
        let mut last_arrival = start;
        loop {
            let wait_from = Instant::now();
            let Some(batch) = stream.next_batch() else {
                break;
            };
            let arrived = Instant::now();
            out.recv_wait_s += (arrived - wait_from).as_secs_f64();
            match out.first_batch_s {
                None => out.first_batch_s = Some((arrived - start).as_secs_f64()),
                Some(_) => out.gaps_s.push((arrived - last_arrival).as_secs_f64()),
            }
            last_arrival = arrived;
            out.images += batch.images.len() as u64;
            count_labels(&mut out.label_hist, &batch.labels);
            consume(
                &Delivered {
                    images: &batch.images,
                    labels: &batch.labels,
                },
                tracer,
            );
            out.busy_s += arrived.elapsed().as_secs_f64();
        }
        out.counters = stream.finish();
        out
    }

    fn workers(&self) -> usize {
        self.workers
    }
}

/// Forwards the decoder's per-segment callbacks to entropy spans.
struct EntropySpans<'t> {
    tracer: &'t mut Tracer,
    record: u32,
    open: Option<SpanId>,
}

impl api::ScanTimer for EntropySpans<'_> {
    fn scan_begin(&mut self) {
        self.open = Some(
            self.tracer
                .begin(Layer::Jpeg, "jpeg.entropy_scan", self.record),
        );
    }
    fn scan_end(&mut self) {
        if let Some(s) = self.open.take() {
            self.tracer.end(s);
        }
    }
}

/// The benchmark's own single-threaded per-record loop over the same
/// public calls a loader worker makes: plan → read → parse → assemble →
/// entropy decode → IDCT → colour → minibatch. It never sleeps modelled
/// service time or backoff: it attributes CPU, and reports the modelled
/// time as a number.
pub struct TracedRunner<'o> {
    opened: &'o api::Opened,
    planner: api::Planner,
    max_retries: u32,
    buffers: api::DecodeBuffers,
}

impl<'o> TracedRunner<'o> {
    pub fn new(opened: &'o api::Opened, seed: u64) -> Self {
        Self {
            opened,
            planner: api::Planner::new(seed),
            max_retries: api::RetryRules::non_binding().max_retries(),
            buffers: api::DecodeBuffers::default(),
        }
    }

    /// Decodes image `i` of `rec` at group `g` through the split path.
    fn decode_image(
        &mut self,
        rec: &api::Record<'_>,
        i: usize,
        g: usize,
        record: u32,
        tracer: &mut Tracer,
        out: &mut EpochOutcome,
    ) -> Result<api::Image, String> {
        tracer.time(Layer::Core, "core.assemble", record, || {
            rec.assemble_into(i, g, &mut self.buffers)
        })?;
        out.decode_input_bytes += api::assembled_len(&self.buffers) as u64;
        let decode = tracer.begin(Layer::Jpeg, "jpeg.decode", record);
        let image = (|| {
            let entropy = tracer.begin(Layer::Jpeg, "jpeg.decode_coeffs", record);
            let coeffs = {
                let mut spans = EntropySpans {
                    tracer: &mut *tracer,
                    record,
                    open: None,
                };
                api::decode_coeffs_observed(&mut self.buffers, &mut spans)
            };
            tracer.end(entropy);
            let coeffs = coeffs?;
            let planes = tracer.time(Layer::Jpeg, "jpeg.idct", record, || {
                api::coeffs_to_planes(&coeffs, &mut self.buffers)
            })?;
            tracer.time(Layer::Jpeg, "jpeg.color", record, || {
                api::planes_to_pixels(coeffs, planes, &mut self.buffers)
            })
        })();
        tracer.end(decode);
        image
    }
}

impl EpochRunner for TracedRunner<'_> {
    fn run_epoch(
        &mut self,
        epoch: u64,
        group: usize,
        tracer: &mut Tracer,
        consume: &mut Consumer<'_>,
    ) -> EpochOutcome {
        let mut out = EpochOutcome::default();
        let start = Instant::now();
        let opened = self.opened;
        let order = self
            .planner
            .epoch_order(opened.container().num_records(), epoch);
        let mut images: Vec<api::Image> = Vec::with_capacity(api::BATCH_SIZE * 2);
        let mut labels: Vec<u32> = Vec::with_capacity(api::BATCH_SIZE * 2);
        let mut last_arrival = start;
        let mut deliver = |images: &mut Vec<api::Image>,
                           labels: &mut Vec<u32>,
                           n: usize,
                           tracer: &mut Tracer,
                           out: &mut EpochOutcome| {
            let arrived = Instant::now();
            match out.first_batch_s {
                None => out.first_batch_s = Some((arrived - start).as_secs_f64()),
                Some(_) => out.gaps_s.push((arrived - last_arrival).as_secs_f64()),
            }
            last_arrival = arrived;
            out.images += n as u64;
            count_labels(&mut out.label_hist, &labels[..n]);
            consume(
                &Delivered {
                    images: &images[..n],
                    labels: &labels[..n],
                },
                tracer,
            );
            out.busy_s += arrived.elapsed().as_secs_f64();
            images.drain(..n);
            labels.drain(..n);
        };
        'records: for idx in order {
            let record = idx as u32;
            let plan = tracer.time(Layer::Loader, "loader.plan", record, || {
                opened.plan(&self.planner, idx, group)
            });
            let mut attempt = 0u32;
            let bytes = loop {
                attempt += 1;
                match tracer.time(Layer::Storage, "storage.read", record, || {
                    opened.read(&plan)
                }) {
                    api::StoreRead::Data(bytes, service_s) => {
                        out.modelled_service_s += service_s;
                        break bytes;
                    }
                    api::StoreRead::Retryable if attempt <= self.max_retries => {
                        out.counters.retries += 1
                    }
                    api::StoreRead::Retryable | api::StoreRead::Fatal => {
                        out.counters.quarantined_records += 1;
                        let labels = opened.record_labels(idx).iter().map(|&l| (l, 1));
                        out.counters.quarantined_labels.extend(labels);
                        continue 'records;
                    }
                }
            };
            out.counters.bytes_read += bytes.len() as u64;
            out.counters.records += 1;
            let Ok(rec) = tracer.time(Layer::Core, "core.parse", record, || {
                api::Record::parse(&bytes)
            }) else {
                out.decode_failures += opened.record_labels(idx).len() as u64;
                continue;
            };
            let g = rec.available_groups().min(group).max(1);
            for i in 0..rec.num_images() {
                match self.decode_image(&rec, i, g, record, tracer, &mut out) {
                    Ok(img) => {
                        images.push(img);
                        labels.push(opened.record_labels(idx)[i]);
                    }
                    Err(_) => out.decode_failures += 1,
                }
            }
            while images.len() >= api::BATCH_SIZE {
                deliver(&mut images, &mut labels, api::BATCH_SIZE, tracer, &mut out);
            }
        }
        if !images.is_empty() {
            let n = images.len();
            deliver(&mut images, &mut labels, n, tracer, &mut out);
        }
        out
    }

    fn workers(&self) -> usize {
        1
    }
}

// ------------------------------------------------------------------ passes

/// One timed pass, as the round that ran it saw it.
#[derive(Default)]
pub struct PassOutcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub workers: usize,
    /// Images the pass was asked to deliver (or pack).
    pub attempted: u64,
    pub images: u64,
    /// Images delivered at the requested scan group.
    pub at_requested: u64,
    pub bytes_read: u64,
    /// Full-fidelity bytes of the records the pass read.
    pub bytes_full: u64,
    /// Seconds from the pass's start to its first minibatch.
    pub first_batch_s: f64,
    /// Seconds from the pass's start to the workload's target.
    pub target_s: f64,
    pub epochs: Vec<EpochOutcome>,
    pub failed: u64,
    pub problems: Vec<String>,
    // train_dynamic
    pub decisions: Vec<(usize, usize)>,
    pub epochs_to_target: u64,
    pub final_group: usize,
}

impl PassOutcome {
    fn problem(&mut self, failed_images: u64, what: String) {
        self.failed += failed_images.max(1);
        self.problems.push(what);
    }

    pub fn sum<T: std::iter::Sum<T>>(&self, f: impl Fn(&EpochOutcome) -> T) -> T {
        self.epochs.iter().map(f).sum()
    }
}

/// Checks every epoch must pass: the delivered plus quarantined label
/// multiset equals the container's, and a clean epoch read exactly the
/// manifest's bytes for its group.
fn check_epoch(
    pass: &mut PassOutcome,
    opened: &api::Opened,
    expected_hist: &[u64],
    group: usize,
    epoch: &EpochOutcome,
) {
    let mut hist = epoch.label_hist.clone();
    for &(label, n) in &epoch.counters.quarantined_labels {
        add_label(&mut hist, label, n);
    }
    hist.resize(hist.len().max(expected_hist.len()), 0);
    if hist != expected_hist {
        pass.problem(
            opened.container().num_images() as u64,
            format!("label multiset {hist:?} != container {expected_hist:?}"),
        );
    }
    match opened.container().bytes_at_group(group) {
        Ok(expected) if epoch.is_clean() && expected != epoch.counters.bytes_read => pass.problem(
            0,
            format!(
                "clean epoch at group {group} read {} bytes, manifest says {expected}",
                epoch.counters.bytes_read
            ),
        ),
        Err(e) => pass.problem(0, format!("bytes_at_group({group}): {e}")),
        _ => {}
    }
    if epoch.decode_failures > 0 {
        pass.problem(
            epoch.decode_failures,
            format!("{} image(s) failed to decode", epoch.decode_failures),
        );
    }
}

fn account_epoch(
    pass: &mut PassOutcome,
    opened: &api::Opened,
    elapsed_before_s: f64,
    epoch: EpochOutcome,
) {
    let n_images = opened.container().num_images() as u64;
    pass.attempted += n_images;
    pass.images += epoch.images;
    pass.failed += n_images - epoch.images.min(n_images);
    let per_record = api::IMAGES_PER_RECORD as u64;
    pass.at_requested += epoch
        .images
        .saturating_sub(epoch.counters.degraded_records * per_record);
    pass.bytes_read += epoch.counters.bytes_read;
    pass.bytes_full += opened.source_bytes_at_group(api::NUM_GROUPS);
    if pass.epochs.is_empty() {
        pass.first_batch_s = elapsed_before_s + epoch.first_batch_s.unwrap_or(0.0);
    }
    pass.epochs.push(epoch);
}

/// Accumulates the order-independent pixel checksum of what is delivered.
fn pixel_sum(batch: &Delivered<'_>) -> u64 {
    batch
        .images
        .iter()
        .fold(0u64, |s, img| s.wrapping_add(hash_pixels(api::pixels(img))))
}

/// A clean epoch's delivered pixels must hash to what the independent
/// path decodes from the shard files at the same group.
fn check_pixels(
    pass: &mut PassOutcome,
    prepared: &Prepared,
    opened: &api::Opened,
    group: usize,
    clean: bool,
    delivered: u64,
) {
    if !clean {
        return;
    }
    let known = prepared
        .reference_pixels
        .borrow()
        .iter()
        .find(|(g, _)| *g == group)
        .map(|&(_, sum)| sum);
    let expected = match known {
        Some(sum) => sum,
        None => match reference_pixel_checksum(opened.container(), group) {
            Ok(sum) => {
                prepared.reference_pixels.borrow_mut().push((group, sum));
                sum
            }
            Err(e) => return pass.problem(0, format!("independent decode at group {group}: {e}")),
        },
    };
    if expected != delivered {
        pass.problem(0, format!("pixel checksum at group {group}: delivered {delivered:#x}, independent path {expected:#x}"));
    }
}

/// The pass of `decode_bound` and `storage_bound`: the fixed epochs, the
/// consumer only counting (and, when `check_pixels` is set, hashing).
fn fixed_group_pass(
    w: Workload,
    opened: &api::Opened,
    prepared: &Prepared,
    runner: &mut dyn EpochRunner,
    tracer: &mut Tracer,
    hash_delivered: bool,
) -> PassOutcome {
    let expected_hist = container_label_hist(opened);
    let mut pass = PassOutcome {
        workers: runner.workers(),
        ..PassOutcome::default()
    };
    let start = Instant::now();
    let cpu0 = sys::process_cpu_seconds();
    for &(epoch, group) in w.fixed_epochs() {
        let before = start.elapsed().as_secs_f64();
        let mut delivered_pixels = 0u64;
        let outcome = runner.run_epoch(epoch, group, tracer, &mut |batch, _| {
            if hash_delivered {
                delivered_pixels = delivered_pixels.wrapping_add(pixel_sum(batch));
            }
        });
        check_epoch(&mut pass, opened, &expected_hist, group, &outcome);
        if hash_delivered {
            let clean = outcome.is_clean();
            check_pixels(&mut pass, prepared, opened, group, clean, delivered_pixels);
        }
        account_epoch(&mut pass, opened, before, outcome);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = sys::process_cpu_seconds() - cpu0;
    pass.target_s = pass.wall_s;
    pass
}

/// The pass of `train_dynamic`: the `pcr train --dynamic` epoch loop over
/// the same public calls — controller's group, featurise + step on the
/// consumer thread, audit record, loss back to the controller.
#[allow(clippy::too_many_arguments)]
fn train_pass(
    opened: &api::Opened,
    prepared: &Prepared,
    scores: Vec<(usize, f64)>,
    log_path: &Path,
    num_classes: usize,
    runner: &mut dyn EpochRunner,
    tracer: &mut Tracer,
    hash_delivered: bool,
) -> PassOutcome {
    let expected_hist = container_label_hist(opened);
    let mut pass = PassOutcome {
        workers: runner.workers(),
        ..PassOutcome::default()
    };
    let start = Instant::now();
    let cpu0 = sys::process_cpu_seconds();
    let mut controller = api::Controller::new(PLATEAU_WINDOW, MIN_REL_IMPROVEMENT, scores);
    let mut model = api::Model::resnet_like(num_classes, prepared.seed, LEARNING_RATE);
    let mut log = match api::AuditLog::open(log_path) {
        Ok(log) => Some(log),
        Err(e) => {
            pass.problem(0, format!("decision log: {e}"));
            None
        }
    };
    let bytes_full = opened.source_bytes_at_group(api::NUM_GROUPS);
    for epoch in 0..TRAIN_EPOCHS {
        let before = start.elapsed().as_secs_f64();
        let group = controller.group();
        let (mut loss_sum, mut seen, mut delivered_pixels) = (0.0f64, 0usize, 0u64);
        let outcome = runner.run_epoch(epoch, group, tracer, &mut |batch, tracer| {
            if hash_delivered {
                delivered_pixels = delivered_pixels.wrapping_add(pixel_sum(batch));
            }
            let mut features = Vec::new();
            for img in batch.images {
                tracer.time(Layer::Nn, "nn.featurize", NO_RECORD, || {
                    model.featurize_into(img, &mut features)
                });
            }
            let step = tracer.time(Layer::Nn, "nn.step", NO_RECORD, || {
                model.step(features, batch.labels)
            });
            loss_sum += step.loss * step.n as f64;
            seen += step.n;
        });
        let loss = if seen > 0 {
            loss_sum / seen as f64
        } else {
            f64::NAN
        };
        check_epoch(&mut pass, opened, &expected_hist, group, &outcome);
        if hash_delivered {
            check_pixels(&mut pass, prepared, opened, group, true, delivered_pixels);
        }
        let epoch_wall = start.elapsed().as_secs_f64() - before;
        let entry = api::EpochEntry {
            epoch,
            scan_group: group,
            bytes_read: outcome.counters.bytes_read,
            bytes_full,
            images: seen as u64,
            images_per_sec: seen as f64 / epoch_wall,
            cache_hit_rate: opened.counters().cache_hit_rate,
            loss,
            retries: outcome.counters.retries,
            degraded_records: outcome.counters.degraded_records,
            quarantined_records: outcome.counters.quarantined_records,
            quarantined_images: outcome
                .counters
                .quarantined_labels
                .iter()
                .map(|(_, n)| n)
                .sum(),
        };
        if let Some(l) = log.as_mut() {
            if let Err(e) = tracer.time(Layer::Core, "core.declog_append", NO_RECORD, || {
                l.append(&controller, &entry)
            }) {
                pass.problem(0, format!("decision log append: {e}"));
                log = None;
            }
        }
        account_epoch(&mut pass, opened, before, outcome);
        tracer.time(Layer::Autotune, "autotune.observe_loss", NO_RECORD, || {
            controller.observe_loss(loss)
        });
        if pass.epochs_to_target == 0 && loss <= TARGET_LOSS {
            pass.epochs_to_target = epoch + 1;
            pass.target_s = start.elapsed().as_secs_f64();
        }
    }
    drop(log);
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = sys::process_cpu_seconds() - cpu0;
    pass.decisions = controller.decisions();
    pass.final_group = controller.group();
    if pass.epochs_to_target == 0 {
        pass.target_s = pass.wall_s;
        pass.problem(
            opened.container().num_images() as u64,
            format!("loss never reached {TARGET_LOSS}"),
        );
    }
    match api::verify_decision_log(log_path) {
        Ok(n) if n as u64 == TRAIN_EPOCHS => {}
        Ok(n) => pass.problem(
            0,
            format!("decision log holds {n} records, expected {TRAIN_EPOCHS}"),
        ),
        Err(e) => pass.problem(0, format!("decision log does not verify: {e}")),
    }
    pass
}

// ------------------------------------------------------------------ rounds

/// One round of a run: the per-round sample of every end-to-end metric,
/// plus what the checks and the per-layer tables need.
#[derive(Default)]
pub struct Round {
    /// Reference-kernel samples taken before the round's work.
    pub ref_kernel_ms: [f64; REF_SAMPLES_PER_ROUND],
    pub open_to_first_batch_s: f64,
    pub time_to_target_s: f64,
    /// Bytes the modelled device served (`pack_write`: bytes written).
    pub device_bytes: u64,
    /// Bytes on disk: shards + manifest (+ `decisions.pcrd`).
    pub stored_bytes: u64,
    pub source_bytes: u64,
    /// Seconds `open_container_store` took (0 when the round opened by hand).
    pub open_store_s: f64,
    pub store: api::StoreCounters,
    /// Bytes of the decision log the round wrote (for the identity check).
    pub log_fingerprint: u64,
    pub pass: PassOutcome,
}

/// Reference-kernel samples per round: three, so that a run of three
/// rounds still has nine samples behind its noise verdict.
pub const REF_SAMPLES_PER_ROUND: usize = 3;

fn time_reference_kernel() -> [f64; REF_SAMPLES_PER_ROUND] {
    std::array::from_fn(|_| {
        let t = Instant::now();
        sys::reference_kernel();
        t.elapsed().as_secs_f64() * 1e3
    })
}

fn fingerprint_file(path: &Path) -> u64 {
    std::fs::read(path).map(|b| hash_pixels(&b)).unwrap_or(0)
}

/// Which loop a read round's pass runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `ParallelLoader` with this many workers.
    Loader(usize),
    /// The benchmark's single-threaded loop.
    Traced,
}

/// One round of a read workload: reference kernel → cold open (→ probe)
/// → first minibatch → the pass. `opened_by_hand` lets the traced open
/// phase supply a store it assembled span by span.
pub fn read_round(
    w: Workload,
    corpus: &Corpus,
    prepared: &Prepared,
    engine: Engine,
    tracer: &mut Tracer,
    hash_delivered: bool,
    opened_by_hand: Option<api::Opened>,
) -> Result<Round, String> {
    let container_dir = corpus.container_dir();
    let log_path = api::decision_log_path(&container_dir);
    if w == Workload::TrainDynamic {
        // Round k must start from the state round 1 started from.
        let _ = std::fs::remove_file(&log_path);
    }
    let mut round = Round {
        ref_kernel_ms: time_reference_kernel(),
        ..Round::default()
    };
    let t0 = Instant::now();
    let opened = match opened_by_hand {
        Some(opened) => opened,
        None => {
            let opened = api::Opened::open(&container_dir, &w.store_setup())?;
            round.open_store_s = t0.elapsed().as_secs_f64();
            opened
        }
    };
    if let Some(schedule) = &prepared.schedule {
        opened.arm_faults(schedule);
    }
    let scores = if w == Workload::TrainDynamic {
        tracer.time(Layer::Loader, "loader.probe", NO_RECORD, || {
            opened.probe_scores(&PROBE_GROUPS, PROBE_IMAGES)
        })
    } else {
        Vec::new()
    };
    let mut loader_runner;
    let mut traced_runner;
    let runner: &mut dyn EpochRunner = match engine {
        Engine::Loader(workers) => {
            loader_runner = LoaderRunner::new(w, &opened, workers, prepared.seed);
            &mut loader_runner
        }
        Engine::Traced => {
            traced_runner = TracedRunner::new(&opened, prepared.seed);
            &mut traced_runner
        }
    };
    let before_pass_s = t0.elapsed().as_secs_f64();
    let root = tracer.begin(Layer::Bench, "bench.pass", NO_RECORD);
    let pass = if w == Workload::TrainDynamic {
        train_pass(
            &opened,
            prepared,
            scores,
            &log_path,
            corpus.num_classes,
            runner,
            tracer,
            hash_delivered,
        )
    } else {
        fixed_group_pass(w, &opened, prepared, runner, tracer, hash_delivered)
    };
    tracer.end(root);
    round.open_to_first_batch_s = before_pass_s + pass.first_batch_s;
    round.time_to_target_s = before_pass_s + pass.target_s;
    round.store = opened.counters();
    round.device_bytes = round.store.device_bytes;
    round.stored_bytes = corpus::dir_bytes(&container_dir)?;
    round.source_bytes = corpus.source_bytes;
    if w == Workload::TrainDynamic {
        round.log_fingerprint = fingerprint_file(&log_path);
    }
    round.pass = pass;
    Ok(round)
}

/// One round of `pack_write`: 240 source JPEGs → lossless transcode, scan
/// split, record build → `write_container` into a fresh directory →
/// `PcrContainer::open` + `verify()`; then, outside the pass, the
/// container is re-opened through `open_container_store` and streamed up
/// to its first minibatch. The traced variant restates
/// `add_baseline_jpeg` as `to_progressive` + `add_progressive_jpeg` so
/// the `jpeg` and `core` parts get their own spans, and times one extra
/// `split_scans` per image to price the one `core` makes internally.
pub fn pack_round(
    corpus: &Corpus,
    prepared: &Prepared,
    tracer: &mut Tracer,
    traced: bool,
    check_pixels: bool,
) -> Result<Round, String> {
    let out_dir = &prepared.pack_dir;
    let _ = std::fs::remove_dir_all(out_dir);
    let jpegs = &corpus.jpegs[..PACK_IMAGES.min(corpus.jpegs.len())];
    let mut round = Round {
        ref_kernel_ms: time_reference_kernel(),
        ..Round::default()
    };
    let mut pass = PassOutcome {
        workers: 1,
        attempted: jpegs.len() as u64,
        ..PassOutcome::default()
    };
    let start = Instant::now();
    let cpu0 = sys::process_cpu_seconds();
    let root = tracer.begin(Layer::Bench, "bench.pass", NO_RECORD);
    let mut packer = api::Packer::new();
    for (i, jpeg) in jpegs.iter().enumerate() {
        let label = corpus::label_of(i, corpus.num_classes);
        let record = (i / api::IMAGES_PER_RECORD) as u32;
        if traced {
            let progressive = tracer.time(Layer::Jpeg, "jpeg.transcode", record, || {
                api::to_progressive(jpeg)
            })?;
            tracer.time(Layer::Jpeg, "jpeg.scansplit", record, || {
                api::split_scans(&progressive)
            })?;
            tracer.time(Layer::Core, "core.record_add", record, || {
                packer.add_progressive_jpeg(label, i, progressive)
            })?;
        } else {
            packer.add_baseline_jpeg(label, i, jpeg)?;
        }
    }
    let packed = packer.finish()?;
    tracer.time(Layer::Core, "core.container_write", NO_RECORD, || {
        api::write_container(&packed, out_dir)
    })?;
    let container = tracer.time(Layer::Core, "core.container_open", NO_RECORD, || {
        api::Container::open(out_dir)
    })?;
    let verified = tracer.time(Layer::Core, "core.container_verify", NO_RECORD, || {
        container.verify()
    });
    tracer.end(root);
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = sys::process_cpu_seconds() - cpu0;
    pass.target_s = pass.wall_s;
    if let Err(e) = verified {
        pass.problem(
            jpegs.len() as u64,
            format!("packed container does not verify: {e}"),
        );
    }
    if container.num_images() != jpegs.len() {
        pass.problem(
            jpegs.len() as u64,
            format!(
                "packed {} images, expected {}",
                container.num_images(),
                jpegs.len()
            ),
        );
    }
    pass.images = container.num_images() as u64;
    pass.at_requested = pass.images;
    pass.bytes_read = packed.data_bytes();
    pass.bytes_full = pass.bytes_read;
    if check_pixels {
        let mut idx = 0usize;
        let mut mismatched = 0u64;
        for r in 0..container.num_records() {
            let bytes = container.read_record_from_disk(r)?;
            for img in api::decode_record_reference(&bytes, api::NUM_GROUPS)? {
                let source = api::decode_jpeg(&jpegs[idx])?;
                if api::pixels(&img) != api::pixels(&source) {
                    mismatched += 1;
                }
                idx += 1;
            }
        }
        if mismatched > 0 {
            pass.problem(
                mismatched,
                format!(
                    "{mismatched} packed image(s) decode to other pixels than their source JPEG"
                ),
            );
        }
    }
    // Re-open of the container just written, up to the first minibatch.
    let t_open = Instant::now();
    let opened = api::Opened::open(out_dir, &Workload::PackWrite.store_setup())?;
    round.open_store_s = t_open.elapsed().as_secs_f64();
    let loader = api::Loader::new(
        &opened,
        1,
        Io::Instant,
        prepared.seed,
        &api::RetryRules::non_binding(),
    );
    let stream = loader.spawn_epoch_at(0, api::NUM_GROUPS);
    let first = stream.next_batch();
    round.open_to_first_batch_s = t_open.elapsed().as_secs_f64();
    if first.map_or(0, |b| b.images.len()) != api::BATCH_SIZE {
        pass.problem(
            0,
            "re-opened container delivered no full first minibatch".into(),
        );
    }
    stream.finish();
    pass.first_batch_s = round.open_to_first_batch_s;
    round.time_to_target_s = pass.target_s;
    round.stored_bytes = corpus::dir_bytes(out_dir)?;
    round.device_bytes = round.stored_bytes;
    round.source_bytes = jpegs.iter().map(|j| j.len() as u64).sum();
    round.pass = pass;
    // Leave nothing behind: round k+1 writes into a fresh directory too.
    std::fs::remove_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(round)
}

/// One untraced round of `w`.
pub fn untraced_round(
    w: Workload,
    corpus: &Corpus,
    prepared: &Prepared,
    check_pixels: bool,
) -> Result<Round, String> {
    let mut tracer = Tracer::disabled();
    match w {
        Workload::PackWrite => pack_round(corpus, prepared, &mut tracer, false, check_pixels),
        _ => read_round(
            w,
            corpus,
            prepared,
            Engine::Loader(w.workers()),
            &mut tracer,
            check_pixels,
            None,
        ),
    }
}

// ----------------------------------------------------------- traced rounds

/// What one traced round produced besides its spans.
pub struct TracedRound {
    pub ref_kernel_ms: [f64; REF_SAMPLES_PER_ROUND],
    /// The benchmark's loop with spans on, and the same loop with spans off.
    pub traced: Round,
    pub same_shape_untraced: Round,
    /// The real loader at the workload's worker count (read workloads).
    pub loader: Option<Round>,
    /// `decode_bound` only: the real loader at one worker.
    pub loader_one_worker: Option<Round>,
    pub shard_bytes_verified: u64,
    pub bytes_put: u64,
    pub index_bytes_read: u64,
    pub msssim_pairs: u64,
}

/// `open_container_store` restated over its public parts, one span each:
/// `PcrContainer::open`, per shard `read_shard_verified` + `ObjectStore::put`,
/// `ShardedSource::from_container`; then every footer entry is resolved
/// once to price `ShardIndex::entry`.
fn open_by_hand(
    w: Workload,
    dir: &Path,
    tracer: &mut Tracer,
    round: &mut TracedRound,
) -> Result<api::Opened, String> {
    let container = tracer.time(Layer::Core, "core.container_open", NO_RECORD, || {
        api::Container::open(dir)
    })?;
    let store = api::Store::new(&w.store_setup());
    for shard in 0..container.num_shards() {
        let bytes = tracer.time(Layer::Core, "core.shard_verify", NO_RECORD, || {
            container.read_shard_verified(shard)
        })?;
        round.shard_bytes_verified += bytes.len() as u64;
        round.bytes_put += bytes.len() as u64;
        tracer.time(Layer::Storage, "storage.put", NO_RECORD, || {
            store.put(container.shard_name(shard), bytes)
        });
    }
    let before = container.index_bytes_read();
    for global in 0..container.num_records() {
        tracer.time(Layer::Core, "core.entry_resolve", global as u32, || {
            container.resolve_entry(global)
        })?;
    }
    round.index_bytes_read += container.index_bytes_read() - before;
    let source = tracer.time(Layer::Loader, "loader.source_build", NO_RECORD, || {
        api::Source::from_container(&container)
    })?;
    Ok(api::Opened::from_parts(container, store, source))
}

/// Times `msssim` on a few (low group, full quality) pairs of the first
/// record — the call `probe_source_scores` spends its time in.
fn time_msssim(
    corpus: &Corpus,
    tracer: &mut Tracer,
    round: &mut TracedRound,
) -> Result<(), String> {
    let container = api::Container::open(&corpus.container_dir())?;
    let bytes = container.read_record_from_disk(0)?;
    let full = api::decode_record_reference(&bytes, api::NUM_GROUPS)?;
    let low = api::decode_record_reference(&bytes, 2)?;
    for (a, b) in full.iter().zip(&low) {
        std::hint::black_box(tracer.time(Layer::Metrics, "metrics.msssim", 0, || {
            api::msssim_pair(a, b)
        }));
        round.msssim_pairs += 1;
    }
    Ok(())
}

/// One traced round of `w`: the spans, the same loop without spans (for
/// the tracing overhead), and the real loader (for the shares only real
/// threads have). Each sub-pass starts from its own cold store.
pub fn traced_round(
    w: Workload,
    corpus: &Corpus,
    prepared: &Prepared,
    tracer: &mut Tracer,
) -> Result<TracedRound, String> {
    let mut off = Tracer::disabled();
    let mut round = TracedRound {
        ref_kernel_ms: [0.0; REF_SAMPLES_PER_ROUND],
        traced: Round::default(),
        same_shape_untraced: Round::default(),
        loader: None,
        loader_one_worker: None,
        shard_bytes_verified: 0,
        bytes_put: 0,
        index_bytes_read: 0,
        msssim_pairs: 0,
    };
    if w == Workload::PackWrite {
        round.traced = pack_round(corpus, prepared, tracer, true, false)?;
        round.same_shape_untraced = pack_round(corpus, prepared, &mut off, true, false)?;
    } else {
        let dir = corpus.container_dir();
        let by_hand = open_by_hand(w, &dir, tracer, &mut round)?;
        round.traced = read_round(
            w,
            corpus,
            prepared,
            Engine::Traced,
            tracer,
            false,
            Some(by_hand),
        )?;
        round.same_shape_untraced =
            read_round(w, corpus, prepared, Engine::Traced, &mut off, false, None)?;
        round.loader = Some(read_round(
            w,
            corpus,
            prepared,
            Engine::Loader(w.workers()),
            &mut off,
            false,
            None,
        )?);
        if w == Workload::DecodeBound {
            round.loader_one_worker = Some(read_round(
                w,
                corpus,
                prepared,
                Engine::Loader(1),
                &mut off,
                false,
                None,
            )?);
        }
        if w == Workload::TrainDynamic {
            time_msssim(corpus, tracer, &mut round)?;
        }
    }
    round.ref_kernel_ms = round.traced.ref_kernel_ms;
    Ok(round)
}

/// Model-vs-measured residual of a real-loader pass (ROADMAP item 1):
/// `(measured − predicted) ÷ predicted`, the prediction being
/// `min(decode rate of the workers, Lemma A.2 loader rate)`.
pub fn throughput_residual(w: Workload, round: &Round) -> f64 {
    let pass = &round.pass;
    let decode_s = pass.sum(|e| e.counters.decode_nanos) as f64 * 1e-9;
    if pass.images == 0 || decode_s <= 0.0 || pass.wall_s <= 0.0 {
        return 0.0;
    }
    let compute = pass.workers as f64 * pass.images as f64 / decode_s;
    let mean_bytes = pass.bytes_read as f64 / pass.images as f64;
    let predicted =
        api::predicted_images_per_s(compute, w.modelled_device(), mean_bytes, pass.workers);
    (pass.images as f64 / pass.wall_s - predicted) / predicted
}
