//! The adapter: the only file of the benchmark that names `pcr::`.
//!
//! Every call the benchmark makes into the program under test is one of
//! the functions or methods below, and each goes through a re-export of
//! the root `pcr` facade — the same public functions `pcr pack`,
//! `pcr bench` and `pcr train` call. A change to one of those signatures
//! is answered by editing this file alone; `README.md` lists the
//! functions used, by layer.
//!
//! Wrappers are deliberately thin: they forward, convert errors to
//! `String`, and hide the program's types behind local names. Nothing
//! here measures anything.

use pcr::autotune::DEFAULT_MSSIM_THRESHOLD;
use pcr::core::container::write_container as core_write_container;
use pcr::core::{
    DecisionLog, DecisionLogWriter, DecisionRecord, PcrContainer, PcrDataset, PcrDatasetBuilder,
    PcrRecord, SampleMeta, DECISION_LOG_FILE,
};
use pcr::datasets::{DatasetSpec, Scale};
use pcr::jpeg::sample::{coeffs_to_planes_pooled, planes_to_image, SamplePlane};
use pcr::jpeg::{DecodeObserver, DecodedCoeffs, EncodeConfig};
use pcr::loader::{
    open_container_store, probe_source_scores, DecodeMode, EpochStream, FidelityConfig,
    FidelityController, IoModel, LoaderConfig, OpenedContainer, ParallelConfig, ParallelLoader,
    ReadPlanner, RecordSource, RetryPolicy, ShardStoreConfig, ShardedSource,
};
use pcr::metrics::{msssim, EpochFaultCounters, FidelityEpoch, Plane, TriggerKind};
use pcr::nn::{Matrix, Mlp, ModelSpec, SgdMomentum};
use pcr::sim::queueing;
use pcr::storage::{Clock, DeviceProfile, FaultDecision, FaultPlan, ObjectStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A decoded image (`pcr::jpeg::ImageBuf`).
pub type Image = pcr::jpeg::ImageBuf;

/// Raw interleaved pixels of `img`.
pub fn pixels(img: &Image) -> &[u8] {
    img.data()
}

// ---------------------------------------------------------------- datasets

/// The corpus geometry: `DatasetSpec::ham10000_like` — 160 ± 16 px, source
/// quality 100, 7 classes — with `train_images` fixed by the benchmark.
/// The spec's own seed (the class signatures, i.e. the task) is left at
/// its default; `--seed` drives the per-sample generator below.
pub struct SourceSpec(DatasetSpec);

impl SourceSpec {
    pub fn ham10000_like(train_images: usize) -> Self {
        let mut spec = DatasetSpec::ham10000_like(Scale::Small);
        spec.train_images = train_images;
        spec.test_images = 0;
        Self(spec)
    }

    pub fn num_images(&self) -> usize {
        self.0.train_images
    }

    pub fn num_classes(&self) -> usize {
        self.0.num_classes
    }

    pub fn jpeg_quality(&self) -> u8 {
        self.0.jpeg_quality
    }
}

/// Per-sample generator state, seeded from `--seed`.
pub struct SampleRng(StdRng);

impl SampleRng {
    pub fn new(seed: u64) -> Self {
        Self(StdRng::seed_from_u64(seed))
    }
}

/// `pcr::datasets::generate_image`.
pub fn generate_image(spec: &SourceSpec, label: u32, rng: &mut SampleRng) -> Image {
    pcr::datasets::generate_image(&spec.0, label, &mut rng.0)
}

// -------------------------------------------------------------------- jpeg

/// `pcr::jpeg::encode` with `EncodeConfig::baseline`: the source bytes.
pub fn encode_baseline(img: &Image, quality: u8) -> Res<Vec<u8>> {
    pcr::jpeg::encode(img, &EncodeConfig::baseline(quality)).map_err(err)
}

/// `pcr::jpeg::decode` — used to check packed pixels against the source.
pub fn decode_jpeg(bytes: &[u8]) -> Res<Image> {
    pcr::jpeg::decode(bytes).map_err(err)
}

/// `pcr::jpeg::to_progressive`: the lossless transcode step of packing.
pub fn to_progressive(baseline: &[u8]) -> Res<Vec<u8>> {
    pcr::jpeg::to_progressive(baseline).map_err(err)
}

/// `pcr::jpeg::split_scans`; returns the scan count.
pub fn split_scans(progressive: &[u8]) -> Res<usize> {
    pcr::jpeg::split_scans(progressive)
        .map(|l| l.num_scans())
        .map_err(err)
}

/// Reusable decode buffers (what `pcr::jpeg::DecodeScratch` pools).
#[derive(Default)]
pub struct DecodeBuffers {
    jpeg: Vec<u8>,
    coeffs: Vec<Vec<i16>>,
    planes: Vec<Vec<u8>>,
}

/// Called round every entropy-coded segment of a decode.
pub trait ScanTimer {
    fn scan_begin(&mut self);
    fn scan_end(&mut self);
}

struct ObserverAdapter<'a>(&'a mut dyn ScanTimer);

impl DecodeObserver for ObserverAdapter<'_> {
    fn segment_begin(&mut self, _scan_idx: usize, _seg: usize, _units: u32) {
        self.0.scan_begin();
    }
    fn segment_end(&mut self, _scan_idx: usize, _seg: usize) {
        self.0.scan_end();
    }
}

/// Entropy-decoded coefficients of one image.
pub struct Coeffs(DecodedCoeffs);

/// Reconstructed component planes of one image.
pub struct Planes(Vec<SamplePlane>);

/// `pcr::jpeg::decode_coeffs_observed` over the JPEG last assembled into
/// `buf` (see [`Record::assemble_into`]).
pub fn decode_coeffs_observed(buf: &mut DecodeBuffers, timer: &mut dyn ScanTimer) -> Res<Coeffs> {
    pcr::jpeg::decode_coeffs_observed(&buf.jpeg, &mut buf.coeffs, &mut ObserverAdapter(timer))
        .map(Coeffs)
        .map_err(err)
}

/// `pcr::jpeg::sample::coeffs_to_planes_pooled`: dequantise + IDCT.
pub fn coeffs_to_planes(coeffs: &Coeffs, buf: &mut DecodeBuffers) -> Res<Planes> {
    coeffs_to_planes_pooled(
        &coeffs.0.coeffs,
        &coeffs.0.frame,
        &coeffs.0.qtables,
        &mut buf.planes,
    )
    .map(Planes)
    .map_err(err)
}

/// `pcr::jpeg::sample::planes_to_image`: upsample + colour conversion.
/// Returns the buffers to `buf`, as `pcr::jpeg::decode_with` does.
pub fn planes_to_pixels(coeffs: Coeffs, planes: Planes, buf: &mut DecodeBuffers) -> Res<Image> {
    let img = planes_to_image(&planes.0, &coeffs.0.frame).map_err(err);
    for p in planes.0 {
        p.recycle_into(&mut buf.planes);
    }
    coeffs.0.coeffs.recycle_into(&mut buf.coeffs);
    img
}

/// Bytes of the JPEG last assembled into `buf`.
pub fn assembled_len(buf: &DecodeBuffers) -> usize {
    buf.jpeg.len()
}

// -------------------------------------------------------------------- core

/// Images per record and records per shard of every container built here.
pub const IMAGES_PER_RECORD: usize = 8;
pub const RECORDS_PER_SHARD: usize = 15;
pub const NUM_GROUPS: usize = 10;

fn meta(label: u32, index: usize) -> SampleMeta {
    SampleMeta {
        label,
        id: format!("img-{index:05}"),
    }
}

/// `PcrDatasetBuilder::new(8, 10)`.
pub struct Packer(PcrDatasetBuilder);

impl Packer {
    pub fn new() -> Self {
        Self(PcrDatasetBuilder::new(IMAGES_PER_RECORD, NUM_GROUPS))
    }

    /// `PcrDatasetBuilder::add_baseline_jpeg`.
    pub fn add_baseline_jpeg(&mut self, label: u32, index: usize, jpeg: &[u8]) -> Res<()> {
        self.0
            .add_baseline_jpeg(meta(label, index), jpeg)
            .map_err(err)
    }

    /// `PcrDatasetBuilder::add_progressive_jpeg`.
    pub fn add_progressive_jpeg(&mut self, label: u32, index: usize, jpeg: Vec<u8>) -> Res<()> {
        self.0
            .add_progressive_jpeg(meta(label, index), jpeg)
            .map_err(err)
    }

    /// `PcrDatasetBuilder::finish`.
    pub fn finish(self) -> Res<Packed> {
        self.0.finish().map(Packed).map_err(err)
    }
}

/// An in-memory packed dataset.
pub struct Packed(PcrDataset);

impl Packed {
    pub fn data_bytes(&self) -> u64 {
        self.0.records.iter().map(|r| r.len() as u64).sum()
    }
}

/// `pcr::core::container::write_container` with 15 records per shard.
/// Returns the shard-file bytes the manifest accounts for.
pub fn write_container(packed: &Packed, dir: &Path) -> Res<u64> {
    core_write_container(&packed.0, dir, RECORDS_PER_SHARD)
        .map(|m| m.total_file_bytes())
        .map_err(err)
}

/// An opened container catalog (`PcrContainer`).
pub struct Container(PcrContainer);

impl Container {
    /// `PcrContainer::open`.
    pub fn open(dir: &Path) -> Res<Self> {
        PcrContainer::open(dir).map(Self).map_err(err)
    }

    /// `PcrContainer::verify`.
    pub fn verify(&self) -> Res<()> {
        self.0.verify().map_err(err)
    }

    pub fn num_images(&self) -> usize {
        self.0.num_images()
    }

    pub fn num_records(&self) -> usize {
        self.0.num_records()
    }

    pub fn num_shards(&self) -> usize {
        self.0.shards.len()
    }

    /// `PcrContainer::bytes_at_group` (manifest zone maps).
    pub fn bytes_at_group(&self, g: usize) -> Res<u64> {
        self.0.bytes_at_group(g).map_err(err)
    }

    /// `PcrContainer::index_bytes_read`.
    pub fn index_bytes_read(&self) -> u64 {
        self.0.index_bytes_read()
    }

    /// `PcrContainer::entry` → `ShardIndex::entry`: resolves one record.
    pub fn resolve_entry(&self, global: usize) -> Res<u64> {
        self.0.entry(global).map(|(_, rec)| rec.offset).map_err(err)
    }

    /// `PcrContainer::read_shard_verified`.
    pub fn read_shard_verified(&self, shard: usize) -> Res<Vec<u8>> {
        self.0.read_shard_verified(shard).map_err(err)
    }

    pub fn shard_name(&self, shard: usize) -> &str {
        &self.0.manifest.shards[shard].file_name
    }

    /// The independent read path of the pixel check: `PcrContainer::entry`
    /// + `read_record` straight from the shard file, no object store.
    pub fn read_record_from_disk(&self, global: usize) -> Res<Vec<u8>> {
        let (shard, rec) = self.0.entry(global).map_err(err)?;
        self.0.read_record(shard, &rec).map_err(err)
    }
}

/// `PcrRecord::parse` + `PcrRecord::decode_image` for every image of a
/// full record: the reference decode of the pixel check.
pub fn decode_record_reference(bytes: &[u8], group: usize) -> Res<Vec<Image>> {
    let rec = PcrRecord::parse(bytes).map_err(err)?;
    (0..rec.num_images())
        .map(|i| rec.decode_image(i, group).map_err(err))
        .collect()
}

/// A parsed record prefix (`PcrRecord`).
pub struct Record<'a>(PcrRecord<'a>);

impl<'a> Record<'a> {
    /// `PcrRecord::parse`.
    pub fn parse(bytes: &'a [u8]) -> Res<Self> {
        PcrRecord::parse(bytes).map(Self).map_err(err)
    }

    pub fn num_images(&self) -> usize {
        self.0.num_images()
    }

    /// `PcrRecord::available_groups`.
    pub fn available_groups(&self) -> usize {
        self.0.available_groups()
    }

    /// `PcrRecord::jpeg_at_group_into`: reassembles image `i` at group `g`.
    pub fn assemble_into(&self, i: usize, g: usize, buf: &mut DecodeBuffers) -> Res<()> {
        self.0.jpeg_at_group_into(i, g, &mut buf.jpeg).map_err(err)
    }
}

/// Path of a container's decision log.
pub fn decision_log_path(container_dir: &Path) -> PathBuf {
    container_dir.join(DECISION_LOG_FILE)
}

/// `DecisionLog::read` + `verify`; returns the record count.
pub fn verify_decision_log(path: &Path) -> Res<usize> {
    let log = DecisionLog::read(path).map_err(err)?;
    log.verify().map_err(err)?;
    Ok(log.len())
}

// ----------------------------------------------------------------- storage

/// The modelled device in front of the shard objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    NvmeLocal,
    RemoteObjectStore,
}

impl Device {
    fn profile(self) -> DeviceProfile {
        match self {
            Device::NvmeLocal => DeviceProfile::nvme_local(),
            Device::RemoteObjectStore => DeviceProfile::remote_object_store(),
        }
    }
}

/// How a workload opens its container (`ShardStoreConfig`).
#[derive(Debug, Clone, Copy)]
pub struct StoreSetup {
    pub device: Device,
    pub cache_bytes: u64,
    pub readahead: u64,
}

impl StoreSetup {
    fn config(&self) -> ShardStoreConfig {
        ShardStoreConfig {
            profile: self.device.profile(),
            cache_bytes: self.cache_bytes,
            readahead: self.readahead,
            verify: true,
        }
    }
}

/// What a fault schedule does to the first attempt at one read site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstAttempt {
    Clean,
    Transient,
    Torn,
    LatencySpike,
    Persistent,
}

/// A seeded storage-fault schedule (`FaultPlan`).
#[derive(Clone)]
pub struct FaultSchedule(FaultPlan);

impl FaultSchedule {
    /// `FaultPlan { seed, transient, torn, latency, latency_factor }`,
    /// error-once, no persistent fault kinds.
    pub fn new(seed: u64, transient: f64, torn: f64, latency: f64, latency_factor: f64) -> Self {
        Self(FaultPlan {
            seed,
            transient,
            torn,
            latency,
            latency_factor,
            ..FaultPlan::default()
        })
    }

    /// `FaultPlan::decide` for attempt 1 at `(name, offset, len)`.
    pub fn first_attempt(&self, name: &str, offset: u64, len: u64) -> FirstAttempt {
        match self.0.decide(name, offset, len, 1) {
            FaultDecision::Deliver { latency_factor } if latency_factor > 1.0 => {
                FirstAttempt::LatencySpike
            }
            FaultDecision::Deliver { .. } => FirstAttempt::Clean,
            FaultDecision::Transient => FirstAttempt::Transient,
            FaultDecision::Torn { .. } => FirstAttempt::Torn,
            FaultDecision::Corrupt | FaultDecision::Timeout => FirstAttempt::Persistent,
        }
    }
}

/// Device and fault counters of one store.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    pub device_reads: u64,
    pub device_bytes: u64,
    pub cache_hit_rate: f64,
    pub injected_faults: u64,
}

/// The outcome of one `ObjectStore::read(Clock::Wall, …)`.
pub enum StoreRead {
    /// Bytes delivered, with the modelled service time in seconds.
    Data(pcr::storage::ByteView, f64),
    /// A retryable injected failure.
    Retryable,
    /// A failure retrying cannot cure.
    Fatal,
}

/// An `ObjectStore` being filled by hand (the traced open decomposition).
pub struct Store(Arc<ObjectStore>);

impl Store {
    /// `ObjectStore::with_cache` + `set_readahead`.
    pub fn new(setup: &StoreSetup) -> Self {
        let store = ObjectStore::with_cache(setup.device.profile(), setup.cache_bytes);
        store.set_readahead(setup.readahead);
        Self(Arc::new(store))
    }

    /// `ObjectStore::put`.
    pub fn put(&self, name: &str, bytes: Vec<u8>) {
        self.0.put(name, bytes);
    }
}

// ------------------------------------------------------------------ loader

/// A store-backed container ready to stream (`OpenedContainer`).
pub struct Opened {
    container: Container,
    store: Arc<ObjectStore>,
    source: Arc<ShardedSource>,
}

/// One planned ranged read.
pub struct Plan<'a> {
    pub name: &'a str,
    pub offset: u64,
    pub len: u64,
}

/// `ShardedSource::from_container`.
pub struct Source(Arc<ShardedSource>);

impl Source {
    pub fn from_container(container: &Container) -> Res<Self> {
        ShardedSource::from_container(&container.0)
            .map(|s| Self(Arc::new(s)))
            .map_err(err)
    }
}

impl Opened {
    /// `pcr::loader::open_container_store` on a cold `ObjectStore`.
    pub fn open(dir: &Path, setup: &StoreSetup) -> Res<Self> {
        let OpenedContainer {
            container,
            store,
            source,
        } = open_container_store(dir, &setup.config()).map_err(err)?;
        Ok(Self {
            container: Container(container),
            store,
            source,
        })
    }

    /// The same three parts, built by hand by the traced open phase.
    pub fn from_parts(container: Container, store: Store, source: Source) -> Self {
        Self {
            container,
            store: store.0,
            source: source.0,
        }
    }

    pub fn container(&self) -> &Container {
        &self.container
    }

    /// `ObjectStore::set_fault_plan`; also resets per-site attempt counters.
    pub fn arm_faults(&self, schedule: &FaultSchedule) {
        self.store.set_fault_plan(Some(schedule.0.clone()));
    }

    /// `device_stats()`, `cache_hit_rate()` and `fault_stats()`.
    pub fn counters(&self) -> StoreCounters {
        let dev = self.store.device_stats();
        let faults = self.store.fault_stats();
        StoreCounters {
            device_reads: dev.reads,
            device_bytes: dev.bytes,
            cache_hit_rate: self.store.cache_hit_rate(),
            injected_faults: faults.injected_errors() + faults.latency_spikes,
        }
    }

    /// Labels of every image, in container order.
    pub fn labels(&self) -> Vec<u32> {
        (0..self.source.num_records())
            .flat_map(|i| self.source.labels(i).iter().copied())
            .collect()
    }

    pub fn record_labels(&self, idx: usize) -> &[u32] {
        self.source.labels(idx)
    }

    /// `ShardedSource::bytes_at_group`.
    pub fn source_bytes_at_group(&self, g: usize) -> u64 {
        self.source.bytes_at_group(g)
    }

    /// `ReadPlanner::plan` for record `idx` at `group`.
    pub fn plan(&self, planner: &Planner, idx: usize, group: usize) -> Plan<'_> {
        let p = planner.0.clone().at_group(group).plan(&*self.source, idx);
        Plan {
            name: p.name,
            offset: p.offset,
            len: p.len,
        }
    }

    /// `ObjectStore::read(Clock::Wall, …)`.
    pub fn read(&self, plan: &Plan<'_>) -> StoreRead {
        match self
            .store
            .read(Clock::Wall, plan.name, plan.offset, plan.len)
        {
            Ok(r) => StoreRead::Data(r.data, r.finish - r.start),
            Err(e) if e.is_retryable() => StoreRead::Retryable,
            Err(_) => StoreRead::Fatal,
        }
    }

    /// `probe_source_scores`: MSSIM-vs-full per candidate group.
    pub fn probe_scores(&self, candidates: &[usize], max_images: usize) -> Vec<(usize, f64)> {
        probe_source_scores(&self.store, &*self.source, candidates, max_images)
    }
}

/// Epoch order and prefix planning (`ReadPlanner`), shuffled by `seed`.
pub struct Planner(ReadPlanner);

impl Planner {
    pub fn new(seed: u64) -> Self {
        Self(ReadPlanner {
            scan_group: NUM_GROUPS,
            shuffle: true,
            seed,
        })
    }

    /// `ReadPlanner::epoch_iter` materialised: the record index visited at
    /// each position of `epoch`.
    pub fn epoch_order(&self, records: usize, epoch: u64) -> Vec<usize> {
        let order = self.0.epoch_iter(records, epoch);
        (0..records).map(|pos| order.get(pos)).collect()
    }
}

/// The default `RetryPolicy` with an epoch budget no workload can exhaust.
pub struct RetryRules(RetryPolicy);

impl RetryRules {
    pub fn non_binding() -> Self {
        Self(RetryPolicy {
            epoch_retry_budget_s: 3600.0,
            ..RetryPolicy::default()
        })
    }

    pub fn max_retries(&self) -> u32 {
        self.0.max_retries
    }
}

/// Whether workers sleep each read's modelled service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Io {
    Instant,
    EmulatedLatency,
}

/// The wall-clock loader (`ParallelLoader<ShardedSource>`).
pub struct Loader(ParallelLoader<ShardedSource>);

impl Loader {
    /// `ParallelLoader::new` with real decode, batch 32 and the default
    /// prefetch depths.
    pub fn new(opened: &Opened, workers: usize, io: Io, seed: u64, retry: &RetryRules) -> Self {
        let config = ParallelConfig {
            loader: LoaderConfig {
                threads: workers,
                decode: DecodeMode::Real,
                seed,
                retry: retry.0.clone(),
                ..LoaderConfig::at_group(NUM_GROUPS)
            },
            batch_size: BATCH_SIZE,
            io: match io {
                Io::Instant => IoModel::Instant,
                Io::EmulatedLatency => IoModel::EmulatedLatency,
            },
            ..ParallelConfig::default()
        };
        Self(ParallelLoader::new(
            Arc::clone(&opened.store),
            Arc::clone(&opened.source),
            config,
        ))
    }

    /// `ParallelLoader::spawn_epoch_at`.
    pub fn spawn_epoch_at(&self, epoch: u64, group: usize) -> Stream {
        Stream(self.0.spawn_epoch_at(epoch, group))
    }
}

pub const BATCH_SIZE: usize = 32;

/// One delivered minibatch.
pub struct Batch {
    pub images: Vec<Image>,
    pub labels: Vec<u32>,
}

/// What one epoch's workers counted (`ParallelStats` + its `FaultReport`).
#[derive(Debug, Clone, Default)]
pub struct EpochCounters {
    pub bytes_read: u64,
    pub records: u64,
    pub decode_nanos: u64,
    pub io_wait_nanos: u64,
    pub retries: u64,
    pub backoff_s: f64,
    pub degraded_records: u64,
    pub quarantined_records: u64,
    /// `(label, count)` of quarantined images.
    pub quarantined_labels: Vec<(u32, u64)>,
}

/// A running epoch (`EpochStream`).
pub struct Stream(EpochStream);

impl Stream {
    /// Blocks for the next minibatch; `None` when the epoch is drained.
    pub fn next_batch(&self) -> Option<Batch> {
        self.0.batches.recv().ok().map(|b| Batch {
            images: b.images,
            labels: b.labels,
        })
    }

    /// Reads the epoch's statistics and joins every pipeline thread.
    /// Joining before the stream is drained cancels the epoch.
    pub fn finish(self) -> EpochCounters {
        let stats = Arc::clone(&self.0.stats);
        self.0.join();
        let faults = stats.fault_report();
        EpochCounters {
            bytes_read: stats.bytes_read.load(Ordering::Relaxed),
            records: stats.records_loaded.load(Ordering::Relaxed),
            decode_nanos: stats.decode_nanos.load(Ordering::Relaxed),
            io_wait_nanos: stats.io_wait_nanos.load(Ordering::Relaxed),
            retries: faults.retries,
            backoff_s: faults.backoff_s,
            degraded_records: faults.degraded_records,
            quarantined_records: faults.quarantined_records,
            quarantined_labels: faults.quarantined_labels.into_iter().collect(),
        }
    }
}

// ---------------------------------------------------- autotune + audit log

/// `FidelityController` plus the trigger bookkeeping `pcr train` keeps
/// beside it.
pub struct Controller {
    inner: FidelityController,
    trigger: TriggerKind,
}

impl Controller {
    /// `FidelityController::new` with the default MSSIM threshold.
    pub fn new(plateau_window: usize, min_rel_improvement: f64, scores: Vec<(usize, f64)>) -> Self {
        let config = FidelityConfig {
            threshold: DEFAULT_MSSIM_THRESHOLD,
            plateau_window,
            min_rel_improvement,
            retune: false,
        };
        Self {
            inner: FidelityController::new(config, scores),
            trigger: TriggerKind::Start,
        }
    }

    /// `FidelityController::group`.
    pub fn group(&self) -> usize {
        self.inner.group()
    }

    /// `FidelityController::observe_loss` (+ `trigger_after`).
    pub fn observe_loss(&mut self, loss: f64) -> Option<usize> {
        let switched = self.inner.observe_loss(loss);
        self.trigger = self.inner.trigger_after(switched);
        switched
    }

    /// `FidelityController::decisions` as `(observation, group)` pairs.
    pub fn decisions(&self) -> Vec<(usize, usize)> {
        self.inner
            .decisions()
            .iter()
            .map(|d| (d.at_observation, d.scan_group))
            .collect()
    }
}

/// What one training epoch reports to the audit log.
pub struct EpochEntry {
    pub epoch: u64,
    pub scan_group: usize,
    pub bytes_read: u64,
    pub bytes_full: u64,
    pub images: u64,
    pub images_per_sec: f64,
    pub cache_hit_rate: f64,
    pub loss: f64,
    pub retries: u64,
    pub degraded_records: u64,
    pub quarantined_records: u64,
    pub quarantined_images: u64,
}

/// The container's append-only decision log (`DecisionLogWriter`).
pub struct AuditLog(DecisionLogWriter);

impl AuditLog {
    /// `DecisionLogWriter::open`.
    pub fn open(path: &Path) -> Res<Self> {
        DecisionLogWriter::open(path).map(Self).map_err(err)
    }

    /// `DecisionRecord::from_epoch` + `DecisionLogWriter::append`, with the
    /// trigger the controller computed for this epoch. Call before
    /// [`Controller::observe_loss`], as `pcr train` does.
    pub fn append(&mut self, controller: &Controller, e: &EpochEntry) -> Res<()> {
        let entry = FidelityEpoch {
            epoch: e.epoch,
            scan_group: e.scan_group,
            trigger: controller.trigger,
            probe_scores: controller.inner.probe_scores_wire(),
            bytes_read: e.bytes_read,
            images: e.images,
            images_per_sec: e.images_per_sec,
            cache_hit_rate: e.cache_hit_rate,
            loss: e.loss,
            faults: EpochFaultCounters {
                retries: e.retries,
                degraded_records: e.degraded_records,
                quarantined_records: e.quarantined_records,
                quarantined_images: e.quarantined_images,
            },
        };
        self.0
            .append(&DecisionRecord::from_epoch(&entry, e.bytes_full))
            .map_err(err)
    }
}

// ----------------------------------------------------------------- metrics

/// `pcr::metrics::msssim` over the luma planes of two images.
pub fn msssim_pair(a: &Image, b: &Image) -> f64 {
    let plane = |img: &Image| {
        let luma = img.to_luma();
        Plane::from_u8(luma.width() as usize, luma.height() as usize, luma.data())
    };
    msssim(&plane(a), &plane(b))
}

// ---------------------------------------------------------------------- nn

/// `ModelSpec::resnet_like` + `Mlp` + `SgdMomentum(0.9)`.
pub struct Model {
    spec: ModelSpec,
    mlp: Mlp,
    opt: SgdMomentum,
    lr: f32,
}

/// Loss and accuracy of one optimisation step.
pub struct StepResult {
    pub loss: f64,
    pub n: usize,
}

impl Model {
    pub fn resnet_like(num_classes: usize, seed: u64, lr: f32) -> Self {
        let spec = ModelSpec::resnet_like();
        Self {
            mlp: Mlp::new(spec.clone(), num_classes, seed),
            opt: SgdMomentum::new(0.9),
            spec,
            lr,
        }
    }

    /// `ModelSpec::featurize`, appended to `features`.
    pub fn featurize_into(&self, img: &Image, features: &mut Vec<f32>) {
        features.extend(self.spec.featurize(img));
    }

    /// `Mlp::backward` + `SgdMomentum::step` on one batch of features.
    pub fn step(&mut self, features: Vec<f32>, labels: &[u32]) -> StepResult {
        let x = Matrix::from_vec(labels.len(), self.spec.input_dim(), features);
        let out = self.mlp.backward(&x, labels);
        self.opt.step(&mut self.mlp, &out.grads, self.lr);
        StepResult {
            loss: out.loss,
            n: out.n,
        }
    }
}

// --------------------------------------------------------------------- sim

/// `queueing::system_throughput(compute, loader)` — Lemma A.4's
/// `min(X_c, X_g)` — with the loader rate of Lemma A.2
/// (`queueing::loader_throughput`) summed over `workers` independent
/// request streams; `None` for the device means storage is not modelled.
pub fn predicted_images_per_s(
    compute_images_per_s: f64,
    device: Option<Device>,
    mean_image_bytes: f64,
    workers: usize,
) -> f64 {
    let loader = match device {
        Some(d) => {
            workers as f64
                * queueing::loader_throughput(&d.profile(), mean_image_bytes, IMAGES_PER_RECORD)
        }
        None => f64::INFINITY,
    };
    queueing::system_throughput(compute_images_per_s, loader)
}
