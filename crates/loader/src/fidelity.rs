//! Online fidelity control: the paper's *dynamic* compression knob made
//! real (section 4.5). A [`FidelityController`] starts an experiment at
//! full image quality, watches the training loss with `pcr-autotune`'s
//! [`PlateauDetector`], and — once learning plateaus — drops the wall-clock
//! loader's scan-group prefix to the cheapest group whose quality score
//! (MSSIM against full quality, via `pcr-metrics`) clears a threshold.
//!
//! The policy layer is deliberately separate from the mechanism layer: the
//! controller only *chooses* a scan group;
//! [`ParallelLoader::spawn_epoch_at`] obeys it through the same
//! [`ReadPlanner`](crate::source::ReadPlanner) every loader plans with, so
//! the epoch record order is untouched by fidelity decisions and runs stay
//! comparable across policies. [`ParallelLoader::run_dynamic`] is the one
//! epoch loop around the two — the loop `pcr train` runs and the golden
//! decision trace pins.

use crate::parallel::{Minibatch, ParallelLoader};
use pcr_autotune::{select_lowest_qualifying, PlateauDetector, DEFAULT_MSSIM_THRESHOLD};
use pcr_core::dataset::map_in_order_with;
use pcr_core::{DecisionRecord, PcrRecord, RecordScratch};
use pcr_metrics::{FidelityEpoch, FidelityTrace, MsssimReference, Plane, TriggerKind};
use pcr_storage::{ByteView, Clock, ObjectStore};

/// Configuration of the online fidelity policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityConfig {
    /// Quality-score threshold a group must clear to be selectable
    /// (default: the paper's 95% MSSIM rule).
    pub threshold: f64,
    /// Plateau-detector look-back window in epochs.
    pub plateau_window: usize,
    /// Minimum relative loss improvement over the window to count as
    /// progress.
    pub min_rel_improvement: f64,
    /// Keep watching for plateaus after the first switch and re-select
    /// (the selection rule may pick a different group if scores change).
    pub retune: bool,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        Self {
            threshold: DEFAULT_MSSIM_THRESHOLD,
            plateau_window: 3,
            min_rel_improvement: 0.01,
            retune: false,
        }
    }
}

/// One recorded controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityDecision {
    /// Loss observation count at which the switch happened.
    pub at_observation: usize,
    /// Scan group switched to.
    pub scan_group: usize,
}

/// The online fidelity controller: consumes per-epoch losses, emits the
/// scan group the next epoch should read at.
#[derive(Debug, Clone)]
pub struct FidelityController {
    config: FidelityConfig,
    detector: PlateauDetector,
    /// `(group, quality score)` per candidate group, higher is better.
    scores: Vec<(usize, f64)>,
    current: usize,
    observations: usize,
    tuned: bool,
    decisions: Vec<FidelityDecision>,
}

impl FidelityController {
    /// Creates a controller over candidate `scores` (`(group, score)`
    /// pairs, e.g. from [`probe_source_scores`]). Training starts at the
    /// highest candidate group — full quality — exactly as the paper
    /// prescribes.
    pub fn new(config: FidelityConfig, scores: Vec<(usize, f64)>) -> Self {
        let current =
            scores.iter().map(|&(g, _)| g).max().expect("at least one candidate scan group");
        let detector = PlateauDetector::new(config.plateau_window, config.min_rel_improvement);
        Self { config, detector, scores, current, observations: 0, tuned: false, decisions: Vec::new() }
    }

    /// The scan group the next epoch should read at.
    pub fn group(&self) -> usize {
        self.current
    }

    /// Every switch the controller has made, in order.
    pub fn decisions(&self) -> &[FidelityDecision] {
        &self.decisions
    }

    /// The candidate scores in the decision log's wire shape
    /// (`(u16 group, MSSIM)`); groups beyond `u16::MAX` saturate.
    pub fn probe_scores_wire(&self) -> Vec<(u16, f64)> {
        self.scores
            .iter()
            .map(|&(g, s)| (u16::try_from(g).unwrap_or(u16::MAX), s))
            .collect()
    }

    /// The trigger kind explaining the *next* epoch's scan group, given
    /// what [`FidelityController::observe_loss`] just returned: a switch
    /// is a [`TriggerKind::Plateau`] the first time and a
    /// [`TriggerKind::Retune`] afterwards; no switch is a
    /// [`TriggerKind::Hold`].
    pub fn trigger_after(&self, switched: Option<usize>) -> TriggerKind {
        match switched {
            Some(_) if self.decisions.len() <= 1 => TriggerKind::Plateau,
            Some(_) => TriggerKind::Retune,
            None => TriggerKind::Hold,
        }
    }

    /// Feeds one epoch's training loss. Returns `Some(group)` when the
    /// controller switches scan groups (learning plateaued and a cheaper
    /// qualifying group exists), `None` otherwise.
    pub fn observe_loss(&mut self, loss: f64) -> Option<usize> {
        self.observations += 1;
        let plateaued = self.detector.push(loss);
        if !plateaued || (self.tuned && !self.config.retune) {
            return None;
        }
        // Tuning phase: the cheapest group whose score clears the
        // threshold (falls back to the highest group when none qualify).
        let chosen = select_lowest_qualifying(&self.scores, self.config.threshold);
        self.tuned = true;
        self.detector.reset();
        if chosen == self.current {
            return None;
        }
        self.current = chosen;
        self.decisions.push(FidelityDecision { at_observation: self.observations, scan_group: chosen });
        Some(chosen)
    }
}

/// Measures MSSIM-vs-full-quality per candidate scan group over a sample
/// of stored records — the per-run `pcr-metrics` reading a
/// [`FidelityController`] selects with — for any PCR-format
/// [`RecordSource`](crate::source::RecordSource): a `MetaDb` over
/// per-record objects or a `ShardedSource` whose plans point into packed
/// shard objects. Full records are fetched via the source's own
/// full-quality read plan, so the probe works identically for both.
/// (Baseline sources whose bytes are not `.pcr` records contribute no
/// samples; their candidates score 0.)
///
/// The sample is the first `max_images` images of the records that read
/// and parse, in record order (one whose full-quality decode then fails
/// stays in the sample and contributes no score). Reads happen on the
/// calling thread, one record after another, through the clocked store
/// path ([`Clock::Wall`]), so probe traffic shows in the device/cache
/// statistics like any other read and is the same whatever machine
/// probes; probe before training (or reset the device) if that matters to
/// an experiment. Decoding and scoring then fan out over the machine's
/// cores one image at a time, each thread with its own decode scratch,
/// and the per-image scores are summed in image order: the result does
/// not depend on the core count, to the bit.
///
/// Each image's full stream is entropy-decoded once
/// ([`PcrRecord::decode_groups_with`]): its pixels at every *distinct*
/// group after clamping to the record's group count are rebuilt from that
/// one pass, each the bytes a decode of that group's prefix gives. The
/// candidates wait as 8-bit luma until the full group's luma has become
/// the one prepared [`MsssimReference`] they are scored against. A
/// candidate that clamps to the full group is the reference itself and
/// scores 1.0 by definition, without being scored.
pub fn probe_source_scores<S: crate::source::RecordSource + ?Sized>(
    store: &ObjectStore,
    source: &S,
    candidates: &[usize],
    max_images: usize,
) -> Vec<(usize, f64)> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    probe_with_workers(store, source, candidates, max_images, workers)
}

fn probe_with_workers<S: crate::source::RecordSource + ?Sized>(
    store: &ObjectStore,
    source: &S,
    candidates: &[usize],
    max_images: usize,
    workers: usize,
) -> Vec<(usize, f64)> {
    let mut candidates: Vec<usize> = candidates.to_vec();
    candidates.sort_unstable();
    candidates.dedup();
    // (record bytes, image index) of every sampled image.
    let mut sampled: Vec<(ByteView, usize)> = Vec::new();
    'records: for idx in 0..source.num_records() {
        // A plan at usize::MAX clamps to the full record for PCR sources.
        let plan = source.plan(idx, usize::MAX);
        let Ok(read) = store.read(Clock::Wall, plan.name, plan.offset, plan.len) else {
            continue;
        };
        let Ok(rec) = PcrRecord::parse(&read.data) else { continue };
        for i in 0..rec.num_images() {
            if sampled.len() >= max_images.max(1) {
                break 'records;
            }
            sampled.push((read.data.clone(), i));
        }
    }

    // One image at a time to whichever thread is free, each thread with
    // its own scratch; the scores come back in image order.
    let per_image = map_in_order_with(sampled, workers, ProbeScratch::default, |scratch, (bytes, i)| {
        score_image(&bytes, i, &candidates, scratch)
    });

    let mut sums = vec![0.0f64; candidates.len()];
    // Per-candidate sample counts: a group whose decode fails for some
    // image must not have its mean deflated by images it never scored.
    let mut counts = vec![0u64; candidates.len()];
    for scores in per_image.iter().flatten() {
        for (slot, score) in scores.iter().enumerate() {
            if let Some(score) = score {
                sums[slot] += score;
                counts[slot] += 1;
            }
        }
    }
    candidates
        .into_iter()
        .zip(sums.into_iter().zip(counts))
        .map(|(g, (s, n))| (g, s / n.max(1) as f64))
        .collect()
}

/// What one probe thread reuses from one image to the next.
#[derive(Default)]
struct ProbeScratch {
    decode: RecordScratch,
    /// 8-bit luma per decoded group.
    luma: Vec<Vec<u8>>,
    /// The f64 plane a luma is scored as.
    plane: Plane,
    /// The image's full-quality luma, prepared anew for each image.
    reference: MsssimReference,
}

/// One sampled image's MSSIM per candidate (sorted ascending): `None`
/// for the image when its full-quality decode fails, `None` for a
/// candidate whose own decode fails.
fn score_image(
    record: &[u8],
    image: usize,
    candidates: &[usize],
    scratch: &mut ProbeScratch,
) -> Option<Vec<Option<f64>>> {
    let rec = PcrRecord::parse(record).ok()?;
    let full_group = rec.num_groups();
    // Sorted candidates stay sorted when clamped, so the distinct groups
    // below full quality come out ascending; the full group goes last.
    let clamped: Vec<usize> = candidates.iter().map(|&g| g.clamp(1, full_group)).collect();
    let mut groups: Vec<usize> = clamped.iter().copied().filter(|&g| g < full_group).collect();
    groups.dedup();
    groups.push(full_group);
    let full = groups.len() - 1;

    let ProbeScratch { decode, luma, plane, reference } = scratch;
    if luma.len() < groups.len() {
        luma.resize_with(groups.len(), Vec::new);
    }
    let mut decoded = vec![false; groups.len()];
    let (mut width, mut height) = (0, 0);
    rec.decode_groups_with(image, &groups, decode, |k, img| {
        if let (Ok(img), Some(out), Some(ok)) = (img, luma.get_mut(k), decoded.get_mut(k)) {
            (width, height) = (img.width() as usize, img.height() as usize);
            img.luma_into(out);
            *ok = true;
        }
    });
    if !decoded[full] {
        return None;
    }
    plane.set_u8(width, height, &luma[full]);
    reference.prepare(plane);
    let mut score = |k: usize| {
        plane.set_u8(width, height, &luma[k]);
        reference.score(plane)
    };
    let mut scores: Vec<Option<f64>> = (0..full).map(|k| decoded[k].then(|| score(k))).collect();
    scores.push(Some(1.0));
    let score_of = |g: usize| groups.iter().position(|&d| d == g).and_then(|k| scores[k]);
    Some(clamped.into_iter().map(score_of).collect())
}

impl<S: crate::source::RecordSource + ?Sized + 'static> ParallelLoader<S> {
    /// Runs `epochs` wall-clock epochs — the one epoch loop of a training
    /// run. Each epoch reads at the controller's current scan group (with
    /// no controller: at the configured group, recorded as
    /// [`TriggerKind::Fixed`]); `consume` is handed the epoch index and
    /// its minibatches and returns that epoch's training loss, which the
    /// controller observes (and may then switch groups for the *next*
    /// epoch). Batches `consume` leaves unread are cancelled, not drained
    /// (see [`EpochStream::fold`](crate::parallel::EpochStream::fold)).
    ///
    /// `sink` then receives the epoch's trace entry — group chosen, bytes
    /// read, cache hit rate, throughput, loss — the durable records it
    /// owes the container's decision log
    /// ([`DecisionRecord::epoch_records`], FORMAT.md §7) and the group the
    /// controller just switched to, if it did. What to do with them is
    /// the caller's policy: append strictly and return the error, which
    /// ends the run, or persist best-effort and carry on. The returned
    /// [`FidelityTrace`] carries the same schema plus wall-clock
    /// throughput, which the durable records deliberately omit to stay
    /// byte-deterministic under seeded replay.
    pub fn run_dynamic(
        &self,
        epochs: u64,
        mut controller: Option<&mut FidelityController>,
        mut consume: impl FnMut(u64, &mut dyn Iterator<Item = Minibatch>) -> f64,
        mut sink: impl FnMut(&FidelityEpoch, &[DecisionRecord], Option<usize>) -> pcr_core::Result<()>,
    ) -> pcr_core::Result<FidelityTrace> {
        // What a fixed full-quality epoch reads, for the bytes-saved
        // rollup (a plan at usize::MAX clamps to the full record).
        let source = self.source();
        let bytes_full: u64 =
            (0..source.num_records()).map(|i| source.plan(i, usize::MAX).len).sum();
        let mut trace = FidelityTrace::new();
        let mut trigger =
            if controller.is_some() { TriggerKind::Start } else { TriggerKind::Fixed };
        for epoch in 0..epochs {
            let scan_group = controller
                .as_deref()
                .map_or(self.config().loader.scan_group, FidelityController::group);
            let (loss, result) =
                self.spawn_epoch_at(epoch, scan_group).fold(|batches| consume(epoch, batches));
            let entry = FidelityEpoch {
                epoch,
                scan_group,
                trigger,
                probe_scores: controller
                    .as_deref()
                    .map(FidelityController::probe_scores_wire)
                    .unwrap_or_default(),
                bytes_read: result.bytes,
                images: result.images as u64,
                images_per_sec: result.images_per_sec(),
                cache_hit_rate: self.store().cache_hit_rate(),
                loss,
                faults: result.faults.epoch_counters(),
            };
            let mut switched = None;
            if let Some(ctrl) = controller.as_deref_mut() {
                switched = ctrl.observe_loss(loss);
                trigger = ctrl.trigger_after(switched);
            }
            sink(&entry, &DecisionRecord::epoch_records(&entry, bytes_full), switched)?;
            trace.push(entry);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DecodeMode, LoaderConfig};
    use crate::source::populate_store;
    use crate::parallel::ParallelConfig;
    use pcr_core::MetaDb;
    use pcr_storage::DeviceProfile;
    use std::sync::Arc;

    fn fixture(n: usize) -> (Arc<ObjectStore>, Arc<MetaDb>) {
        let ds = crate::source::test_dataset(n, 4, |i| (i % 3) as u32);
        let store = ObjectStore::with_cache(DeviceProfile::ram(), 256 << 20);
        populate_store(&store, &ds);
        (Arc::new(store), Arc::new(ds.db.clone()))
    }

    fn scores() -> Vec<(usize, f64)> {
        vec![(1, 0.62), (2, 0.88), (5, 0.96), (10, 1.0)]
    }

    #[test]
    fn starts_at_full_quality_and_switches_on_plateau() {
        let cfg = FidelityConfig { plateau_window: 2, ..FidelityConfig::default() };
        let mut ctrl = FidelityController::new(cfg, scores());
        assert_eq!(ctrl.group(), 10, "training starts at full quality");
        // Improving losses: no switch.
        for loss in [2.0, 1.5, 1.1] {
            assert_eq!(ctrl.observe_loss(loss), None);
            assert_eq!(ctrl.group(), 10);
        }
        // Flat tail: plateau trips, cheapest group clearing 0.95 wins.
        let mut switched = None;
        for _ in 0..6 {
            if let Some(g) = ctrl.observe_loss(1.0) {
                switched = Some(g);
                break;
            }
        }
        assert_eq!(switched, Some(5));
        assert_eq!(ctrl.group(), 5);
        assert_eq!(ctrl.decisions().len(), 1);
    }

    #[test]
    fn without_retune_first_decision_sticks() {
        let cfg =
            FidelityConfig { plateau_window: 2, min_rel_improvement: 0.05, retune: false, ..FidelityConfig::default() };
        let mut ctrl = FidelityController::new(cfg, scores());
        for _ in 0..20 {
            ctrl.observe_loss(1.0);
        }
        assert_eq!(ctrl.group(), 5);
        assert_eq!(ctrl.decisions().len(), 1, "no second switch without retune");
    }

    #[test]
    fn probe_scores_increase_with_group_and_saturate() {
        let (store, db) = fixture(6);
        let scores = probe_source_scores(&store, &*db, &[1, 5, 10], 8);
        assert_eq!(scores.len(), 3);
        let s: std::collections::HashMap<usize, f64> = scores.iter().copied().collect();
        assert!(s[&1] <= s[&5] + 0.02, "group 1 {} vs group 5 {}", s[&1], s[&5]);
        // Below full quality the scores are the ones the five-filter kernel
        // and the sequential probe returned for this fixture, to the bit;
        // the full group is the reference itself.
        let bits: Vec<(usize, u64)> = scores.iter().map(|&(g, s)| (g, s.to_bits())).collect();
        assert_eq!(
            bits,
            [(1, 0x3fe8_16b0_4311_89b4), (5, 0x3fef_ac37_7f3c_72c9), (10, 1.0f64.to_bits())]
        );
    }

    #[test]
    fn probe_scores_each_distinct_group_once_whatever_the_worker_count() {
        let (store, db) = fixture(6);
        let want = probe_source_scores(&store, &*db, &[1, 5, 10], 8);
        // Repeats and groups beyond the record's ten clamp onto the full
        // group: same scores for 1, 5 and 10, and 1.0 for the extra key.
        let clamped = probe_source_scores(&store, &*db, &[1, 5, 10, 10, 99], 8);
        assert_eq!(clamped[..3], want[..]);
        assert_eq!(clamped[3..], [(99, 1.0)]);
        // Six images over one, three and more workers than images.
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(g, s)| (g, s.to_bits())).collect()
        };
        for workers in [1, 3, 16] {
            let got = probe_with_workers(&store, &*db, &[1, 5, 10], 8, workers);
            assert_eq!(bits(&got), bits(&want), "{workers} workers");
        }
    }

    #[test]
    fn dynamic_run_reads_fewer_bytes_than_fixed_full_quality() {
        let (store, db) = fixture(16);
        let cfg = ParallelConfig {
            loader: LoaderConfig { threads: 2, decode: DecodeMode::Skip, ..LoaderConfig::at_group(10) },
            ..ParallelConfig::default()
        };
        let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);
        let epochs = 6u64;
        // Loss improves twice then flatlines: the plateau detector trips
        // partway through, and remaining epochs read a short prefix.
        let loss_at = |e: u64| if e == 0 { 1.0 } else { 0.5 };

        let fixed_bytes = epochs * db.bytes_at_group(10);
        let fidelity = FidelityConfig { plateau_window: 1, ..FidelityConfig::default() };
        let mut ctrl = FidelityController::new(fidelity, scores());
        let trace = loader
            .run_dynamic(
                epochs,
                Some(&mut ctrl),
                |e, batches| {
                    batches.for_each(drop);
                    loss_at(e)
                },
                |_, _, _| Ok(()),
            )
            .unwrap();

        assert_eq!(trace.epochs.len(), epochs as usize);
        assert_eq!(trace.total_images(), epochs * db.num_images() as u64);
        assert_eq!(trace.groups_used(), vec![10, 5], "full quality, then tuned");
        assert!(
            trace.total_bytes() < fixed_bytes,
            "dynamic {} must beat fixed {fixed_bytes}",
            trace.total_bytes()
        );
        // The tuned epochs read the group-5 prefix exactly.
        let tuned: Vec<_> =
            trace.epochs.iter().filter(|e| e.scan_group == 5).collect();
        assert!(!tuned.is_empty());
        for e in tuned {
            assert_eq!(e.bytes_read, db.bytes_at_group(5));
        }
        // Wall-clock traffic went through the cache: repeat epochs hit.
        assert!(store.cache_hit_rate() > 0.5, "hit rate {}", store.cache_hit_rate());
    }

    #[test]
    fn consumer_sees_every_image_once_and_may_stop_mid_epoch() {
        // 78 images in 20 records: twice what the queues of this
        // configuration can hold, so a cancelled epoch cannot have read
        // everything.
        let (store, db) = fixture(78);
        let mut expected: Vec<u32> =
            db.records.iter().flat_map(|r| r.labels.iter().copied()).collect();
        expected.sort_unstable();
        let cfg = ParallelConfig { batch_size: 4, prefetch_records: 2, ..ParallelConfig::real(2, 2) };
        let loader = ParallelLoader::new(Arc::clone(&store), Arc::clone(&db), cfg);

        // Fixed group (no controller): every epoch hands the consumer the
        // whole label multiset, pixels paired with labels.
        let mut seen: Vec<Vec<u32>> = Vec::new();
        let mut logged = Vec::new();
        let trace = loader
            .run_dynamic(
                2,
                None,
                |epoch, batches| {
                    let mut labels = Vec::new();
                    for b in batches {
                        assert_eq!(b.images.len(), b.labels.len(), "epoch {epoch}");
                        labels.extend(b.labels);
                    }
                    labels.sort_unstable();
                    seen.push(labels);
                    0.25
                },
                |entry, records, switched| {
                    assert_eq!((records.len(), switched), (1, None));
                    logged.push((entry.epoch, records[0].trigger, records[0].images));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(seen, [expected.clone(), expected]);
        assert_eq!(logged, [(0, TriggerKind::Fixed, 78), (1, TriggerKind::Fixed, 78)]);
        for e in &trace.epochs {
            assert_eq!((e.scan_group, e.bytes_read, e.loss), (2, db.bytes_at_group(2), 0.25));
            assert!(e.probe_scores.is_empty());
        }

        // A consumer that stops after one batch still gets a folded
        // report — of the cancelled epoch — and every stage thread of it
        // is gone by the time the sink runs: each holds the store and the
        // source until it exits, so only this test and the loader do now.
        // The sink's error then ends the run.
        let mut sunk = 0;
        let stopped = loader.run_dynamic(
            3,
            None,
            |_, batches| batches.next().map_or(f64::NAN, |b| b.labels.len() as f64),
            |entry, _, _| {
                let holders = (Arc::strong_count(&store), Arc::strong_count(&db));
                assert_eq!(holders, (2, 2), "a stage thread outlived its epoch");
                assert_eq!((entry.epoch, entry.images, entry.loss), (0, 4, 4.0));
                assert!(entry.bytes_read < db.bytes_at_group(2), "the epoch was cancelled");
                sunk += 1;
                Err(pcr_core::Error::BadInput("disk full".into()))
            },
        );
        assert!(matches!(stopped, Err(pcr_core::Error::BadInput(_))));
        assert_eq!(sunk, 1, "no epoch runs after a failed sink");
    }
}
