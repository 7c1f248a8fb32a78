//! Online fidelity control: the paper's *dynamic* compression knob made
//! real (section 4.5). A [`FidelityController`] starts an experiment at
//! full image quality, watches the training loss with `pcr-autotune`'s
//! [`PlateauDetector`], and — once learning plateaus — drops the wall-clock
//! loader's scan-group prefix to the cheapest group whose quality score
//! (MSSIM against full quality, via `pcr-metrics`) clears a threshold.
//!
//! The policy layer is deliberately separate from the mechanism layer: the
//! controller only *chooses* a scan group; [`ParallelLoader::run_epoch_at`]
//! obeys it through the same [`ReadPlanner`](crate::source::ReadPlanner)
//! every loader plans with, so the epoch record order is untouched by
//! fidelity decisions and runs stay comparable across policies.

use crate::parallel::{ParallelLoader, WallClockEpoch};
use pcr_autotune::{select_lowest_qualifying, PlateauDetector, DEFAULT_MSSIM_THRESHOLD};
use pcr_core::{DecisionLogWriter, DecisionRecord, MetaDb, PcrRecord, RecordScratch};
use pcr_metrics::{msssim, FidelityEpoch, FidelityTrace, Plane, TriggerKind};
use pcr_storage::{Clock, ObjectStore};

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
    /// pairs, e.g. from [`probe_group_scores`]). Training starts at the
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

    /// The candidate quality scores the controller selects from.
    pub fn scores(&self) -> &[(usize, f64)] {
        &self.scores
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
/// [`FidelityController`] selects with.
///
/// Reads flow through the clocked store path ([`Clock::Wall`]), so probe
/// traffic is visible in the device/cache statistics like any other read;
/// probe before training (or reset the device) if that matters to an
/// experiment. At most `max_images` images are decoded.
pub fn probe_group_scores(
    store: &ObjectStore,
    db: &MetaDb,
    candidates: &[usize],
    max_images: usize,
) -> Vec<(usize, f64)> {
    probe_source_scores(store, db, candidates, max_images)
}

/// [`probe_group_scores`] over any PCR-format
/// [`RecordSource`](crate::source::RecordSource) — e.g. a
/// `ShardedSource` whose plans point into packed shard objects. Full
/// records are fetched via the source's own full-quality read plan, so
/// the probe works identically for per-record objects and shard ranges.
/// (Baseline sources whose bytes are not `.pcr` records contribute no
/// samples; their candidates score 0.)
pub fn probe_source_scores<S: crate::source::RecordSource + ?Sized>(
    store: &ObjectStore,
    source: &S,
    candidates: &[usize],
    max_images: usize,
) -> Vec<(usize, f64)> {
    let mut candidates: Vec<usize> = candidates.to_vec();
    candidates.sort_unstable();
    candidates.dedup();
    let mut sums = vec![0.0f64; candidates.len()];
    // Per-candidate sample counts: a group whose decode fails for some
    // image must not have its mean deflated by images it never scored.
    let mut counts = vec![0u64; candidates.len()];
    let mut measured = 0usize;
    let mut scratch = RecordScratch::new();
    'records: for idx in 0..source.num_records() {
        // A plan at usize::MAX clamps to the full record for PCR sources.
        let plan = source.plan(idx, usize::MAX);
        let Ok(read) = store.read(Clock::Wall, plan.name, plan.offset, plan.len) else {
            continue;
        };
        let Ok(rec) = PcrRecord::parse(&read.data) else { continue };
        let full_group = rec.num_groups();
        for i in 0..rec.num_images() {
            if measured >= max_images.max(1) {
                break 'records;
            }
            let Ok(full) = rec.decode_image_with(i, full_group, &mut scratch) else { continue };
            let full_luma = full.to_luma();
            let reference = Plane::from_u8(
                full_luma.width() as usize,
                full_luma.height() as usize,
                full_luma.data(),
            );
            for (slot, &g) in candidates.iter().enumerate() {
                let g = g.clamp(1, full_group);
                let Ok(img) = rec.decode_image_with(i, g, &mut scratch) else { continue };
                let luma = img.to_luma();
                let plane =
                    Plane::from_u8(luma.width() as usize, luma.height() as usize, luma.data());
                sums[slot] += msssim(&reference, &plane);
                counts[slot] += 1;
            }
            measured += 1;
        }
    }
    candidates
        .into_iter()
        .zip(sums.into_iter().zip(counts))
        .map(|(g, (s, n))| (g, s / n.max(1) as f64))
        .collect()
}

impl<S: crate::source::RecordSource + ?Sized + 'static> ParallelLoader<S> {
    /// Runs `epochs` wall-clock epochs under online fidelity control:
    /// each epoch reads at the controller's current scan group, `loss_of`
    /// reports that epoch's training loss back to the controller (which
    /// may then switch groups for the *next* epoch), and the whole
    /// trajectory — group chosen, bytes read, cache hit rate, throughput,
    /// loss — is returned as a [`FidelityTrace`] ready for JSON export.
    ///
    /// When `log` is given the container's audit plane is attached: every
    /// epoch's records ([`DecisionRecord::epoch_records`]) are appended to
    /// the durable decision log (FORMAT.md §7) as they happen, so the
    /// trajectory survives in the artifact; the first failed append ends
    /// the run with its error. The trace carries the same schema plus
    /// wall-clock throughput, which the durable log deliberately omits to
    /// stay byte-deterministic under seeded replay. Without a log the
    /// result is always `Ok`.
    pub fn run_dynamic<F>(
        &self,
        epochs: u64,
        controller: &mut FidelityController,
        mut loss_of: F,
        mut log: Option<&mut DecisionLogWriter>,
    ) -> pcr_core::Result<FidelityTrace>
    where
        F: FnMut(u64, &WallClockEpoch) -> f64,
    {
        // What a fixed full-quality epoch reads, for the bytes-saved
        // rollup (a plan at usize::MAX clamps to the full record).
        let source = self.source();
        let bytes_full: u64 =
            (0..source.num_records()).map(|i| source.plan(i, usize::MAX).len).sum();
        let mut trace = FidelityTrace::new();
        let mut trigger = TriggerKind::Start;
        for epoch in 0..epochs {
            let scan_group = controller.group();
            let result = self.run_epoch_at(epoch, scan_group);
            let loss = loss_of(epoch, &result);
            let switched = controller.observe_loss(loss);
            let entry = FidelityEpoch {
                epoch,
                scan_group,
                trigger,
                probe_scores: controller.probe_scores_wire(),
                bytes_read: result.bytes,
                images: result.images as u64,
                images_per_sec: result.images_per_sec(),
                cache_hit_rate: self.store().cache_hit_rate(),
                loss,
                faults: result.faults.epoch_counters(),
            };
            if let Some(w) = log.as_deref_mut() {
                for record in DecisionRecord::epoch_records(&entry, bytes_full) {
                    w.append(&record)?;
                }
            }
            trace.push(entry);
            trigger = controller.trigger_after(switched);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DecodeMode, LoaderConfig};
    use crate::loader::populate_store;
    use crate::parallel::ParallelConfig;
    use pcr_core::{PcrDatasetBuilder, SampleMeta};
    use pcr_storage::DeviceProfile;
    use std::sync::Arc;

    fn fixture(n: usize) -> (Arc<ObjectStore>, Arc<MetaDb>) {
        let mut b = PcrDatasetBuilder::new(4, 10).with_name_prefix("f");
        for i in 0..n {
            let mut data = Vec::new();
            for y in 0..32u32 {
                for x in 0..32u32 {
                    data.push(((x * 3 + y * 7 + i as u32 * 5) % 256) as u8);
                    data.push(((x + y) % 256) as u8);
                    data.push((y % 256) as u8);
                }
            }
            let img = pcr_jpeg::ImageBuf::from_raw(32, 32, 3, data).unwrap();
            b.add_image(SampleMeta { label: (i % 3) as u32, id: format!("s{i}") }, &img, 85)
                .unwrap();
        }
        let ds = b.finish().unwrap();
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
        let scores = probe_group_scores(&store, &db, &[1, 5, 10], 8);
        assert_eq!(scores.len(), 3);
        let s: std::collections::HashMap<usize, f64> = scores.iter().copied().collect();
        assert!(s[&1] <= s[&5] + 0.02, "group 1 {} vs group 5 {}", s[&1], s[&5]);
        assert!(s[&10] > 0.999, "full quality MSSIM {}", s[&10]);
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
        let trace = loader.run_dynamic(epochs, &mut ctrl, |e, _| loss_at(e), None).unwrap();

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
}
