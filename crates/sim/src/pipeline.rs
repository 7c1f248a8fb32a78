//! Coupling of the loader stream to the compute unit: per-iteration data
//! stalls (paper Figure 11 / Appendix A.1) and achieved training rates
//! (Figure 9).

use pcr_loader::LoadedRecord;

/// The compute unit: an open system consuming minibatches at a fixed
/// maximum rate (model images/second, possibly aggregated over cluster
/// workers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeUnit {
    /// Maximum images per second the accelerator(s) can process.
    pub images_per_sec: f64,
    /// Minibatch size (images per parameter update).
    pub batch_size: usize,
}

impl ComputeUnit {
    /// Time to compute one minibatch.
    pub fn batch_time(&self) -> f64 {
        self.batch_size as f64 / self.images_per_sec
    }
}

/// One training iteration's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Iteration index.
    pub iter: usize,
    /// Virtual time the minibatch's data became available.
    pub data_ready: f64,
    /// Time spent blocked waiting for data (the Figure 11 y-axis).
    pub data_stall: f64,
    /// Virtual time the parameter update finished.
    pub compute_end: f64,
}

/// A full epoch's pipeline timing.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// Per-iteration timings.
    pub iterations: Vec<IterationTiming>,
    /// Epoch duration in virtual seconds (last compute end - start).
    pub duration: f64,
    /// Total stall time.
    pub total_stall: f64,
    /// Images consumed.
    pub images: usize,
}

impl PipelineTrace {
    /// Achieved images/second over the epoch.
    pub fn images_per_sec(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.images as f64 / self.duration
        }
    }

    /// Fraction of epoch time spent stalled on data.
    pub fn stall_fraction(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.total_stall / self.duration
        }
    }
}

/// Runs the compute unit over a loader epoch's records (as
/// `PcrLoader::run_epoch` returns them): images become available in
/// record-ready order; each iteration consumes `batch_size` images and
/// takes `batch_time`; an iteration whose data is not yet ready stalls
/// (paper: "parameter updates start in lockstep with the data fetches").
pub fn run_pipeline(records: &[LoadedRecord], compute: &ComputeUnit, start: f64) -> PipelineTrace {
    // Expand record ready times into per-image availability (images within
    // a record become available when the record is ready).
    let avail: Vec<f64> =
        records.iter().flat_map(|rec| std::iter::repeat_n(rec.ready, rec.labels.len())).collect();
    let bt = compute.batch_time();
    let mut iterations = Vec::new();
    let mut compute_free = start;
    let mut total_stall = 0.0;
    let mut i = 0usize;
    let mut iter = 0usize;
    while i < avail.len() {
        // The final batch may be partial; it costs proportional compute.
        let this_batch = compute.batch_size.min(avail.len() - i);
        let data_ready = avail[i + this_batch - 1];
        let begin = compute_free.max(data_ready);
        let stall = (data_ready - compute_free).max(0.0);
        total_stall += stall;
        let end = begin + bt * this_batch as f64 / compute.batch_size as f64;
        iterations.push(IterationTiming { iter, data_ready, data_stall: stall, compute_end: end });
        compute_free = end;
        i += this_batch;
        iter += 1;
    }
    let duration = compute_free - start;
    PipelineTrace { iterations, duration, total_stall, images: i }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_epoch(record_ready: &[f64], images_per_record: usize) -> Vec<LoadedRecord> {
        record_ready
            .iter()
            .enumerate()
            .map(|(i, &t)| LoadedRecord {
                seq: i,
                record: i,
                worker: 0,
                issued: 0.0,
                read_finish: t,
                ready: t,
                bytes: 1000,
                labels: vec![0; images_per_record],
                images: Vec::new(),
                delivered_group: 10,
                degraded: false,
            })
            .collect()
    }

    #[test]
    fn fast_loader_means_no_stalls() {
        // All data ready at t=0.01; compute takes 1s/batch.
        let epoch = synthetic_epoch(&[0.01, 0.01, 0.01, 0.01], 8);
        let compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        assert_eq!(t.iterations.len(), 4);
        // First iteration waits 0.01; the rest are back-to-back.
        assert!(t.total_stall < 0.02);
        assert!((t.duration - (0.01 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn slow_loader_causes_lockstep_stalls() {
        // A record (8 images) becomes ready every 2s; compute needs 1s each.
        let epoch = synthetic_epoch(&[2.0, 4.0, 6.0, 8.0], 8);
        let compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        // Every iteration stalls ~1s (after the first's 2s).
        assert!(t.stall_fraction() > 0.4, "stall fraction {}", t.stall_fraction());
        assert!((t.duration - 9.0).abs() < 1e-9);
        // Achieved rate is loader-bound: 32 images / 9s.
        assert!((t.images_per_sec() - 32.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn achieved_rate_respects_min_rule() {
        // Loader can deliver 16 img/s (one 8-image record every 0.5s);
        // compute can do 100 img/s: achieved ~16. And vice versa.
        let ready: Vec<f64> = (1..=20).map(|i| i as f64 * 0.5).collect();
        let epoch = synthetic_epoch(&ready, 8);
        let fast_compute = ComputeUnit { images_per_sec: 100.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &fast_compute, 0.0);
        assert!((t.images_per_sec() - 16.0).abs() < 1.0, "{}", t.images_per_sec());
        let slow_compute = ComputeUnit { images_per_sec: 8.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &slow_compute, 0.0);
        assert!((t.images_per_sec() - 8.0).abs() < 0.5, "{}", t.images_per_sec());
    }

    #[test]
    fn batches_span_records() {
        // 3 records x 4 images, batch 8: iteration 0 needs records 0-1.
        let epoch = synthetic_epoch(&[1.0, 2.0, 3.0], 4);
        let compute = ComputeUnit { images_per_sec: 80.0, batch_size: 8 };
        let t = run_pipeline(&epoch, &compute, 0.0);
        // 12 images -> one full batch of 8 plus a partial batch of 4.
        assert_eq!(t.iterations.len(), 2);
        assert!((t.iterations[0].data_ready - 2.0).abs() < 1e-12);
        assert!((t.iterations[1].data_ready - 3.0).abs() < 1e-12);
        // Partial batch costs proportional compute: 4/8 * 0.1s.
        let full_bt = 8.0 / 80.0;
        assert!(
            (t.iterations[1].compute_end - (3.0 + full_bt / 2.0)).abs() < 1e-9,
            "partial batch time"
        );
    }
}
