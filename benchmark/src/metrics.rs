//! The metric tables: every name the benchmark reports, its unit, which
//! direction is better, and — for end-to-end metrics — the bound by which
//! it may worsen before a change counts as a regression. `BENCHMARK.json`
//! is printed from these tables (`pcr-benchmark manifest`), so the two
//! cannot disagree.

use crate::workloads;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Timing metrics share one bound, the widest the driver allows: on the
/// 2-core shared sandbox identical code drifts by 10–25 % over minutes
/// (README, "Noise"): ten runs of it spread by 3–10 % of their median, and
/// a single run can land a third off.
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("images_per_s", "1/s", HIGHER, TIMING_BOUND),
    e2e("cpu_ms_per_image", "ms", LOWER, TIMING_BOUND),
    e2e("open_to_first_batch_ms", "ms", LOWER, TIMING_BOUND),
    e2e("time_to_target_s", "s", LOWER, TIMING_BOUND),
    e2e("device_bytes_per_image", "B", LOWER, 0.20),
    e2e("bytes_read_ratio", "ratio", LOWER, 0.02),
    e2e("requested_fidelity_share", "ratio", HIGHER, 0.005),
    e2e("stored_bytes_per_source_byte", "ratio", LOWER, 0.01),
    e2e("peak_rss_mb", "MiB", LOWER, 0.10),
];

pub const PER_LAYER: [PerLayer; 63] = [
    layer("jpeg.entropy_ns_per_image", "ns", LOWER),
    layer("jpeg.idct_ns_per_image", "ns", LOWER),
    layer("jpeg.color_ns_per_image", "ns", LOWER),
    layer("jpeg.decode_ns_per_image", "ns", LOWER),
    layer("jpeg.decode_bytes_per_image", "B", LOWER),
    layer("jpeg.decode_failures", "count", LOWER),
    layer("jpeg.transcode_ns_per_image", "ns", LOWER),
    layer("jpeg.scansplit_ns_per_image", "ns", LOWER),
    layer("jpeg.encode_ns_per_image", "ns", LOWER),
    layer("core.parse_ns_per_record", "ns", LOWER),
    layer("core.assemble_ns_per_image", "ns", LOWER),
    layer("core.container_open_us", "us", LOWER),
    layer("core.shard_verify_ms_per_mib", "ms", LOWER),
    layer("core.entry_resolve_ns", "ns", LOWER),
    layer("core.index_bytes_per_record", "B", LOWER),
    layer("core.record_build_ns_per_image", "ns", LOWER),
    layer("core.container_write_ms_per_mib", "ms", LOWER),
    layer("core.container_verify_ms_per_mib", "ms", LOWER),
    layer("core.declog_append_us", "us", LOWER),
    layer("storage.read_call_ns", "ns", LOWER),
    layer("storage.modeled_service_ms_per_record", "ms", LOWER),
    layer("storage.device_reads_per_record", "count", LOWER),
    layer("storage.readahead_amplification", "ratio", LOWER),
    layer("storage.cache_hit_rate", "ratio", HIGHER),
    layer("storage.put_ms_per_mib", "ms", LOWER),
    layer("storage.injected_faults", "count", LOWER),
    layer("loader.open_store_ms", "ms", LOWER),
    layer("loader.source_build_ms", "ms", LOWER),
    layer("loader.epoch_spawn_us", "us", LOWER),
    layer("loader.first_batch_ms", "ms", LOWER),
    layer("loader.plan_ns_per_record", "ns", LOWER),
    layer("loader.io_wait_share", "ratio", LOWER),
    layer("loader.decode_busy_share", "ratio", HIGHER),
    layer("loader.pipeline_overhead_share", "ratio", LOWER),
    layer("loader.batch_gap_ms_p50", "ms", LOWER),
    layer("loader.batch_gap_ms_p90", "ms", LOWER),
    layer("loader.consumer_wait_share", "ratio", LOWER),
    layer("loader.worker_scaling", "ratio", HIGHER),
    layer("loader.retries_per_record", "count", LOWER),
    layer("loader.backoff_ms_per_epoch", "ms", LOWER),
    layer("loader.degraded_records", "count", LOWER),
    layer("loader.quarantined_records", "count", LOWER),
    layer("loader.probe_ms", "ms", LOWER),
    layer("autotune.observe_loss_ns", "ns", LOWER),
    layer("autotune.switch_epoch", "count", LOWER),
    layer("autotune.final_group", "count", LOWER),
    layer("metrics.msssim_ms_per_pair", "ms", LOWER),
    layer("nn.featurize_ns_per_image", "ns", LOWER),
    layer("nn.step_ms_per_batch", "ms", LOWER),
    layer("nn.consumer_busy_share", "ratio", LOWER),
    layer("nn.epochs_to_target", "count", LOWER),
    layer("datasets.generate_ms_per_image", "ms", LOWER),
    layer("sim.throughput_residual", "ratio", HIGHER),
    layer("jpeg.self_share", "ratio", LOWER),
    layer("core.self_share", "ratio", LOWER),
    layer("storage.self_share", "ratio", LOWER),
    layer("loader.self_share", "ratio", LOWER),
    layer("nn.self_share", "ratio", LOWER),
    layer("bench.unattributed_share", "ratio", LOWER),
    layer("bench.trace_overhead_share", "ratio", LOWER),
    layer("bench.ref_kernel_ms", "ms", LOWER),
    layer("bench.ref_kernel_spread", "ratio", LOWER),
    layer("bench.timer_ns", "ns", LOWER),
];

/// Seconds one run measures when the driver does not say.
pub const RUN_SECONDS: u32 = 8;

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, exactly the keys of the driver's contract.
pub fn manifest_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        command.map(json_string).join(", ")
    );
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}
