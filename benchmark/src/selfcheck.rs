//! `pcr-benchmark selfcheck`: does the benchmark repeat within its own
//! bounds? Two sets of three full runs of this build, interleaved
//! A B A B A B, per workload, on the default seed and one other. Every
//! run is a fresh process, as the driver's are.

use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads;
use std::process::Command;

const SEEDS: [u64; 2] = [1, 2];
const RUNS_PER_SET: usize = 3;

/// The value of `"name": {"value": X` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// One full untraced run in a fresh process; returns its result line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("run of {workload} seed {seed} failed: {line}"));
    }
    Ok(line)
}

/// Prints the table; `Ok(false)` when any difference exceeds its bound.
pub fn run(seconds: f64) -> Result<bool, String> {
    println!("| seed | workload | metric | set A median | set B median | set difference | largest single-run deviation | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for seed in SEEDS {
        for w in workloads::ALL {
            let mut lines = Vec::new();
            for _ in 0..2 * RUNS_PER_SET {
                lines.push(one_run(w.name(), seed, seconds)?);
            }
            for m in &END_TO_END {
                let values: Vec<f64> = lines
                    .iter()
                    .map(|l| {
                        metric_value(l, m.name)
                            .ok_or_else(|| format!("{} missing from a result line", m.name))
                    })
                    .collect::<Result<_, _>>()?;
                let set = |first: usize| -> Vec<f64> {
                    values.iter().skip(first).step_by(2).copied().collect()
                };
                let (a, b) = (stats::median(&set(0)), stats::median(&set(1)));
                let all = stats::median(&values);
                let set_difference = if a != 0.0 {
                    (a - b).abs() / a.abs()
                } else {
                    0.0
                };
                let deviation = values
                    .iter()
                    .map(|v| {
                        if all != 0.0 {
                            (v - all).abs() / all.abs()
                        } else {
                            0.0
                        }
                    })
                    .fold(0.0, f64::max);
                let ok = set_difference <= m.bound && deviation <= m.bound;
                within &= ok;
                println!(
                    "| {seed} | {} | {} | {a:.6} | {b:.6} | {:.2} % | {:.2} % | {:.1} % | {} |",
                    w.name(),
                    m.name,
                    set_difference * 100.0,
                    deviation * 100.0,
                    m.bound * 100.0,
                    if ok { "within" } else { "EXCEEDS" }
                );
            }
        }
    }
    println!();
    println!(
        "{}",
        if within {
            "selfcheck: every set difference and single-run deviation is within its bound"
        } else {
            "selfcheck: at least one difference EXCEEDS its bound"
        }
    );
    Ok(within)
}
