//! `pcr-benchmark`: a fixed-work, round-interleaved end-to-end and
//! per-layer benchmark of the pcr workspace. See `README.md`.
//!
//! ```text
//! pcr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pcr-benchmark selfcheck [--seconds <s>]
//! pcr-benchmark manifest
//! ```

mod api;
mod corpus;
mod metrics;
mod run;
mod selfcheck;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pcr-benchmark --workload <decode_bound|storage_bound|train_dynamic|pack_write> \
--seed <n> [--seconds <s>] [--trace <0|1>]\n       pcr-benchmark selfcheck [--seconds <s>]\n       pcr-benchmark manifest";

/// `--flag value` pairs plus bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("child-round") => args.words.push("child-round".into()),
                Some(flag) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} {v:?} is not a number")),
            None => Ok(default),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let default_seconds = f64::from(metrics::RUN_SECONDS);
    match args.words.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            return Ok(true);
        }
        Some("selfcheck") => return selfcheck::run(args.number("seconds", default_seconds)?),
        _ => {}
    }
    let name = args.value("workload").ok_or(USAGE)?;
    let workload = workloads::Workload::from_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed: u64 = args.number("seed", 1)?;
    if args.words.first().map(String::as_str) == Some("child-round") {
        let dir = PathBuf::from(args.value("dir").ok_or("--child-round needs --dir")?);
        run::child_round(workload, seed, &dir, args.value("slot").unwrap_or("child"))?;
        return Ok(true);
    }
    let seconds: f64 = args.number("seconds", default_seconds)?;
    let traced = args.number("trace", 0u8)? != 0;
    let report = run::run(&run::RunArgs {
        workload,
        seed,
        seconds,
        traced,
    })?;
    report.print();
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pcr-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
