//! The experiment driver: regenerates every table and figure of
//! "Progressive Compressed Records" (VLDB 2021).
//!
//! Usage:
//! ```text
//! experiments <id> [scale]
//!   id:    one entry of `EXPERIMENTS` (or an alias of one), or `all` to
//!          run every entry in table order; `experiments help` lists them
//!   scale: tiny | small (default) | full
//! ```
//!
//! Output is labelled CSV: `# <id> | key=value ...` banners followed by
//! comma-separated rows, matching the series plotted in the paper.

use pcr_bench::context::Ctx;
use pcr_bench::{exp_fluctuate, exp_micro, exp_sizes, exp_tables, exp_tta, exp_tuning};

/// An experiment id and what it runs.
type Experiment = (&'static str, fn(&Ctx));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", exp_tables::table1),
    ("fig2", exp_tables::fig2),
    ("fig4", exp_tta::fig4),
    ("fig5", exp_tta::fig5),
    ("fig6", exp_tta::fig6),
    ("fig7", exp_tuning::fig7),
    ("fig8", exp_tuning::fig8),
    ("fig9", exp_micro::fig9),
    ("fig11", exp_micro::fig11),
    ("fig12", exp_tables::fig12),
    ("fig14", exp_tables::fig14),
    ("fig15", exp_sizes::fig15),
    ("fig16", exp_sizes::fig16),
    ("fig17", exp_sizes::fig17),
    ("fig18", exp_micro::fig18),
    ("fig19", exp_tuning::fig19),
    ("fig20", exp_tuning::fig20_22),
    ("fig23", |ctx| exp_tta::fig23_28(ctx, "resnet")),
    ("fig24", |ctx| exp_tta::fig23_28(ctx, "shufflenet")),
    ("fig29", exp_tta::fig29_30),
    ("fig31", exp_sizes::fig31),
    ("a5", exp_micro::a5_decode_overhead),
    ("lemma-check", exp_micro::lemma_check),
    ("ablate-subsampling", exp_sizes::ablate_subsampling),
    ("ablate-layout", exp_micro::ablate_layout),
    ("ablate-record-size", exp_micro::ablate_record_size),
    ("fluctuate", exp_fluctuate::fluctuate),
];

/// Figures printed by another figure's experiment: `(alias, id)`.
const ALIASES: &[(&str, &str)] = &[
    ("fig21", "fig20"),
    ("fig22", "fig20"),
    ("fig25", "fig23"),
    ("fig27", "fig23"),
    ("fig26", "fig24"),
    ("fig28", "fig24"),
    ("fig30", "fig29"),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let id = args.get(1).map(String::as_str).unwrap_or("help");
    let ctx = Ctx::from_arg(args.get(2).map(String::as_str));
    let canonical = ALIASES.iter().find(|&&(alias, _)| alias == id).map_or(id, |&(_, to)| to);

    let start = std::time::Instant::now();
    if id == "all" {
        for (_, run) in EXPERIMENTS {
            run(&ctx);
        }
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|&&(name, _)| name == canonical) {
        run(&ctx);
    } else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!("usage: experiments <id> [tiny|small|full]\nids: {} all", ids.join(" "));
        std::process::exit(if id == "help" { 0 } else { 2 });
    }
    eprintln!("# experiment '{id}' finished in {:.1}s", start.elapsed().as_secs_f64());
}
