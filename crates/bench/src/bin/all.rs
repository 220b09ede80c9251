//! Regenerates the paper's tables and figures, sharing simulation
//! results across figures.
//!
//! With no names, prints every table and figure. With names, prints
//! only those sections, in the given order, each exactly as a
//! stand-alone run would: `all quick fig10 table1`.
//!
//! The union of the selected figures' (workload, organization) pairs
//! is prefetched through the lab up front — the sweep fans out across
//! `CMP_BENCH_THREADS` workers (default: available parallelism) and
//! the figures then render from cache, byte-identical to the
//! sequential path.
//!
//! Set `CMP_SWEEP_JOURNAL=path` to checkpoint the sweep: every
//! completed pair is fsync'd to an append-only journal, and a rerun
//! of the same command resumes from the journal instead of
//! re-simulating — a killed `all paper` run loses at most the pair in
//! flight and renders byte-identical figures on resume.
//!
//! Usage: all `[quick|paper|<refs>] [fig5 .. fig12 | table1 | table2 |
//! table3 | closest_dgroup_share]...`

use cmp_bench::{config_arg, figures, ok_or_exit, Lab, Pair};
use cmp_sim::RunConfig;

/// How a section renders: a table needs no simulations, a figure
/// reads its pair set from the lab.
#[derive(Clone, Copy)]
enum Render {
    Table(fn() -> String),
    Figure(fn() -> Vec<Pair>, fn(&mut Lab) -> String),
}

/// Every section in the full report's order.
const SECTIONS: [(&str, Render); 12] = [
    ("table1", Render::Table(figures::table1)),
    ("table2", Render::Table(figures::table2)),
    ("table3", Render::Table(figures::table3)),
    ("fig5", Render::Figure(figures::pairs::fig5, figures::fig5)),
    ("fig6", Render::Figure(figures::pairs::fig6, figures::fig6)),
    ("fig7", Render::Figure(figures::pairs::fig7, figures::fig7)),
    ("fig8", Render::Figure(figures::pairs::fig8, figures::fig8)),
    ("fig9", Render::Figure(figures::pairs::fig9, figures::fig9)),
    ("fig10", Render::Figure(figures::pairs::fig10, figures::fig10)),
    ("fig11", Render::Figure(figures::pairs::fig11, figures::fig11)),
    ("fig12", Render::Figure(figures::pairs::fig12, figures::fig12)),
    (
        "closest_dgroup_share",
        Render::Figure(figures::pairs::closest_dgroup_share, figures::closest_dgroup_share),
    ),
];

fn usage() -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: all [quick|paper|<refs>] [{}]...", names.join(" | "));
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The sizing argument is optional: `all fig5` is `all paper fig5`.
    let cfg = match args.first().and_then(|a| config_arg(Some(a))) {
        Some(cfg) => {
            args.remove(0);
            cfg
        }
        None => RunConfig::paper(),
    };
    let full = args.is_empty();
    let sections: Vec<Render> = if full {
        SECTIONS.iter().map(|(_, render)| *render).collect()
    } else {
        args.iter()
            .map(|arg| {
                let found = SECTIONS.iter().find(|(name, _)| name == arg);
                found.map_or_else(|| usage(), |(_, render)| *render)
            })
            .collect()
    };

    if full {
        println!(
            "CMP-NuRAPID reproduction: all experiments (warmup {} / measure {} refs/core)\n",
            cfg.warmup_accesses, cfg.measure_accesses
        );
    }
    let mut lab = ok_or_exit(Lab::from_env(cfg));
    if let Some(path) = lab.journal_path() {
        eprintln!(
            "journal {}: resumed {} pair(s), checkpointing the rest",
            path.display(),
            lab.restored()
        );
    }
    let pairs: Vec<Pair> = sections
        .iter()
        .flat_map(|s| match s {
            Render::Table(_) => Vec::new(),
            Render::Figure(pairs, _) => pairs(),
        })
        .collect();
    let t0 = std::time::Instant::now();
    ok_or_exit(lab.prefetch(&pairs));
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !lab.last_report().quarantined.is_empty() {
        // The sweep engine already warned once per quarantined pair.
        let summary = lab.last_report().summary();
        cmp_obs::warn!(
            "partial sweep: quarantined pairs will be re-simulated sequentially \
             as figures demand them",
            report = summary
        );
    }

    for section in sections {
        let text = match section {
            Render::Table(render) => render(),
            Render::Figure(_, render) => render(&mut lab),
        };
        // The full report separates sections with a blank line; a
        // named section prints exactly its own text.
        if full {
            println!("{text}");
        } else {
            print!("{text}");
        }
    }
    if !pairs.is_empty() {
        eprintln!(
            "({} simulation runs, {:.0} ms sweep on {} thread(s))",
            lab.simulations(),
            sweep_ms,
            lab.threads()
        );
    }
    if ok_or_exit(cmp_bench::obs_report::export_if_enabled()).is_some() {
        eprintln!("(metrics exported to {})", cmp_bench::OBS_REPORT_PATH);
    }
}
