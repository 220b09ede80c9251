//! Chaos harness for the resilient sweep engine: proves that a sweep
//! under injected faults converges to exactly the fault-free answer.
//!
//! Three acts, all self-checking (any divergence exits nonzero):
//!
//! 1. **Reference** — a fault-free parallel sweep of the full figure
//!    batch; its `RunResult`s and rendered figure bytes are the ground
//!    truth.
//! 2. **Chaos** — the same batch with a seeded [`ChaosSchedule`]
//!    arming worker panics and cooperative stalls (cut short by the
//!    supervisor deadline), then a bit-for-bit comparison against the
//!    reference. The harness also asserts the faults actually fired —
//!    a chaos run that observed no chaos proves nothing.
//! 3. **Kill/resume** — a journaled sweep is "killed" by truncating
//!    its journal to a prefix plus a torn half-record, then resumed;
//!    the resumed lab must restore exactly the surviving records,
//!    simulate only the remainder, and render byte-identical figures.
//!
//! Writes a `BENCH_chaos.json` report. Usage:
//! `chaos [quick|paper|REFS]` (defaults to `quick` — chaos is about
//! fault coverage, not simulation fidelity; worker count from
//! `CMP_BENCH_THREADS`).

use std::collections::HashSet;
use std::io::Write as _;
use std::time::Duration;

use cmp_audit::ChaosSchedule;
use cmp_bench::{config_arg, figures, ok_or_exit, pool, Json, Lab, Pair, Resilience, JOURNAL_ENV};
use cmp_sim::{RunConfig, RunResult};

const REPORT_PATH: &str = "BENCH_chaos.json";
const CHAOS_SEED: u64 = 0xC4A0;
/// Per-job deadline: generous against a slow CI box (a quick-config
/// pair simulates in milliseconds; paper-scale pairs get a minute)
/// while still ending each armed stall promptly. The armed stalls run
/// 10x longer than this, so only the watchdog can end them.
fn deadline_for(cfg: &RunConfig) -> Duration {
    if cfg.measure_accesses <= RunConfig::quick().measure_accesses {
        Duration::from_secs(2)
    } else {
        Duration::from_secs(60)
    }
}

/// Renders every figure through `lab` into one byte string.
fn render_figures(lab: &mut Lab) -> String {
    let mut out = String::new();
    for render in [
        figures::fig5,
        figures::fig6,
        figures::fig7,
        figures::fig8,
        figures::fig9,
        figures::fig10,
        figures::fig11,
        figures::fig12,
        figures::closest_dgroup_share,
    ] {
        out.push_str(&render(lab));
        out.push('\n');
    }
    out
}

fn results_match(a: &mut Lab, b: &mut Lab, unique: &[Pair]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for &(wl, kind) in unique {
        let left: RunResult = a.result(wl, kind).clone();
        if &left != b.result(wl, kind) {
            mismatches.push(format!("{}/{}", wl.name(), kind.name()));
        }
    }
    mismatches
}

fn main() {
    // Chaos is about fault coverage, not simulation fidelity; default
    // to the quick sizing rather than `config_from_args`'s paper
    // default.
    let arg = std::env::args().nth(1);
    let cfg = config_arg(Some(arg.as_deref().unwrap_or("quick"))).unwrap_or_else(|| {
        eprintln!("usage: chaos [quick|paper|<measure_accesses>]");
        std::process::exit(2);
    });
    // The harness manages its own journal; an inherited one would make
    // the reference and chaos labs share state.
    if std::env::var_os(JOURNAL_ENV).is_some() {
        cmp_obs::warn!("ignoring {JOURNAL_ENV} — the chaos harness uses its own journal");
    }
    let submitted = figures::pairs::all();
    let mut seen = HashSet::new();
    let unique: Vec<Pair> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();
    let mut failures: Vec<String> = Vec::new();

    // Act 1: fault-free reference.
    let mut reference = Lab::new(cfg);
    ok_or_exit(reference.prefetch(&submitted).map(|_| ()));
    if !reference.last_report().is_clean() {
        failures.push(format!("reference sweep not clean: {}", reference.last_report().summary()));
    }
    let reference_figures = render_figures(&mut reference);

    // Act 2: chaos-injected sweep. Events are armed on attempt 0
    // only, so with retries the sweep must converge; the stall runs
    // far past the deadline, so completing at all proves the watchdog
    // cancelled it.
    let deadline = deadline_for(&cfg);
    let stall_millis = deadline.as_millis() as u64 * 10;
    let schedule = ChaosSchedule::seeded(
        CHAOS_SEED,
        unique.len(),
        /* panics */ 3,
        /* stalls */ 2,
        stall_millis,
    );
    let armed_panics = schedule.specs().iter().filter(|s| s.event.token() == "panic").count();
    let armed_stalls = schedule.len() - armed_panics;
    let mut chaos = Lab::new(cfg);
    chaos.set_resilience(Resilience {
        max_attempts: 3,
        deadline: Some(deadline),
        chaos: Some(schedule.clone()),
    });
    eprintln!(
        "chaos: arming {} event(s) over {} job(s) on {} thread(s): {}",
        schedule.len(),
        unique.len(),
        chaos.threads(),
        schedule.specs().iter().map(ToString::to_string).collect::<Vec<_>>().join(", "),
    );
    ok_or_exit(chaos.prefetch(&submitted).map(|_| ()));
    let chaos_report = chaos.last_report().clone();
    eprintln!("chaos: {}", chaos_report.summary());
    if chaos_report.panicked < armed_panics {
        failures.push(format!(
            "chaos underfired: {} panic(s) observed, {armed_panics} armed",
            chaos_report.panicked
        ));
    }
    if chaos_report.timed_out < armed_stalls {
        failures.push(format!(
            "chaos underfired: {} timeout(s) observed, {armed_stalls} armed stall(s)",
            chaos_report.timed_out
        ));
    }
    if !chaos_report.quarantined.is_empty() {
        failures.push(format!(
            "chaos sweep failed to converge: {} pair(s) quarantined",
            chaos_report.quarantined.len()
        ));
    }
    let mismatches = results_match(&mut reference, &mut chaos, &unique);
    if !mismatches.is_empty() {
        failures.push(format!("chaos results diverged on: {}", mismatches.join(", ")));
    }
    let chaos_figures_identical = render_figures(&mut chaos) == reference_figures;
    if !chaos_figures_identical {
        failures.push("chaos figure bytes diverged from reference".into());
    }

    // Act 3: kill/resume. A journaled sweep completes, then the
    // journal is truncated to a prefix plus a torn tail — exactly what
    // a kill between `write` and the final newline leaves behind.
    let journal_path = std::env::temp_dir().join(format!("cmp-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let mut resumed_ok = false;
    let mut restored = 0usize;
    let mut resimulated = 0usize;
    {
        let mut first = ok_or_exit(Lab::with_journal(cfg, pool::default_threads(), &journal_path));
        ok_or_exit(first.prefetch(&submitted).map(|_| ()));
    }
    let text = std::fs::read_to_string(&journal_path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    // Keep the header plus roughly half the records, then a torn
    // half-record with no trailing newline.
    let keep = 1 + (unique.len() / 2);
    if lines.len() <= keep {
        failures.push(format!("journal too short to truncate: {} line(s)", lines.len()));
    } else {
        let torn = &lines[keep][..lines[keep].len() / 2];
        let mut truncated = lines[..keep].join("\n");
        truncated.push('\n');
        truncated.push_str(torn);
        if let Err(e) =
            std::fs::File::create(&journal_path).and_then(|mut f| f.write_all(truncated.as_bytes()))
        {
            failures.push(format!("could not truncate journal: {e}"));
        } else {
            let mut resumed =
                ok_or_exit(Lab::with_journal(cfg, pool::default_threads(), &journal_path));
            restored = resumed.restored();
            ok_or_exit(resumed.prefetch(&submitted).map(|_| ()));
            resimulated = resumed.simulations();
            if restored != keep - 1 {
                failures.push(format!(
                    "resume restored {restored} record(s), expected {} (torn tail must be dropped)",
                    keep - 1
                ));
            }
            if restored + resimulated != unique.len() {
                failures.push(format!(
                    "resume simulated {resimulated} pair(s) on top of {restored} restored, \
                     expected {} total",
                    unique.len()
                ));
            }
            resumed_ok = render_figures(&mut resumed) == reference_figures;
            if !resumed_ok {
                failures.push("resumed figure bytes diverged from reference".into());
            }
        }
    }
    let _ = std::fs::remove_file(&journal_path);

    let mut report = Json::obj();
    let mut config = Json::obj();
    config.set("warmup_accesses", Json::Num(cfg.warmup_accesses as f64));
    config.set("measure_accesses", Json::Num(cfg.measure_accesses as f64));
    config.set("seed", Json::Num(cfg.seed as f64));
    report.set("config", config);
    report.set("threads", Json::Num(reference.threads() as f64));
    report.set("pairs", Json::Num(unique.len() as f64));
    report.set("chaos_seed", Json::Num(CHAOS_SEED as f64));
    report.set("armed_panics", Json::Num(armed_panics as f64));
    report.set("armed_stalls", Json::Num(armed_stalls as f64));
    report.set("observed_panics", Json::Num(chaos_report.panicked as f64));
    report.set("observed_timeouts", Json::Num(chaos_report.timed_out as f64));
    report.set("retries", Json::Num(chaos_report.retries as f64));
    report.set("quarantined", Json::Num(chaos_report.quarantined.len() as f64));
    report.set("chaos_identical", Json::Bool(chaos_figures_identical && mismatches.is_empty()));
    report.set("resume_restored", Json::Num(restored as f64));
    report.set("resume_resimulated", Json::Num(resimulated as f64));
    report.set("resume_identical", Json::Bool(resumed_ok));
    report.set("converged", Json::Bool(failures.is_empty()));
    println!("{report}");
    ok_or_exit(cmp_bench::obs_report::write_report(REPORT_PATH, &report));

    // With the obs layer on, this binary is also the acceptance check
    // that the full taxonomy actually fires: a chaos run takes L2
    // accesses, bus snoops, sweep retries, and journal appends by
    // construction, so their counters must be nonzero in the export.
    if cmp_obs::enabled() {
        let snap = cmp_obs::snapshot();
        for name in ["cache.l2.accesses", "bus.snoops", "sweep.retries", "journal.appends"] {
            if snap.counter(name).unwrap_or(0) == 0 {
                failures.push(format!("obs counter {name} is zero after a chaos run"));
            }
        }
        ok_or_exit(cmp_bench::obs_report::export_if_enabled().map(|_| ()));
        eprintln!(
            "obs: exported {} counter(s) to {}",
            snap.counters.len(),
            cmp_bench::OBS_REPORT_PATH
        );
    }

    if failures.is_empty() {
        eprintln!(
            "chaos converged: {} pair(s), {} fault(s) injected, figures byte-identical, \
             resume restored {restored} + resimulated {resimulated}",
            unique.len(),
            schedule.len(),
        );
    } else {
        for f in &failures {
            cmp_obs::error!("chaos divergence", detail = f);
        }
        std::process::exit(1);
    }
}
