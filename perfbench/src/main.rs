//! The repository benchmark: end-to-end and per-layer host cost of
//! the CMP-NuRAPID reproduction on four workloads.
//!
//! ```text
//! python3 perfbench/run.py                       # every workload, traced and not
//! python3 perfbench/run.py --workload paper4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and the `cmp-serve` binary, then runs
//! this program from the repository root. With `--workload`, one run
//! prints its metrics (units, sample counts), its correctness checks
//! and, last, one JSON line: `--trace 0` carries the end-to-end
//! metrics of `BENCHMARK.json`, `--trace 1` the per-layer ones.
//! Without `--workload`, every workload runs twice (untraced, traced)
//! in child processes on the default seed. See `perfbench/README.md`.

mod host;
mod ledger;
mod report;
mod serve;
mod sim;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::Command;

use cmp_bench::Json;

use report::Report;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    serve_bin: PathBuf,
    run_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: cmp-perfbench [--workload NAME --seed N --seconds S --trace 0|1] \
         --serve-bin PATH --run-dir DIR (default seed {}, held-out seed {})",
        workloads::DEFAULT_SEED,
        workloads::HELDOUT_SEED
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        serve_bin: PathBuf::new(),
        run_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.run_dir.as_os_str().is_empty() {
        usage("--run-dir is required");
    }
    args
}

/// The metric lists and run length `BENCHMARK.json` declares.
struct Contract {
    end_to_end: Vec<String>,
    per_layer: Vec<String>,
    run_seconds: f64,
}

fn contract() -> Contract {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        usage(&format!("cannot read BENCHMARK.json in the current directory: {e}"))
    });
    let json = Json::parse(&text).unwrap_or_else(|e| usage(&format!("BENCHMARK.json: {e}")));
    let names = |key: &str| -> Vec<String> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            _ => usage(&format!("BENCHMARK.json has no {key} list")),
        }
    };
    Contract {
        end_to_end: names("end_to_end"),
        per_layer: names("per_layer"),
        run_seconds: json.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0),
    }
}

fn run_one(args: &Args, workload: &str, seconds: f64, contract: &Contract) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        usage(&format!("cannot create {}: {e}", args.run_dir.display()));
    }
    let mut report = Report::default();
    match (workloads::sim_workload(workload, args.seed), args.trace) {
        (Some(w), false) => sim::run_end_to_end(&w, seconds, &mut report),
        (Some(w), true) => sim::run_traced(&w, seconds, &args.run_dir, &mut report),
        (None, trace) if workload == "serve_zipf" => {
            if trace {
                serve::run_traced(&args.run_dir, args.seed, seconds, &mut report)
            } else {
                if !args.serve_bin.is_file() {
                    usage(&format!("--serve-bin {} is not a file", args.serve_bin.display()));
                }
                serve::run_end_to_end(
                    &args.serve_bin,
                    &args.run_dir,
                    args.seed,
                    seconds,
                    &mut report,
                )
            }
        }
        _ => usage(&format!("unknown workload {workload}; one of {}", workloads::NAMES.join(", "))),
    }
    let wanted = if args.trace { &contract.per_layer } else { &contract.end_to_end };
    let header =
        format!("{workload} seed={} seconds={seconds} trace={}", args.seed, u8::from(args.trace));
    println!("{}", report.render(&header, wanted));
    if report.correct() {
        0
    } else {
        1
    }
}

/// The one-command mode: every workload untraced then traced, each in
/// its own process (so peak RSS is per run), plus the derived
/// connection cost of `serve_zipf`.
fn run_all(args: &Args, contract: &Contract) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("no current exe: {e}")));
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut all_correct = true;
    let mut tcp_p50 = None;
    let mut inproc_p50 = None;
    for workload in workloads::NAMES {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--serve-bin")
                .arg(&args.serve_bin)
                .arg("--run-dir")
                .arg(&args.run_dir)
                .output()
                .unwrap_or_else(|e| usage(&format!("cannot run {}: {e}", exe.display())));
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let last = text.lines().last().unwrap_or("");
            let parsed = Json::parse(last).ok();
            let correct = parsed.as_ref().and_then(|j| j.get("correct")).map(|c| c.compact());
            all_correct &= out.status.success() && correct.as_deref() == Some("true");
            if workload == "serve_zipf" {
                if trace == "0" {
                    tcp_p50 = parsed
                        .as_ref()
                        .and_then(|j| j.get("metrics")?.get("req_p50_ms")?.get("value")?.as_f64());
                } else {
                    inproc_p50 = text
                        .lines()
                        .find_map(|l| l.trim().strip_prefix("inproc_p50_ms "))
                        .and_then(|v| v.parse::<f64>().ok());
                }
            }
        }
    }
    if let (Some(tcp), Some(inproc)) = (tcp_p50, inproc_p50) {
        println!(
            "== serve_zipf connection cost\n   {:<28} {:>14.4} {:<6} TCP p50 {tcp:.4} - in-process p50 {inproc:.4}",
            "conn.ms",
            tcp - inproc,
            "ms"
        );
    }
    println!("== all workloads correct: {all_correct}");
    if all_correct {
        0
    } else {
        1
    }
}

fn main() {
    let args = parse_args();
    let contract = contract();
    let code = match &args.workload {
        Some(w) => run_one(&args, w, args.seconds.unwrap_or(contract.run_seconds), &contract),
        None => run_all(&args, &contract),
    };
    std::process::exit(code);
}
