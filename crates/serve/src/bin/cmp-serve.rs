//! The simulation service front door.
//!
//! Default mode reads newline-delimited JSON requests from stdin and
//! writes one JSON response per line to stdout — the shape CI's
//! smoke test and shell pipelines use:
//!
//! ```text
//! printf '%s\n' '{"type":"run","id":"r1","workload":"oltp","org":"nurapid"}' \
//!   | cargo run --release -p cmp-serve --bin cmp-serve -- quick
//! ```
//!
//! `--tcp ADDR` additionally serves the same protocol on a TCP
//! socket (one connection per client, requests answered in order on
//! that connection); stdin stays the control plane, and EOF on stdin
//! still drains the service. The accept loop is bounded
//! (`CMP_SERVE_MAX_CONNS`, over-limit clients shed with a structured
//! response) and idle connections time out (`CMP_SERVE_IDLE_MS`) —
//! see `cmp_serve::conn`.
//!
//! Run sizing for requests that do not override it comes from the
//! positional argument (`quick` — the default here, unlike the batch
//! binaries — `paper`, or a measure-access count). Tuning comes from
//! the `CMP_SERVE_*` environment (see `cmp_serve::env`); a malformed
//! value warns and keeps its default.
//!
//! Shutdown semantics (no signal handling without a libc
//! dependency): EOF on stdin or a `{"type":"drain"}` request starts
//! a graceful drain — admitted jobs finish (including their retry
//! backoff), queued-but-refused work is shed with structured
//! responses, journal shards are fsynced, and a `drained` summary is
//! the final line. With `CMP_OBS=1`, a `BENCH_serve.json` report
//! (serve counters plus latency percentiles from the obs
//! histograms) is written on exit.

use std::io::BufRead;
use std::net::TcpListener;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cmp_bench::Json;
use cmp_serve::{conn, ConnOptions, ServeOptions, Service};
use cmp_sim::RunConfig;

const REPORT_PATH: &str = "BENCH_serve.json";

fn usage() -> ! {
    eprintln!("usage: cmp-serve [quick|paper|<measure_accesses>] [--tcp ADDR]");
    std::process::exit(2);
}

fn main() {
    let mut cfg_arg: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => match args.next() {
                Some(addr) => tcp = Some(addr),
                None => usage(),
            },
            _ if cfg_arg.is_none() => cfg_arg = Some(arg),
            _ => usage(),
        }
    }
    let cfg = match cfg_arg.as_deref() {
        None | Some("quick") => RunConfig::quick(),
        Some("paper") => RunConfig::paper(),
        Some(n) => match n.parse::<u64>() {
            Ok(measure) => RunConfig::sized(measure / 2, measure, 0x15CA),
            Err(_) => usage(),
        },
    };

    let opts = ServeOptions::from_env(cfg);
    let service = Arc::new(Mutex::new(Service::new(opts)));

    if let Some(addr) = &tcp {
        match TcpListener::bind(addr) {
            Ok(listener) => {
                eprintln!("cmp-serve: listening on {addr}");
                let svc = Arc::clone(&service);
                let conn_opts = ConnOptions::from_env();
                std::thread::spawn(move || conn::accept_loop(listener, svc, conn_opts));
            }
            Err(e) => {
                eprintln!("cmp-serve: cannot bind {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    let code = serve_stdin(&service);
    let svc = service.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(e) = write_bench_report(&svc) {
        eprintln!("cmp-serve: {e}");
        std::process::exit(2);
    }
    std::process::exit(code);
}

/// The stdin/stdout serving loop: ingest greedily (coalescing
/// pipelined duplicates into one batch), process ready jobs, sleep
/// only as long as the nearest retry backoff.
fn serve_stdin(service: &Arc<Mutex<Service>>) -> i32 {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) => {
                    if tx.send(l).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    });

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut eof = false;
    loop {
        let mut svc = service.lock().unwrap_or_else(|p| p.into_inner());
        // Ingest everything already buffered, so pipelined requests
        // land in one batch and coalesce.
        while !eof {
            match rx.try_recv() {
                Ok(line) => {
                    let responses = svc.handle_line(&line);
                    if !conn::emit(&mut out, &responses) {
                        return 0;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => eof = true,
            }
        }
        let responses = svc.process_ready();
        if !conn::emit(&mut out, &responses) {
            return 0;
        }
        if svc.is_draining() {
            return 0;
        }
        let wait = svc.next_ready_in();
        drop(svc);

        match (wait, eof) {
            // Jobs became ready while we processed — go again.
            (Some(d), _) if d == Duration::ZERO => {}
            // Backoff pending: sleep at most until it matures.
            (Some(d), true) => std::thread::sleep(d),
            (Some(d), false) => match rx.recv_timeout(d) {
                Ok(line) => {
                    let mut svc = service.lock().unwrap_or_else(|p| p.into_inner());
                    let responses = svc.handle_line(&line);
                    if !conn::emit(&mut out, &responses) {
                        return 0;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => eof = true,
            },
            // Idle at EOF with nothing queued: graceful drain.
            (None, true) => {
                let mut svc = service.lock().unwrap_or_else(|p| p.into_inner());
                let responses = svc.drain();
                conn::emit(&mut out, &responses);
                return 0;
            }
            // Idle, stream open: block for the next request.
            (None, false) => match rx.recv() {
                Ok(line) => {
                    let mut svc = service.lock().unwrap_or_else(|p| p.into_inner());
                    let responses = svc.handle_line(&line);
                    if !conn::emit(&mut out, &responses) {
                        return 0;
                    }
                }
                Err(_) => eof = true,
            },
        }
    }
}

/// `BENCH_serve.json`: the serve counters plus admission-to-result
/// latency percentiles, exported when the obs layer is on.
fn write_bench_report(svc: &Service) -> Result<(), cmp_sim::SimError> {
    if !cmp_obs::enabled() {
        return Ok(());
    }
    let stats = svc.stats();
    let mut report = Json::obj();
    let mut counters = Json::obj();
    counters.set("admitted", Json::Num(stats.admitted as f64));
    counters.set("shed", Json::Num(stats.shed as f64));
    counters.set("deduped", Json::Num(stats.deduped as f64));
    counters.set("deadline_expired", Json::Num(stats.deadline_expired as f64));
    counters.set("drained", Json::Num(stats.drained as f64));
    counters.set("completed", Json::Num(stats.completed as f64));
    counters.set("retried", Json::Num(stats.retried as f64));
    counters.set("failed", Json::Num(stats.failed as f64));
    counters.set("invalid", Json::Num(stats.invalid as f64));
    report.set("counters", counters);
    let snap = cmp_obs::snapshot();
    if let Some(h) = snap.histograms.iter().find(|h| h.name == "serve.latency_ms") {
        let mut latency = Json::obj();
        latency.set("count", Json::Num(h.count as f64));
        latency.set("p50_ms", Json::Num(h.percentile(0.50) as f64));
        latency.set("p99_ms", Json::Num(h.percentile(0.99) as f64));
        latency.set("max_ms", Json::Num(h.max as f64));
        report.set("latency", latency);
    }
    report.set("simulations", Json::Num(svc.simulations() as f64));
    report.set("restored", Json::Num(svc.restored() as f64));
    cmp_bench::obs_report::write_report(REPORT_PATH, &report)
}
