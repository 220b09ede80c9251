//! The `serve_zipf` workload: open-loop NDJSON traffic over TCP to a
//! `cmp-serve --tcp` child with journaling on, plus the in-process
//! service drive that splits a request into admit / queue / process /
//! respond spans.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cmp_bench::journal::run_result_from_json;
use cmp_bench::{Json, MIXES, MULTITHREADED};
use cmp_mem::{Rng, Zipf};
use cmp_serve::{ServeOptions, Service};
use cmp_sim::{OrgKind, RunConfig, RunResult};

use crate::report::{peak_rss_mb, Report};
use crate::sim;
use crate::stats::{median, tail};
use crate::workloads::{derive_seed, SimPair, Source};

/// Mean request arrival rate (requests per second): about a tenth of
/// the service's capacity on this traffic, measured in process (one
/// over the mean service time of the timed requests; the traced run
/// prints it). Requests still queue behind a simulating miss, and a
/// stretch of the shared host at half speed leaves the server at a
/// fifth of its capacity, far from the saturation where latency would
/// track the host's stretches rather than the service. See
/// `perfbench/README.md`.
pub const RATE_PER_S: f64 = 125.0;
/// A request answered later than this after its scheduled send time
/// misses its latency limit: twice the in-process p50 of a simulating
/// miss, so a request may wait behind one miss in flight, not two.
pub const LIMIT_MS: f64 = 22.0;
/// Seconds of traffic before the measured window: they fill the memo
/// cache past its cold start (answered and checked, not timed).
pub const WARM_S: f64 = 3.0;
/// Every `SWEEP_EVERY`-th request is a sweep over two drawn workloads
/// x two drawn organizations at a seed never requested before: up to
/// four misses the service fans out over its pool. One request in 200
/// (about 15 sweeps in a 25 s window) keeps the sweeps, the slowest
/// requests, beyond the p99 of the timed requests, which then reflects
/// run misses and the waits behind them.
pub const SWEEP_EVERY: usize = 200;
/// Zipf exponent of key popularity, within the 0.64-0.83 measured for
/// web request popularity (Breslau et al., INFOCOM 1999).
pub const ZIPF_THETA: f64 = 0.8;
/// Distinct run seeds in the popular keyspace (72 keys, nearly all
/// requested during the warm-up).
pub const KEY_SEEDS: u64 = 2;
/// Share of run requests that name a popular (workload, organization)
/// at a seed never requested before: a memo miss that simulates and
/// appends to the journal, at a steady rate through the whole run.
pub const NEW_KEY_SHARE: f64 = 0.05;
/// Organizations in the keyspace.
pub const ORGS: [OrgKind; 4] =
    [OrgKind::Shared, OrgKind::Private, OrgKind::Snuca, OrgKind::Nurapid];
/// Per-core sizing of every served run.
pub const WARMUP: u64 = 10_000;
/// Measured references per core of every served run.
pub const MEASURE: u64 = 20_000;
/// Client connections (one per core of a 2-vCPU host).
pub const CONNECTIONS: usize = 2;
/// Server spawns per run, each answering one cold sweep; `setup_s`,
/// `sweep_s` and `peak_rss_mb` come from them.
const SETUP_SPAWNS: usize = 9;

/// One (workload, organization, seed) request key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    /// Table 3 workload or Table 2 mix.
    pub workload: &'static str,
    /// Organization.
    pub org: OrgKind,
    /// Run seed.
    pub seed: u64,
}

impl Key {
    /// The key as a simulation pair.
    pub fn pair(&self) -> SimPair {
        SimPair {
            source: Source::Catalog(self.workload),
            org: self.org,
            cfg: RunConfig::sized(WARMUP, MEASURE, self.seed),
        }
    }
}

/// Every key, in a seed-dependent order (popularity rank = position).
pub fn keyspace(seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for s in 0..KEY_SEEDS {
        let run_seed = derive_seed(seed, 100 + s);
        for workload in MULTITHREADED.iter().chain(MIXES.iter()) {
            for org in ORGS {
                keys.push(Key { workload, org, seed: run_seed });
            }
        }
    }
    let mut rng = Rng::new(derive_seed(seed, 1));
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_index(i + 1));
    }
    keys
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Send time relative to the start of the run.
    pub at: Duration,
    /// The request line.
    pub line: String,
    /// The jobs it expands to (one per expected response).
    pub keys: Vec<Key>,
}

fn sizing(req: &mut Json, seed: u64) {
    req.set("warmup-accesses", Json::Num(WARMUP as f64));
    req.set("measure-accesses", Json::Num(MEASURE as f64));
    req.set("seed", Json::Num(seed as f64));
}

/// A `sweep` request over `workloads` x `orgs` at `seed`, due at `at`.
fn sweep_request(
    at: Duration,
    id: String,
    workloads: &[&'static str],
    orgs: &[OrgKind],
    seed: u64,
) -> Planned {
    let names = |v: Vec<&str>| Json::Arr(v.into_iter().map(|s| Json::Str(s.into())).collect());
    let mut req = Json::obj();
    req.set("type", Json::Str("sweep".into()));
    req.set("id", Json::Str(id));
    req.set("workloads", names(workloads.to_vec()));
    req.set("orgs", names(orgs.iter().map(|o| o.name()).collect()));
    sizing(&mut req, seed);
    let keys = workloads
        .iter()
        .flat_map(|w| orgs.iter().map(move |o| Key { workload: w, org: *o, seed }))
        .collect();
    Planned { at, line: req.compact(), keys }
}

/// The cold sweep every set-up spawn answers: every workload of the
/// keyspace on every organization, at a seed outside the keyspace.
pub fn setup_sweep(seed: u64) -> Planned {
    let workloads: Vec<&'static str> = MULTITHREADED.iter().chain(MIXES.iter()).copied().collect();
    sweep_request(Duration::ZERO, "r0".into(), &workloads, &ORGS, derive_seed(seed, 99))
}

/// The seeded open-loop schedule: Poisson arrivals at
/// [`RATE_PER_S`] for `seconds`, keys Zipf-skewed over
/// [`keyspace`] (a [`NEW_KEY_SHARE`] of them at a fresh seed), every
/// [`SWEEP_EVERY`]-th request a sweep at a fresh seed.
pub fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let keys = keyspace(seed);
    let zipf = Zipf::new(keys.len(), ZIPF_THETA);
    let mut rng = Rng::new(derive_seed(seed, 2));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / RATE_PER_S;
        if t >= seconds {
            return out;
        }
        let (at, i) = (Duration::from_secs_f64(t), out.len());
        let a = keys[zipf.sample(&mut rng)];
        let fresh = derive_seed(seed, 1_000 + i as u64);
        if (i + 1) % SWEEP_EVERY == 0 {
            let b = keys[zipf.sample(&mut rng)];
            let mut workloads = vec![a.workload];
            if b.workload != a.workload {
                workloads.push(b.workload);
            }
            let mut orgs = vec![a.org];
            if b.org != a.org {
                orgs.push(b.org);
            }
            out.push(sweep_request(at, format!("r{i}"), &workloads, &orgs, fresh));
        } else {
            let a = if rng.gen_f64() < NEW_KEY_SHARE { Key { seed: fresh, ..a } } else { a };
            let mut req = Json::obj();
            req.set("type", Json::Str("run".into()));
            req.set("id", Json::Str(format!("r{i}")));
            req.set("workload", Json::Str(a.workload.into()));
            req.set("org", Json::Str(a.org.name().into()));
            sizing(&mut req, a.seed);
            out.push(Planned { at, line: req.compact(), keys: vec![a] });
        }
    }
}

/// One parsed response line.
#[derive(Debug)]
pub enum Reply {
    /// A result for (workload, org).
    Result {
        /// Echoed workload.
        workload: String,
        /// Echoed organization.
        org: String,
        /// The run.
        result: Box<RunResult>,
    },
    /// Any other response type (error, shed, deadline...).
    Other,
}

/// Parses a response line into the request index its id names and
/// the reply; `None` when the line is not valid JSON or has no
/// `r<index>` id.
pub fn parse_reply(line: &str) -> Option<(usize, Reply)> {
    let v = Json::parse(line).ok()?;
    let index = v.get("id")?.as_str()?.strip_prefix('r')?.parse().ok()?;
    let kind = v.get("type")?.as_str()?;
    if kind != "result" {
        return Some((index, Reply::Other));
    }
    let result = run_result_from_json(v.get("result")?).ok()?;
    Some((
        index,
        Reply::Result {
            workload: v.get("workload")?.as_str()?.to_string(),
            org: v.get("org")?.as_str()?.to_string(),
            result: Box::new(result),
        },
    ))
}

/// What the client saw of one request.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// How late the request was sent after its scheduled time.
    pub late: Option<Duration>,
    /// Time from the scheduled send to its last expected reply.
    pub latency: Option<Duration>,
    /// Replies received so far.
    pub replies: usize,
    /// Whether any reply was not a matching, correct result.
    pub bad: bool,
}

/// Open-loop accounting: latency is measured from the *scheduled*
/// send time, so a late sender or a stalled server both count.
pub struct Ledger<'a> {
    plan: &'a [Planned],
    start: Instant,
    /// Requests scheduled before this offset are not timed.
    measured_from: Duration,
    /// Per-request outcomes, indexed like the plan.
    pub outcomes: Vec<Outcome>,
    /// Replies that named no planned request.
    pub stray: usize,
}

impl<'a> Ledger<'a> {
    /// A ledger for `plan` whose time zero is `start`, timing the
    /// requests scheduled at or after `measured_from`.
    pub fn new(plan: &'a [Planned], start: Instant, measured_from: Duration) -> Self {
        let outcomes = vec![Outcome::default(); plan.len()];
        Ledger { plan, start, measured_from, outcomes, stray: 0 }
    }

    /// Outcomes of the timed requests.
    fn timed(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .zip(self.plan)
            .filter(|(_, p)| p.at >= self.measured_from)
            .map(|(o, _)| o)
    }

    /// Number of timed requests.
    pub fn timed_count(&self) -> usize {
        self.timed().count()
    }

    /// Records that request `i` left the client at `at`.
    pub fn sent(&mut self, i: usize, at: Instant) {
        let due = self.start + self.plan[i].at;
        self.outcomes[i].late = Some(at.saturating_duration_since(due));
    }

    /// Records one reply to request `i` received at `at`; `ok` says
    /// whether it was a correct result for one of its jobs.
    pub fn replied(&mut self, i: usize, at: Instant, ok: bool) {
        let Some(o) = self.outcomes.get_mut(i) else {
            self.stray += 1;
            return;
        };
        o.replies += 1;
        o.bad |= !ok;
        if o.replies == self.plan[i].keys.len() {
            o.latency = Some(at.saturating_duration_since(self.start + self.plan[i].at));
        }
    }

    /// Whether every expected reply has arrived.
    pub fn complete(&self) -> bool {
        self.outcomes.iter().zip(self.plan).all(|(o, p)| o.replies >= p.keys.len())
    }

    /// Requests failed: a bad reply, or replies missing.
    pub fn failures(&self) -> usize {
        self.outcomes
            .iter()
            .zip(self.plan)
            .filter(|(o, p)| o.bad || o.replies < p.keys.len())
            .count()
    }

    /// Timed requests answered correctly within `limit`.
    pub fn on_time(&self, limit: Duration) -> usize {
        self.timed().filter(|o| !o.bad && o.latency.is_some_and(|l| l <= limit)).count()
    }

    /// Latencies of completed timed requests, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.timed().filter_map(|o| o.latency).map(|d| d.as_secs_f64() * 1e3).collect()
    }

    /// Send lateness of every sent request, in ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.outcomes.iter().filter_map(|o| o.late).map(|d| d.as_secs_f64() * 1e3).collect()
    }
}

/// Whether a reply is a result for one of the request's jobs equal to
/// the in-process run of that key.
fn reply_ok(reply: &Reply, planned: &Planned, expected: &HashMap<Key, RunResult>) -> bool {
    let Reply::Result { workload, org, result, .. } = reply else { return false };
    planned.keys.iter().any(|k| {
        k.workload == workload
            && k.org.name() == org
            && expected.get(k).is_some_and(|want| **result == *want)
    })
}

/// A running `cmp-serve --tcp` child.
struct Server {
    child: Child,
    port: u16,
}

/// The read half of a client connection, acknowledging every segment
/// at once. The server writes a response in several `write` calls on a
/// socket without `TCP_NODELAY`, so under delayed acknowledgement the
/// tail of a response waits for the client's next request or the
/// 40 ms ACK timer, and latency would measure that timer rather than
/// the service.
struct QuickAck(TcpStream);

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        // The kernel leaves quick-ack mode by itself; re-arm it.
        let _ = self.0.set_quickack(true);
        Ok(n)
    }
}

/// A client connection: the write half and a quick-acking reader.
fn connect(port: u16) -> std::io::Result<(TcpStream, BufReader<QuickAck>)> {
    let s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_nodelay(true)?;
    s.set_quickack(true)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let reader = BufReader::new(QuickAck(s.try_clone()?));
    Ok((s, reader))
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Spawns the server and waits for its first healthy `health` reply;
/// returns it with the time that took.
fn spawn_server(bin: &Path, dir: &Path) -> Result<(Server, Duration), String> {
    let port = free_port().map_err(|e| format!("no free port: {e}"))?;
    let start = Instant::now();
    let child = Command::new(bin)
        .arg("quick")
        .arg("--tcp")
        .arg(format!("127.0.0.1:{port}"))
        .current_dir(dir)
        .env_remove("CMP_OBS")
        .env("CMP_SERVE_THREADS", CONNECTIONS.to_string())
        .env("CMP_SERVE_JOURNAL", dir.join("journal"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut server = Server { child, port };
    while start.elapsed() < Duration::from_secs(30) {
        if let Ok((mut w, mut reader)) = connect(port) {
            let mut line = String::new();
            if writeln!(w, "{{\"type\":\"health\",\"id\":\"h\"}}").is_ok()
                && reader.read_line(&mut line).is_ok()
                && line.contains("\"status\":\"ok\"")
            {
                return Ok((server, start.elapsed()));
            }
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("cmp-serve exited during start-up: {status}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.stop();
    Err("cmp-serve never answered health".into())
}

impl Server {
    /// Closes stdin (a graceful drain) and waits for the child to exit,
    /// killing it after ten seconds. Returns its stdout when it exited
    /// by itself.
    fn stop(&mut self) -> Option<String> {
        drop(self.child.stdin.take());
        let reader = self.child.stdout.take().map(|mut out| {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = out.read_to_string(&mut text);
                text
            })
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let out = reader.map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        exited.then_some(out)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends the plan over [`CONNECTIONS`] connections on schedule and
/// collects every reply (or gives up `grace` after the last send).
fn drive_tcp<'a>(
    port: u16,
    plan: &'a [Planned],
    expected: &HashMap<Key, RunResult>,
    grace: Duration,
) -> Result<Ledger<'a>, String> {
    let (conns, readers): (Vec<TcpStream>, Vec<BufReader<QuickAck>>) = (0..CONNECTIONS)
        .map(|_| connect(port))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?
        .into_iter()
        .unzip();
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    let readers: Vec<_> = readers
        .into_iter()
        .map(|reader| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if tx.send((Instant::now(), line)).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    drop(tx);

    let start = Instant::now() + Duration::from_millis(20);
    let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant)>();
    let mut writers: Vec<TcpStream> =
        conns.iter().map(|c| c.try_clone().expect("clone socket")).collect();
    let lines: Vec<(Duration, String)> =
        plan.iter().map(|p| (p.at, format!("{}\n", p.line))).collect();
    let sender = std::thread::spawn(move || {
        for (i, (at, line)) in lines.iter().enumerate() {
            let due = start + *at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let n = writers.len();
            let conn = &mut writers[i % n];
            if conn.write_all(line.as_bytes()).is_err() {
                break;
            }
            let _ = sent_tx.send((i, Instant::now()));
        }
    });

    let mut ledger = Ledger::new(plan, start, Duration::from_secs_f64(WARM_S));
    let last = start + plan.last().map_or(Duration::ZERO, |p| p.at);
    loop {
        let now = Instant::now();
        let give_up = last.max(now) + grace;
        if now > last + grace || (now > last && ledger.complete()) {
            break;
        }
        match rx.recv_timeout((give_up - now).min(Duration::from_millis(50))) {
            Ok((at, line)) => match parse_reply(&line) {
                Some((i, reply)) if i < plan.len() => {
                    let ok = reply_ok(&reply, &plan[i], expected);
                    ledger.replied(i, at, ok);
                }
                _ => ledger.stray += 1,
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        while let Ok((i, at)) = sent_rx.try_recv() {
            ledger.sent(i, at);
        }
    }
    let _ = sender.join();
    while let Ok((i, at)) = sent_rx.try_recv() {
        ledger.sent(i, at);
    }
    for c in &conns {
        let _ = c.shutdown(Shutdown::Both);
    }
    for r in readers {
        let _ = r.join();
    }
    Ok(ledger)
}

/// Runs every key not yet in `expected` once in process, recording
/// its result; returns the references the runs drew.
fn reference_runs<'k>(
    keys: impl IntoIterator<Item = &'k Key>,
    expected: &mut HashMap<Key, RunResult>,
) -> u64 {
    let mut refs = 0;
    for k in keys {
        if !expected.contains_key(k) {
            let (r, n, _) = sim::run_untraced(&k.pair());
            refs += n;
            expected.insert(*k, r);
        }
    }
    refs
}

/// Sends `sweep` on a fresh connection and reads its replies, each a
/// different key checked against `expected`; returns the time from
/// the send to the last reply.
fn timed_sweep(
    port: u16,
    sweep: &Planned,
    expected: &HashMap<Key, RunResult>,
) -> Result<Duration, String> {
    let (mut w, mut reader) = connect(port).map_err(|e| format!("set-up sweep: {e}"))?;
    let start = Instant::now();
    w.write_all(format!("{}\n", sweep.line).as_bytes()).map_err(|e| e.to_string())?;
    let mut answered = std::collections::HashSet::new();
    let mut line = String::new();
    while answered.len() < sweep.keys.len() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return Err(format!("set-up sweep: {} of {} replies", answered.len(), sweep.keys.len())),
        }
        let reply = parse_reply(line.trim()).map(|(_, r)| r);
        match &reply {
            Some(r @ Reply::Result { workload, org, .. }) if reply_ok(r, sweep, expected) => {
                if !answered.insert((workload.clone(), org.clone())) {
                    return Err(format!("set-up sweep: {workload}/{org} answered twice"));
                }
            }
            _ => return Err(format!("set-up sweep: bad reply {}", line.trim())),
        }
    }
    Ok(start.elapsed())
}

/// A fresh, empty per-run directory under `base`.
fn fresh_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The end-to-end run over TCP: reference results in process, then
/// [`SETUP_SPAWNS`] servers each started and handed one cold sweep
/// (set-up time, sweep time and the server's memory), half of them
/// before and half after the open loop against one more fresh server.
pub fn run_end_to_end(bin: &Path, run_dir: &Path, seed: u64, seconds: f64, report: &mut Report) {
    let plan = plan(seed, WARM_S + seconds);
    let sweep = setup_sweep(seed);
    let mut expected = HashMap::new();
    let sweep_refs = reference_runs(&sweep.keys, &mut expected);
    reference_runs(plan.iter().flat_map(|p| &p.keys), &mut expected);
    if let Err(e) = serve_tcp(bin, run_dir, &plan, &sweep, sweep_refs, &expected, report) {
        report.check(false, || e);
    }
    let _ = std::fs::remove_dir_all(run_dir.join("serve"));
}

/// Starts a server in a fresh directory (so its journal starts empty),
/// hands it the cold `sweep`, and stops it. Returns the seconds from spawn to healthy, the sweep's seconds, and
/// the server's VmHWM in MB.
fn set_up_server(
    bin: &Path,
    run_dir: &Path,
    sweep: &Planned,
    expected: &HashMap<Key, RunResult>,
    report: &mut Report,
) -> Result<(f64, f64, f64), String> {
    let dir = fresh_dir(run_dir, "serve")?;
    let (mut server, setup) = spawn_server(bin, &dir)?;
    let took = timed_sweep(server.port, sweep, expected)?;
    let rss = peak_rss_mb(Some(server.child.id())).unwrap_or(f64::NAN);
    report.check(server.stop().is_some_and(|out| out.contains("drained")), || {
        "cmp-serve did not drain cleanly after its set-up sweep".into()
    });
    Ok((setup.as_secs_f64(), took.as_secs_f64(), rss))
}

fn serve_tcp(
    bin: &Path,
    run_dir: &Path,
    plan: &[Planned],
    sweep: &Planned,
    sweep_refs: u64,
    expected: &HashMap<Key, RunResult>,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up servers before and after the load, so a slow stretch of
    // the host does not take all of them.
    let mut servers = Vec::new();
    for _ in 0..SETUP_SPAWNS / 2 + 1 {
        servers.push(set_up_server(bin, run_dir, sweep, expected, report)?);
    }
    let dir = fresh_dir(run_dir, "serve")?;
    let (mut server, _) = spawn_server(bin, &dir)?;
    let ledger = drive_tcp(server.port, plan, expected, Duration::from_secs(20))
        .map_err(|e| format!("client: {e}"))?;
    let load_rss = peak_rss_mb(Some(server.child.id()));
    report.check(server.stop().is_some_and(|out| out.contains("drained")), || {
        "cmp-serve did not drain cleanly".into()
    });
    while servers.len() < SETUP_SPAWNS {
        servers.push(set_up_server(bin, run_dir, sweep, expected, report)?);
    }
    let setups: Vec<f64> = servers.iter().map(|s| s.0).collect();
    let sweeps: Vec<f64> = servers.iter().map(|s| s.1).collect();
    let rss: Vec<f64> = servers.iter().map(|s| s.2).collect();

    let sent = plan.len();
    let failures = ledger.failures();
    report.attempted = (sent + SETUP_SPAWNS) as u64;
    report.failed = failures as u64;
    report.check(failures == 0, || format!("{failures} of {sent} requests failed or went missing"));
    report.check(ledger.stray == 0, || format!("{} replies named no request", ledger.stray));
    let lat = ledger.latencies_ms();
    let timed = ledger.timed_count();
    let late = tail(&ledger.late_ms(), 0.99);
    report.line(format!(
        "{sent} requests at {RATE_PER_S}/s over {CONNECTIONS} connections, the {timed} after \
         {WARM_S} s timed, {} distinct keys, sender lateness {} {:.3} ms",
        expected.len() - sweep.keys.len(),
        late.label(),
        late.value
    ));
    if lat.is_empty() {
        return Err("no request completed".into());
    }
    let sweep_s = median(&sweeps);
    let note = format!("cold {}-key sweep in cmp-serve, median of {SETUP_SPAWNS}", sweep.keys.len());
    report.metric("ns_per_ref", sweep_s * 1e9 / sweep_refs as f64, "ns", note.clone());
    report.metric("sweep_s", sweep_s, "s", note);
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("spawn to healthy, median of {SETUP_SPAWNS}"),
    );
    // One server's high-water mark after the sweep falls on one of two
    // levels about one simulated L2 apart, by thread timing; the
    // highest of the servers is the steady figure.
    report.metric(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::NAN, f64::max),
        "MB",
        format!(
            "highest cmp-serve VmHWM after its cold sweep, of {SETUP_SPAWNS}: {}",
            rss.iter().map(|m| format!("{m:.1}")).collect::<Vec<_>>().join(" ")
        ),
    );
    report.line(format!(
        "cmp-serve VmHWM after the load: {:.1} MB",
        load_rss.unwrap_or(f64::NAN)
    ));
    let p99 = tail(&lat, 0.99);
    let n = lat.len();
    report.metric("req_p50_ms", median(&lat), "ms", format!("p50 of {n} requests"));
    report.metric("req_p99_ms", p99.value, "ms", format!("{} of {n} requests", p99.label()));
    report.metric(
        "req_slo_frac",
        ledger.on_time(Duration::from_secs_f64(LIMIT_MS / 1e3)) as f64 / timed as f64,
        "ratio",
        format!("correct within {LIMIT_MS} ms, of {timed} timed"),
    );
    report.metric(
        "client.late_p99_ms",
        late.value,
        "ms",
        format!("{} of {}", late.label(), late.n),
    );
    Ok(())
}

/// One request's span through an in-process service.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Scheduled send to the start of handling (open loop only), plus
    /// admission to the start of processing.
    pub queue_wait: Duration,
    /// `Service::handle_line`.
    pub admit: Duration,
    /// `Service::process_ready` until the request is answered.
    pub process: Duration,
    /// Serializing the response lines.
    pub respond: Duration,
    /// Every result came from the memo cache.
    pub cached: bool,
}

/// Drives `service` through `lines`, each at its scheduled offset
/// (open loop) or, for `None`, as soon as the previous one is answered
/// (closed loop). Returns every request's span and responses.
pub fn drive_in_process(
    service: &mut Service,
    lines: &[(Option<Duration>, String)],
) -> Vec<(Span, Vec<Json>)> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(lines.len());
    for (at, line) in lines {
        if let Some(at) = at {
            let due = start + *at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t0 = Instant::now();
        let late = at.map_or(Duration::ZERO, |a| t0.saturating_duration_since(start + a));
        let mut responses = service.handle_line(line);
        let t1 = Instant::now();
        // Admission to the start of processing: the in-service wait.
        let queue_wait = late + t1.elapsed();
        loop {
            responses.extend(service.process_ready());
            match service.next_ready_in() {
                Some(d) if d > Duration::ZERO => std::thread::sleep(d),
                Some(_) => {}
                None => break,
            }
        }
        let t2 = Instant::now();
        let bytes: usize = responses.iter().map(|r| r.compact().len() + 1).sum();
        std::hint::black_box(bytes);
        let t3 = Instant::now();
        let cached = responses.iter().all(|r| matches!(r.get("cached"), Some(Json::Bool(true))));
        let span = Span { queue_wait, admit: t1 - t0, process: t2 - t1, respond: t3 - t2, cached };
        out.push((span, responses));
    }
    out
}

/// Journal records and bytes under `dir`.
fn journal_totals(dir: &Path) -> (u64, u64) {
    let mut records = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(data) = std::fs::read(e.path()) {
                bytes += data.len() as u64;
                records += data.iter().filter(|b| **b == b'\n').count() as u64;
            }
        }
    }
    (records, bytes)
}

/// A service configured as the benchmark's `cmp-serve` child is.
fn service(journal: &Path) -> Service {
    let mut opts = ServeOptions::new(RunConfig::quick());
    opts.threads = CONNECTIONS;
    opts.journal_base = Some(journal.join("journal"));
    Service::new(opts)
}

/// Adds the service-layer metrics of an in-process drive (times over
/// `spans`, counts over the whole service lifetime).
fn serve_metrics(
    service: &Service,
    spans: &[(Span, Vec<Json>)],
    journal: &Path,
    fail_frac: f64,
    report: &mut Report,
) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let admit: Vec<f64> = spans.iter().map(|(s, _)| us(s.admit)).collect();
    let hit: Vec<f64> =
        spans.iter().filter(|(s, _)| s.cached).map(|(s, _)| us(s.process)).collect();
    let miss: Vec<f64> =
        spans.iter().filter(|(s, _)| !s.cached).map(|(s, _)| us(s.process) / 1e3).collect();
    let wait: Vec<f64> = spans.iter().map(|(s, _)| us(s.queue_wait) / 1e3).collect();
    let respond: Vec<f64> = spans.iter().map(|(s, _)| us(s.respond)).collect();
    let or_nan = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let wait_tail = tail(&wait, 0.99);
    let stats = service.stats();
    let (records, bytes) = journal_totals(journal);
    report.metric("serve.admit_us", median(&admit), "us", format!("p50 of {}", admit.len()));
    report.metric("serve.hit_us", or_nan(&hit), "us", format!("p50 of {} memo-only", hit.len()));
    report.metric(
        "serve.miss_ms",
        or_nan(&miss),
        "ms",
        format!("p50 of {} simulating", miss.len()),
    );
    report.metric(
        "serve.queue_wait_ms",
        wait_tail.value,
        "ms",
        format!("{} of {}", wait_tail.label(), wait_tail.n),
    );
    report.metric("serve.respond_us", median(&respond), "us", format!("p50 of {}", respond.len()));
    report.metric("journal.records", records as f64, "count", "");
    report.metric("journal.bytes", bytes as f64, "bytes", "");
    report.metric(
        "serve.hit_frac",
        stats.deduped as f64 / stats.completed.max(1) as f64,
        "ratio",
        "deduped / completed",
    );
    report.metric("serve.simulations", service.simulations() as f64, "count", "");
    report.metric("serve.shed", stats.shed as f64, "count", "");
    report.metric("serve.failed", stats.failed as f64, "count", "");
    report.metric("serve.deadline_expired", stats.deadline_expired as f64, "count", "");
    report.metric("req_fail_frac", fail_frac, "ratio", "failed or missing / sent");
}

/// Serves each pair of a simulation workload through an in-process
/// service twice (a simulating miss, then a memo hit), checking every
/// answer against the direct run.
pub fn probe_pairs(pairs: &[SimPair], expected: &[RunResult], run_dir: &Path, report: &mut Report) {
    let dir = match fresh_dir(run_dir, "probe") {
        Ok(d) => d,
        Err(e) => return report.check(false, || e),
    };
    let mut svc = service(&dir);
    let lines: Vec<(Option<Duration>, String)> = (0..2)
        .flat_map(|_| pairs.iter().enumerate().map(|(i, p)| (None, p.request(&format!("r{i}")))))
        .collect();
    let spans = drive_in_process(&mut svc, &lines);
    let mut failures = 0;
    for (_, responses) in &spans {
        let ok = responses.len() == 1
            && parse_reply(&responses[0].compact()).is_some_and(|(i, reply)| {
                matches!(&reply, Reply::Result { result, .. } if i < expected.len() && **result == expected[i])
            });
        failures += usize::from(!ok);
    }
    report.attempted += spans.len() as u64;
    report.failed += failures as u64;
    report.check(failures == 0, || format!("{failures} served answers differ from direct runs"));
    serve_metrics(&svc, &spans, &dir, failures as f64 / spans.len() as f64, report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The traced run: the same schedule and keys through an in-process
/// service, then the keyspace through the replay ledger.
pub fn run_traced(run_dir: &Path, seed: u64, seconds: f64, report: &mut Report) {
    let plan = plan(seed, WARM_S + seconds);
    let sweep = setup_sweep(seed);
    let mut expected = HashMap::new();
    reference_runs(plan.iter().flat_map(|p| &p.keys).chain(&sweep.keys), &mut expected);

    let dir = match fresh_dir(run_dir, "inproc") {
        Ok(d) => d,
        Err(e) => return report.check(false, || e),
    };
    let mut svc = service(&dir);
    let lines: Vec<(Option<Duration>, String)> =
        plan.iter().map(|p| (Some(p.at), p.line.clone())).collect();
    let spans = drive_in_process(&mut svc, &lines);
    let mut failures = 0;
    for ((_, responses), planned) in spans.iter().zip(&plan) {
        let ok = responses.len() == planned.keys.len()
            && responses.iter().all(|r| {
                parse_reply(&r.compact())
                    .is_some_and(|(_, reply)| reply_ok(&reply, planned, &expected))
            });
        failures += usize::from(!ok);
    }
    report.attempted += spans.len() as u64;
    report.failed += failures as u64;
    report.check(failures == 0, || format!("{failures} in-process requests failed"));
    let first_timed = plan.iter().position(|p| p.at.as_secs_f64() >= WARM_S).unwrap_or(plan.len());
    let timed = &spans[first_timed..];
    let total_ms = |s: &Span| (s.queue_wait + s.admit + s.process + s.respond).as_secs_f64() * 1e3;
    let p50 = median(&timed.iter().map(|(s, _)| total_ms(s)).collect::<Vec<_>>());
    report.line(format!("in-process request p50 {p50:.4} ms over {} timed requests", timed.len()));
    report.line(format!("inproc_p50_ms {p50}"));
    // What the rate and the limit are derived from: the service's
    // capacity on this traffic (one over its mean service time) and
    // the share of timed requests that simulate.
    let service_s: f64 =
        timed.iter().map(|(s, _)| (s.admit + s.process + s.respond).as_secs_f64()).sum();
    let misses = timed.iter().filter(|(s, _)| !s.cached).count();
    let capacity = timed.len() as f64 / service_s;
    report.line(format!(
        "capacity {capacity:.0} requests/s (mean service {:.3} ms); offered {RATE_PER_S}/s is \
         {:.2} of it; {misses} of {} timed requests simulate ({:.3})",
        service_s * 1e3 / timed.len() as f64,
        RATE_PER_S / capacity,
        timed.len(),
        misses as f64 / timed.len() as f64
    ));

    // The set-up sweep's keys through the replay ledger.
    let pairs: Vec<SimPair> = sweep.keys.iter().map(Key::pair).collect();
    let (_, trace_s, org_s) = sim::setup_medians(&pairs, 3);
    crate::host::fresh_pages_per_run();
    // Two traced passes (the minimum) over the keys.
    let ledger = sim::trace_rounds(&pairs, 0.0, report);
    for (k, r) in sweep.keys.iter().zip(&ledger.results) {
        report.check(expected.get(k) == Some(r), || {
            format!("{k:?}: ledger run differs from reference")
        });
    }
    report.line(format!("digest serve_zipf sweep = {:016x}", sim::digest(&ledger.results)));
    sim::ledger_metrics(&ledger, report);
    report.metric("setup.trace_s", trace_s, "s", "median of 3 setups");
    report.metric("setup.org_s", org_s, "s", "median of 3 setups");
    sim::count_metrics(&ledger.results, ledger.refs, report);
    serve_metrics(&svc, timed, &dir, failures as f64 / spans.len() as f64, report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zipf_keys_and_schedule_are_deterministic_per_seed() {
        let a = plan(5, 2.0);
        let b = plan(5, 2.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.at, &x.line, &x.keys), (y.at, &y.line, &y.keys));
        }
        let c = plan(6, 2.0);
        assert_ne!(
            a.iter().map(|p| &p.line).collect::<Vec<_>>(),
            c.iter().map(|p| &p.line).collect::<Vec<_>>()
        );
        assert_eq!(keyspace(5), keyspace(5));
        assert_ne!(keyspace(5), keyspace(6));
    }

    #[test]
    fn keys_are_skewed_and_sweeps_are_periodic() {
        let p = plan(9, 20.0);
        // About 20 s x RATE_PER_S arrivals; Poisson, so not exact.
        let want = 20.0 * RATE_PER_S;
        assert!((p.len() as f64 - want).abs() < 0.1 * want, "{} requests", p.len());
        let sweeps = p.iter().filter(|x| x.line.contains("\"type\":\"sweep\"")).count();
        assert_eq!(sweeps, p.len() / SWEEP_EVERY);
        let keys = keyspace(9);
        let hot = p.iter().filter(|x| x.keys[0] == keys[0]).count();
        let cold = p.iter().filter(|x| x.keys[0] == keys[keys.len() - 1]).count();
        assert!(hot > 5 * cold.max(1), "hot {hot} vs cold {cold}");
        assert!(p.windows(2).all(|w| w[0].at < w[1].at));
        // Sweeps and a NEW_KEY_SHARE of runs name keys outside the
        // popular keyspace, each at a seed no other request uses.
        let popular: HashSet<Key> = keys.iter().copied().collect();
        let mut fresh_seeds = HashSet::new();
        let mut fresh_runs = 0;
        for x in &p {
            let fresh = !popular.contains(&x.keys[0]);
            assert!(x.keys.iter().all(|k| popular.contains(k) != fresh));
            if fresh {
                assert!(fresh_seeds.insert(x.keys[0].seed), "seed reused: {}", x.line);
                fresh_runs += usize::from(x.keys.len() == 1 && x.line.contains("\"type\":\"run\""));
            }
            if x.line.contains("\"type\":\"sweep\"") {
                assert!(fresh, "sweep over popular keys: {}", x.line);
            }
        }
        let share = fresh_runs as f64 / (p.len() - sweeps) as f64;
        assert!((share - NEW_KEY_SHARE).abs() < 0.02, "fresh run share {share}");
    }

    #[test]
    fn lateness_and_latency_count_from_the_schedule() {
        let plan = vec![
            Planned {
                at: Duration::from_millis(0),
                line: String::new(),
                keys: vec![keyspace(1)[0]],
            },
            Planned {
                at: Duration::from_millis(10),
                line: String::new(),
                keys: vec![keyspace(1)[0], keyspace(1)[1]],
            },
            Planned {
                at: Duration::from_millis(20),
                line: String::new(),
                keys: vec![keyspace(1)[2]],
            },
        ];
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut l = Ledger::new(&plan, t0, Duration::ZERO);
        // Request 0 sent on time, answered after 4 ms.
        l.sent(0, ms(0));
        l.replied(0, ms(4), true);
        // Request 1 sent 5 ms late: its latency still counts from 10 ms,
        // and only completes with its second reply.
        l.sent(1, ms(15));
        l.replied(1, ms(16), true);
        assert_eq!(l.outcomes[1].latency, None);
        l.replied(1, ms(30), true);
        // Request 2 sent, never answered.
        l.sent(2, ms(20));
        l.replied(7, ms(21), true);
        assert_eq!(l.latencies_ms(), vec![4.0, 20.0]);
        assert_eq!(l.late_ms(), vec![0.0, 5.0, 0.0]);
        assert!(!l.complete());
        assert_eq!(l.failures(), 1);
        assert_eq!(l.on_time(Duration::from_millis(10)), 1);
        assert_eq!(l.stray, 1);
        // A wrong reply fails the request even when it is on time.
        l.replied(2, ms(22), false);
        assert_eq!(l.failures(), 1);
        assert_eq!(l.on_time(Duration::from_millis(50)), 2);
        // Requests scheduled before the timed window are checked, not timed.
        let mut w = Ledger::new(&plan, t0, Duration::from_millis(5));
        w.replied(0, ms(4), true);
        w.replied(2, ms(23), true);
        assert_eq!((w.timed_count(), w.latencies_ms()), (2, vec![3.0]));
        assert_eq!(w.failures(), 1);
    }

    #[test]
    fn replies_parse_and_echo_their_ids() {
        assert!(parse_reply("not json").is_none());
        let (i, r) = parse_reply("{\"type\":\"shed\",\"id\":\"r12\"}").unwrap();
        assert_eq!(i, 12);
        assert!(matches!(r, Reply::Other));
        assert!(parse_reply("{\"type\":\"result\",\"id\":null}").is_none());
    }
}
