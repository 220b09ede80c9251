//! The simulation workloads (`paper4`, `capacity4`, `cores64`):
//! untraced sweeps for the end-to-end metrics, traced sweeps for the
//! per-layer ledger.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use cmp_cache::CacheOrg;
use cmp_sim::{OrgKind, RunResult};
use cmp_trace::TraceSource;

use crate::host::{self, CpuRotation};
use crate::ledger::{self, Counting, Recording, Stream, WithOrg};
use crate::report::{fnv1a, peak_rss_mb, Report, FNV_BASIS};
use crate::stats::{median, tail};
use crate::workloads::{SimPair, SimWorkload, WithSource};

/// Fewest set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 15;

/// Shortest span of set-up rounds: workloads with a cheap set-up
/// (`capacity4`: about 7 ms a round) take more rounds, so their median
/// does not rest on one tenth of a second of the host.
const SETUP_MIN: Duration = Duration::from_secs(1);

/// The reconciliation limit on `decomp.gap_frac`: within it, the split
/// explains the live run.
const GAP_LIMIT: f64 = 0.10;

/// Organizations whose L2 time is also reported on its own; every
/// workload runs all of them.
pub const LEDGER_ORGS: [OrgKind; 3] = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];

struct Untraced<'a> {
    pair: &'a SimPair,
    refs: &'a mut u64,
}

impl WithSource for Untraced<'_> {
    type Out = (RunResult, Duration);

    fn call<W: TraceSource>(self, workload: W) -> (RunResult, Duration) {
        let start = Instant::now();
        let result = self.pair.run(Counting::new(workload, self.refs));
        (result, start.elapsed())
    }
}

/// One untraced pair run: result, references drawn (warm-up
/// included), and host time from a built generator to the result
/// (building the generator is set-up, timed in `setup_s`; the public
/// entry builds the organization, so the run includes that).
pub fn run_untraced(pair: &SimPair) -> (RunResult, u64, Duration) {
    let mut refs = 0;
    let (result, time) = pair.with_source(Untraced { pair, refs: &mut refs });
    (result, refs, time)
}

/// Host time to build every pair's generator, and every pair's
/// organization (each dropped before the next is built).
pub fn setup_round(pairs: &[SimPair]) -> (Duration, Duration) {
    struct BuildGen;
    impl WithSource for BuildGen {
        type Out = ();
        fn call<W: TraceSource>(self, workload: W) {
            black_box(workload.cores());
        }
    }
    struct BuildOrg;
    impl WithOrg for BuildOrg {
        type Out = ();
        fn call<O: CacheOrg>(self, org: O) {
            black_box(org.cores());
        }
    }
    let (mut gen, mut org) = (Duration::ZERO, Duration::ZERO);
    for pair in pairs {
        let t = Instant::now();
        pair.with_source(BuildGen);
        gen += t.elapsed();
        let t = Instant::now();
        ledger::with_org(pair.org, &pair.book(), pair.l2_bytes(), BuildOrg);
        org += t.elapsed();
    }
    (gen, org)
}

/// Medians of `rounds` setup rounds: (total, generators,
/// organizations).
pub fn setup_medians(pairs: &[SimPair], rounds: usize) -> (f64, f64, f64) {
    let mut gen = Vec::new();
    let mut org = Vec::new();
    let mut total = Vec::new();
    for _ in 0..rounds {
        let (g, o) = setup_round(pairs);
        gen.push(g.as_secs_f64());
        org.push(o.as_secs_f64());
        total.push((g + o).as_secs_f64());
    }
    (median(&total), median(&gen), median(&org))
}

/// Digest of a sweep's simulated output, in pair order.
pub fn digest(results: &[RunResult]) -> u64 {
    results.iter().fold(FNV_BASIS, |h, r| fnv1a(&format!("{r:?}"), h))
}

/// Checks every sweep workload must pass on its results.
fn check_results(w: &SimWorkload, results: &[RunResult], report: &mut Report) {
    for (pair, r) in w.pairs.iter().zip(results) {
        // The org's class counts against an independent count of L2
        // requests: every L1 miss and store forward goes to the L2.
        let requested = r.l1.misses + r.l1.store_forwards + r.l1i.misses + r.l1i.store_forwards;
        report.check(r.l2.accesses() == requested, || {
            format!(
                "{}: L2 class counts sum to {} but the L1s sent {requested}",
                pair.label(),
                r.l2.accesses()
            )
        });
    }
    // The ideal cache bounds every shared one, per workload.
    let mut shared: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut ideal: BTreeMap<String, f64> = BTreeMap::new();
    for (i, (pair, r)) in w.pairs.iter().zip(results).enumerate() {
        match pair.org {
            OrgKind::Shared => {
                shared.insert(pair.workload_name().to_string(), (i, r.ipc()));
            }
            OrgKind::Ideal => {
                ideal.insert(pair.workload_name().to_string(), r.ipc());
            }
            _ => {}
        }
    }
    for (name, (i, shared_ipc)) in shared {
        let ideal_ipc = match ideal.get(&name) {
            Some(ipc) => *ipc,
            None => run_untraced(&w.pairs[i].with_org(OrgKind::Ideal)).0.ipc(),
        };
        report.check(ideal_ipc >= shared_ipc, || {
            format!("{name}: ideal IPC {ideal_ipc} below shared IPC {shared_ipc}")
        });
    }
    if w.name == "capacity4" {
        let evictions: u64 =
            results.iter().map(|r| r.l2.evictions_private + r.l2.evictions_shared).sum();
        report.check(evictions > 0, || "capacity4: no L2 evictions; it no longer fills".into());
        let demotions: u64 = w
            .pairs
            .iter()
            .zip(results)
            .filter(|(p, _)| p.org == OrgKind::Nurapid)
            .map(|(_, r)| r.l2.demotions)
            .sum();
        report.check(demotions > 0, || "capacity4: nurapid performed no demotions".into());
    }
}

/// Whether another round fits: at least `min` rounds, then more while
/// one more (as long as the slowest so far) ends within `budget`.
fn another_round(
    done: usize,
    min: usize,
    start: Instant,
    slowest: Duration,
    budget: Duration,
) -> bool {
    done < min || start.elapsed() + slowest <= budget
}

/// Each pair's best time over `times` (rounds x pairs): the host is
/// shared, and a slow stretch only ever adds time, so the fastest of
/// several runs spread over the whole measurement is the steadiest
/// estimate of a pair's cost.
pub fn best_per_pair(times: &[Vec<f64>]) -> Vec<f64> {
    let pairs = times.first().map_or(0, Vec::len);
    (0..pairs).map(|p| times.iter().map(|round| round[p]).fold(f64::INFINITY, f64::min)).collect()
}

/// The end-to-end run: setup rounds, then untraced sweeps for
/// `seconds` (at least two, so sweeps can be checked against each
/// other). Sweep time is the sum of each pair's best time over the
/// sweeps; pair latency percentiles are taken over those best times.
pub fn run_end_to_end(w: &SimWorkload, seconds: f64, report: &mut Report) {
    // Back-to-back rounds before any sweep: interleaved with sweeps, a
    // round's organizations reuse the heap the sweep freed, and its time
    // flips between two levels (on paper4, 0.027 or 0.07-0.09 s).
    let rotation = CpuRotation::new();
    let (setup_start, mut setups) = (Instant::now(), Vec::new());
    while setups.len() < SETUP_ROUNDS || setup_start.elapsed() < SETUP_MIN {
        rotation.pin(setups.len());
        let (g, o) = setup_round(&w.pairs);
        setups.push((g + o).as_secs_f64());
    }
    host::fresh_pages_per_run();
    let mut times: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Vec<RunResult>> = None;
    let mut refs_per_sweep = 0;
    let (start, budget) = (Instant::now(), Duration::from_secs_f64(seconds));
    let mut slowest = Duration::ZERO;
    let mut round = 0;
    while another_round(round, 2, start, slowest, budget) {
        let began = Instant::now();
        let mut results = Vec::with_capacity(w.pairs.len());
        let mut row = Vec::with_capacity(w.pairs.len());
        let mut refs = 0u64;
        for (i, pair) in w.pairs.iter().enumerate() {
            // Shifted each sweep, so every pair runs on every CPU.
            rotation.pin(i + round);
            let (r, n, t) = run_untraced(pair);
            refs += n;
            row.push(t.as_secs_f64());
            results.push(r);
        }
        times.push(row);
        report.check(round == 0 || refs == refs_per_sweep, || {
            format!("sweep {round} drew {refs} refs")
        });
        refs_per_sweep = refs;
        match &first {
            None => first = Some(results),
            Some(f) => {
                report.check(*f == results, || format!("sweep {round} diverged from sweep 0"))
            }
        }
        report.attempted += w.pairs.len() as u64;
        slowest = slowest.max(began.elapsed());
        round += 1;
    }
    drop(rotation);
    let rounds = round;
    let results = first.expect("at least one round");
    check_results(w, &results, report);
    report.line(format!(
        "digest {} = {:016x} ({} pairs, {} refs per sweep, {rounds} sweeps)",
        w.name,
        digest(&results),
        w.pairs.len(),
        refs_per_sweep
    ));

    let best = best_per_pair(&times);
    let sweep: f64 = best.iter().sum();
    let best_ms: Vec<f64> = best.iter().map(|t| t * 1e3).collect();
    let within = best_ms.iter().filter(|t| **t <= w.pair_limit_ms).count();
    let p99 = tail(&best_ms, 0.99);
    let n = best_ms.len();
    let note = format!("sum of per-pair best of {rounds} sweeps");
    report.metric("ns_per_ref", sweep * 1e9 / refs_per_sweep as f64, "ns", note.clone());
    report.metric("sweep_s", sweep, "s", note);
    // Printed only: how far the typical run sits above the best.
    let med: f64 =
        (0..w.pairs.len()).map(|p| median(&times.iter().map(|r| r[p]).collect::<Vec<_>>())).sum();
    report.metric("sweep_median_s", med, "s", "sum of per-pair medians");
    report.metric("setup_s", median(&setups), "s", format!("median of {} setups", setups.len()));
    report.metric("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN), "MB", "VmHWM");
    report.metric("req_p50_ms", median(&best_ms), "ms", format!("p50 of {n} pairs' best times"));
    report.metric(
        "req_p99_ms",
        p99.value,
        "ms",
        format!("{} of {n} pairs' best times", p99.label()),
    );
    report.metric(
        "req_slo_frac",
        within as f64 / n as f64,
        "ratio",
        format!("pairs' best times within {} ms, of {n}", w.pair_limit_ms),
    );
}

/// Host times of one pair's traced run.
#[derive(Clone, Copy, Debug)]
pub struct PairTimes {
    /// Untraced run (generator build, org build, run).
    pub untraced: Duration,
    /// Recorded live run (the same, with the recorder on).
    pub live: Duration,
    /// Stream generation alone.
    pub gen: Duration,
    /// Replay of the recorded stream through the public entry.
    pub replay: Duration,
    /// Organization-log replay.
    pub cache: Duration,
    /// Building the fresh organization for the log replay.
    pub org_build: Duration,
}

impl PairTimes {
    /// Component-wise minimum.
    fn min(self, o: PairTimes) -> PairTimes {
        PairTimes {
            untraced: self.untraced.min(o.untraced),
            live: self.live.min(o.live),
            gen: self.gen.min(o.gen),
            replay: self.replay.min(o.replay),
            cache: self.cache.min(o.cache),
            org_build: self.org_build.min(o.org_build),
        }
    }
}

/// What one traced pair run measured.
pub struct PairTrace {
    /// Host times.
    pub times: PairTimes,
    /// References drawn (warm-up included).
    pub refs: u64,
    /// L2 accesses in the organization log.
    pub accesses: u64,
    /// Bytes the recorded stream held.
    pub stream_bytes: usize,
    /// The live result.
    pub result: RunResult,
}

/// Runs one pair untraced, then live through the public entry with a
/// recorder of its draw order, times generation alone in that order,
/// rebuilds the stream, replays it, and checks each run reproduces the
/// untraced one exactly.
pub fn trace_pair(pair: &SimPair, stream: &mut Stream, report: &mut Report) -> PairTrace {
    struct Live<'a> {
        pair: &'a SimPair,
        stream: &'a mut Stream,
    }
    impl WithSource for Live<'_> {
        type Out = (RunResult, Duration);
        fn call<W: TraceSource>(self, workload: W) -> (RunResult, Duration) {
            let recording = Recording::new(workload, self.stream);
            let start = Instant::now();
            let result = self.pair.run(recording);
            (result, start.elapsed())
        }
    }
    struct Gen<'a> {
        order: &'a [u8],
    }
    struct Fill<'a> {
        stream: &'a mut Stream,
    }
    impl WithSource for Fill<'_> {
        type Out = ();
        fn call<W: TraceSource>(self, workload: W) {
            self.stream.fill(workload)
        }
    }
    impl WithSource for Gen<'_> {
        type Out = Duration;
        fn call<W: TraceSource>(self, workload: W) -> Duration {
            ledger::time_generation(workload, self.order)
        }
    }

    let label = pair.label();
    let (untraced, _, untraced_time) = run_untraced(pair);
    let (cfg, kind) = (&pair.cfg, pair.org);
    let (book, l2) = (pair.book(), pair.l2_bytes());
    stream.prepare(book.cores(), (cfg.warmup_accesses + cfg.measure_accesses) as usize);
    let (live, live_time) = pair.with_source(Live { pair, stream });
    report.check(live == untraced, || format!("{label}: recorded live run != untraced run"));
    let (refs, stream_bytes) = (stream.refs(), stream.bytes());
    let gen = pair.with_source(Gen { order: &stream.order });
    pair.with_source(Fill { stream: &mut *stream });

    let start = Instant::now();
    let replayed = pair.run(stream.replay(pair.workload_name()));
    let replay = start.elapsed();
    report.check(replayed == live, || format!("{label}: stream replay != live run"));

    let (logged, log) = ledger::record_org_log(
        stream.replay(pair.workload_name()),
        kind,
        &book,
        l2,
        cfg.warmup_accesses,
        cfg.measure_accesses,
    );
    report.check(logged == live, || format!("{label}: logged replay != live run"));
    let org = ledger::replay_org_log(&log, kind, &book, l2);
    report.check(org.org == live.l2, || format!("{label}: org-log replay org stats differ"));
    report.check(org.bus == live.bus, || format!("{label}: org-log replay bus stats differ"));
    report.check(org.measured_accesses == live.l2.accesses(), || {
        format!("{label}: org log holds {} measured accesses", org.measured_accesses)
    });
    report.attempted += 1;

    let times = PairTimes {
        untraced: untraced_time,
        live: live_time,
        gen,
        replay,
        cache: org.replay,
        org_build: org.build,
    };
    PairTrace { times, refs, accesses: org.accesses, stream_bytes, result: live }
}

/// Per-layer times of several traced sweeps: each pair's best time
/// per component (a slow stretch of the shared host only adds time),
/// summed over pairs.
pub struct Ledger {
    /// Traced sweeps taken.
    pub rounds: usize,
    /// Each pair's organization and best times.
    pub best: Vec<(OrgKind, PairTimes, u64)>,
    /// References per sweep (warm-up included).
    pub refs: u64,
    /// Live results of the first sweep, in pair order.
    pub results: Vec<RunResult>,
    /// Largest stream captured, in bytes.
    pub stream_bytes: usize,
}

impl Ledger {
    fn sum(&self, f: impl Fn(&PairTimes) -> Duration) -> Duration {
        self.best.iter().map(|(_, t, _)| f(t)).sum()
    }
}

/// Traces every pair in sweeps for `seconds` (at least two sweeps) and
/// keeps each pair's best times; every sweep must reproduce the first.
pub fn trace_rounds(pairs: &[SimPair], seconds: f64, report: &mut Report) -> Ledger {
    let mut ledger =
        Ledger { rounds: 0, best: Vec::new(), refs: 0, results: Vec::new(), stream_bytes: 0 };
    let mut stream = Stream::default();
    let rotation = CpuRotation::new();
    let (start, budget) = (Instant::now(), Duration::from_secs_f64(seconds));
    let mut slowest = Duration::ZERO;
    while another_round(ledger.rounds, 2, start, slowest, budget) {
        let (began, round) = (Instant::now(), ledger.rounds);
        for (i, pair) in pairs.iter().enumerate() {
            // All of one pair's runs on one CPU, so its split adds up.
            rotation.pin(i + round);
            let t = trace_pair(pair, &mut stream, report);
            ledger.stream_bytes = ledger.stream_bytes.max(t.stream_bytes);
            if round == 0 {
                ledger.refs += t.refs;
                ledger.best.push((pair.org, t.times, t.accesses));
                ledger.results.push(t.result);
            } else {
                ledger.best[i].1 = ledger.best[i].1.min(t.times);
                report.check(t.result == ledger.results[i], || {
                    format!("{}: traced sweep {round} diverged", pair.label())
                });
            }
        }
        slowest = slowest.max(began.elapsed());
        ledger.rounds += 1;
    }
    ledger
}

/// Adds the ledger's per-layer metrics to `report`.
pub fn ledger_metrics(ledger: &Ledger, report: &mut Report) {
    let ns = |d: Duration| d.as_secs_f64() * 1e9;
    let refs = ledger.refs.max(1) as f64;
    let accesses: u64 = ledger.best.iter().map(|(_, _, n)| n).sum();
    let (live, gen, replay) =
        (ledger.sum(|t| t.live), ledger.sum(|t| t.gen), ledger.sum(|t| t.replay));
    let cache = ledger.sum(|t| t.cache);
    let core = replay.saturating_sub(cache + ledger.sum(|t| t.org_build));
    let untraced = ledger.sum(|t| t.untraced);
    let best = format!("per-pair best of {}", ledger.rounds);
    report.line(format!(
        "overhead: recorded live sweep {:.4} s vs untraced sweep {:.4} s (recorder {:+.1}%), \
         {best}; largest stream {:.1} MB",
        live.as_secs_f64(),
        untraced.as_secs_f64(),
        (live.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
        ledger.stream_bytes as f64 / 1e6
    ));
    report.metric("trace.ns_per_ref", ns(gen) / refs, "ns", format!("generation alone, {best}"));
    report.metric(
        "trace.share",
        ns(gen) / (ns(gen) + ns(replay)),
        "ratio",
        "generation / (generation + replay)",
    );
    report.metric("core.ns_per_ref", ns(core) / refs, "ns", "replay - org-log replay - org build");
    report.metric(
        "cache.ns_per_access",
        ns(cache) / accesses.max(1) as f64,
        "ns",
        format!("{} refs, {accesses} L2 accesses per sweep", ledger.refs),
    );
    for org in LEDGER_ORGS {
        let (t, n) = ledger
            .best
            .iter()
            .filter(|(k, _, _)| *k == org)
            .fold((Duration::ZERO, 0), |(t, n), (_, times, a)| (t + times.cache, n + a));
        let value = if n == 0 { f64::NAN } else { ns(t) / n as f64 };
        report.metric(
            &format!("cache.ns_per_access.{}", org.name()),
            value,
            "ns",
            format!("{n} L2 accesses"),
        );
    }
    // The split must explain the recorded live run; the untraced run
    // differs from it by the recorder's cost (the overhead line).
    let gap = |whole: Duration| (ns(gen) + ns(replay) - ns(whole)).abs() / ns(whole);
    report.line(format!("gap against the untraced sweep instead: {:.4}", gap(untraced)));
    report.metric("decomp.gap_frac", gap(live), "ratio", "|generation + replay - live| / live");
    // Not a failed check: on capacity4 the generator and the simulator
    // compete for host cache in the live run, so the parts timed alone
    // sum to 7-14% less than it (see perfbench/README.md).
    report.line(format!(
        "decomp: within the {GAP_LIMIT} reconciliation limit: {}",
        if gap(live) <= GAP_LIMIT { "yes" } else { "no" }
    ));
    report.metric("trace.live_s", live.as_secs_f64(), "s", format!("recorded live sweep, {best}"));
    report.metric(
        "sweep.untraced_s",
        untraced.as_secs_f64(),
        "s",
        format!("untraced sweep, {best}"),
    );
}

/// Simulated-statistics rows of the ledger (exact for a given seed).
pub fn count_metrics(results: &[RunResult], refs: u64, report: &mut Report) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>();
    let measured = sum(&|r| r.accesses).max(1) as f64;
    let l1_hits = sum(&|r| r.l1.hits) as f64;
    let l1_all = l1_hits + sum(&|r| r.l1.misses) as f64;
    let l2 = sum(&|r| r.l2.accesses()) as f64;
    report.metric("l1.hit_frac", l1_hits / l1_all.max(1.0), "ratio", "measured phase");
    report.metric(
        "l1.inval_per_kref",
        sum(&|r| r.l1.invalidations) as f64 * 1e3 / measured,
        "count",
        "per 1000 measured refs",
    );
    report.metric("cache.access_per_ref", l2 / measured, "ratio", "measured phase");
    report.metric("cache.hit_frac", sum(&|r| r.l2.hits()) as f64 / l2.max(1.0), "ratio", "");
    report.metric(
        "cache.evictions",
        sum(&|r| r.l2.evictions_private + r.l2.evictions_shared) as f64,
        "count",
        "measured phase",
    );
    report.metric("cache.writebacks", sum(&|r| r.l2.writebacks) as f64, "count", "measured phase");
    report.metric("cache.demotions", sum(&|r| r.l2.demotions) as f64, "count", "measured phase");
    report.metric(
        "bus.txn_per_ref",
        sum(&|r| r.bus.total()) as f64 / refs.max(1) as f64,
        "ratio",
        "whole run",
    );
}

/// The traced run: setup rounds, traced sweeps (each pair untraced,
/// recorded and replayed), and the workload's pairs served through an
/// in-process service.
pub fn run_traced(w: &SimWorkload, seconds: f64, run_dir: &Path, report: &mut Report) {
    let (_, trace_s, org_s) = setup_medians(&w.pairs, 3);
    host::fresh_pages_per_run();
    let ledger = trace_rounds(&w.pairs, seconds, report);
    check_results(w, &ledger.results, report);
    report.line(format!("digest {} = {:016x}", w.name, digest(&ledger.results)));
    ledger_metrics(&ledger, report);
    report.metric("setup.trace_s", trace_s, "s", "median of 3 setups");
    report.metric("setup.org_s", org_s, "s", "median of 3 setups");
    count_metrics(&ledger.results, ledger.refs, report);
    crate::serve::probe_pairs(&w.pairs, &ledger.results, run_dir, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_stop_when_the_next_would_overrun_the_budget() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        // The minimum always runs, even past the budget.
        assert!(another_round(0, 2, start, ms(0), ms(0)));
        assert!(another_round(1, 2, start, ms(500), ms(0)));
        // Then only while one more round, as slow as the slowest, fits.
        assert!(another_round(2, 2, start, ms(100), ms(10_000)));
        assert!(!another_round(2, 2, start, ms(20_000), ms(10_000)));
    }

    #[test]
    fn best_per_pair_takes_each_pairs_minimum() {
        let times = vec![vec![3.0, 1.0], vec![2.0, 5.0], vec![4.0, 0.5]];
        assert_eq!(best_per_pair(&times), vec![2.0, 0.5]);
    }
}
