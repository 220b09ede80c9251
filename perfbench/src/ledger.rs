//! Measurement plumbing around the simulator's public entry points:
//! a counting [`TraceSource`], a recording one, a logging
//! [`CacheOrg`], and the deterministic replays the per-layer ledger
//! is built from.
//!
//! The ledger splits one pair's host time without touching the
//! program: the live run records its reference stream, then
//!
//! * drawing the same stream from a fresh generator times trace
//!   generation,
//! * replaying the recorded stream (in place, allocating nothing)
//!   through the same public entry times everything but generation
//!   (and must reproduce the live `RunResult` bit for bit),
//! * one more (untimed) replay logs every call the system makes into
//!   its L2 organization, and replaying that log against a fresh
//!   organization and bus times the L2/coherence layer alone (and
//!   must reproduce the live organization and bus statistics).

use std::hint::black_box;
use std::time::{Duration, Instant};

use cmp_cache::{
    AccessResponse, CacheOrg, Cnuca, Dnuca, InvalScratch, OrgStats, PrivateMesi, Snuca,
    UniformShared, Violation,
};
use cmp_coherence::{Bus, BusStats};
use cmp_latency::LatencyBook;
use cmp_mem::{AccessKind, Addr, BlockAddr, CoreId, Cycle, Rng};
use cmp_nurapid::{CmpNurapid, NurapidConfig};
use cmp_sim::{OrgKind, RunResult, System};
use cmp_trace::{Access, TraceSource};

/// Counts references drawn through it: one increment per reference,
/// no timing.
pub struct Counting<'a, W> {
    inner: W,
    refs: &'a mut u64,
}

impl<'a, W> Counting<'a, W> {
    /// Wraps `inner`, adding every drawn reference to `refs`.
    pub fn new(inner: W, refs: &'a mut u64) -> Self {
        Counting { inner, refs }
    }
}

impl<W: TraceSource> TraceSource for Counting<'_, W> {
    #[inline]
    fn next_access(&mut self, core: CoreId) -> Access {
        *self.refs += 1;
        self.inner.next_access(core)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn code_region(&self, core: CoreId) -> Option<(Addr, u64, f64)> {
        self.inner.code_region(core)
    }
}

/// A captured reference stream: the global draw order of the live run
/// (one byte per reference, all the recorder keeps) and the accesses
/// in that order (16 bytes per reference, rebuilt afterwards by
/// [`Stream::fill`]).
#[derive(Debug, Default)]
pub struct Stream {
    /// Accesses in global draw order.
    pub accesses: Vec<Access>,
    /// Core index of every draw, in global order.
    pub order: Vec<u8>,
    cores: usize,
}

impl Stream {
    /// Empties the stream for `cores` cores with room for about
    /// `per_core` references each, touching the memory now so the
    /// recorded run pays neither regrowth nor first-touch page faults.
    pub fn prepare(&mut self, cores: usize, per_core: usize) {
        let room = (per_core + per_core / 8) * cores;
        let blank = Access { addr: Addr(0), kind: AccessKind::Read, gap: 0 };
        self.cores = cores;
        self.accesses.clear();
        self.accesses.resize(room, blank);
        self.accesses.clear();
        self.order.clear();
        self.order.resize(room, 0);
        self.order.clear();
    }

    /// Rebuilds the accesses by drawing from `fresh` (a new generator
    /// of the live run's workload) in the recorded order: generators
    /// are deterministic, so these are the accesses the live run
    /// consumed, which the replays then prove bit for bit.
    pub fn fill<W: TraceSource>(&mut self, mut fresh: W) {
        let Stream { accesses, order, .. } = self;
        accesses.extend(order.iter().map(|&c| fresh.next_access(CoreId(c))));
    }

    /// Total references captured.
    pub fn refs(&self) -> u64 {
        self.order.len() as u64
    }

    /// Host bytes the capture holds.
    pub fn bytes(&self) -> usize {
        self.order.len() * (std::mem::size_of::<Access>() + 1)
    }

    /// The captured stream as a source named `name`, read in place.
    pub fn replay<'a>(&'a self, name: &'a str) -> Replay<'a> {
        Replay { accesses: &self.accesses, next: 0, cores: self.cores, name }
    }
}

/// Replays a [`Stream`] in its global draw order, without copying it
/// (so a replay allocates nothing the live run did not). The simulator
/// is deterministic, so a replay of the live run's accesses asks for
/// them in the live run's order; the replay identity checks prove it.
pub struct Replay<'a> {
    accesses: &'a [Access],
    next: usize,
    cores: usize,
    name: &'a str,
}

impl TraceSource for Replay<'_> {
    #[inline]
    fn next_access(&mut self, _core: CoreId) -> Access {
        let a = self.accesses[self.next];
        self.next += 1;
        a
    }

    fn name(&self) -> &str {
        self.name
    }

    fn cores(&self) -> usize {
        self.cores
    }
}

/// Records the core of every reference drawn through it into a
/// [`Stream`]'s draw order.
pub struct Recording<'a, W> {
    inner: W,
    out: &'a mut Stream,
}

impl<'a, W: TraceSource> Recording<'a, W> {
    /// Wraps `inner`, appending to `out` (see [`Stream::prepare`]).
    pub fn new(inner: W, out: &'a mut Stream) -> Self {
        assert_eq!(out.cores, inner.cores(), "stream prepared for another machine");
        Recording { inner, out }
    }
}

impl<W: TraceSource> TraceSource for Recording<'_, W> {
    #[inline]
    fn next_access(&mut self, core: CoreId) -> Access {
        self.out.order.push(core.0);
        self.inner.next_access(core)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn code_region(&self, core: CoreId) -> Option<(Addr, u64, f64)> {
        self.inner.code_region(core)
    }
}

/// One call the system made into its L2 organization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrgEvent {
    /// `CacheOrg::access` with its arguments.
    Access {
        /// Requesting core.
        core: CoreId,
        /// L2 block.
        block: BlockAddr,
        /// Read or write.
        kind: AccessKind,
        /// Simulated time of the request.
        now: Cycle,
    },
    /// `CacheOrg::reset_stats` (the start of measurement).
    Reset,
}

/// A [`CacheOrg`] that forwards to `inner` and logs every `access`
/// and `reset_stats` call.
pub struct Logging<O> {
    inner: O,
    /// The calls so far, in order.
    pub log: Vec<OrgEvent>,
}

impl<O> Logging<O> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: O) -> Self {
        Logging { inner, log: Vec::new() }
    }
}

impl<O: CacheOrg> CacheOrg for Logging<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse {
        self.log.push(OrgEvent::Access { core, block, kind, now });
        self.inner.access(core, block, kind, now, bus, inv)
    }

    fn stats(&self) -> &OrgStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.log.push(OrgEvent::Reset);
        self.inner.reset_stats()
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn audit(&self) -> Result<(), Violation> {
        self.inner.audit()
    }

    fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        self.inner.inject_tag_fault(rng)
    }
}

/// A computation generic over the concrete organization type.
pub trait WithOrg {
    /// What the computation returns.
    type Out;
    /// Runs the computation on a freshly built organization.
    fn call<O: CacheOrg>(self, org: O) -> Self::Out;
}

/// Builds `kind` as its concrete type on the machine `(book,
/// l2_bytes)`, exactly as `cmp_sim::run_workload_mono_with` does, and
/// hands it to `f` (so nothing in the measured loop is dispatched
/// dynamically).
pub fn with_org<F: WithOrg>(kind: OrgKind, book: &LatencyBook, l2_bytes: usize, f: F) -> F::Out {
    let nurapid = |base: NurapidConfig| NurapidConfig {
        cores: book.cores(),
        dgroup_bytes: l2_bytes / book.cores().next_power_of_two(),
        latencies: book.clone(),
        ..base
    };
    match kind {
        OrgKind::Shared => f.call(UniformShared::sized_shared(book, l2_bytes)),
        OrgKind::Private => f.call(PrivateMesi::sized(book, l2_bytes)),
        OrgKind::Snuca => f.call(Snuca::sized(book, l2_bytes)),
        OrgKind::Dnuca => f.call(Dnuca::sized(book, l2_bytes)),
        OrgKind::Ideal => f.call(UniformShared::sized_ideal(book, l2_bytes)),
        OrgKind::Nurapid => f.call(CmpNurapid::new(nurapid(NurapidConfig::paper()))),
        OrgKind::NurapidCrOnly => f.call(CmpNurapid::new(nurapid(NurapidConfig::paper_cr_only()))),
        OrgKind::NurapidIscOnly => {
            f.call(CmpNurapid::new(nurapid(NurapidConfig::paper_isc_only())))
        }
        OrgKind::Cnuca => f.call(Cnuca::sized(book, l2_bytes)),
    }
}

struct LogOrg<W> {
    workload: W,
    warmup: u64,
    measure: u64,
}

impl<W: TraceSource> WithOrg for LogOrg<W> {
    type Out = (RunResult, Vec<OrgEvent>);

    fn call<O: CacheOrg>(self, org: O) -> Self::Out {
        let mut sys = System::new(self.workload, Logging::new(org));
        let result = sys.run_measured(self.warmup, self.measure);
        (result, sys.org().log.clone())
    }
}

/// Runs `workload` on `kind` with a logger on the organization (the
/// same `System` the monomorphized entry builds) and returns the
/// result with the organization log.
pub fn record_org_log<W: TraceSource>(
    workload: W,
    kind: OrgKind,
    book: &LatencyBook,
    l2_bytes: usize,
    warmup: u64,
    measure: u64,
) -> (RunResult, Vec<OrgEvent>) {
    with_org(kind, book, l2_bytes, LogOrg { workload, warmup, measure })
}

/// Times drawing `order.len()` references from `workload` in the
/// recorded global order — trace generation alone.
pub fn time_generation<W: TraceSource>(mut workload: W, order: &[u8]) -> Duration {
    let start = Instant::now();
    for &c in order {
        black_box(workload.next_access(CoreId(c)));
    }
    start.elapsed()
}

/// Result of replaying an organization log.
pub struct OrgReplay {
    /// Organization statistics after the replay.
    pub org: OrgStats,
    /// Bus statistics after the replay.
    pub bus: BusStats,
    /// `access` calls replayed.
    pub accesses: u64,
    /// `access` calls after the last reset (the measured L2 accesses).
    pub measured_accesses: u64,
    /// Host time building the fresh organization.
    pub build: Duration,
    /// Host time replaying the calls.
    pub replay: Duration,
}

struct ReplayLog<'a> {
    log: &'a [OrgEvent],
}

impl WithOrg for ReplayLog<'_> {
    type Out = (OrgStats, BusStats, u64, u64, Duration);

    fn call<O: CacheOrg>(self, mut org: O) -> Self::Out {
        let mut bus = Bus::paper();
        let mut inv = InvalScratch::new();
        let (mut accesses, mut measured) = (0u64, 0u64);
        let start = Instant::now();
        for event in self.log {
            match *event {
                OrgEvent::Access { core, block, kind, now } => {
                    black_box(org.access(core, block, kind, now, &mut bus, &mut inv));
                    accesses += 1;
                    measured += 1;
                }
                OrgEvent::Reset => {
                    org.reset_stats();
                    measured = 0;
                }
            }
        }
        let replay = start.elapsed();
        (org.stats().clone(), *bus.stats(), accesses, measured, replay)
    }
}

/// Replays an organization log against a fresh `kind` and a fresh
/// paper bus (the bus every `System` is built with).
pub fn replay_org_log(
    log: &[OrgEvent],
    kind: OrgKind,
    book: &LatencyBook,
    l2_bytes: usize,
) -> OrgReplay {
    struct Build;
    impl WithOrg for Build {
        type Out = ();
        fn call<O: CacheOrg>(self, org: O) {
            black_box(org.cores());
        }
    }
    let start = Instant::now();
    with_org(kind, book, l2_bytes, Build);
    let build = start.elapsed();
    let (org, bus, accesses, measured_accesses, replay) =
        with_org(kind, book, l2_bytes, ReplayLog { log });
    OrgReplay { org, bus, accesses, measured_accesses, build, replay }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{SimPair, Source};
    use cmp_sim::RunConfig;

    fn generator(pair: &SimPair) -> cmp_trace::SyntheticWorkload {
        let Source::Catalog(name) = pair.source else { unreachable!() };
        cmp_sim::try_multithreaded_workload(name, pair.cfg.seed).unwrap()
    }

    #[test]
    fn stream_and_org_log_replays_reproduce_a_short_live_run() {
        for org in [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid] {
            let pair = SimPair {
                source: Source::Catalog("oltp"),
                org,
                cfg: RunConfig::sized(2_000, 4_000, 3),
            };
            let (book, l2) = (pair.book(), pair.l2_bytes());
            let mut counted = 0;
            let untraced = pair.run(Counting::new(generator(&pair), &mut counted));

            let mut stream = Stream::default();
            stream.prepare(4, 6_000);
            let live = pair.run(Recording::new(generator(&pair), &mut stream));
            assert_eq!(live, untraced, "{}: recording changed the run", org.name());
            assert_eq!(stream.refs(), counted);
            stream.fill(generator(&pair));
            assert_eq!(stream.accesses.len() as u64, counted);

            let (logged, log) = record_org_log(stream.replay("oltp"), org, &book, l2, 2_000, 4_000);
            assert_eq!(pair.run(stream.replay("oltp")), live, "{}: stream replay", org.name());
            assert_eq!(logged, live, "{}: logged replay", org.name());
            assert_eq!(log.iter().filter(|e| **e == OrgEvent::Reset).count(), 1);

            let replay = replay_org_log(&log, org, &book, l2);
            assert_eq!(replay.org, live.l2, "{}: org stats", org.name());
            assert_eq!(replay.bus, live.bus, "{}: bus stats", org.name());
            assert_eq!(replay.measured_accesses, live.l2.accesses());
            assert!(replay.accesses > replay.measured_accesses);

            // The identity has teeth: a log missing one access differs.
            let mut short = log.clone();
            let last = short.iter().rposition(|e| matches!(e, OrgEvent::Access { .. })).unwrap();
            short.remove(last);
            assert_ne!(replay_org_log(&short, org, &book, l2).org, live.l2);
        }
    }

    /// Keeps every access a source hands out, in draw order.
    struct Capture<'a, W> {
        inner: W,
        drawn: &'a mut Vec<Access>,
    }

    impl<W: TraceSource> TraceSource for Capture<'_, W> {
        fn next_access(&mut self, core: CoreId) -> Access {
            let a = self.inner.next_access(core);
            self.drawn.push(a);
            a
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn cores(&self) -> usize {
            self.inner.cores()
        }
    }

    #[test]
    fn fill_rebuilds_exactly_what_the_live_run_consumed() {
        let pair = SimPair {
            source: Source::Catalog("barnes"),
            org: OrgKind::Shared,
            cfg: RunConfig::sized(100, 200, 5),
        };
        let mut stream = Stream::default();
        for _ in 0..2 {
            // A second recording into the same stream starts empty.
            stream.prepare(4, 300);
            let mut consumed = Vec::new();
            let capture = Capture { inner: generator(&pair), drawn: &mut consumed };
            pair.run(Recording::new(capture, &mut stream));
            stream.fill(generator(&pair));
            assert_eq!(stream.accesses, consumed);
        }
        assert!(time_generation(generator(&pair), &stream.order) > Duration::ZERO);
    }
}
