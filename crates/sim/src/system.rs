//! The multi-core discrete-event driver.

use cmp_cache::{CacheOrg, InvalScratch, OrgStats};
use cmp_coherence::{Bus, BusStats};
use cmp_mem::{AccessKind, CoreId, Cycle, Rng, Zipf};
use cmp_trace::{Access, TraceSource};

use crate::l1::{L1Cache, L1Outcome, L1Stats};
use crate::stopping::{
    batch_accesses, z_for_confidence, StopInfo, StopMetric, StopRule, Welford, MIN_BATCHES,
};

/// Per-core instruction-fetch state (Section 4.1's L1 I-cache),
/// enabled by [`System::enable_instruction_fetch`].
struct IFetch {
    /// Code region base (byte address).
    base: u64,
    /// Code region size in bytes.
    bytes: u64,
    /// Jump probability per step.
    jump_prob: f64,
    /// Current program counter offset within the region.
    pc: u64,
    /// Popularity of jump targets: real instruction streams spend
    /// most time in a few hot functions (1 KB granules, Zipf-skewed),
    /// with a cold tail providing the shared-code misses.
    targets: Zipf,
    rng: Rng,
}

/// One core's execution state.
#[derive(Clone, Copy, Debug, Default)]
struct CoreState {
    clock: Cycle,
    instructions: u64,
    accesses: u64,
    l2_stall: Cycle,
}

/// Cumulative-counter snapshot taken at the start of a measurement
/// window; diffed against by [`System::finish_measurement`].
struct MeasureBase {
    inst0: u64,
    stall0: Cycle,
    acc0: u64,
    clock0: Cycle,
}

/// Results of a measured run. Equality is bit-exact over every
/// counter, which is what the determinism suite relies on when it
/// checks that parallel and sequential sweeps agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Organization name.
    pub org: &'static str,
    /// Instructions retired across cores during measurement.
    pub instructions: u64,
    /// Memory references performed across cores during measurement.
    pub accesses: u64,
    /// Wall-clock cycles of the measurement phase (max over cores).
    pub cycles: Cycle,
    /// L2 statistics for the measurement phase.
    pub l2: OrgStats,
    /// L1 data-cache statistics summed over cores.
    pub l1: L1Stats,
    /// L1 instruction-cache statistics summed over cores (all zero
    /// unless instruction fetch is enabled).
    pub l1i: L1Stats,
    /// Total cycles cores stalled on L2/memory responses (excludes
    /// the L1 latency), summed over cores.
    pub l2_stall_cycles: Cycle,
    /// Bus statistics for the whole run (warm-up included).
    pub bus: BusStats,
}

impl RunResult {
    /// Aggregate instructions per cycle — the paper's performance
    /// metric (throughput for multithreaded workloads, IPC for
    /// multiprogrammed ones).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Performance relative to a baseline run (Figures 6, 10, 12).
    pub fn relative_to(&self, base: &RunResult) -> f64 {
        self.ipc() / base.ipc()
    }
}

/// A simulated CMP: cores + L1s + bus + one L2 organization.
///
/// The driver repeatedly advances the core with the smallest local
/// clock by one reference, so cross-core coherence events interleave
/// in global time order (the atomic-bus abstraction).
///
/// Generic over the L2 organization `O`. With a concrete org type the
/// whole L1-filter → L2 → bus step chain monomorphizes into one
/// dispatch-free loop (the fast path `run_workload_mono` takes); the
/// default `Box<dyn CacheOrg>` keeps every existing dynamic call site
/// compiling unchanged.
pub struct System<W, O = Box<dyn CacheOrg>> {
    workload: W,
    org: O,
    l1d: Vec<L1Cache>,
    /// One L1 I-cache per core, built by
    /// [`System::enable_instruction_fetch`]; empty while fetch is off.
    l1i: Vec<L1Cache>,
    ifetch: Vec<Option<IFetch>>,
    bus: Bus,
    cores: Vec<CoreState>,
    /// Reusable invalidation scratch threaded through every L2
    /// access, so the per-access hot path never allocates.
    inval: InvalScratch,
}

impl<W: TraceSource, O: CacheOrg> System<W, O> {
    /// Assembles a system. The workload and the organization must
    /// agree on the core count.
    ///
    /// # Panics
    ///
    /// Panics on a core-count mismatch.
    pub fn new(workload: W, org: O) -> Self {
        Self::with_bus(workload, org, Bus::paper())
    }

    /// Assembles a system with an explicit bus configuration (used by
    /// the sensitivity sweeps).
    ///
    /// # Panics
    ///
    /// Panics on a core-count mismatch.
    pub fn with_bus(workload: W, org: O, bus: Bus) -> Self {
        assert_eq!(workload.cores(), org.cores(), "workload and L2 organization disagree on cores");
        let n = workload.cores();
        System {
            workload,
            org,
            l1d: (0..n).map(|_| L1Cache::paper()).collect(),
            l1i: Vec::new(),
            ifetch: (0..n).map(|_| None).collect(),
            bus,
            cores: vec![CoreState::default(); n],
            inval: InvalScratch::new(),
        }
    }

    /// Turns on instruction-stream modelling: each step fetches the
    /// step's instructions through a per-core 64 KB L1 I-cache, from
    /// the code region the workload reports (shared across cores in
    /// multithreaded workloads — instructions are the canonical
    /// read-only-shared data). Off by default; the paper's figures
    /// are driven by the data stream.
    ///
    /// Returns whether the workload models code at all; the per-core
    /// L1 I-caches are built only then.
    pub fn enable_instruction_fetch(&mut self, seed: u64) -> bool {
        let mut any = false;
        for c in CoreId::all(self.cores.len()) {
            if let Some((base, bytes, jump_prob)) = self.workload.code_region(c) {
                any = true;
                let functions = (bytes / 1024).max(1) as usize;
                self.ifetch[c.index()] = Some(IFetch {
                    base: base.0,
                    bytes,
                    jump_prob,
                    pc: 0,
                    targets: Zipf::new(functions, 1.3),
                    rng: Rng::new(seed ^ (0x1F << 8) ^ c.index() as u64),
                });
            }
        }
        if any && self.l1i.is_empty() {
            self.l1i = (0..self.cores.len()).map(|_| L1Cache::paper()).collect();
        }
        any
    }

    /// The L2 organization (for inspecting statistics).
    pub fn org(&self) -> &O {
        &self.org
    }

    /// Executes one reference on `core`.
    #[inline]
    fn step(&mut self, core: CoreId) {
        let access = self.workload.next_access(core);
        let c = core.index();
        // Instruction fetch for this step's instructions, if enabled.
        let fetch_stall = self.fetch_instructions(core, access.gap as u64 + 1);
        {
            let state = &mut self.cores[c];
            // Compute gap: CPI = 1 for non-memory instructions.
            state.clock += fetch_stall + access.gap as Cycle;
            state.instructions += access.gap as u64 + 1;
            state.accesses += 1;
        }
        let latency = self.reference(core, access);
        self.cores[c].clock += latency;
    }

    /// Advances the instruction stream by `instructions` (4 bytes
    /// each) and fetches any newly touched I-blocks through the L1I;
    /// L1I misses go to the L2 as reads. Returns the fetch stall.
    #[inline]
    fn fetch_instructions(&mut self, core: CoreId, instructions: u64) -> Cycle {
        let c = core.index();
        let Some(ifetch) = self.ifetch[c].as_mut() else { return 0 };
        // Occasional jump to a (popularity-skewed) function start;
        // otherwise fall through sequentially.
        if ifetch.rng.gen_bool(ifetch.jump_prob) {
            ifetch.pc = (ifetch.targets.sample(&mut ifetch.rng) as u64 * 1024) % ifetch.bytes;
        }
        let start = ifetch.pc;
        let end = start + instructions * 4;
        ifetch.pc = end % ifetch.bytes;
        let base = ifetch.base;
        let bytes = ifetch.bytes;
        // Touch each 64 B I-block the window [start, end) covers.
        let mut stall = 0;
        let mut blk = start / 64;
        let last = (end.saturating_sub(1)) / 64;
        while blk <= last {
            let addr = cmp_mem::Addr(base + (blk * 64) % bytes);
            let l1_block = addr.block(cmp_mem::L1_BLOCK_BYTES);
            match self.l1i[c].access(l1_block, AccessKind::Read) {
                L1Outcome::Hit => {}
                _ => {
                    let now = self.cores[c].clock + stall + self.l1i[c].latency();
                    let l2_block = addr.block(cmp_mem::L2_BLOCK_BYTES);
                    let resp = self.org.access(
                        core,
                        l2_block,
                        AccessKind::Read,
                        now,
                        &mut self.bus,
                        &mut self.inval,
                    );
                    for (victim_core, victim_l2_block) in self.inval.as_slice() {
                        for child in victim_l2_block
                            .children(cmp_mem::L2_BLOCK_BYTES, cmp_mem::L1_BLOCK_BYTES)
                        {
                            self.l1i[victim_core.index()].invalidate(child);
                            self.l1d[victim_core.index()].invalidate(child);
                        }
                    }
                    self.l1i[c].fill(l1_block, resp.writethrough, false);
                    stall += self.l1i[c].latency() + resp.latency;
                }
            }
            blk += 1;
        }
        stall
    }

    /// Performs the memory reference and returns the core stall.
    #[inline]
    fn reference(&mut self, core: CoreId, access: Access) -> Cycle {
        let c = core.index();
        let l1_block = access.addr.block(cmp_mem::L1_BLOCK_BYTES);
        let l1_latency = self.l1d[c].latency();
        let outcome = self.l1d[c].access(l1_block, access.kind);
        match outcome {
            L1Outcome::Hit => l1_latency,
            L1Outcome::HitWritethrough | L1Outcome::HitNeedsPermission | L1Outcome::Miss => {
                let l2_block = access.addr.block(cmp_mem::L2_BLOCK_BYTES);
                let now = self.cores[c].clock + l1_latency;
                let resp = self.org.access(
                    core,
                    l2_block,
                    access.kind,
                    now,
                    &mut self.bus,
                    &mut self.inval,
                );
                // Apply inclusion/coherence invalidations to L1s.
                for (victim_core, victim_l2_block) in self.inval.as_slice() {
                    for child in
                        victim_l2_block.children(cmp_mem::L2_BLOCK_BYTES, cmp_mem::L1_BLOCK_BYTES)
                    {
                        self.l1d[victim_core.index()].invalidate(child);
                    }
                }
                self.l1d[c].fill(l1_block, resp.writethrough, access.kind.is_write());
                if outcome == L1Outcome::HitWritethrough {
                    // Posted store: the L2/bus effects happened, but
                    // the store buffer hides the latency.
                    l1_latency
                } else {
                    self.cores[c].l2_stall += resp.latency;
                    l1_latency + resp.latency
                }
            }
        }
    }

    /// Runs in global time order until some core has executed
    /// `accesses_per_core` further references (the paper's "until at
    /// least one core completes N instructions" methodology; no
    /// statistics reset). All cores stay within one reference of the
    /// same wall-clock, so bus timestamps remain monotonic.
    pub fn run(&mut self, accesses_per_core: u64) {
        let n = self.cores.len();
        let targets: Vec<u64> = self.cores.iter().map(|s| s.accesses + accesses_per_core).collect();
        loop {
            // Advance the core with the smallest local clock (first
            // minimum wins — the tie-break order is part of the
            // deterministic schedule).
            let mut i = 0;
            let mut best = self.cores[0].clock;
            for (j, s) in self.cores.iter().enumerate().skip(1) {
                if s.clock < best {
                    best = s.clock;
                    i = j;
                }
            }
            debug_assert!(n > 0);
            if self.cores[i].accesses >= targets[i] {
                break;
            }
            self.step(CoreId(i as u8));
        }
    }

    /// Clears phase statistics and snapshots the cumulative core
    /// counters, marking the start of a measurement window.
    fn begin_measurement(&mut self) -> MeasureBase {
        self.org.reset_stats();
        for l1 in self.l1d.iter_mut().chain(self.l1i.iter_mut()) {
            l1.reset_stats();
        }
        MeasureBase {
            inst0: self.cores.iter().map(|s| s.instructions).sum(),
            stall0: self.cores.iter().map(|s| s.l2_stall).sum(),
            acc0: self.cores.iter().map(|s| s.accesses).sum(),
            clock0: self.cores.iter().map(|s| s.clock).max().unwrap_or(0),
        }
    }

    /// Runs a warm-up phase, clears statistics, then runs and
    /// measures. Returns the measurement-phase result.
    pub fn run_measured(&mut self, warmup_per_core: u64, measure_per_core: u64) -> RunResult {
        self.run(warmup_per_core);
        let base = self.begin_measurement();
        self.run(measure_per_core);
        self.finish_measurement(&base)
    }

    /// Like [`System::run_measured`], but the measurement phase may
    /// stop early under [`StopRule::Confidence`]: it executes in
    /// deterministic access-count batches, folds each batch's metric
    /// into a streaming [`Welford`] estimator, and stops as soon as
    /// the confidence interval of the running mean is narrower than
    /// the requested relative half-width (never exceeding the fixed
    /// `measure_per_core` budget). With [`StopRule::Fixed`] this is
    /// exactly `run_measured` — same schedule, same result bits.
    pub fn run_measured_stop(
        &mut self,
        warmup_per_core: u64,
        measure_per_core: u64,
        rule: StopRule,
    ) -> (RunResult, StopInfo) {
        let StopRule::Confidence { metric, rel_half_width, confidence } = rule else {
            let result = self.run_measured(warmup_per_core, measure_per_core);
            let info = StopInfo {
                stopped_early: false,
                batches: 1,
                measured_per_core: measure_per_core,
                mean: 0.0,
                half_width: 0.0,
            };
            return (result, info);
        };
        let z = z_for_confidence(confidence);
        self.run(warmup_per_core);
        let base = self.begin_measurement();
        let batch = batch_accesses(measure_per_core);
        let mut welford = Welford::new();
        let mut done = 0u64;
        let mut stopped_early = false;
        // Cumulative (numerator, denominator) at the previous batch
        // boundary; per-batch metric = the delta ratio.
        let (mut prev_num, mut prev_den) = (0u64, 0u64);
        while done < measure_per_core {
            let step = batch.min(measure_per_core - done);
            self.run(step);
            done += step;
            let (num, den) = match metric {
                StopMetric::MissRate => {
                    let stats = self.org.stats();
                    (stats.misses(), stats.accesses())
                }
                StopMetric::Ipc => (
                    self.cores.iter().map(|s| s.instructions).sum::<u64>() - base.inst0,
                    self.cores.iter().map(|s| s.clock).max().unwrap_or(0) - base.clock0,
                ),
            };
            let (dn, dd) = (num - prev_num, den - prev_den);
            (prev_num, prev_den) = (num, den);
            welford.push(if dd == 0 { 0.0 } else { dn as f64 / dd as f64 });
            if welford.count() >= MIN_BATCHES
                && z * welford.std_error() <= rel_half_width * welford.mean().abs()
            {
                stopped_early = done < measure_per_core;
                break;
            }
        }
        let result = self.finish_measurement(&base);
        let info = StopInfo {
            stopped_early,
            batches: welford.count(),
            measured_per_core: done,
            mean: welford.mean(),
            half_width: z * welford.std_error(),
        };
        (result, info)
    }

    /// Diffs the current counters against a measurement base into the
    /// phase result.
    fn finish_measurement(&self, base: &MeasureBase) -> RunResult {
        let MeasureBase { inst0, stall0, acc0, clock0 } = *base;
        let sum = |caches: &[L1Cache]| {
            let mut total = L1Stats::default();
            for s in caches.iter().map(L1Cache::stats) {
                total.hits += s.hits;
                total.misses += s.misses;
                total.store_forwards += s.store_forwards;
                total.invalidations += s.invalidations;
                total.writebacks += s.writebacks;
            }
            total
        };
        let l1 = sum(&self.l1d);
        let l1i = sum(&self.l1i);
        RunResult {
            workload: self.workload.name().to_string(),
            org: self.org.name(),
            instructions: self.cores.iter().map(|s| s.instructions).sum::<u64>() - inst0,
            accesses: self.cores.iter().map(|s| s.accesses).sum::<u64>() - acc0,
            cycles: self.cores.iter().map(|s| s.clock).max().unwrap_or(0) - clock0,
            l2_stall_cycles: self.cores.iter().map(|s| s.l2_stall).sum::<Cycle>() - stall0,
            l2: self.org.stats().clone(),
            l1,
            l1i,
            bus: *self.bus.stats(),
        }
    }
}

impl<W: TraceSource, O: CacheOrg> std::fmt::Debug for System<W, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload.name())
            .field("org", &self.org.name())
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_latency::LatencyBook;
    use cmp_trace::profiles;

    fn small_system(org: Box<dyn CacheOrg>) -> System<cmp_trace::SyntheticWorkload> {
        System::new(profiles::oltp(4, 11), org)
    }

    #[test]
    fn run_advances_all_cores_to_similar_time() {
        let book = LatencyBook::paper();
        let mut sys = small_system(Box::new(cmp_cache::UniformShared::paper_shared(&book)));
        let r = sys.run_measured(500, 1_000);
        // The first core to reach 1000 measured references ends the
        // run; the others are at a similar wall-clock, so the total is
        // close to (but not exactly) 4x.
        assert!(r.accesses >= 1_000 && r.accesses <= 4_000 + 4, "got {}", r.accesses);
        assert!(r.accesses > 3_000, "cores should progress together, got {}", r.accesses);
        assert!(r.instructions >= r.accesses);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn l1_filters_most_references() {
        let book = LatencyBook::paper();
        let mut sys = small_system(Box::new(cmp_cache::UniformShared::paper_shared(&book)));
        let r = sys.run_measured(2_000, 4_000);
        // L2 sees only L1 misses and store-forwards.
        assert!(
            r.l2.accesses() < r.accesses,
            "L2 accesses {} vs refs {}",
            r.l2.accesses(),
            r.accesses
        );
        assert!(r.l1.hits > 0);
    }

    #[test]
    fn ideal_beats_uniform_shared() {
        let book = LatencyBook::paper();
        let mut shared = small_system(Box::new(cmp_cache::UniformShared::paper_shared(&book)));
        let mut ideal = small_system(Box::new(cmp_cache::UniformShared::paper_ideal(&book)));
        let rs = shared.run_measured(2_000, 4_000);
        let ri = ideal.run_measured(2_000, 4_000);
        assert!(ri.ipc() > rs.ipc(), "ideal {} vs shared {}", ri.ipc(), rs.ipc());
    }

    #[test]
    #[should_panic(expected = "disagree on cores")]
    fn core_count_mismatch_is_rejected() {
        let book = LatencyBook::paper();
        let _ = System::new(
            profiles::oltp(2, 1),
            Box::new(cmp_cache::UniformShared::paper_shared(&book)) as Box<dyn CacheOrg>,
        );
    }
}
