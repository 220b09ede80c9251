//! Pipelined split-transaction snoopy bus timing model.
//!
//! The paper models an on-chip split-transaction bus whose latency is
//! the wire delay for a core to reach the farthest tag array
//! (32 cycles, Table 1). Because the bus is pipelined, a transaction
//! *occupies* the shared address wires for only a fraction of that
//! time; subsequent transactions can overlap their propagation. The
//! model therefore separates:
//!
//! * **latency** — cycles from grant until the requestor has the
//!   snoop result (charged to the requesting core), and
//! * **occupancy** — cycles the address slot is held, which is what
//!   serializes back-to-back transactions.

use cmp_mem::Cycle;

use crate::{BusTx, SnoopSignals};

/// Default occupancy: one address slot of the pipelined bus. With a
/// 32-cycle end-to-end latency and an 8-deep pipeline this is 4
/// cycles per transaction.
pub const DEFAULT_OCCUPANCY: Cycle = 4;

/// Grant information for one bus transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusGrant {
    /// Cycle at which the transaction was granted the address slot.
    pub granted_at: Cycle,
    /// Cycle at which the requestor has the snoop result / data
    /// pointer (granted_at + bus latency).
    pub completes_at: Cycle,
}

impl BusGrant {
    /// Cycles the requestor stalls from `now` until completion.
    pub fn stall_from(&self, now: Cycle) -> Cycle {
        self.completes_at.saturating_sub(now)
    }
}

/// Per-transaction-type counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions issued, indexed like [`BusTx::ALL`].
    counts: [u64; 4],
    /// Total cycles requestors spent waiting for the address slot.
    pub arbitration_wait: Cycle,
}

impl BusStats {
    /// Number of transactions of one type.
    pub fn count(&self, tx: BusTx) -> u64 {
        self.counts[Self::slot(tx)]
    }

    /// Total transactions of all types.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw per-type counters in [`BusTx::ALL`] order, for
    /// serializers that need to persist bus statistics losslessly.
    pub fn raw_counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Rebuilds statistics from counters produced by
    /// [`BusStats::raw_counts`] plus the arbitration-wait total.
    pub fn from_raw_counts(counts: [u64; 4], arbitration_wait: Cycle) -> Self {
        BusStats { counts, arbitration_wait }
    }

    fn slot(tx: BusTx) -> usize {
        match tx {
            BusTx::BusRd => 0,
            BusTx::BusRdX => 1,
            BusTx::BusUpg => 2,
            BusTx::BusRepl => 3,
        }
    }
}

/// A fault injectable into the snoop-reply path (audit harness).
///
/// The snoop wires are wired-OR lines sampled by the requestor during
/// its transaction; these faults model the reply either not making it
/// onto the wires, arriving twice (a stale duplicate from a cache
/// that no longer holds the block), or the dirty line glitching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnoopFault {
    /// No reply asserts the wires: the requestor sees no on-chip copy.
    DropReply,
    /// A stale duplicate reply asserts `shared` although no cache
    /// holds the block.
    DuplicateReply,
    /// The dirty wire is inverted (asserting `shared` too when it
    /// glitches high, since a dirty reply implies a copy exists).
    FlipDirty,
}

/// A deterministic schedule of [`SnoopFault`]s.
///
/// Each entry arms at a snoop-sample index (the bus counts every
/// [`Bus::sample_signals`] call) and fires at the *first* sample at or
/// after that index where the fault actually changes the sampled
/// signals — so an injected fault is guaranteed to perturb the
/// protocol rather than vanish into a no-op. Fired faults are
/// recorded for the audit report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnoopFaultPlan {
    /// Armed faults: `(sample index, fault)`.
    pending: Vec<(u64, SnoopFault)>,
    /// Faults that fired: `(sample index they fired at, fault)`.
    fired: Vec<(u64, SnoopFault)>,
}

impl SnoopFaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `fault` to fire at the first effective sample at or after
    /// `sample_index`.
    pub fn arm(&mut self, sample_index: u64, fault: SnoopFault) {
        self.pending.push((sample_index, fault));
    }

    /// Faults that have fired so far, with the sample index at which
    /// each one perturbed the wires.
    pub fn fired(&self) -> &[(u64, SnoopFault)] {
        &self.fired
    }

    /// Faults still waiting for an effective sample.
    pub fn pending(&self) -> &[(u64, SnoopFault)] {
        &self.pending
    }

    /// Applies at most one armed fault to `signals` at `sample`.
    fn apply(&mut self, sample: u64, signals: SnoopSignals) -> SnoopSignals {
        for i in 0..self.pending.len() {
            let (armed_at, fault) = self.pending[i];
            if sample < armed_at {
                continue;
            }
            let tampered = match fault {
                SnoopFault::DropReply => SnoopSignals::NONE,
                SnoopFault::DuplicateReply => SnoopSignals { shared: true, dirty: signals.dirty },
                SnoopFault::FlipDirty => {
                    SnoopSignals { shared: signals.shared || !signals.dirty, dirty: !signals.dirty }
                }
            };
            if tampered != signals {
                self.pending.remove(i);
                self.fired.push((sample, fault));
                return tampered;
            }
        }
        signals
    }
}

/// The snoopy bus: arbitrates the shared address slot and tracks
/// statistics.
///
/// # Example
///
/// ```
/// use cmp_coherence::{Bus, BusTx};
///
/// let mut bus = Bus::paper();
/// let g1 = bus.transact(BusTx::BusRd, 100);
/// let g2 = bus.transact(BusTx::BusRdX, 100);
/// assert_eq!(g1.granted_at, 100);
/// assert_eq!(g2.granted_at, 104); // second transaction waits one slot
/// assert_eq!(g1.completes_at, 132);
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    latency: Cycle,
    occupancy: Cycle,
    next_free: Cycle,
    stats: BusStats,
    /// Snoop-sample counter (number of `sample_signals` calls).
    samples: u64,
    /// Armed fault schedule; `None` keeps the sampling path branchless
    /// beyond a single null check.
    faults: Option<Box<SnoopFaultPlan>>,
}

impl Bus {
    /// Creates a bus with the given end-to-end latency and per-
    /// transaction occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero or exceeds `latency`.
    pub fn new(latency: Cycle, occupancy: Cycle) -> Self {
        assert!(occupancy > 0 && occupancy <= latency, "occupancy must be in 1..=latency");
        Bus {
            latency,
            occupancy,
            next_free: 0,
            stats: BusStats::default(),
            samples: 0,
            faults: None,
        }
    }

    /// The paper's configuration: 32-cycle latency, 4-cycle slot.
    pub fn paper() -> Self {
        Bus::new(32, DEFAULT_OCCUPANCY)
    }

    /// End-to-end latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Issues a transaction at local time `now`, returning when it is
    /// granted and when its snoop result is available.
    pub fn transact(&mut self, tx: BusTx, now: Cycle) -> BusGrant {
        let granted_at = now.max(self.next_free);
        self.stats.arbitration_wait += granted_at - now;
        self.next_free = granted_at + self.occupancy;
        self.stats.counts[BusStats::slot(tx)] += 1;
        BusGrant { granted_at, completes_at: granted_at + self.latency }
    }

    /// Issues a posted (fire-and-forget) transaction: occupies the bus
    /// but the requestor does not wait for completion. Used for
    /// write-throughs of C blocks and for BusRepl notifications.
    pub fn post(&mut self, tx: BusTx, now: Cycle) {
        let _ = self.transact(tx, now);
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Samples the snoop wires for one transaction: snooping caches
    /// computed `signals`; the bus applies any armed [`SnoopFault`]
    /// before the requestor sees them. Snooping organizations route
    /// their sampled signals through this so the audit harness can
    /// inject wire-level faults.
    #[inline]
    pub fn sample_signals(&mut self, signals: SnoopSignals) -> SnoopSignals {
        let sample = self.samples;
        self.samples += 1;
        match &mut self.faults {
            None => signals,
            Some(plan) => plan.apply(sample, signals),
        }
    }

    /// Number of snoop samples taken so far (the index space
    /// [`SnoopFaultPlan::arm`] refers to).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Installs a fault schedule on the snoop-reply path.
    pub fn set_fault_plan(&mut self, plan: SnoopFaultPlan) {
        self.faults = Some(Box::new(plan));
    }

    /// The installed fault schedule, if any (for reading back which
    /// faults fired).
    pub fn fault_plan(&self) -> Option<&SnoopFaultPlan> {
        self.faults.as_deref()
    }
}

impl Default for Bus {
    fn default() -> Self {
        Bus::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_counts_roundtrip() {
        let mut bus = Bus::paper();
        bus.transact(BusTx::BusRd, 0);
        bus.transact(BusTx::BusRd, 0);
        bus.transact(BusTx::BusUpg, 0);
        let stats = *bus.stats();
        let rebuilt = BusStats::from_raw_counts(stats.raw_counts(), stats.arbitration_wait);
        assert_eq!(rebuilt, stats);
        assert_eq!(rebuilt.count(BusTx::BusRd), 2);
    }

    #[test]
    fn back_to_back_transactions_pipeline() {
        let mut bus = Bus::paper();
        let g1 = bus.transact(BusTx::BusRd, 0);
        let g2 = bus.transact(BusTx::BusRd, 0);
        let g3 = bus.transact(BusTx::BusRd, 0);
        assert_eq!(g1.granted_at, 0);
        assert_eq!(g2.granted_at, 4);
        assert_eq!(g3.granted_at, 8);
        // All three overlap their 32-cycle propagation.
        assert_eq!(g3.completes_at, 40);
    }

    #[test]
    fn idle_bus_grants_immediately() {
        let mut bus = Bus::paper();
        let g = bus.transact(BusTx::BusUpg, 500);
        assert_eq!(g.granted_at, 500);
        assert_eq!(g.completes_at, 532);
        assert_eq!(bus.stats().arbitration_wait, 0);
    }

    #[test]
    fn arbitration_wait_is_recorded() {
        let mut bus = Bus::paper();
        bus.transact(BusTx::BusRd, 10);
        bus.transact(BusTx::BusRd, 11); // must wait until 14
        assert_eq!(bus.stats().arbitration_wait, 3);
    }

    #[test]
    fn counts_by_type() {
        let mut bus = Bus::paper();
        bus.transact(BusTx::BusRd, 0);
        bus.transact(BusTx::BusRd, 0);
        bus.post(BusTx::BusRepl, 0);
        assert_eq!(bus.stats().count(BusTx::BusRd), 2);
        assert_eq!(bus.stats().count(BusTx::BusRepl), 1);
        assert_eq!(bus.stats().count(BusTx::BusUpg), 0);
        assert_eq!(bus.stats().total(), 3);
    }

    #[test]
    fn stall_from_accounts_for_now() {
        let g = BusGrant { granted_at: 10, completes_at: 42 };
        assert_eq!(g.stall_from(10), 32);
        assert_eq!(g.stall_from(40), 2);
        assert_eq!(g.stall_from(50), 0);
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn rejects_zero_occupancy() {
        let _ = Bus::new(32, 0);
    }

    #[test]
    fn sampling_without_a_plan_is_identity() {
        let mut bus = Bus::paper();
        assert_eq!(bus.sample_signals(SnoopSignals::DIRTY), SnoopSignals::DIRTY);
        assert_eq!(bus.sample_signals(SnoopSignals::NONE), SnoopSignals::NONE);
        assert_eq!(bus.samples(), 2);
        assert!(bus.fault_plan().is_none());
    }

    #[test]
    fn drop_reply_waits_for_an_effective_sample() {
        let mut bus = Bus::paper();
        let mut plan = SnoopFaultPlan::new();
        plan.arm(1, SnoopFault::DropReply);
        bus.set_fault_plan(plan);
        // Sample 0: before the arming index — untouched.
        assert_eq!(bus.sample_signals(SnoopSignals::SHARED), SnoopSignals::SHARED);
        // Sample 1: armed, but dropping a nothing-reply changes
        // nothing — the fault holds its fire.
        assert_eq!(bus.sample_signals(SnoopSignals::NONE), SnoopSignals::NONE);
        // Sample 2: a real reply to drop.
        assert_eq!(bus.sample_signals(SnoopSignals::DIRTY), SnoopSignals::NONE);
        assert_eq!(bus.fault_plan().unwrap().fired(), &[(2, SnoopFault::DropReply)]);
        // One-shot: the next dirty reply passes through.
        assert_eq!(bus.sample_signals(SnoopSignals::DIRTY), SnoopSignals::DIRTY);
    }

    #[test]
    fn duplicate_reply_asserts_shared_only_when_absent() {
        let mut bus = Bus::paper();
        let mut plan = SnoopFaultPlan::new();
        plan.arm(0, SnoopFault::DuplicateReply);
        bus.set_fault_plan(plan);
        // Already shared: a duplicate is invisible on wired-OR lines.
        assert_eq!(bus.sample_signals(SnoopSignals::SHARED), SnoopSignals::SHARED);
        assert_eq!(bus.sample_signals(SnoopSignals::NONE), SnoopSignals::SHARED);
        assert_eq!(bus.fault_plan().unwrap().fired(), &[(1, SnoopFault::DuplicateReply)]);
    }

    #[test]
    fn flip_dirty_inverts_the_dirty_wire() {
        let mut bus = Bus::paper();
        let mut plan = SnoopFaultPlan::new();
        plan.arm(0, SnoopFault::FlipDirty);
        plan.arm(1, SnoopFault::FlipDirty);
        bus.set_fault_plan(plan);
        // 0 -> 1: a phantom dirty reply (implies shared).
        assert_eq!(bus.sample_signals(SnoopSignals::NONE), SnoopSignals::DIRTY);
        // 1 -> 0: the dirty assertion is lost, shared survives.
        assert_eq!(bus.sample_signals(SnoopSignals::DIRTY), SnoopSignals::SHARED);
        assert_eq!(bus.fault_plan().unwrap().pending().len(), 0);
    }
}
