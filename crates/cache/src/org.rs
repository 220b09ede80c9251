//! The L2-organization interface driven by the system simulator.

use cmp_coherence::Bus;
use cmp_mem::{AccessKind, BlockAddr, CoreId, Cycle, Fraction, ReuseHistogram, Rng};

use crate::violation::Violation;

/// Classification of one L2 access, matching the categories of the
//  paper's Figure 5:
/// hits, read-only-sharing misses, read-write-sharing misses, and
/// capacity misses (cold misses are counted as capacity, as in the
/// shared-cache categories).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    /// The access hit. `closest` distinguishes closest-d-group hits
    /// from farther ones (Figure 9); uniform organizations report
    /// `true`.
    Hit {
        /// Hit was satisfied in the requestor's closest d-group /
        /// bank.
        closest: bool,
    },
    /// Miss, but another on-chip copy exists in a clean (shared)
    /// state.
    MissRos,
    /// Miss, but a dirty on-chip copy exists.
    MissRws,
    /// Miss with no on-chip copy (capacity or cold).
    MissCapacity,
}

impl AccessClass {
    /// `true` for either hit flavour.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessClass::Hit { .. })
    }
}

/// The result of one L2 access: the latency charged to the requesting
/// core, the classification, and the write-through marking. The L1
/// invalidation directives accompanying the access are delivered
/// through the caller's [`InvalScratch`], not owned by the response,
/// so the L2 hit path performs no heap allocation.
#[derive(Clone, Copy, Debug)]
pub struct AccessResponse {
    /// Cycles until the requesting core may proceed.
    pub latency: Cycle,
    /// Figure 5 classification.
    pub class: AccessClass,
    /// The accessed block must be handled write-through in the
    /// requestor's L1 (C-state blocks, Section 3.2).
    pub writethrough: bool,
}

impl AccessResponse {
    /// A response with no write-through marking.
    pub fn simple(latency: Cycle, class: AccessClass) -> Self {
        AccessResponse { latency, class, writethrough: false }
    }
}

/// Reusable scratch buffer carrying one access's L1-maintenance
/// directives: the L1 blocks (at L2-block granularity) that must be
/// invalidated in the given cores' L1 caches — coherence
/// invalidations of remote copies and inclusion invalidations of
/// evicted victims.
///
/// The driver owns one instance and threads it through every
/// [`CacheOrg::access`] call; the organization resets it on entry
/// (via [`InvalScratch::begin`]) and appends to it, so after a few
/// warm-up accesses the buffer's capacity stabilizes and the per-access
/// heap traffic of the old `Vec`-owning response disappears.
#[derive(Clone, Debug, Default)]
pub struct InvalScratch {
    inval: Vec<(CoreId, BlockAddr)>,
}

impl InvalScratch {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the buffer for a new access. Organizations call this at
    /// the top of [`CacheOrg::access`]; the capacity is retained.
    #[inline]
    pub fn begin(&mut self) {
        self.inval.clear();
    }

    /// Records that `core`'s L1 must invalidate `block`.
    #[inline]
    pub fn push(&mut self, core: CoreId, block: BlockAddr) {
        self.inval.push((core, block));
    }

    /// Number of directives recorded by the current access.
    #[inline]
    pub fn len(&self) -> usize {
        self.inval.len()
    }

    /// `true` when the current access recorded no directives.
    pub fn is_empty(&self) -> bool {
        self.inval.is_empty()
    }

    /// The recorded directives.
    #[inline]
    pub fn as_slice(&self) -> &[(CoreId, BlockAddr)] {
        &self.inval
    }
}

/// An [`AccessResponse`] bundled with the invalidation directives it
/// produced, as an owned value. Convenience for tests, examples, and
/// doc snippets that inspect single accesses; batch drivers should
/// hold an [`InvalScratch`] and call [`CacheOrg::access`] directly.
#[derive(Clone, Debug)]
pub struct CollectedResponse {
    /// Cycles until the requesting core may proceed.
    pub latency: Cycle,
    /// Figure 5 classification.
    pub class: AccessClass,
    /// See [`InvalScratch`].
    pub l1_invalidate: Vec<(CoreId, BlockAddr)>,
    /// See [`AccessResponse::writethrough`].
    pub writethrough: bool,
}

/// Statistics accumulated by an L2 organization. One instance is
/// shared by all organizations so the figure harnesses can treat them
/// uniformly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OrgStats {
    /// Hits in the requestor's closest d-group / bank.
    pub hits_closest: u64,
    /// Hits in a farther d-group / bank.
    pub hits_farther: u64,
    /// Read-only-sharing misses (Figure 5).
    pub miss_ros: u64,
    /// Read-write-sharing misses (Figure 5).
    pub miss_rws: u64,
    /// Capacity (and cold) misses (Figure 5).
    pub miss_capacity: u64,
    /// Dirty blocks written back to memory.
    pub writebacks: u64,
    /// Coherence/inclusion invalidations delivered to L1s.
    pub l1_invalidations: u64,
    /// Final reuse counts of blocks filled by an ROS miss, recorded at
    /// replacement (Figure 7a).
    pub ros_reuse: ReuseHistogram,
    /// Final reuse counts of blocks filled by an RWS miss, recorded at
    /// invalidation (Figure 7b).
    pub rws_reuse: ReuseHistogram,
    /// CMP-NuRAPID: promotions of private blocks toward the requestor.
    pub promotions: u64,
    /// CMP-NuRAPID: demotions performed by distance replacement.
    pub demotions: u64,
    /// CMP-NuRAPID: data copies created by controlled replication on
    /// second use.
    pub replications: u64,
    /// CMP-NuRAPID: tag-only fills via pointer transfer (first use of
    /// an on-chip copy).
    pub pointer_transfers: u64,
    /// CMP-NuRAPID: tag entries dropped by observing BusRepl.
    pub busrepl_invalidations: u64,
    /// Evictions of shared-category (S/C) blocks.
    pub evictions_shared: u64,
    /// Evictions of private-category (E/M) blocks.
    pub evictions_private: u64,
    /// CMP-NuRAPID extension: C-state blocks collapsed back to M when
    /// all other sharers' tags were gone (`NurapidConfig::c_collapse`).
    pub c_collapses: u64,
}

impl OrgStats {
    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits_closest + self.hits_farther
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.miss_ros + self.miss_rws + self.miss_capacity
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Hit fraction of all accesses.
    pub fn hit_fraction(&self) -> Fraction {
        Fraction::new(self.hits(), self.accesses())
    }

    /// Miss fraction of all accesses.
    pub fn miss_fraction(&self) -> Fraction {
        Fraction::new(self.misses(), self.accesses())
    }

    /// One Figure 5 / Figure 8 category as a fraction of all accesses.
    pub fn class_fraction(&self, class: AccessClass) -> Fraction {
        let n = match class {
            AccessClass::Hit { closest: true } => self.hits_closest,
            AccessClass::Hit { closest: false } => self.hits_farther,
            AccessClass::MissRos => self.miss_ros,
            AccessClass::MissRws => self.miss_rws,
            AccessClass::MissCapacity => self.miss_capacity,
        };
        Fraction::new(n, self.accesses())
    }

    /// Records an access classification.
    pub fn record_class(&mut self, class: AccessClass) {
        match class {
            AccessClass::Hit { closest: true } => self.hits_closest += 1,
            AccessClass::Hit { closest: false } => self.hits_farther += 1,
            AccessClass::MissRos => self.miss_ros += 1,
            AccessClass::MissRws => self.miss_rws += 1,
            AccessClass::MissCapacity => self.miss_capacity += 1,
        }
    }
}

/// An L2 cache organization: the object the system simulator drives
/// with one call per L1 miss (plus write-throughs).
///
/// Implementations: [`crate::UniformShared`] (and its ideal variant),
/// [`crate::PrivateMesi`], [`crate::Snuca`], and `cmp-nurapid`'s
/// `CmpNurapid`.
pub trait CacheOrg {
    /// Short name used in experiment tables ("shared", "private",
    /// "snuca", "ideal", "nurapid").
    fn name(&self) -> &'static str;

    /// Performs one access by `core` to `block` (L2-block address) at
    /// local time `now`, using `bus` for any coherence transactions.
    ///
    /// `inv` is reset on entry and holds exactly this access's L1
    /// invalidation directives on return; the caller applies them and
    /// reuses the buffer for the next access.
    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse;

    /// Statistics accumulated so far.
    fn stats(&self) -> &OrgStats;

    /// Resets the statistics (cache contents are kept). Used by the
    /// experiment harness to discard warm-up effects.
    fn reset_stats(&mut self);

    /// Number of cores this organization serves.
    fn cores(&self) -> usize;

    /// Fallible access path: like [`CacheOrg::access`], but surfaces a
    /// protocol [`Violation`] instead of panicking when the
    /// organization's internal state contradicts the snoop results
    /// (which happens under fault injection).
    ///
    /// The default delegates to the infallible path; organizations
    /// with internal consistency checks override it. Implementations
    /// must leave the structure in a *usable* (if degraded) state on
    /// `Err` so an audit harness can continue the run.
    fn try_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> Result<AccessResponse, Violation> {
        Ok(self.access(core, block, kind, now, bus, inv))
    }

    /// Performs one access with a throwaway scratch buffer and
    /// returns the response and its invalidation directives as one
    /// owned value. Convenience for tests and examples; allocates, so
    /// batch drivers use [`CacheOrg::access`] with a reused
    /// [`InvalScratch`] instead.
    fn access_collected(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
    ) -> CollectedResponse {
        let mut inv = InvalScratch::new();
        let resp = self.access(core, block, kind, now, bus, &mut inv);
        CollectedResponse {
            latency: resp.latency,
            class: resp.class,
            l1_invalidate: inv.inval,
            writethrough: resp.writethrough,
        }
    }

    /// Runs the organization's structural self-checks, returning the
    /// first violated invariant. The default reports success:
    /// organizations without internal redundancy (nothing to
    /// cross-check) are vacuously consistent.
    fn audit(&self) -> Result<(), Violation> {
        Ok(())
    }

    /// Deterministically corrupts one piece of internal tag state
    /// (fault injection for audit self-tests). Returns a description
    /// of the corruption, or `None` when the organization does not
    /// support injection or holds no corruptible state yet.
    ///
    /// Implementations must choose corruptions their [`CacheOrg::audit`]
    /// is guaranteed to detect — the mutation self-test in `cmp-audit`
    /// relies on it.
    fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        let _ = rng;
        None
    }
}

/// Forwarding implementation so `Box<dyn CacheOrg>` (and any other
/// boxed organization) is itself a [`CacheOrg`]. This is what lets
/// the system driver be generic over a *concrete* organization — the
/// monomorphized, dispatch-free hot path — while every existing
/// `Box<dyn CacheOrg>` call site keeps compiling through the same
/// generic driver (paying one virtual call per L2 access, as before).
impl<T: CacheOrg + ?Sized> CacheOrg for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
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
        (**self).access(core, block, kind, now, bus, inv)
    }

    fn stats(&self) -> &OrgStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn cores(&self) -> usize {
        (**self).cores()
    }

    fn try_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> Result<AccessResponse, Violation> {
        (**self).try_access(core, block, kind, now, bus, inv)
    }

    fn access_collected(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
    ) -> CollectedResponse {
        (**self).access_collected(core, block, kind, now, bus)
    }

    fn audit(&self) -> Result<(), Violation> {
        (**self).audit()
    }

    fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        (**self).inject_tag_fault(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(AccessClass::Hit { closest: true }.is_hit());
        assert!(AccessClass::Hit { closest: false }.is_hit());
        assert!(!AccessClass::MissRos.is_hit());
    }

    #[test]
    fn stats_roll_up() {
        let mut s = OrgStats::default();
        s.record_class(AccessClass::Hit { closest: true });
        s.record_class(AccessClass::Hit { closest: false });
        s.record_class(AccessClass::MissRos);
        s.record_class(AccessClass::MissRws);
        s.record_class(AccessClass::MissCapacity);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 3);
        assert_eq!(s.accesses(), 5);
        assert!((s.hit_fraction().value() - 0.4).abs() < 1e-12);
        assert!((s.class_fraction(AccessClass::MissRws).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn simple_response_has_no_side_effects() {
        let r = AccessResponse::simple(10, AccessClass::Hit { closest: true });
        assert!(!r.writethrough);
        assert_eq!(r.latency, 10);
    }

    #[test]
    fn scratch_reset_keeps_capacity() {
        let mut inv = InvalScratch::new();
        assert!(inv.is_empty());
        inv.push(CoreId(1), BlockAddr(7));
        inv.push(CoreId(2), BlockAddr(9));
        assert_eq!(inv.len(), 2);
        assert_eq!(inv.as_slice()[0], (CoreId(1), BlockAddr(7)));
        let cap = inv.inval.capacity();
        inv.begin();
        assert!(inv.is_empty());
        assert_eq!(inv.inval.capacity(), cap);
    }
}
