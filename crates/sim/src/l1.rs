//! Per-core L1 data cache.
//!
//! 64 KB, 2-way, 64 B blocks, 3-cycle latency (Section 4.1),
//! inclusive under the L2. Lines are write-back unless the L2 marked
//! them write-through (MESIC C-state blocks, Section 3.2). A line
//! filled by a read does not carry write permission: the first store
//! to it consults the L2 (which performs the silent E→M upgrade or a
//! BusUpg), after which stores are local.
//!
//! # Layout
//!
//! Every processor reference goes through an L1 before any L2
//! organization sees it, so the L1 is laid out for the host's cache
//! rather than built on the generic [`cmp_cache::TagArray`]. One
//! simulated set is one 32-byte, 32-byte-aligned `L1Set` record:
//! both ways' tags, one flag byte per way (valid, dirty,
//! write-through, write-permitted), and the index of the LRU way —
//! with two ways, true LRU is one bit. A lookup therefore touches one
//! host cache line, and the paper's 512-set L1 is 16 KB of host
//! memory, against ~60 KB for a `TagArray` of the same geometry.
//!
//! Replacement is the generic tag array's LRU policy: the victim is
//! an invalid way if there is one, else the LRU way; a hit or a new
//! fill makes its way MRU; an invalidation or eviction makes its way
//! LRU; a fill of a resident block only rewrites its flags; way 0
//! starts as LRU. A dirty line counts a writeback when it is evicted
//! or invalidated.

use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, Cycle};

/// The way holds a block.
const VALID: u8 = 1;
/// The line was written locally; evicting or invalidating it counts
/// a writeback.
const DIRTY: u8 = 1 << 1;
/// Stores must be forwarded to the L2 (C-state block).
const WRITETHROUGH: u8 = 1 << 2;
/// Stores may complete locally (L2 line is M).
const WRITE_PERMITTED: u8 = 1 << 3;

/// One 2-way L1 set: everything a reference reads, in one host cache
/// line.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
struct L1Set {
    /// Per-way tag; meaningful only while the way's [`VALID`] bit is
    /// set.
    tags: [u64; 2],
    /// Per-way flag byte ([`VALID`], [`DIRTY`], [`WRITETHROUGH`],
    /// [`WRITE_PERMITTED`]).
    flags: [u8; 2],
    /// The least recently used way (0 or 1).
    lru: u8,
}

// The layout is the point of this type: a set must stay one aligned
// 32-byte record, so a hit never reads a second host cache line.
const _: () = assert!(size_of::<L1Set>() == 32 && align_of::<L1Set>() == 32);

impl L1Set {
    /// The way holding `tag`, if resident.
    #[inline]
    fn lookup(&self, tag: u64) -> Option<usize> {
        if self.tags[0] == tag && self.flags[0] & VALID != 0 {
            Some(0)
        } else if self.tags[1] == tag && self.flags[1] & VALID != 0 {
            Some(1)
        } else {
            None
        }
    }

    /// Marks `way` most recently used.
    #[inline]
    fn touch(&mut self, way: usize) {
        self.lru = (way ^ 1) as u8;
    }
}

/// Flags of a line filled (or refilled) after an L2 access.
#[inline]
fn fill_flags(writethrough: bool, written: bool) -> u8 {
    let owned = written && !writethrough;
    VALID
        | if writethrough { WRITETHROUGH } else { 0 }
        | if owned { DIRTY | WRITE_PERMITTED } else { 0 }
}

/// What the L1 decided about one processor reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1Outcome {
    /// Served locally.
    Hit,
    /// Present and write-through (a MESIC C block): the store is
    /// *posted* to the L2 — the L2 state updates and the bus sees the
    /// BusRdX, but the core retires the store through its store
    /// buffer without stalling for the L2.
    HitWritethrough,
    /// Present, but the store needs L2 write permission first (the
    /// L2's silent E->M upgrade or a BusUpg); the core waits.
    HitNeedsPermission,
    /// Not present: the L2 must be accessed and the line filled.
    Miss,
}

/// L1 statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// References served entirely by the L1.
    pub hits: u64,
    /// References that had to touch the L2.
    pub misses: u64,
    /// Store hits forwarded to the L2 (write-throughs and write-
    /// permission upgrades).
    pub store_forwards: u64,
    /// Lines invalidated by coherence/inclusion.
    pub invalidations: u64,
    /// Dirty lines evicted (absorbed by the L2, not timed).
    pub writebacks: u64,
}

/// One core's L1 data cache.
///
/// # Example
///
/// ```
/// use cmp_sim::l1::{L1Cache, L1Outcome};
/// use cmp_mem::{AccessKind, BlockAddr};
///
/// let mut l1 = L1Cache::paper();
/// assert_eq!(l1.access(BlockAddr(5), AccessKind::Read), L1Outcome::Miss);
/// l1.fill(BlockAddr(5), false, false);
/// assert_eq!(l1.access(BlockAddr(5), AccessKind::Read), L1Outcome::Hit);
/// ```
pub struct L1Cache {
    geom: CacheGeometry,
    sets: Vec<L1Set>,
    latency: Cycle,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an L1 with the given geometry and latency.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is 2-way set-associative (the
    /// packed set record holds exactly two ways).
    pub fn new(geom: CacheGeometry, latency: Cycle) -> Self {
        assert_eq!(geom.associativity(), 2, "the L1 is 2-way set-associative");
        L1Cache {
            geom,
            sets: vec![L1Set::default(); geom.num_sets()],
            latency,
            stats: L1Stats::default(),
        }
    }

    /// The paper's configuration: 64 KB, 2-way, 64 B blocks, 3 cycles.
    pub fn paper() -> Self {
        L1Cache::new(CacheGeometry::new(64 * 1024, cmp_mem::L1_BLOCK_BYTES, 2), 3)
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Statistics so far.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Resets statistics (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = L1Stats::default();
    }

    /// The index of the set `block` maps to, and its tag there.
    #[inline]
    fn locate(&self, block: BlockAddr) -> (usize, u64) {
        (self.geom.set_of(block), self.geom.tag_of(block))
    }

    /// Looks up `block` (L1-block address) for a read or write.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> L1Outcome {
        let (index, tag) = self.locate(block);
        let set = &mut self.sets[index];
        let Some(way) = set.lookup(tag) else {
            self.stats.misses += 1;
            return L1Outcome::Miss;
        };
        set.touch(way);
        if kind == AccessKind::Read {
            self.stats.hits += 1;
            return L1Outcome::Hit;
        }
        let flags = &mut set.flags[way];
        if *flags & WRITETHROUGH != 0 {
            self.stats.store_forwards += 1;
            L1Outcome::HitWritethrough
        } else if *flags & WRITE_PERMITTED != 0 {
            *flags |= DIRTY;
            self.stats.hits += 1;
            L1Outcome::Hit
        } else {
            // Needs L2 write permission; granted via the refill path
            // when the L2 access completes.
            self.stats.store_forwards += 1;
            L1Outcome::HitNeedsPermission
        }
    }

    /// Installs `block` after an L2 access. `writethrough` comes from
    /// the L2 response (C-state block); `written` is true when the
    /// triggering reference was a store.
    pub fn fill(&mut self, block: BlockAddr, writethrough: bool, written: bool) {
        let (index, tag) = self.locate(block);
        let set = &mut self.sets[index];
        let flags = fill_flags(writethrough, written);
        if let Some(way) = set.lookup(tag) {
            // Already present (store-forward path): update flags,
            // keeping a dirty line dirty; recency is untouched.
            set.flags[way] = flags | (set.flags[way] & DIRTY);
            return;
        }
        // The victim is the LRU way, which is also "an invalid way
        // first": while exactly one way is invalid it is the LRU one,
        // since invalidation makes a way LRU and only valid ways are
        // touched.
        let way = set.lru as usize;
        if set.flags[way] & DIRTY != 0 {
            self.stats.writebacks += 1;
        }
        set.tags[way] = tag;
        set.flags[way] = flags;
        set.touch(way);
    }

    /// Invalidates `block` if present (coherence or inclusion);
    /// returns whether a line was dropped.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let (index, tag) = self.locate(block);
        let set = &mut self.sets[index];
        let Some(way) = set.lookup(tag) else { return false };
        let dirty = set.flags[way] & DIRTY != 0;
        set.flags[way] = 0;
        set.lru = way as u8;
        if dirty {
            // Dirty data is pulled down with the invalidation
            // (flush); counted, not timed.
            self.stats.writebacks += 1;
        }
        self.stats.invalidations += 1;
        true
    }

    /// `true` if `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (index, tag) = self.locate(block);
        self.sets[index].lookup(tag).is_some()
    }
}

impl std::fmt::Debug for L1Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let occupied: usize =
            self.sets.iter().map(|s| s.flags.iter().filter(|&&f| f & VALID != 0).count()).sum();
        f.debug_struct("L1Cache").field("occupied", &occupied).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_fill_then_hit() {
        let mut l1 = L1Cache::paper();
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Miss);
        l1.fill(BlockAddr(9), false, false);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Hit);
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().misses, 1);
    }

    #[test]
    fn first_store_to_read_line_needs_l2() {
        let mut l1 = L1Cache::paper();
        l1.access(BlockAddr(9), AccessKind::Read);
        l1.fill(BlockAddr(9), false, false);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::HitNeedsPermission);
        // The L2 granted permission via the refill path.
        l1.fill(BlockAddr(9), false, true);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::Hit);
    }

    #[test]
    fn writethrough_lines_forward_every_store() {
        let mut l1 = L1Cache::paper();
        l1.fill(BlockAddr(9), true, true);
        for _ in 0..3 {
            assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::HitWritethrough);
        }
        assert_eq!(l1.stats().store_forwards, 3);
        // Reads are still local.
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Hit);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut l1 = L1Cache::paper();
        l1.fill(BlockAddr(9), false, false);
        assert!(l1.contains(BlockAddr(9)));
        assert!(l1.invalidate(BlockAddr(9)));
        assert!(!l1.contains(BlockAddr(9)));
        assert!(!l1.invalidate(BlockAddr(9)));
        assert_eq!(l1.stats().invalidations, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        // 2-way sets: three conflicting blocks evict the first.
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        let sets = 2u64;
        l1.fill(BlockAddr(0), false, true); // dirty
        l1.fill(BlockAddr(sets), false, false);
        l1.fill(BlockAddr(2 * sets), false, false); // evicts block 0
        assert_eq!(l1.stats().writebacks, 1);
        assert!(!l1.contains(BlockAddr(0)));
    }

    #[test]
    fn paper_geometry() {
        let l1 = L1Cache::paper();
        assert_eq!(l1.latency(), 3);
    }
}
