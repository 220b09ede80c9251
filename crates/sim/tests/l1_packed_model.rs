//! The packed 2-way [`L1Cache`] checked against a plain reference
//! model of the `TagArray`-based L1 it replaced, over random
//! access/fill/invalidate sequences with both access kinds and every
//! `writethrough`/`written` combination. (That a set stays one
//! 32-byte record is a compile-time assertion in `cmp_sim::l1`.)

use proptest::prelude::*;

use cmp_mem::{AccessKind, BlockAddr, CacheGeometry};
use cmp_sim::l1::{L1Cache, L1Outcome, L1Stats};

/// One resident line of the reference model.
#[derive(Clone, Copy, Debug)]
struct Line {
    block: u64,
    dirty: bool,
    writethrough: bool,
    write_permitted: bool,
}

/// The reference model: per set, one slot per way plus an explicit
/// recency order of the ways (least recently used first), with the
/// replacement rules of the generic tag array: the victim is the
/// least recent invalid way if any, else the least recent way; hits
/// and new fills move a way to most recent; invalidation moves it to
/// least recent.
struct ModelL1 {
    sets: usize,
    slots: Vec<[Option<Line>; 2]>,
    order: Vec<Vec<usize>>,
    stats: L1Stats,
}

impl ModelL1 {
    fn new(sets: usize) -> Self {
        ModelL1 {
            sets,
            slots: vec![[None, None]; sets],
            order: vec![vec![0, 1]; sets],
            stats: L1Stats::default(),
        }
    }

    fn set_of(&self, block: u64) -> usize {
        block as usize % self.sets
    }

    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let set = self.set_of(block);
        let way = self.slots[set].iter().position(|l| l.is_some_and(|l| l.block == block))?;
        Some((set, way))
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.order[set].retain(|&w| w != way);
        self.order[set].push(way);
    }

    fn demote(&mut self, set: usize, way: usize) {
        self.order[set].retain(|&w| w != way);
        self.order[set].insert(0, way);
    }

    fn access(&mut self, block: u64, kind: AccessKind) -> L1Outcome {
        let Some((set, way)) = self.find(block) else {
            self.stats.misses += 1;
            return L1Outcome::Miss;
        };
        self.touch(set, way);
        let line = self.slots[set][way].as_mut().expect("resident");
        if kind == AccessKind::Read {
            self.stats.hits += 1;
            L1Outcome::Hit
        } else if line.writethrough {
            self.stats.store_forwards += 1;
            L1Outcome::HitWritethrough
        } else if line.write_permitted {
            line.dirty = true;
            self.stats.hits += 1;
            L1Outcome::Hit
        } else {
            self.stats.store_forwards += 1;
            L1Outcome::HitNeedsPermission
        }
    }

    fn fill(&mut self, block: u64, writethrough: bool, written: bool) {
        let owned = written && !writethrough;
        if let Some((set, way)) = self.find(block) {
            let line = self.slots[set][way].as_mut().expect("resident");
            line.writethrough = writethrough;
            line.write_permitted = owned;
            line.dirty |= owned;
            return;
        }
        let set = self.set_of(block);
        let way = self.order[set]
            .iter()
            .copied()
            .find(|&w| self.slots[set][w].is_none())
            .unwrap_or(self.order[set][0]);
        if self.slots[set][way].is_some_and(|l| l.dirty) {
            self.stats.writebacks += 1;
        }
        self.slots[set][way] =
            Some(Line { block, dirty: owned, writethrough, write_permitted: owned });
        self.touch(set, way);
    }

    fn invalidate(&mut self, block: u64) -> bool {
        let Some((set, way)) = self.find(block) else { return false };
        let line = self.slots[set][way].take().expect("resident");
        if line.dirty {
            self.stats.writebacks += 1;
        }
        self.stats.invalidations += 1;
        self.demote(set, way);
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn packed_l1_agrees_with_reference_model(
        set_bits in 0u32..4,
        ops in proptest::collection::vec(
            (0u8..3, 0u64..24, any::<bool>(), (any::<bool>(), any::<bool>())),
            1..400,
        ),
    ) {
        // 1, 2, 4 or 8 sets of two 64 B ways; 24 blocks keep every
        // set oversubscribed so evictions are common.
        let sets = 1usize << set_bits;
        let mut l1 = L1Cache::new(CacheGeometry::new(sets * 2 * 64, 64, 2), 3);
        let mut model = ModelL1::new(sets);
        for (op, block, is_write, (writethrough, written)) in ops {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            match op {
                0 => prop_assert_eq!(
                    l1.access(BlockAddr(block), kind),
                    model.access(block, kind),
                    "access {} {:?}", block, kind
                ),
                1 => {
                    l1.fill(BlockAddr(block), writethrough, written);
                    model.fill(block, writethrough, written);
                }
                _ => prop_assert_eq!(
                    l1.invalidate(BlockAddr(block)),
                    model.invalidate(block),
                    "invalidate {}", block
                ),
            }
            prop_assert_eq!(l1.stats(), &model.stats);
            for b in 0..24u64 {
                prop_assert_eq!(l1.contains(BlockAddr(b)), model.find(b).is_some(), "block {}", b);
            }
        }
    }
}

#[test]
fn high_tags_do_not_alias() {
    // Blocks that differ only in high tag bits map to one set and
    // must stay distinct lines.
    let mut l1 = L1Cache::paper();
    let (a, b) = (BlockAddr(7), BlockAddr(7 | (1 << 62)));
    l1.fill(a, false, false);
    assert!(l1.contains(a));
    assert!(!l1.contains(b));
    assert_eq!(l1.access(b, AccessKind::Read), L1Outcome::Miss);
    l1.fill(b, false, false);
    assert!(l1.contains(a) && l1.contains(b));
}

#[test]
#[should_panic(expected = "2-way")]
fn non_two_way_geometry_is_rejected() {
    let _ = L1Cache::new(CacheGeometry::new(64 * 1024, 64, 4), 3);
}
