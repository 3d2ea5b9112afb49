//! Open-addressed unique table over arena node indices.
//!
//! The table stores only `u32` node indices; the `(var, lo, hi)` key of an
//! entry is read back from the arena on probe, so there is no tuple-key
//! hashing or per-entry key storage. Capacity is always a power of two and
//! probing is linear, which keeps the hot `find` loop branch-light. Entries
//! are never removed one by one; garbage collection rebuilds the whole
//! table instead.

use crate::arena::Arena;

const EMPTY: u32 = u32::MAX;
const INITIAL_CAPACITY: usize = 1 << 10;

/// Hash/lookup structure mapping `(var, lo, hi)` to the canonical node.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
    resizes: u64,
}

#[inline(always)]
fn hash(var: u32, lo: u32, hi: u32) -> u64 {
    // splitmix64 over the packed 96-bit key; cheap and well distributed.
    let mut z = (var as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((lo as u64) << 32 | hi as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl UniqueTable {
    pub fn new() -> Self {
        UniqueTable {
            slots: vec![EMPTY; INITIAL_CAPACITY],
            mask: INITIAL_CAPACITY - 1,
            len: 0,
            resizes: 0,
        }
    }

    /// Number of stored nodes (terminals are never stored).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Capacity-growth events since creation.
    #[inline]
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Looks up the canonical node for `(var, lo, hi)`.
    #[inline]
    pub fn find(&self, arena: &Arena, var: u32, lo: u32, hi: u32) -> Option<u32> {
        let mut i = hash(var, lo, hi) as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            let n = arena.node(s);
            if n.var == var && n.lo == lo && n.hi == hi {
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `idx` under key `(var, lo, hi)`; the key must not be present.
    pub fn insert(&mut self, arena: &Arena, idx: u32, var: u32, lo: u32, hi: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(arena);
        }
        let mut i = hash(var, lo, hi) as usize & self.mask;
        loop {
            if self.slots[i] == EMPTY {
                self.slots[i] = idx;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self, arena: &Arena) {
        let new_cap = self.slots.len() * 2;
        self.resizes += 1;
        self.rehash(arena, new_cap);
    }

    /// Rebuilds the table from the arena's live nodes. Used after garbage
    /// collection; does not count as a resize.
    pub fn rebuild(&mut self, arena: &Arena) {
        let mut cap = self.slots.len();
        // Shrink toward the live set, but never below the initial capacity.
        while cap > INITIAL_CAPACITY && arena.live() * 4 < cap {
            cap /= 2;
        }
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.mask = cap - 1;
        self.len = 0;
        for idx in arena.live_indices() {
            let n = arena.node(idx);
            let mut i = hash(n.var, n.lo, n.hi) as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = idx;
            self.len += 1;
        }
    }

    fn rehash(&mut self, arena: &Arena, new_cap: usize) {
        let old: Vec<u32> = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        self.mask = new_cap - 1;
        for s in old {
            if s == EMPTY {
                continue;
            }
            let n = arena.node(s);
            let mut i = hash(n.var, n.lo, n.hi) as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_roundtrip() {
        let mut arena = Arena::new();
        let mut t = UniqueTable::new();
        let idx = arena.alloc(3, 1, 0);
        assert_eq!(t.find(&arena, 3, 1, 0), None);
        t.insert(&arena, idx, 3, 1, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.find(&arena, 3, 1, 0), Some(idx));
        assert_eq!(t.find(&arena, 3, 0, 1), None);
    }

    #[test]
    fn growth_counts_resizes_and_keeps_entries() {
        let mut arena = Arena::new();
        let mut t = UniqueTable::new();
        let mut ids = Vec::new();
        for v in 0..2000u32 {
            let idx = arena.alloc(v, 1, 0);
            t.insert(&arena, idx, v, 1, 0);
            ids.push((idx, v));
        }
        assert!(t.resizes() >= 1);
        assert_eq!(t.len(), 2000);
        for (idx, v) in ids {
            assert_eq!(t.find(&arena, v, 1, 0), Some(idx));
        }
    }

    #[test]
    fn rebuild_drops_dead_nodes() {
        let mut arena = Arena::new();
        let mut t = UniqueTable::new();
        let a = arena.alloc(0, 1, 0);
        let b = arena.alloc(1, 1, 0);
        t.insert(&arena, a, 0, 1, 0);
        t.insert(&arena, b, 1, 1, 0);
        arena.release(a);
        t.rebuild(&arena);
        assert_eq!(t.len(), 1);
        assert_eq!(t.find(&arena, 1, 1, 0), Some(b));
    }
}
