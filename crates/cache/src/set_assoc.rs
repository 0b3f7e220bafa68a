//! A generic set-associative, write-back, write-allocate cache.

use silcfm_types::CacheParams;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load or instruction fetch.
    Read,
    /// Store (marks the line dirty).
    Write,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// Line address of a dirty line evicted to make room (write-back).
    pub writeback: Option<u64>,
}

/// Tag-match words: `(tag << 2) | (dirty << 1) | valid`. Packing state and
/// tag into one u64 lets a lookup test validity and tag equality with a
/// single compare, and keeps a whole 8-way set inside one host cacheline —
/// this probe runs on every simulated memory access.
const VALID_BIT: u64 = 1;
const DIRTY_BIT: u64 = 2;
const TAG_SHIFT: u32 = 2;

/// A set-associative cache with true-LRU replacement, write-back and
/// write-allocate policies. Operates on *line addresses* (byte address
/// divided by the line size) so it is independent of the line size.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Packed tag/valid/dirty words, `ways` per set.
    lines: Vec<u64>,
    /// LRU timestamps, parallel to `lines`; touched only on hit-update and
    /// victim selection so the tag probe stays single-cacheline.
    last_used: Vec<u64>,
    ways: usize,
    num_sets: u64,
    /// `num_sets - 1`; the power-of-two set count makes index extraction a
    /// mask and tag extraction a shift.
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    latency_cycles: u32,
}

impl SetAssocCache {
    /// Creates an empty cache from Table II-style parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not yield a whole power-of-two set count.
    pub fn new(params: CacheParams) -> Self {
        let num_sets = params.sets();
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two, got {num_sets}"
        );
        Self {
            lines: vec![0; (num_sets * u64::from(params.ways)) as usize],
            last_used: vec![0; (num_sets * u64::from(params.ways)) as usize],
            ways: params.ways as usize,
            num_sets,
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            latency_cycles: params.latency_cycles,
        }
    }

    /// Access latency in CPU cycles (Table II).
    pub const fn latency_cycles(&self) -> u32 {
        self.latency_cycles
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Hits so far.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub const fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Looks up `line_addr`, allocating it on a miss (write-allocate) and
    /// returning any dirty victim.
    pub fn access(&mut self, line_addr: u64, kind: AccessKind) -> AccessResult {
        self.clock += 1;
        let clock = self.clock;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let want = (tag << TAG_SHIFT) | VALID_BIT;
        let base = set * self.ways;
        // `base + ways <= lines.len()` by construction (`set < num_sets`
        // after masking); the fallback keeps the probe panic-free.
        let (Some(lines), Some(stamps)) = (
            self.lines.get_mut(base..base + self.ways),
            self.last_used.get_mut(base..base + self.ways),
        ) else {
            debug_assert!(false, "set {set} lies outside the cache arrays");
            return AccessResult {
                hit: false,
                writeback: None,
            };
        };

        if let Some((line, used)) = lines
            .iter_mut()
            .zip(stamps.iter_mut())
            .find(|(l, _)| **l & !DIRTY_BIT == want)
        {
            if kind == AccessKind::Write {
                *line |= DIRTY_BIT;
            }
            *used = clock;
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // Choose an invalid way, else the LRU way. Invalid ways key 0 and
        // valid ways key stamp + 1, and only a strictly smaller key replaces
        // the candidate, so this is exactly "first invalid, else
        // least-recently-used, first of equal minima". Valid ways never tie:
        // each allocation stamps a fresh nonzero clock.
        let mut victim_way = 0;
        let mut victim_key = u64::MAX;
        for (way, (&l, &u)) in lines.iter().zip(stamps.iter()).enumerate() {
            let key = if l & VALID_BIT == 0 { 0 } else { u + 1 };
            if key < victim_key {
                victim_way = way;
                victim_key = key;
            }
        }
        let (Some(line), Some(used)) = (lines.get_mut(victim_way), stamps.get_mut(victim_way))
        else {
            debug_assert!(false, "CacheParams::sets() cannot yield zero ways");
            return AccessResult {
                hit: false,
                writeback: None,
            };
        };
        let victim = *line;
        let writeback = if victim & VALID_BIT != 0 && victim & DIRTY_BIT != 0 {
            self.writebacks += 1;
            Some(((victim >> TAG_SHIFT) << self.set_shift) | set as u64)
        } else {
            None
        };
        *line = want
            | if kind == AccessKind::Write {
                DIRTY_BIT
            } else {
                0
            };
        *used = clock;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Returns true if `line_addr` is currently resident (no state change).
    pub fn contains(&self, line_addr: u64) -> bool {
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let want = (tag << TAG_SHIFT) | VALID_BIT;
        let base = set * self.ways;
        self.lines
            .get(base..base + self.ways)
            .is_some_and(|ways| ways.iter().any(|&l| l & !DIRTY_BIT == want))
    }

    /// Clears all contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(0);
        self.last_used.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::CacheParams;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines.
        SetAssocCache::new(CacheParams {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency_cycles: 4,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(0, AccessKind::Read).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 is now MRU
        c.access(8, AccessKind::Read); // evicts 4 (LRU)
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read); // evicts dirty line 0
        assert_eq!(res.writeback, Some(0));
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read);
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write); // hit, now dirty
        c.access(4, AccessKind::Read);
        let res = c.access(8, AccessKind::Read);
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            c.access(line, AccessKind::Read);
        }
        for line in 0..4 {
            assert!(c.contains(line));
        }
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn table2_llc_shape() {
        let c = SetAssocCache::new(silcfm_types::SystemConfig::paper().l2);
        assert_eq!(c.num_sets(), 8192);
        assert_eq!(c.latency_cycles(), 11);
    }
}
