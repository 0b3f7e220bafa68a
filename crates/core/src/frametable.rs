//! Structure-of-arrays frame metadata: every [`FrameMeta`] field split into
//! its own parallel array, laid out `[set][way]` contiguously.
//!
//! The controller's two hottest scans — the set probe on every FM request
//! and the victim scan on every tenancy start — touch one field of every
//! way in a set. With the array-of-structs `Vec<FrameMeta>` those loads
//! were strided `sets` frames apart (64 B of unrelated metadata between
//! consecutive ways); here each field's ways sit in adjacent words, so a
//! whole 4-way set probe reads one cache line of one array. Both scans are
//! also written mask-select style (no early exit, no data-dependent
//! branches), which lets the compiler keep them branch-free.
//!
//! The `remap` array doubles as the probe tag store (`block + 1`, `0` = no
//! tenant) — it *is* the single source of truth for tenancies, absorbing
//! the separate tag mirror the controller used to keep in sync by hand.
//!
//! Indexing: a *slot* is `set * associativity + way`. The controller's
//! frame ids (`set + way * sets`) convert through [`FrameTable::slot_of`];
//! hot paths that already know `(set, way)` use [`FrameTable::slot_at`]
//! directly. The full-struct [`get`](FrameTable::get) /
//! [`set`](FrameTable::set) round trip exists for tests, diagnostics and
//! cold paths; hot paths use the per-field accessors so one probe does not
//! drag eight arrays into cache.

use silcfm_types::BlockIndex;

use crate::metadata::{FrameMeta, LockState, COUNTER_MAX};

/// Frame metadata in structure-of-arrays form (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct FrameTable {
    sets: u64,
    assoc: u32,
    /// Tenant tag per slot: `block + 1`, `0` = no tenant. This is the
    /// probe's tag array *and* the authoritative remap store.
    remap: Vec<u64>,
    /// Residency bit vector per slot (bit `i` ⇔ subblock `i` holds the
    /// tenant's data).
    bitvec: Vec<u64>,
    /// Union of all residency bits of the current tenancy, per slot.
    bitvec_history: Vec<u64>,
    /// History-table key of the current tenancy, per slot.
    history_key: Vec<u64>,
    /// LRU stamp (access count at last touch), per slot.
    lru: Vec<u64>,
    /// NM-native activity counter, per slot.
    nm_counter: Vec<u8>,
    /// Remapped-block activity counter, per slot.
    fm_counter: Vec<u8>,
    /// Lock state, per slot.
    lock: Vec<LockState>,
    /// Per-set memo of a victim scan that came up empty: byte `s` is 1
    /// when the last [`victim`](Self::victim) call for set `s` (under
    /// [`Self::cached_degraded`]) found every way ineligible. Workloads
    /// that saturate their sets with locked frames spend close to half
    /// their accesses re-discovering this; the memo turns those scans
    /// into one byte load. Cleared by exactly the mutations that can
    /// make a way eligible again (unlock, invalidate, tenancy restart,
    /// aging, whole-struct writes, reset) — counter bumps and LRU
    /// touches only *shrink* eligibility, so they leave it standing.
    no_victim: Vec<u8>,
    /// The degraded-way mask the `no_victim` memo was recorded under; a
    /// different mask invalidates the whole memo.
    cached_degraded: u32,
}

impl FrameTable {
    /// A table for `sets` congruence sets of `assoc` ways, all frames in
    /// their initial (empty, unlocked) state.
    pub fn new(sets: u64, assoc: u32) -> Self {
        let n = (sets * u64::from(assoc)) as usize;
        Self {
            sets,
            assoc,
            remap: vec![0; n],
            bitvec: vec![0; n],
            bitvec_history: vec![0; n],
            history_key: vec![0; n],
            lru: vec![0; n],
            nm_counter: vec![0; n],
            fm_counter: vec![0; n],
            lock: vec![LockState::Unlocked; n],
            no_victim: vec![0; sets as usize],
            cached_degraded: 0,
        }
    }

    /// The congruence set owning `slot`.
    fn set_of(&self, slot: usize) -> usize {
        slot / self.assoc as usize
    }

    /// Drops the no-victim memo for `slot`'s set (a mutation may have
    /// made one of its ways eligible again).
    fn uncache_no_victim(&mut self, slot: usize) {
        let set = self.set_of(slot);
        *Self::at_mut(&mut self.no_victim, set) = 0;
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.remap.len()
    }

    /// Whether the table holds no frames.
    pub fn is_empty(&self) -> bool {
        self.remap.is_empty()
    }

    /// Shared read funnel: every slot is produced by [`Self::slot_of`] or
    /// [`Self::slot_at`] from a frame id / `(set, way)` pair `< len` by
    /// construction.
    fn at<V: Copy>(v: &[V], slot: usize) -> V {
        debug_assert!(slot < v.len(), "slot exceeds the frame table");
        // silcfm-lint: allow(P1) -- single indexing funnel with the invariant documented and debug-asserted above
        v[slot]
    }

    /// Shared write funnel; see [`Self::at`] for the invariant.
    fn at_mut<V>(v: &mut [V], slot: usize) -> &mut V {
        debug_assert!(slot < v.len(), "slot exceeds the frame table");
        // silcfm-lint: allow(P1) -- single indexing funnel with the invariant documented and debug-asserted above
        &mut v[slot]
    }

    /// Slot of frame id `f` (the controller's `set + way * sets`
    /// numbering): mask + shift when the set count is a power of two,
    /// `%` and `/` otherwise (5120, 6144 and 10240 sets, as in 7 of the 14
    /// Table III jobs at benchmark scale).
    pub fn slot_of(&self, f: u64) -> usize {
        let (set, way) = if self.sets.is_power_of_two() {
            (f & (self.sets - 1), f >> self.sets.trailing_zeros())
        } else {
            (f % self.sets, f / self.sets)
        };
        (set * u64::from(self.assoc) + way) as usize
    }

    /// Slot of `(set, way)`.
    pub fn slot_at(&self, set: u64, way: u32) -> usize {
        (set * u64::from(self.assoc) + u64::from(way)) as usize
    }

    // ---- per-field accessors (the hot-path interface) ---------------------

    /// The tenant of `slot`, if any.
    pub fn remap(&self, slot: usize) -> Option<BlockIndex> {
        match Self::at(&self.remap, slot) {
            0 => None,
            tag => Some(BlockIndex::new(tag - 1)),
        }
    }

    /// The residency bit vector of `slot`.
    pub fn bitvec(&self, slot: usize) -> u64 {
        Self::at(&self.bitvec, slot)
    }

    /// The tenancy-history bit vector of `slot`.
    pub fn bitvec_history(&self, slot: usize) -> u64 {
        Self::at(&self.bitvec_history, slot)
    }

    /// The history-table key of `slot`'s tenancy.
    pub fn history_key(&self, slot: usize) -> u64 {
        Self::at(&self.history_key, slot)
    }

    /// The LRU stamp of `slot`.
    pub fn lru(&self, slot: usize) -> u64 {
        Self::at(&self.lru, slot)
    }

    /// Stamps `slot` as touched at access count `now`.
    pub fn set_lru(&mut self, slot: usize, now: u64) {
        *Self::at_mut(&mut self.lru, slot) = now;
    }

    /// The NM-native activity counter of `slot`.
    pub fn nm_counter(&self, slot: usize) -> u8 {
        Self::at(&self.nm_counter, slot)
    }

    /// The remapped-block activity counter of `slot`.
    pub fn fm_counter(&self, slot: usize) -> u8 {
        Self::at(&self.fm_counter, slot)
    }

    /// The lock state of `slot`.
    pub fn lock(&self, slot: usize) -> LockState {
        Self::at(&self.lock, slot)
    }

    /// Sets the lock state of `slot`.
    pub fn set_lock(&mut self, slot: usize, lock: LockState) {
        *Self::at_mut(&mut self.lock, slot) = lock;
        // Unlocking can make the way victimizable; locking only removes
        // eligibility, so a standing no-victim memo stays true.
        if !lock.is_locked() {
            self.uncache_no_victim(slot);
        }
    }

    /// Whether subblock `off` of `slot` holds remapped FM data.
    pub fn bit(&self, slot: usize, off: u32) -> bool {
        Self::at(&self.bitvec, slot) & (1 << off) != 0
    }

    /// Sets the residency bit for `off` and records it in the tenancy
    /// history (mirrors [`FrameMeta::set_bit`]).
    pub fn set_bit(&mut self, slot: usize, off: u32) {
        *Self::at_mut(&mut self.bitvec, slot) |= 1 << off;
        *Self::at_mut(&mut self.bitvec_history, slot) |= 1 << off;
    }

    /// Clears the residency bit for `off` (mirrors
    /// [`FrameMeta::clear_bit`]: the history keeps it).
    pub fn clear_bit(&mut self, slot: usize, off: u32) {
        *Self::at_mut(&mut self.bitvec, slot) &= !(1 << off);
    }

    /// Saturating increment of `slot`'s NM-native activity counter
    /// (mirrors [`FrameMeta::bump_nm`]).
    pub fn bump_nm(&mut self, slot: usize) -> u8 {
        let c = Self::at_mut(&mut self.nm_counter, slot);
        *c = c.saturating_add(1).min(COUNTER_MAX);
        *c
    }

    /// Saturating increment of `slot`'s remapped-block activity counter
    /// (mirrors [`FrameMeta::bump_fm`]).
    pub fn bump_fm(&mut self, slot: usize) -> u8 {
        let c = Self::at_mut(&mut self.fm_counter, slot);
        *c = c.saturating_add(1).min(COUNTER_MAX);
        *c
    }

    /// Starts a tenancy: `block` moves in with a fresh activity counter,
    /// its history key, and an LRU touch. The caller interleaves the
    /// actual subblocks (and their residency bits) afterwards.
    pub fn start_tenancy(&mut self, slot: usize, block: BlockIndex, key: u64, now: u64) {
        *Self::at_mut(&mut self.remap, slot) = block.value() + 1;
        *Self::at_mut(&mut self.history_key, slot) = key;
        *Self::at_mut(&mut self.fm_counter, slot) = 1;
        *Self::at_mut(&mut self.lru, slot) = now;
        // The fresh counter (1 <= cold threshold) makes this way
        // victimizable whatever it held before.
        self.uncache_no_victim(slot);
    }

    /// Fills the residency and history bit vectors with `mask` (a locked
    /// remap holds every subblock).
    pub fn fill_residency(&mut self, slot: usize, mask: u64) {
        *Self::at_mut(&mut self.bitvec, slot) = mask;
        *Self::at_mut(&mut self.bitvec_history, slot) = mask;
    }

    /// Invalidates `slot` back to its native-only state, keeping the LRU
    /// stamp and the NM-native activity counter (what a restore and a
    /// metadata-parity scrub both preserve).
    pub fn invalidate(&mut self, slot: usize) {
        *Self::at_mut(&mut self.remap, slot) = 0;
        *Self::at_mut(&mut self.bitvec, slot) = 0;
        *Self::at_mut(&mut self.bitvec_history, slot) = 0;
        *Self::at_mut(&mut self.history_key, slot) = 0;
        *Self::at_mut(&mut self.fm_counter, slot) = 0;
        *Self::at_mut(&mut self.lock, slot) = LockState::Unlocked;
        self.uncache_no_victim(slot);
    }

    /// Ages every frame's activity counters (right shift), in bulk over
    /// the two contiguous counter arrays (mirrors [`FrameMeta::age`] per
    /// frame; slot order vs frame order is immaterial, each slot only
    /// touches itself).
    pub fn age_all(&mut self) {
        for c in &mut self.nm_counter {
            *c >>= 1;
        }
        for c in &mut self.fm_counter {
            *c >>= 1;
        }
        // Cooled counters can cross back under the cold threshold.
        self.no_victim.fill(0);
    }

    // ---- set scans --------------------------------------------------------

    /// The first way of `set` whose tenant tag equals `want` (`block + 1`;
    /// must be nonzero — zero is the empty-slot marker). Branch-free: the
    /// compare of every way folds into a hit mask, then one
    /// `trailing_zeros` picks the first match — same result as an
    /// early-exit scan, no data-dependent branches.
    pub fn probe(&self, set: u64, want: u64) -> Option<u32> {
        debug_assert!(want != 0, "0 is the empty-slot marker");
        let base = self.slot_at(set, 0);
        let tags = self.remap.get(base..base + self.assoc as usize)?;
        let mut hits = 0u32;
        for (w, &tag) in tags.iter().enumerate() {
            hits |= u32::from(tag == want) << w;
        }
        if hits == 0 {
            None
        } else {
            Some(hits.trailing_zeros())
        }
    }

    /// The LRU victimizable way of `set`, or `None` when every way is
    /// pinned. A way is victimizable when it is not degraded (its bit in
    /// `degraded_ways` is clear), not locked, and — under associativity —
    /// either tenant-free or cold (`fm_counter <= 1`); see §III-C's
    /// protection of actively migrating tenancies. Mask-select: ineligible
    /// ways take a key no live LRU stamp can reach (stamps are access
    /// counts, far below `u64::MAX`), and a strict `<` scan keeps the
    /// first of equal minima — exactly the old filtered `min_by_key`.
    ///
    /// Takes `&mut self` only to maintain the `no_victim` memo (see the
    /// field docs); the scan's result is unchanged by the caching.
    pub fn victim(&mut self, set: u64, degraded_ways: u32) -> Option<u32> {
        if degraded_ways != self.cached_degraded {
            // The memo was recorded under a different degraded mask;
            // none of it is trustworthy.
            self.no_victim.fill(0);
            self.cached_degraded = degraded_ways;
        }
        if Self::at(&self.no_victim, set as usize) != 0 {
            return None;
        }
        let base = self.slot_at(set, 0);
        let n = self.assoc as usize;
        let mut best_key = u64::MAX;
        let mut best_way = 0u32;
        for w in 0..n {
            let slot = base + w;
            let healthy = degraded_ways & (1u32 << w) == 0;
            let unlocked = !Self::at(&self.lock, slot).is_locked();
            let replaceable =
                n == 1 || Self::at(&self.remap, slot) == 0 || Self::at(&self.fm_counter, slot) <= 1;
            let eligible = healthy && unlocked && replaceable;
            let key = if eligible {
                Self::at(&self.lru, slot)
            } else {
                u64::MAX
            };
            if key < best_key {
                best_key = key;
                best_way = w as u32;
            }
        }
        if best_key == u64::MAX {
            *Self::at_mut(&mut self.no_victim, set as usize) = 1;
            None
        } else {
            Some(best_way)
        }
    }

    // ---- whole-struct view (tests, diagnostics, cold paths) ---------------

    /// Assembles the array-of-structs view of `slot`.
    pub fn get(&self, slot: usize) -> FrameMeta {
        FrameMeta {
            remap: self.remap(slot),
            bitvec: Self::at(&self.bitvec, slot),
            bitvec_history: Self::at(&self.bitvec_history, slot),
            history_key: Self::at(&self.history_key, slot),
            nm_counter: Self::at(&self.nm_counter, slot),
            fm_counter: Self::at(&self.fm_counter, slot),
            lock: Self::at(&self.lock, slot),
            lru: Self::at(&self.lru, slot),
        }
    }

    /// Scatters the array-of-structs view of `slot` back into the arrays
    /// (the inverse of [`get`](Self::get)).
    pub fn set(&mut self, slot: usize, meta: FrameMeta) {
        *Self::at_mut(&mut self.remap, slot) = meta.remap.map_or(0, |b| b.value() + 1);
        *Self::at_mut(&mut self.bitvec, slot) = meta.bitvec;
        *Self::at_mut(&mut self.bitvec_history, slot) = meta.bitvec_history;
        *Self::at_mut(&mut self.history_key, slot) = meta.history_key;
        *Self::at_mut(&mut self.nm_counter, slot) = meta.nm_counter;
        *Self::at_mut(&mut self.fm_counter, slot) = meta.fm_counter;
        *Self::at_mut(&mut self.lock, slot) = meta.lock;
        *Self::at_mut(&mut self.lru, slot) = meta.lru;
        // A whole-struct write can change anything, eligibility included.
        self.uncache_no_victim(slot);
    }

    /// Returns every frame to its initial state, keeping the allocations.
    pub fn reset(&mut self) {
        self.remap.fill(0);
        self.bitvec.fill(0);
        self.bitvec_history.fill(0);
        self.history_key.fill(0);
        self.lru.fill(0);
        self.nm_counter.fill(0);
        self.fm_counter.fill(0);
        self.lock.fill(LockState::Unlocked);
        self.no_victim.fill(0);
        self.cached_degraded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::check::forall;
    use silcfm_types::rng::{Rng, Xoshiro256StarStar};

    fn random_meta(rng: &mut Xoshiro256StarStar) -> FrameMeta {
        FrameMeta {
            remap: if rng.gen_range(0..2u64) == 0 {
                None
            } else {
                Some(BlockIndex::new(rng.gen_range(0..1u64 << 20)))
            },
            bitvec: rng.gen_range(0..u64::MAX),
            bitvec_history: rng.gen_range(0..u64::MAX),
            history_key: rng.gen_range(0..u64::MAX),
            nm_counter: rng.gen_range(0..64u64) as u8,
            fm_counter: rng.gen_range(0..64u64) as u8,
            lock: match rng.gen_range(0..3u64) {
                0 => LockState::Unlocked,
                1 => LockState::LockedNative,
                _ => LockState::LockedRemap,
            },
            lru: rng.gen_range(0..1u64 << 40),
        }
    }

    #[test]
    fn aos_view_round_trips() {
        forall("frametable_aos_round_trip", |rng| {
            let sets = 1u64 << rng.gen_range(0..4u64);
            let assoc = rng.gen_range(1..5u64) as u32;
            let mut t = FrameTable::new(sets, assoc);
            let models: Vec<FrameMeta> = (0..t.len()).map(|_| random_meta(rng)).collect();
            for (slot, m) in models.iter().enumerate() {
                t.set(slot, *m);
            }
            for (slot, m) in models.iter().enumerate() {
                assert_eq!(t.get(slot), *m, "slot {slot}");
                // Per-field accessors agree with the assembled view.
                assert_eq!(t.remap(slot), m.remap);
                assert_eq!(t.bitvec(slot), m.bitvec);
                assert_eq!(t.bitvec_history(slot), m.bitvec_history);
                assert_eq!(t.history_key(slot), m.history_key);
                assert_eq!(t.lru(slot), m.lru);
                assert_eq!(t.nm_counter(slot), m.nm_counter);
                assert_eq!(t.fm_counter(slot), m.fm_counter);
                assert_eq!(t.lock(slot), m.lock);
            }
        });
    }

    #[test]
    fn slot_of_inverts_frame_ids() {
        for sets in [1u64, 2, 3, 4, 8, 16] {
            for assoc in 1u32..=4 {
                let t = FrameTable::new(sets, assoc);
                for f in 0..sets * u64::from(assoc) {
                    let set = f % sets;
                    let way = (f / sets) as u32;
                    assert_eq!(
                        t.slot_of(f),
                        t.slot_at(set, way),
                        "sets={sets} assoc={assoc}"
                    );
                }
                // Slots cover 0..len exactly once.
                let mut seen = vec![false; t.len()];
                for f in 0..t.len() as u64 {
                    seen[t.slot_of(f)] = true;
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn probe_matches_the_early_exit_reference() {
        // Exhaustive small-geometry sweep: every assignment of a few tag
        // values to every way must agree with the naive first-match scan.
        for assoc in 1u32..=4 {
            let sets = 2u64;
            let values_per_way = 3u64; // tags 0 (empty), 1, 2
            let mut t = FrameTable::new(sets, assoc);
            let combos = values_per_way.pow(assoc);
            for combo in 0..combos {
                let mut c = combo;
                let mut tags = Vec::new();
                for w in 0..assoc {
                    let tag = c % values_per_way;
                    c /= values_per_way;
                    tags.push(tag);
                    let mut m = FrameMeta::empty();
                    m.remap = if tag == 0 {
                        None
                    } else {
                        Some(BlockIndex::new(tag - 1))
                    };
                    t.set(t.slot_at(1, w), m);
                }
                for want in 1..values_per_way + 1 {
                    let reference = tags.iter().position(|&tag| tag == want).map(|w| w as u32);
                    assert_eq!(
                        t.probe(1, want),
                        reference,
                        "assoc={assoc} tags={tags:?} want={want}"
                    );
                }
            }
        }
    }

    #[test]
    fn victim_matches_the_min_by_key_reference() {
        forall("frametable_victim_reference", |rng| {
            let assoc = rng.gen_range(1..5u64) as u32;
            let mut t = FrameTable::new(4, assoc);
            let degraded = rng.gen_range(0..16u64) as u32;
            let metas: Vec<FrameMeta> = (0..assoc)
                .map(|w| {
                    let mut m = random_meta(rng);
                    m.lru = rng.gen_range(0..4u64); // force LRU ties
                    m.fm_counter = rng.gen_range(0..4u64) as u8;
                    t.set(t.slot_at(2, w), m);
                    m
                })
                .collect();
            let reference = (0..assoc)
                .filter(|&w| {
                    let m = &metas[w as usize];
                    degraded & (1 << w) == 0
                        && !m.lock.is_locked()
                        && (assoc == 1 || m.remap.is_none() || m.fm_counter <= 1)
                })
                .min_by_key(|&w| metas[w as usize].lru);
            assert_eq!(
                t.victim(2, degraded),
                reference,
                "assoc={assoc} degraded={degraded:#b}"
            );
        });
    }

    #[test]
    fn no_victim_memo_clears_on_every_reenabling_event() {
        // Drive the cached and the memo-free answers side by side through
        // each mutation that can re-create an eligible way; the cached
        // table must agree with a freshly scanned clone at every step.
        let hot = |t: &mut FrameTable, set: u64| {
            for w in 0..2 {
                let slot = t.slot_at(set, w);
                let mut m = FrameMeta::empty();
                m.remap = Some(BlockIndex::new(u64::from(w) + 1));
                m.fm_counter = COUNTER_MAX; // hot tenant: not replaceable
                t.set(slot, m);
            }
        };
        let check = |t: &mut FrameTable, set: u64, mask: u32, ctx: &str| {
            let want = t.clone().victim(set, mask); // clone: memo-free scan
            assert_eq!(t.victim(set, mask), want, "{ctx}");
            // Ask again to exercise the memo fast path itself.
            assert_eq!(t.victim(set, mask), want, "{ctx} (memoized)");
        };

        let mut t = FrameTable::new(4, 2);
        hot(&mut t, 1);
        check(&mut t, 1, 0, "all ways hot");
        t.set_lock(t.slot_at(1, 0), LockState::LockedRemap);
        check(&mut t, 1, 0, "locking keeps the memo true");
        t.set_lock(t.slot_at(1, 0), LockState::Unlocked);
        check(&mut t, 1, 0, "unlock alone re-enables nothing here");
        t.invalidate(t.slot_at(1, 1));
        check(&mut t, 1, 0, "invalidate re-enables its way");

        hot(&mut t, 2);
        check(&mut t, 2, 0, "second set hot");
        t.start_tenancy(t.slot_at(2, 0), BlockIndex::new(9), 0xbeef, 7);
        check(&mut t, 2, 0, "tenancy restart resets the counter");

        hot(&mut t, 3);
        check(&mut t, 3, 0b10, "hot under a degraded mask");
        check(&mut t, 3, 0, "mask change drops the memo");
        t.age_all();
        check(&mut t, 3, 0, "aging cools the counters");

        hot(&mut t, 0);
        check(&mut t, 0, 0, "fourth set hot");
        let mut cold = FrameMeta::empty();
        cold.remap = Some(BlockIndex::new(5));
        cold.fm_counter = 1;
        t.set(t.slot_at(0, 1), cold);
        check(&mut t, 0, 0, "whole-struct write re-enables its way");
        t.reset();
        check(&mut t, 0, 0, "reset re-enables everything");
    }

    #[test]
    fn invalidate_keeps_lru_and_nm_counter() {
        let mut t = FrameTable::new(2, 2);
        let mut m = FrameMeta::empty();
        m.remap = Some(BlockIndex::new(77));
        m.bitvec = 0b1010;
        m.bitvec_history = 0b1110;
        m.history_key = 9;
        m.nm_counter = 5;
        m.fm_counter = 6;
        m.lock = LockState::LockedRemap;
        m.lru = 123;
        t.set(1, m);
        t.invalidate(1);
        assert_eq!(
            t.get(1),
            FrameMeta {
                lru: 123,
                nm_counter: 5,
                ..FrameMeta::empty()
            }
        );
        // The probe no longer finds the old tenant.
        assert_eq!(t.probe(0, 78), None);
    }

    #[test]
    fn counters_and_bits_mirror_frame_meta_semantics() {
        let mut t = FrameTable::new(1, 1);
        let mut m = FrameMeta::empty();
        for _ in 0..100 {
            t.bump_nm(0);
            t.bump_fm(0);
            m.bump_nm();
            m.bump_fm();
        }
        t.set_bit(0, 3);
        t.set_bit(0, 7);
        t.clear_bit(0, 3);
        m.set_bit(3);
        m.set_bit(7);
        m.clear_bit(3);
        t.set_lru(0, 42);
        m.lru = 42;
        assert_eq!(t.get(0), m);
        t.age_all();
        m.age();
        assert_eq!(t.get(0), m);
        assert!(t.bit(0, 7) && !t.bit(0, 3));
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut t = FrameTable::new(2, 2);
        t.start_tenancy(3, BlockIndex::new(9), 0xbeef, 7);
        t.set_bit(3, 1);
        t.set_lock(3, LockState::LockedRemap);
        t.reset();
        for slot in 0..t.len() {
            assert_eq!(t.get(slot), FrameMeta::empty(), "slot {slot}");
        }
        assert!(!t.is_empty());
    }
}
