//! The bit-vector history table (§III-A).
//!
//! When a block is evicted from a frame, its tenancy bit vector — the set of
//! subblock positions that were actually used — is saved in a small SRAM
//! table indexed by the XOR of the PC and the address of the first
//! swapped-in subblock. When the same (PC, address) pair swaps a block in
//! again, the stored vector is replayed to bulk-fetch the subblocks that
//! were useful last time, capturing spatial locality without fetching the
//! whole 2 KB block.

use silcfm_types::FxHashMap;

/// A direct-mapped history table of residency bit vectors.
///
/// The modelled SRAM has `len()` slots, but only slots that have been
/// stored to are held: a job saves one vector per restore, a few hundred
/// against a million slots, so the table is a map from slot index to
/// vector. An absent slot reads as 0, exactly like a never-written SRAM
/// word, so aliasing, later-store-wins and "0 reads as empty" are those of
/// the dense table.
#[derive(Debug, Clone)]
pub struct BitVectorTable {
    entries: FxHashMap<u32, u64>,
    mask: usize,
    hits: u64,
    lookups: u64,
}

impl BitVectorTable {
    /// Creates a table with `entries` slots (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "history table must have at least one entry");
        let n = entries.next_power_of_two();
        Self {
            // Room for a typical job's stored slots, so `store` rarely
            // grows the map mid-run.
            entries: FxHashMap::with_capacity_and_hasher(n.min(1024), Default::default()),
            mask: n - 1,
            hits: 0,
            lookups: 0,
        }
    }

    /// Number of slots in the modelled table.
    pub fn len(&self) -> usize {
        self.mask + 1
    }

    /// Whether the table has zero slots (never true after construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Saves `bitvec` under `key` (PC ⊕ first-subblock address). Kept out
    /// of line, like [`Self::lookup`]: the map probe runs once per tenancy
    /// change, and inlined into `SilcFm::access` it grows that function's
    /// per-access body.
    #[inline(never)]
    pub fn store(&mut self, key: u64, bitvec: u64) {
        self.entries.insert(self.index(key), bitvec);
    }

    /// Looks up the bit vector remembered for `key`; returns `None` when the
    /// slot is empty (no useful history). Kept out of line; see
    /// [`Self::store`].
    #[inline(never)]
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        self.lookups += 1;
        let v = self.entries.get(&self.index(key)).copied().unwrap_or(0);
        if v == 0 {
            None
        } else {
            self.hits += 1;
            Some(v)
        }
    }

    /// Fraction of lookups that found a stored vector.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Clears all entries and statistics.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.lookups = 0;
    }

    fn index(&self, key: u64) -> u32 {
        // Fibonacci hashing mixes the XORed PC/address bits well; the top
        // 32 bits of the product always fit the slot type.
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::check::forall;
    use silcfm_types::rng::Rng;

    #[test]
    fn store_then_lookup() {
        let mut t = BitVectorTable::new(1024);
        t.store(0xABCD, 0b1010);
        assert_eq!(t.lookup(0xABCD), Some(0b1010));
        assert!((t.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_key_misses() {
        let mut t = BitVectorTable::new(1024);
        assert_eq!(t.lookup(0xDEAD), None);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn zero_vector_is_indistinguishable_from_empty() {
        // A tenancy that used no subblocks stores 0, which reads back as
        // "no history" — intended: there is nothing useful to replay.
        let mut t = BitVectorTable::new(64);
        t.store(5, 0);
        assert_eq!(t.lookup(5), None);
    }

    #[test]
    fn aliasing_overwrites() {
        let mut t = BitVectorTable::new(1); // everything aliases
        t.store(1, 0b01);
        t.store(2, 0b10);
        assert_eq!(t.lookup(1), Some(0b10), "direct-mapped: later store wins");
    }

    #[test]
    fn rounds_up_to_power_of_two() {
        let t = BitVectorTable::new(1000);
        assert_eq!(t.len(), 1024);
        assert!(!t.is_empty());
    }

    #[test]
    fn reset_clears() {
        let mut t = BitVectorTable::new(16);
        t.store(3, 0xFF);
        t.reset();
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = BitVectorTable::new(0);
    }

    #[test]
    fn sparse_table_matches_a_dense_reference() {
        // The dense `Vec<u64>` SRAM model the sparse table replaced: every
        // slot exists up front and a never-written slot holds 0.
        forall("history_sparse_equals_dense", |rng| {
            let entries = if rng.gen_range(0..8u64) == 0 {
                // Large enough that distinct keys rarely share a slot.
                1 << 16
            } else {
                // Small tables force most keys to alias.
                rng.gen_range(1..=64usize)
            };
            let n = entries.next_power_of_two();
            let slot =
                |key: u64| (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (n - 1);
            let mut dense = vec![0u64; n];
            let (mut dense_hits, mut dense_lookups) = (0u64, 0u64);
            let mut t = BitVectorTable::new(entries);
            assert_eq!(t.len(), n);
            let keys = rng.gen_range(1..=256u64);
            for step in 0..rng.gen_range(1..=400u32) {
                let key = rng.gen_range(0..keys).wrapping_mul(0x0123_4567_89AB);
                match rng.gen_range(0..16u32) {
                    0..=5 => {
                        let v = if rng.gen_range(0..4u32) == 0 {
                            0
                        } else {
                            rng.next_u64()
                        };
                        t.store(key, v);
                        dense[slot(key)] = v;
                    }
                    6 => {
                        t.reset();
                        dense.fill(0);
                        (dense_hits, dense_lookups) = (0, 0);
                    }
                    _ => {
                        let v = dense[slot(key)];
                        dense_lookups += 1;
                        dense_hits += u64::from(v != 0);
                        let want = (v != 0).then_some(v);
                        assert_eq!(t.lookup(key), want, "step {step}: key {key:#x}");
                    }
                }
                let want_rate = if dense_lookups == 0 {
                    0.0
                } else {
                    dense_hits as f64 / dense_lookups as f64
                };
                assert_eq!(t.hit_rate().to_bits(), want_rate.to_bits(), "step {step}");
            }
        });
    }
}
