//! A fast multiply-xor hasher for the simulator's hot hash maps.
//!
//! `std`'s default hasher (SipHash) is keyed and DoS-resistant — properties
//! a deterministic single-process simulator does not need and pays dearly
//! for: page translation hashes on *every* simulated access. [`FxHasher`]
//! is the rustc-style rotate-xor-multiply hash: one rotate, one xor and one
//! multiplication per word, unkeyed and fully deterministic across runs and
//! platforms (the build-hasher carries no random state).
//!
//! Use [`FxHashMap`]/[`FxHashSet`] wherever the simulator keys maps by
//! integers or small tuples. Note that `HashMap` iteration order is *still*
//! not part of the simulator's determinism contract: any code whose output
//! depends on map ordering must impose a total order itself (as
//! `Hma::epoch_boundary` does by sorting candidates).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family: a random-ish odd 64-bit constant with
/// good avalanche behaviour under `(h ⋘ 5) ^ w` mixing.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style multiply-xor hasher. Not DoS-resistant; do not expose to
/// untrusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Build-hasher for [`FxHasher`]; carries no per-map random state, so hash
/// values are identical across maps, runs and platforms.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned alias: std's HashMap with the deterministic FxHasher substituted"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned alias: std's HashSet with the deterministic FxHasher substituted"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use crate::rng::Rng;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&(7u16, 42u64)), hash_of(&(7u16, 42u64)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        forall("fxhash_nearby_keys_differ", |rng| {
            let k = rng.gen_range(0..u64::MAX - 1);
            assert_ne!(hash_of(&k), hash_of(&(k + 1)));
        });
    }

    #[test]
    fn byte_stream_matches_word_writes_for_whole_words() {
        // The `write` fallback consumes 8-byte words little-endian, so a
        // byte slice of one u64 hashes like the u64 itself.
        let v = 0x0123_4567_89ab_cdefu64;
        let mut a = FxHasher::default();
        a.write(&v.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(v);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&999), Some(&1998));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(1);
        assert!(set.contains(&1));
    }

    #[test]
    fn spreads_low_bit_entropy() {
        // Page numbers differ only in low bits; the multiply must spread
        // them into the high bits HashMap uses for bucket selection.
        let mut high_bits: FxHashSet<u64> = FxHashSet::default();
        for page in 0..4096u64 {
            high_bits.insert(hash_of(&page) >> 48);
        }
        assert!(
            high_bits.len() > 2048,
            "only {} distinct high-16-bit patterns over 4096 keys",
            high_bits.len()
        );
    }
}
