//! Differential check of `SetAssocCache` against an independent reference
//! model: each set is a `Vec` of `(line, dirty)` ordered from least to most
//! recently used, with true-LRU replacement, write-back and write-allocate.
//! The model shares no code with the cache: it indexes sets by `line % sets`
//! and keeps whole line addresses, where the cache masks, shifts and packs
//! tag words.

use silcfm_cache::{AccessKind, SetAssocCache};
use silcfm_types::check::forall;
use silcfm_types::rng::Rng;
use silcfm_types::CacheParams;

const LINE_BYTES: u32 = 64;

struct LruModel {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl LruModel {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Returns `(hit, dirty victim)` like `SetAssocCache::access`.
    fn access(&mut self, line: u64, write: bool) -> (bool, Option<u64>) {
        let ways = self.ways;
        let idx = self.set(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = set.remove(pos);
            set.push((l, dirty || write));
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let mut victim = None;
        if set.len() == ways {
            let (l, dirty) = set.remove(0);
            if dirty {
                self.writebacks += 1;
                victim = Some(l);
            }
        }
        set.push((line, write));
        (false, victim)
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set(line)].iter().any(|&(l, _)| l == line)
    }
}

#[test]
fn set_assoc_cache_matches_true_lru_model() {
    forall("set_assoc_matches_lru_model", |rng| {
        let ways = [1usize, 2, 4, 16][rng.gen_range(0..4usize)];
        let sets = 1usize << rng.gen_range(0..3u32);
        let mut cache = SetAssocCache::new(CacheParams {
            capacity_bytes: (sets * ways) as u64 * u64::from(LINE_BYTES),
            ways: ways as u32,
            line_bytes: LINE_BYTES,
            latency_cycles: 1,
        });
        let mut model = LruModel::new(sets, ways);
        // A pool about three times the capacity keeps both hits and
        // evictions frequent; a few far lines exercise the high tag bits.
        let pool = (3 * sets * ways) as u64;
        let write_p = rng.next_f64();
        for step in 0..600 {
            let line = if rng.gen_bool(0.05) {
                rng.next_u64() >> 8
            } else {
                rng.gen_range(0..pool)
            };
            let write = rng.gen_bool(write_p);
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = cache.access(line, kind);
            let (hit, writeback) = model.access(line, write);
            assert_eq!(
                (got.hit, got.writeback),
                (hit, writeback),
                "step {step}: line {line:#x} write {write} ({sets} sets x {ways} ways)"
            );
            let probe = rng.gen_range(0..pool);
            assert_eq!(
                cache.contains(probe),
                model.contains(probe),
                "probe {probe}"
            );
            assert_eq!(cache.contains(line), model.contains(line));
        }
        assert_eq!(
            (cache.hits(), cache.misses(), cache.writebacks()),
            (model.hits, model.misses, model.writebacks)
        );
    });
}
