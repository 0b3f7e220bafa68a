//! Virtual → physical translation with a 2 KB page size.
//!
//! The paper implements virtual-to-physical translation with 2 KB pages and
//! ensures rate-mode benchmark copies do not share physical pages (§IV-B).
//! [`PageMapper`] reproduces that: every `(core, virtual page)` pair is
//! allocated a distinct physical page on first touch, under one of three
//! static placement policies.

use silcfm_types::rng::{Rng, Xoshiro256StarStar};
use silcfm_types::{AddressSpace, CoreId, FxHashMap, PhysAddr, VirtAddr};

/// Page size used for translation (the paper's 2 KB).
pub const PAGE_BYTES: u64 = 2048;

/// How first-touch allocation places pages across the flat NM+FM space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Pages are placed uniformly at random over NM+FM (the paper's
    /// *Random* static baseline, and the initial layout every hardware
    /// scheme starts from).
    RandomSeeded(u64),
    /// Every page goes to far memory (the paper's no-NM baseline system).
    /// Pages are scattered uniformly within FM, exactly as [`RandomSeeded`]
    /// scatters them within NM+FM, so the baseline differs from the other
    /// policies only in *which memories* it uses, not in row-buffer
    /// locality.
    ///
    /// [`RandomSeeded`]: PlacementPolicy::RandomSeeded
    FarOnly,
    /// Deterministic proportional interleave: one page to NM for every
    /// `fm:nm` ratio's worth to FM.
    Interleaved,
}

/// First-touch page allocator and translator.
#[derive(Debug, Clone)]
pub struct PageMapper {
    space: AddressSpace,
    policy: PlacementPolicy,
    /// Keyed on `(core << 48) | vpage` so a translation hashes one u64
    /// through the multiply-xor [`FxHashMap`] — the hottest map in the
    /// simulator (one lookup per generated access).
    map: FxHashMap<u64, u64>,
    /// Last `(key, physical page)` translated. Page mappings are immutable
    /// once allocated, so this one-entry cache can never go stale; spatial
    /// locality within 2 KB pages makes it hit on most accesses, skipping
    /// the map probe entirely.
    last: Option<(u64, u64)>,
    /// Random first-touch placement (RandomSeeded, FarOnly); empty for
    /// Interleaved.
    pool: PagePool,
    next_nm: u64,
    next_fm: u64,
    counter: u64,
}

impl PageMapper {
    /// Creates a mapper over `space`.
    pub fn new(space: AddressSpace, policy: PlacementPolicy) -> Self {
        let nm_pages = space.nm_bytes() / PAGE_BYTES;
        let total_pages = space.total_bytes() / PAGE_BYTES;
        let pool = match policy {
            PlacementPolicy::RandomSeeded(seed) => PagePool::new(0, total_pages, seed),
            PlacementPolicy::FarOnly => {
                // A fixed internal seed: the baseline must be reproducible
                // regardless of the workload seed.
                PagePool::new(nm_pages, total_pages - nm_pages, 0x5E_EDF0_FA11)
            }
            PlacementPolicy::Interleaved => PagePool::new(0, 0, 0),
        };
        Self {
            space,
            policy,
            map: FxHashMap::default(),
            last: None,
            pool,
            next_nm: 0,
            next_fm: nm_pages,
            counter: 0,
        }
    }

    /// The address space this mapper allocates within.
    pub const fn space(&self) -> AddressSpace {
        self.space
    }

    /// Number of physical pages allocated so far.
    pub fn pages_allocated(&self) -> usize {
        self.map.len()
    }

    /// Translates `vaddr` for `core`, allocating a physical page on first
    /// touch. Returns `None` when physical memory is exhausted.
    pub fn translate(&mut self, core: CoreId, vaddr: VirtAddr) -> Option<PhysAddr> {
        let vpage = vaddr.page_number(PAGE_BYTES);
        debug_assert!(vpage < 1 << 48, "vpage must leave 16 bits for the core");
        let key = (u64::from(core.value()) << 48) | vpage;
        let ppage = match self.last {
            Some((k, p)) if k == key => p,
            _ => {
                let p = match self.map.get(&key) {
                    Some(&p) => p,
                    None => {
                        let p = self.allocate()?;
                        self.map.insert(key, p);
                        p
                    }
                };
                self.last = Some((key, p));
                p
            }
        };
        Some(PhysAddr::new(
            ppage * PAGE_BYTES + vaddr.page_offset(PAGE_BYTES),
        ))
    }

    fn allocate(&mut self) -> Option<u64> {
        let nm_pages = self.space.nm_bytes() / PAGE_BYTES;
        let total_pages = self.space.total_bytes() / PAGE_BYTES;
        match self.policy {
            PlacementPolicy::RandomSeeded(_) | PlacementPolicy::FarOnly => self.pool.pop(),
            PlacementPolicy::Interleaved => {
                // Place 1 page in NM per (ratio+1) allocations.
                let ratio = self.space.fm_bytes() / self.space.nm_bytes();
                let want_nm = self.counter.is_multiple_of(ratio + 1);
                self.counter += 1;
                let nm_ok = self.next_nm < nm_pages;
                let fm_ok = self.next_fm < total_pages;
                if nm_ok && (want_nm || !fm_ok) {
                    let p = self.next_nm;
                    self.next_nm += 1;
                    Some(p)
                } else if fm_ok {
                    let p = self.next_fm;
                    self.next_fm += 1;
                    Some(p)
                } else {
                    None
                }
            }
        }
    }
}

/// The pages `first..first + len` in the order popping a seeded
/// [`Rng::shuffle`] of them from the back yields, drawn one at a time on
/// demand: construction does no per-page work, and a job pays only for the
/// pages it touches, not for the whole address space.
///
/// `shuffle` walks `i` from `len - 1` down to 1, swapping `a[i]` with
/// `a[j]` for `j` drawn from `0..=i`; no later step touches `a[i]` again,
/// so `a[i]` is final after step `i`, and popping from the back returns
/// exactly those finals in that order. Pop *k* therefore runs step
/// `i = len - k` alone: draw `j`, return `a[j]`, and move `a[i]` (which
/// nothing returns any more) into slot `j`. The last pop (`i == 0`) returns
/// `a[0]` and draws nothing, as `shuffle` never draws for it. The RNG is
/// the pool's own, so the draws, and with them the pages, are the eager
/// shuffle's bit for bit.
#[derive(Debug, Clone)]
struct PagePool {
    first: u64,
    /// Pages not yet popped; the next pop runs shuffle step `left - 1`.
    left: u32,
    /// Slot `k` holds `a[k] ^ k`, where `a[k]` is the page offset now at
    /// position `k`; it lives at `k % POOL_BLOCK` of block `k / POOL_BLOCK`.
    /// A block is allocated on its first write and an absent one reads as
    /// zeros, the identity arrangement: the pool never asks the allocator
    /// for one buffer the size of the address space, whose placement (and
    /// with it how many pages each job faults in) would depend on the heap's
    /// history rather than on the job.
    blocks: Vec<Option<Box<[u32; POOL_BLOCK]>>>,
    rng: Xoshiro256StarStar,
}

/// Slots per [`PagePool`] block: 4 KiB of `u32`.
const POOL_BLOCK: usize = 1024;

impl PagePool {
    fn new(first: u64, len: u64, seed: u64) -> Self {
        // Page offsets are stored as u32: 2^32 pages of 2 KB is 8 TiB, far
        // beyond any simulated address space (a longer range is capped).
        debug_assert!(len <= u64::from(u32::MAX), "{len} pages overflow the pool");
        let left = u32::try_from(len).unwrap_or(u32::MAX);
        Self {
            first,
            left,
            blocks: std::iter::repeat_with(|| None)
                .take((left as usize).div_ceil(POOL_BLOCK))
                .collect(),
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// Slot `k`'s stored word; 0 while its block is absent.
    fn slot(&self, k: u32) -> u32 {
        let k = k as usize;
        debug_assert!(
            k < self.blocks.len() * POOL_BLOCK,
            "pool slots cover 0..len"
        );
        self.blocks
            .get(k / POOL_BLOCK)
            .and_then(Option::as_ref)
            .and_then(|block| block.get(k % POOL_BLOCK))
            .copied()
            .unwrap_or(0)
    }

    fn pop(&mut self) -> Option<u64> {
        let i = self.left.checked_sub(1)?;
        self.left = i;
        let j = if i == 0 {
            0
        } else {
            self.rng.gen_range(0..i + 1)
        };
        let (at_i, at_j) = (self.slot(i), self.slot(j));
        let k = j as usize;
        if let Some(block) = self.blocks.get_mut(k / POOL_BLOCK) {
            // silcfm-lint: allow(A1) -- one 4 KiB block on a block's first write, at most len / 1024 per job
            let block = block.get_or_insert_with(|| Box::new([0; POOL_BLOCK]));
            if let Some(slot) = block.get_mut(k % POOL_BLOCK) {
                *slot = at_i ^ i ^ j;
            }
        }
        Some(self.first + u64::from(at_j ^ j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::check::forall;
    use silcfm_types::MemKind;

    fn space() -> AddressSpace {
        // 64 NM pages + 256 FM pages.
        AddressSpace::new(64 * PAGE_BYTES, 256 * PAGE_BYTES)
    }

    #[test]
    fn translation_is_stable() {
        let mut m = PageMapper::new(space(), PlacementPolicy::RandomSeeded(1));
        let a = m.translate(CoreId::new(0), VirtAddr::new(5000)).unwrap();
        let b = m.translate(CoreId::new(0), VirtAddr::new(5000)).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.pages_allocated(), 1);
    }

    #[test]
    fn page_offset_is_preserved() {
        let mut m = PageMapper::new(space(), PlacementPolicy::FarOnly);
        let p = m
            .translate(CoreId::new(0), VirtAddr::new(2048 + 100))
            .unwrap();
        assert_eq!(p.offset(PAGE_BYTES), 100);
    }

    #[test]
    fn cores_get_disjoint_physical_pages() {
        let mut m = PageMapper::new(space(), PlacementPolicy::RandomSeeded(1));
        let a = m.translate(CoreId::new(0), VirtAddr::new(0)).unwrap();
        let b = m.translate(CoreId::new(1), VirtAddr::new(0)).unwrap();
        assert_ne!(a.align_down(PAGE_BYTES), b.align_down(PAGE_BYTES));
    }

    #[test]
    fn far_only_never_touches_nm() {
        let mut m = PageMapper::new(space(), PlacementPolicy::FarOnly);
        for v in 0..100u64 {
            let p = m
                .translate(CoreId::new(0), VirtAddr::new(v * PAGE_BYTES))
                .unwrap();
            assert_eq!(m.space().kind_of(p), MemKind::Far);
        }
    }

    #[test]
    fn random_spreads_proportionally() {
        let mut m = PageMapper::new(space(), PlacementPolicy::RandomSeeded(7));
        let mut nm = 0;
        let total = 320;
        for v in 0..total {
            let p = m
                .translate(CoreId::new(0), VirtAddr::new(v * PAGE_BYTES))
                .unwrap();
            if m.space().kind_of(p) == MemKind::Near {
                nm += 1;
            }
        }
        assert_eq!(nm, 64, "allocating everything uses exactly the NM pages");
    }

    #[test]
    fn random_allocation_exhausts_exactly() {
        let mut m = PageMapper::new(space(), PlacementPolicy::RandomSeeded(7));
        for v in 0..320u64 {
            assert!(m
                .translate(CoreId::new(0), VirtAddr::new(v * PAGE_BYTES))
                .is_some());
        }
        assert!(
            m.translate(CoreId::new(0), VirtAddr::new(320 * PAGE_BYTES))
                .is_none(),
            "321st page must fail"
        );
    }

    #[test]
    fn interleaved_ratio() {
        let mut m = PageMapper::new(space(), PlacementPolicy::Interleaved);
        let mut nm = 0;
        for v in 0..100u64 {
            let p = m
                .translate(CoreId::new(0), VirtAddr::new(v * PAGE_BYTES))
                .unwrap();
            if m.space().kind_of(p) == MemKind::Near {
                nm += 1;
            }
        }
        assert_eq!(nm, 20, "1 in 5 pages goes to NM at a 4:1 ratio");
    }

    #[test]
    fn lazy_pool_pops_what_the_eager_shuffle_pops() {
        forall("lazy_pool_matches_eager_shuffle", |rng| {
            let first = rng.gen_range(0..1u64 << 40);
            let len = rng.gen_range(0..5_001u64);
            let seed = rng.next_u64();
            let mut eager: Vec<u64> = (first..first + len).collect();
            let mut shuffler = Xoshiro256StarStar::seed_from_u64(seed);
            shuffler.shuffle(&mut eager);
            let mut lazy = PagePool::new(first, len, seed);
            while let Some(page) = eager.pop() {
                assert_eq!(lazy.pop(), Some(page), "len {len}, {} left", eager.len());
            }
            assert_eq!(lazy.pop(), None, "an exhausted pool stays empty");
            assert_eq!(lazy.pop(), None);
            // The pool consumed exactly the shuffle's draws, no more.
            assert_eq!(lazy.rng.next_u64(), shuffler.next_u64(), "len {len}");
        });
    }

    #[test]
    fn random_is_seed_deterministic() {
        let mut a = PageMapper::new(space(), PlacementPolicy::RandomSeeded(9));
        let mut b = PageMapper::new(space(), PlacementPolicy::RandomSeeded(9));
        for v in 0..50u64 {
            assert_eq!(
                a.translate(CoreId::new(2), VirtAddr::new(v * PAGE_BYTES)),
                b.translate(CoreId::new(2), VirtAddr::new(v * PAGE_BYTES))
            );
        }
    }
}
