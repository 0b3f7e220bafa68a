//! The workload generator: turns a [`WorkloadProfile`] into a deterministic
//! stream of [`TraceRecord`]s.

use silcfm_types::rng::{Rng, Xoshiro256StarStar};
use silcfm_types::{CoreId, TraceRecord, VirtAddr};

use crate::profiles::{AccessPattern, WorkloadProfile, CLUSTER_STRIDE};

/// Subblocks per 2 KB page (the generator works in paper geometry).
const SUBBLOCKS_PER_PAGE: u32 = 32;
/// Page size the generator emits addresses for.
const PAGE_BYTES: u64 = 2048;
/// Number of distinct PC sites per visit class; small so that PC/address
/// correlation (exploited by SILC-FM's history table and predictor) exists.
const PC_SITES: u64 = 8;

/// A deterministic generator of one core's access stream.
///
/// Two generators with the same profile, core and seed produce identical
/// streams; different cores produce decorrelated streams over disjoint
/// virtual address spaces (the [`crate::PageMapper`] keeps them physically
/// disjoint too, as in the paper's rate-mode runs).
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    profile: WorkloadProfile,
    rng: Xoshiro256StarStar,
    hot_pages: Vec<u64>,
    accesses: u64,
    next_churn: u64,
    // Current page visit state.
    page: u64,
    remaining: u32,
    cursor: u32,
    stride: u32,
    visit_pc: u64,
    visit_dependent: bool,
    // Streaming cursors.
    stream_cold: u64,
    stream_hot: usize,
    /// Per-page visit-rotation counters: successive visits to a page walk
    /// successive windows of it.
    rotation: silcfm_types::FxHashMap<u64, u32>,
}

impl WorkloadGen {
    /// Creates a generator for `core` with a reproducible `seed`.
    pub fn new(profile: &WorkloadProfile, core: CoreId, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(core.value()).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let hot_pages = Self::choose_hot_pages(profile, &mut rng);
        let next_churn = if profile.churn_interval == u64::MAX {
            u64::MAX
        } else {
            profile.churn_interval
        };
        let mut gen = Self {
            profile: *profile,
            rng,
            hot_pages,
            accesses: 0,
            next_churn,
            page: 0,
            remaining: 0,
            cursor: 0,
            stride: 1,
            visit_pc: 0,
            visit_dependent: false,
            stream_cold: 0,
            stream_hot: 0,
            rotation: silcfm_types::FxHashMap::default(),
        };
        gen.begin_visit();
        gen
    }

    /// The profile driving this generator.
    pub const fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Accesses emitted so far.
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The current hot pages (for tests and diagnostics).
    pub fn hot_pages(&self) -> &[u64] {
        &self.hot_pages
    }

    /// Produces the next trace record. The stream is infinite.
    pub fn next_record(&mut self) -> TraceRecord {
        if self.remaining == 0 {
            self.begin_visit();
        }

        let offset = self.cursor % SUBBLOCKS_PER_PAGE;
        self.cursor = self.cursor.wrapping_add(self.stride.max(1));
        self.remaining -= 1;

        let vaddr = VirtAddr::new(self.page * PAGE_BYTES + u64::from(offset) * 64);
        let gap = self.sample_gap();
        let is_write = self.rng.gen_bool(self.profile.write_fraction);
        let pc = self.visit_pc;
        let dependent = self.visit_dependent;

        self.accesses += 1;
        if self.accesses >= self.next_churn {
            self.churn_hot_set();
            self.next_churn = self.accesses + self.profile.churn_interval;
        }

        let rec = if is_write {
            TraceRecord::store(gap, vaddr, pc)
        } else {
            TraceRecord::load(gap, vaddr, pc)
        };
        if dependent {
            rec.depends()
        } else {
            rec
        }
    }

    fn begin_visit(&mut self) {
        let hot = self.rng.gen_bool(self.profile.hot_access_fraction);
        self.page = if hot {
            match self.profile.pattern {
                AccessPattern::Streaming => {
                    // silcfm-lint: allow(P1) -- modulo len; hot_pages is non-empty by construction
                    let p = self.hot_pages[self.stream_hot % self.hot_pages.len()];
                    self.stream_hot += 1;
                    p
                }
                _ => {
                    // Zipf-like popularity: rank = u^skew biases toward the
                    // head of the hot list.
                    let u: f64 = self.rng.next_f64();
                    let rank =
                        (u.powf(self.profile.hot_skew) * self.hot_pages.len() as f64) as usize;
                    // silcfm-lint: allow(P1) -- rank is clamped to len - 1; hot_pages is non-empty
                    self.hot_pages[rank.min(self.hot_pages.len() - 1)]
                }
            }
        } else {
            match self.profile.pattern {
                AccessPattern::Streaming => {
                    let p = self.stream_cold % self.profile.footprint_pages;
                    self.stream_cold += 7; // co-prime step decorrelates cores
                    p
                }
                _ => self.rng.gen_range(0..self.profile.footprint_pages),
            }
        };

        let mean = self.profile.spatial_subblocks;
        let jitter = (mean / 4).max(1);
        let count = self
            .rng
            .gen_range(mean.saturating_sub(jitter).max(1)..=(mean + jitter).min(32));
        self.remaining = count;

        // The walk start is a deterministic function of the page and of how
        // often it has been visited: programs stream over large structures,
        // so successive visits to a hot page touch successive *windows* of
        // it. Page-level locality (what 2 KB-granularity schemes exploit)
        // stays high while individual lines recur slowly enough that the
        // LLC does not swallow the hot set.
        let page_hash = (self.page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32;
        let window = if matches!(self.profile.pattern, AccessPattern::PointerChase) {
            // Linked-structure nodes sit at fixed offsets: pointer chases
            // revisit the same subblocks of a page, never windows of it.
            page_hash % SUBBLOCKS_PER_PAGE
        } else {
            let rot = self.rotation.entry(self.page).or_insert(0);
            let w = page_hash.wrapping_add(*rot * mean) % SUBBLOCKS_PER_PAGE;
            *rot = rot.wrapping_add(1);
            w
        };
        let (start, stride, dependent) = match self.profile.pattern {
            AccessPattern::Streaming => (0, 1, false),
            AccessPattern::Strided { stride } => (window % stride.max(1), stride, false),
            AccessPattern::Random => (window, 1, false),
            AccessPattern::PointerChase => (window, 11, true),
        };
        self.cursor = start;
        self.stride = stride;
        self.visit_dependent = dependent;
        // A small, page-correlated set of PC sites, disjoint for hot/cold.
        let site = self.page % PC_SITES;
        self.visit_pc = if hot {
            0x0040_0000 + site * 4
        } else {
            0x0050_0000 + site * 4
        };
    }

    fn sample_gap(&mut self) -> u32 {
        let mean = self.profile.mean_compute_gap();
        if mean == 0 {
            return 0;
        }
        let jitter = (mean / 4).max(1);
        self.rng
            .gen_range(mean.saturating_sub(jitter)..=mean + jitter)
    }

    fn choose_hot_pages(profile: &WorkloadProfile, rng: &mut Xoshiro256StarStar) -> Vec<u64> {
        let count = profile.hot_pages() as usize;
        let mut pages = Vec::with_capacity(count);
        // One bit per footprint page, set once the page is in `pages`: the
        // dedup below costs O(1) per draw instead of a scan of `pages`.
        // silcfm-lint: allow(A1) -- generator setup: one bit vector per hot-set draw, before the first record
        let mut chosen = vec![0u64; profile.footprint_pages.div_ceil(64) as usize];
        // Marks `p` chosen; returns whether it was not chosen before.
        let mut choose = |p: u64| {
            let bit = 1u64 << (p % 64);
            chosen.get_mut((p / 64) as usize).is_some_and(|word| {
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            })
        };
        let clustered_target = (count as f64 * profile.hot_clustering).round() as usize;

        // Clustered portion: fill whole congruence residues so hot pages
        // collide in set-indexed NM organizations.
        let pages_per_residue = (profile.footprint_pages / CLUSTER_STRIDE).max(1);
        let mut residue = rng.gen_range(0..CLUSTER_STRIDE.min(profile.footprint_pages));
        'outer: while pages.len() < clustered_target {
            for i in 0..pages_per_residue {
                let p = residue + i * CLUSTER_STRIDE;
                if p < profile.footprint_pages {
                    pages.push(p);
                    choose(p);
                    if pages.len() >= clustered_target {
                        break 'outer;
                    }
                }
            }
            residue = (residue + 1) % CLUSTER_STRIDE.min(profile.footprint_pages);
        }

        // Remainder: uniform random, deduplicated against what we have.
        while pages.len() < count {
            let p = rng.gen_range(0..profile.footprint_pages);
            if choose(p) {
                pages.push(p);
            }
        }
        pages
    }

    fn churn_hot_set(&mut self) {
        let replace = ((self.hot_pages.len() as f64 * self.profile.churn_fraction).round()
            as usize)
            .min(self.hot_pages.len());
        for _ in 0..replace {
            let idx = self.rng.gen_range(0..self.hot_pages.len());
            // silcfm-lint: allow(P1) -- gen_range(0..len) keeps idx in bounds
            self.hot_pages[idx] = self.rng.gen_range(0..self.profile.footprint_pages);
        }
    }
}

impl Iterator for WorkloadGen {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use silcfm_types::FxHashSet;

    fn gen_for(name: &str) -> WorkloadGen {
        WorkloadGen::new(profiles::by_name(name).unwrap(), CoreId::new(0), 1)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = gen_for("mcf");
        let mut b = gen_for("mcf");
        for _ in 0..1000 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn different_cores_diverge() {
        let p = profiles::by_name("mcf").unwrap();
        let mut a = WorkloadGen::new(p, CoreId::new(0), 1);
        let mut b = WorkloadGen::new(p, CoreId::new(1), 1);
        let same = (0..100)
            .filter(|_| a.next_record() == b.next_record())
            .count();
        assert!(
            same < 100,
            "different cores must not emit identical streams"
        );
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = profiles::by_name("xalanc").unwrap();
        let mut g = WorkloadGen::new(p, CoreId::new(0), 7);
        for _ in 0..10_000 {
            let r = g.next_record();
            assert!(r.vaddr.value() < p.footprint_pages * PAGE_BYTES);
        }
    }

    #[test]
    fn pointer_chase_is_dependent() {
        let mut g = gen_for("mcf");
        let dependent = (0..1000).filter(|_| g.next_record().dependent).count();
        assert!(
            dependent > 900,
            "mcf should be nearly all dependent: {dependent}"
        );
    }

    #[test]
    fn streaming_is_independent_and_sequential() {
        let mut g = gen_for("lbm");
        let recs: Vec<_> = (0..100).map(|_| g.next_record()).collect();
        assert!(recs.iter().all(|r| !r.dependent));
        // Within a page visit, consecutive records advance by one subblock.
        let sequential = recs
            .windows(2)
            .filter(|w| w[1].vaddr.value() == w[0].vaddr.value() + 64)
            .count();
        assert!(sequential > 50, "streaming mostly sequential: {sequential}");
    }

    #[test]
    fn hot_pages_receive_most_accesses() {
        let p = profiles::by_name("milc").unwrap(); // 90% hot accesses
        let mut g = WorkloadGen::new(p, CoreId::new(0), 3);
        let hot: FxHashSet<u64> = g.hot_pages().iter().copied().collect();
        let mut hot_hits = 0;
        let total = 20_000;
        for _ in 0..total {
            let r = g.next_record();
            if hot.contains(&(r.vaddr.value() / PAGE_BYTES)) {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / f64::from(total);
        // Churnless profile: the initial hot set stays authoritative.
        assert!(frac > 0.80, "hot fraction = {frac}");
    }

    #[test]
    fn clustered_hot_pages_share_residues() {
        let p = profiles::by_name("xalanc").unwrap(); // clustering 1.0
        let g = WorkloadGen::new(p, CoreId::new(0), 3);
        let residues: FxHashSet<u64> = g.hot_pages().iter().map(|p| p % CLUSTER_STRIDE).collect();
        // ~307 hot pages with only 5 pages per residue → ~62 residues, far
        // fewer than 307 distinct ones an unclustered choice would give.
        assert!(
            residues.len() < g.hot_pages().len() / 3,
            "clustered hot set must reuse residues: {} residues for {} pages",
            residues.len(),
            g.hot_pages().len()
        );
    }

    #[test]
    fn churn_rotates_hot_set() {
        let p = profiles::by_name("gems").unwrap();
        let mut g = WorkloadGen::new(p, CoreId::new(0), 3);
        let before: Vec<u64> = g.hot_pages().to_vec();
        for _ in 0..(p.churn_interval + 10) {
            let _ = g.next_record();
        }
        let after = g.hot_pages();
        let changed = before
            .iter()
            .zip(after.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0, "hot set must rotate after the churn interval");
    }

    #[test]
    fn compute_gaps_track_mpki() {
        let mut g = gen_for("dealii"); // mean gap 199
        let total: u64 = (0..10_000)
            .map(|_| u64::from(g.next_record().compute))
            .sum();
        let mean = total as f64 / 10_000.0;
        assert!((mean - 199.0).abs() < 20.0, "mean gap = {mean}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut g = gen_for("lbm"); // 45% writes
        let writes = (0..10_000)
            .filter(|_| g.next_record().kind.is_write())
            .count();
        let frac = writes as f64 / 10_000.0;
        assert!((frac - 0.45).abs() < 0.05, "write fraction = {frac}");
    }

    #[test]
    fn iterator_interface_is_infinite() {
        let g = gen_for("gcc");
        assert_eq!(g.take(5).count(), 5);
    }
}
