//! The Table II on-chip hierarchy: private L1I/L1D per core, shared L2 (LLC).

use silcfm_types::{CoreId, PhysAddr, SystemConfig};

use crate::set_assoc::{AccessKind, SetAssocCache};

/// Most dirty LLC victims one hierarchy access can produce: one from
/// installing the dirty L1 victim in L2, one from the demand fill.
const MAX_WRITEBACKS: usize = 2;

/// The dirty LLC victims of one hierarchy access, held inline so a dirty
/// eviction never allocates. Derefs to `[PhysAddr]` in eviction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Writebacks {
    /// Slots past `len` stay `PhysAddr::default()` (nothing is ever
    /// removed), so the derived equality compares the lists.
    addrs: [PhysAddr; MAX_WRITEBACKS],
    len: u8,
}

impl Writebacks {
    fn push(&mut self, addr: PhysAddr) {
        debug_assert!(
            usize::from(self.len) < MAX_WRITEBACKS,
            "one hierarchy access evicted more than {MAX_WRITEBACKS} dirty LLC lines"
        );
        if let Some(slot) = self.addrs.get_mut(usize::from(self.len)) {
            *slot = addr;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for Writebacks {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        self.addrs.get(..usize::from(self.len)).unwrap_or_default()
    }
}

impl<'a> IntoIterator for &'a Writebacks {
    type Item = &'a PhysAddr;
    type IntoIter = std::slice::Iter<'a, PhysAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Traffic a hierarchy access sends to the memory system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MissTraffic {
    /// The demand line must be fetched from memory.
    pub demand_fetch: bool,
    /// Dirty LLC victims that must be written back to memory.
    pub writebacks: Writebacks,
}

/// Result of one load/store/fetch through the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// On-chip latency in CPU cycles (L1, or L1+L2); memory latency for LLC
    /// misses is added by the caller.
    pub latency_cycles: u32,
    /// Memory traffic caused by this access.
    pub traffic: MissTraffic,
}

impl HierarchyAccess {
    /// Whether the access missed the LLC.
    pub fn is_llc_miss(&self) -> bool {
        self.traffic.demand_fetch
    }
}

/// Aggregate hit/miss statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 (instruction + data) hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Shared L2 hits.
    pub l2_hits: u64,
    /// Shared L2 misses (LLC misses).
    pub l2_misses: u64,
    /// LLC misses per core, for per-core MPKI (Table III).
    pub llc_misses_per_core: Vec<u64>,
}

impl HierarchyStats {
    /// LLC misses per kilo-instruction for one core.
    pub fn mpki(&self, core: CoreId, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.llc_misses_per_core[core.index()] as f64 * 1000.0 / instructions as f64
    }
}

/// Private L1 caches per core plus a shared L2, with write-back propagation:
/// dirty L1 victims are installed in L2, dirty L2 victims become memory
/// writebacks.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: SetAssocCache,
    line_bytes: u64,
    /// `line_bytes.trailing_zeros()` when the line size is a power of two
    /// (all Table II configurations): the per-access byte→line conversion
    /// runs twice per simulated record, so it becomes a shift.
    line_shift: Option<u32>,
    l1_latency: u32,
    l2_latency: u32,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cfg.core.cores` cores.
    pub fn new(cfg: &SystemConfig) -> Self {
        let cores = usize::from(cfg.core.cores);
        Self {
            l1i: (0..cores).map(|_| SetAssocCache::new(cfg.l1i)).collect(),
            l1d: (0..cores).map(|_| SetAssocCache::new(cfg.l1d)).collect(),
            l2: SetAssocCache::new(cfg.l2),
            line_bytes: u64::from(cfg.l2.line_bytes),
            line_shift: u64::from(cfg.l2.line_bytes)
                .is_power_of_two()
                .then(|| cfg.l2.line_bytes.trailing_zeros()),
            l1_latency: cfg.l1d.latency_cycles,
            l2_latency: cfg.l2.latency_cycles,
            stats: HierarchyStats {
                llc_misses_per_core: vec![0; cores],
                ..Default::default()
            },
        }
    }

    /// Statistics accumulated so far.
    pub const fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Performs a data load/store from `core`.
    pub fn access_data(&mut self, core: CoreId, addr: PhysAddr, is_write: bool) -> HierarchyAccess {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.access(core, addr, kind, false)
    }

    /// Performs an instruction fetch from `core`.
    pub fn access_inst(&mut self, core: CoreId, addr: PhysAddr) -> HierarchyAccess {
        self.access(core, addr, AccessKind::Read, true)
    }

    /// Clears all cache contents and statistics.
    pub fn reset(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.reset();
        }
        self.l2.reset();
        let cores = self.stats.llc_misses_per_core.len();
        self.stats = HierarchyStats {
            llc_misses_per_core: vec![0; cores],
            ..Default::default()
        };
    }

    fn access(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        kind: AccessKind,
        is_fetch: bool,
    ) -> HierarchyAccess {
        let line = match self.line_shift {
            Some(s) => addr.value() >> s,
            None => addr.value() / self.line_bytes,
        };
        let l1 = if is_fetch {
            // silcfm-lint: allow(P1) -- per-core vectors are sized to the core count at construction
            &mut self.l1i[core.index()]
        } else {
            // silcfm-lint: allow(P1) -- per-core vectors are sized to the core count at construction
            &mut self.l1d[core.index()]
        };

        let l1_res = l1.access(line, kind);
        if l1_res.hit {
            self.stats.l1_hits += 1;
            return HierarchyAccess {
                latency_cycles: self.l1_latency,
                traffic: MissTraffic::default(),
            };
        }
        self.stats.l1_misses += 1;

        let mut traffic = MissTraffic::default();
        // A dirty L1 victim is written into L2; if L2 must evict a dirty
        // line to take it, that line goes to memory.
        if let Some(victim_line) = l1_res.writeback {
            let wb = self.l2.access(victim_line, AccessKind::Write);
            if let Some(l2_victim) = wb.writeback {
                traffic
                    .writebacks
                    .push(PhysAddr::new(l2_victim * self.line_bytes));
            }
        }

        let l2_res = self.l2.access(line, kind);
        if l2_res.hit {
            self.stats.l2_hits += 1;
            return HierarchyAccess {
                latency_cycles: self.l1_latency + self.l2_latency,
                traffic,
            };
        }
        self.stats.l2_misses += 1;
        // silcfm-lint: allow(P1) -- per-core vectors are sized to the core count at construction
        self.stats.llc_misses_per_core[core.index()] += 1;
        traffic.demand_fetch = true;
        if let Some(l2_victim) = l2_res.writeback {
            traffic
                .writebacks
                .push(PhysAddr::new(l2_victim * self.line_bytes));
        }
        HierarchyAccess {
            latency_cycles: self.l1_latency + self.l2_latency,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::SystemConfig;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(&SystemConfig::small())
    }

    #[test]
    fn first_touch_misses_all_levels() {
        let mut h = hierarchy();
        let res = h.access_data(CoreId::new(0), PhysAddr::new(0x1000), false);
        assert!(res.is_llc_miss());
        assert_eq!(res.latency_cycles, 4 + 11);
        assert_eq!(h.stats().l2_misses, 1);
        assert_eq!(h.stats().llc_misses_per_core[0], 1);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x1000);
        h.access_data(CoreId::new(0), a, false);
        let res = h.access_data(CoreId::new(0), a, false);
        assert!(!res.is_llc_miss());
        assert_eq!(res.latency_cycles, 4);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn sibling_core_hits_shared_l2() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x1000);
        h.access_data(CoreId::new(0), a, false);
        let res = h.access_data(CoreId::new(1), a, false);
        assert!(!res.is_llc_miss(), "shared L2 services the sibling");
        assert_eq!(res.latency_cycles, 4 + 11);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn instruction_and_data_l1_are_separate() {
        let mut h = hierarchy();
        let a = PhysAddr::new(0x2000);
        h.access_inst(CoreId::new(0), a);
        // A data access to the same line still misses its own L1 (hits L2).
        let res = h.access_data(CoreId::new(0), a, false);
        assert_eq!(res.latency_cycles, 4 + 11);
    }

    #[test]
    fn writeback_traffic_is_reported() {
        // Direct check with a tiny L2: 1 set of 2 ways.
        let cfg = SystemConfig {
            l1d: silcfm_types::CacheParams {
                capacity_bytes: 128,
                ways: 1,
                line_bytes: 64,
                latency_cycles: 4,
            },
            l2: silcfm_types::CacheParams {
                capacity_bytes: 128,
                ways: 2,
                line_bytes: 64,
                latency_cycles: 11,
            },
            ..SystemConfig::small()
        };
        let mut h = CacheHierarchy::new(&cfg);
        let c = CoreId::new(0);
        // Three writes to distinct lines in L2's single set; the third evicts
        // the (dirty) first.
        h.access_data(c, PhysAddr::new(0), true);
        h.access_data(c, PhysAddr::new(64), true);
        let res = h.access_data(c, PhysAddr::new(128), true);
        assert!(res.is_llc_miss());
        assert!(
            !res.traffic.writebacks.is_empty(),
            "dirty L2 victim must be written back: {res:?}"
        );
    }

    #[test]
    fn one_access_writes_back_at_most_two_lines() {
        // One 2-way set at both levels. The fourth store's dirty L1 victim
        // (64) misses L2 and evicts dirty 0; its demand fill then evicts
        // dirty 128: the `MAX_WRITEBACKS` bound is reached.
        let two_way_set = |latency_cycles| silcfm_types::CacheParams {
            capacity_bytes: 128,
            ways: 2,
            line_bytes: 64,
            latency_cycles,
        };
        let cfg = SystemConfig {
            l1d: two_way_set(4),
            l2: two_way_set(11),
            ..SystemConfig::small()
        };
        let mut h = CacheHierarchy::new(&cfg);
        let c = CoreId::new(0);
        for addr in [0, 64, 128] {
            h.access_data(c, PhysAddr::new(addr), true);
        }
        let res = h.access_data(c, PhysAddr::new(192), true);
        assert_eq!(res.traffic.writebacks.len(), MAX_WRITEBACKS);
        assert_eq!(
            *res.traffic.writebacks,
            [PhysAddr::new(0), PhysAddr::new(128)]
        );
    }

    #[test]
    fn mpki_accounting() {
        let mut h = hierarchy();
        for i in 0..10 {
            h.access_data(CoreId::new(0), PhysAddr::new(i * 4096), false);
        }
        let mpki = h.stats().mpki(CoreId::new(0), 1000);
        assert!((mpki - 10.0).abs() < 1e-12);
        assert_eq!(h.stats().mpki(CoreId::new(1), 0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut h = hierarchy();
        h.access_data(CoreId::new(0), PhysAddr::new(0), false);
        h.reset();
        assert_eq!(h.stats().l2_misses, 0);
        let res = h.access_data(CoreId::new(0), PhysAddr::new(0), false);
        assert!(res.is_llc_miss());
    }
}
