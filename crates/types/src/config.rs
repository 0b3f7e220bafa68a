//! System configuration mirroring Table II of the paper.

use core::fmt;

use crate::geometry::Geometry;

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in CPU cycles.
    pub latency_cycles: u32,
}

impl CacheParams {
    /// Number of sets implied by capacity, ways and line size.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not divide evenly.
    pub fn sets(&self) -> u64 {
        let lines = self.capacity_bytes / u64::from(self.line_bytes);
        assert_eq!(
            lines % u64::from(self.ways),
            0,
            "capacity must divide evenly into ways"
        );
        lines / u64::from(self.ways)
    }
}

/// Core pipeline parameters (Table II "Processor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreParams {
    /// Number of cores.
    pub cores: u16,
    /// Core frequency in MHz (3.2 GHz in the paper).
    pub freq_mhz: u32,
    /// Issue/retire width (4-wide in the paper).
    pub width: u32,
    /// Reorder-buffer entries per core (128 in the paper).
    pub rob_entries: u32,
}

/// The full Table II system configuration.
///
/// # Example
///
/// ```
/// use silcfm_types::SystemConfig;
/// let cfg = SystemConfig::paper();
/// assert_eq!(cfg.core.cores, 16);
/// assert_eq!(cfg.l2.capacity_bytes, 8 << 20);
/// assert_eq!(cfg.geometry.block_bytes(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Core pipeline parameters.
    pub core: CoreParams,
    /// Private L1 instruction cache.
    pub l1i: CacheParams,
    /// Private L1 data cache.
    pub l1d: CacheParams,
    /// Shared L2 (the LLC in the paper's hierarchy).
    pub l2: CacheParams,
    /// Subblock / large-block geometry (64 B / 2 KB).
    pub geometry: Geometry,
    /// FM:NM capacity ratio (4 in the paper's main experiments).
    pub fm_to_nm_ratio: u64,
}

impl SystemConfig {
    /// The configuration used throughout the paper's evaluation (Table II).
    pub const fn paper() -> Self {
        Self {
            core: CoreParams {
                cores: 16,
                freq_mhz: 3200,
                width: 4,
                rob_entries: 128,
            },
            l1i: CacheParams {
                capacity_bytes: 64 << 10,
                ways: 2,
                line_bytes: 64,
                latency_cycles: 4,
            },
            l1d: CacheParams {
                capacity_bytes: 16 << 10,
                ways: 4,
                line_bytes: 64,
                latency_cycles: 4,
            },
            l2: CacheParams {
                capacity_bytes: 8 << 20,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 11,
            },
            geometry: Geometry::paper(),
            fm_to_nm_ratio: 4,
        }
    }

    /// The configuration the experiment harnesses run with: Table II's
    /// cores and memories, but with the LLC scaled from 8 MiB to 1 MiB.
    ///
    /// The synthetic workloads shrink the paper's multi-gigabyte footprints
    /// by roughly two orders of magnitude so experiments finish in seconds;
    /// keeping the LLC at its full 8 MiB would let it swallow hot sets that
    /// are hundreds of times larger than the LLC in the paper's setup,
    /// hiding exactly the memory-level reuse the flat-memory schemes
    /// compete over. Scaling the LLC with the footprints preserves the
    /// paper's footprint:LLC ratio (see DESIGN.md, substitutions).
    pub const fn experiment() -> Self {
        Self {
            l2: CacheParams {
                capacity_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 11,
            },
            ..Self::paper()
        }
    }

    /// A scaled-down configuration for fast tests and `--quick` experiment
    /// runs: 4 cores, 1 MB LLC, same geometry and ratios.
    pub const fn small() -> Self {
        Self {
            core: CoreParams {
                cores: 4,
                freq_mhz: 3200,
                width: 4,
                rob_entries: 128,
            },
            l1i: CacheParams {
                capacity_bytes: 32 << 10,
                ways: 2,
                line_bytes: 64,
                latency_cycles: 4,
            },
            l1d: CacheParams {
                capacity_bytes: 16 << 10,
                ways: 4,
                line_bytes: 64,
                latency_cycles: 4,
            },
            l2: CacheParams {
                capacity_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
                latency_cycles: 11,
            },
            geometry: Geometry::paper(),
            fm_to_nm_ratio: 4,
        }
    }

    /// CPU cycles per nanosecond.
    pub fn cycles_per_ns(&self) -> f64 {
        f64::from(self.core.freq_mhz) / 1000.0
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores @ {} MHz, {}-wide, ROB {}, L2 {} MiB/{}-way, {} , FM:NM={}:1",
            self.core.cores,
            self.core.freq_mhz,
            self.core.width,
            self.core.rob_entries,
            self.l2.capacity_bytes >> 20,
            self.l2.ways,
            self.geometry,
            self.fm_to_nm_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let cfg = SystemConfig::paper();
        assert_eq!(cfg.core.cores, 16);
        assert_eq!(cfg.core.freq_mhz, 3200);
        assert_eq!(cfg.core.width, 4);
        assert_eq!(cfg.core.rob_entries, 128);
        assert_eq!(cfg.l1i.capacity_bytes, 64 << 10);
        assert_eq!(cfg.l1i.ways, 2);
        assert_eq!(cfg.l1d.capacity_bytes, 16 << 10);
        assert_eq!(cfg.l1d.ways, 4);
        assert_eq!(cfg.l2.capacity_bytes, 8 << 20);
        assert_eq!(cfg.l2.ways, 16);
        assert_eq!(cfg.l2.latency_cycles, 11);
        assert_eq!(cfg.fm_to_nm_ratio, 4);
    }

    #[test]
    fn experiment_config_is_table2_with_scaled_llc() {
        let cfg = SystemConfig::experiment();
        assert_eq!(cfg.core.cores, 16);
        assert_eq!(cfg.l2.capacity_bytes, 1 << 20);
    }

    #[test]
    fn cache_sets() {
        let cfg = SystemConfig::paper();
        // 8 MiB / 64 B lines / 16 ways = 8192 sets.
        assert_eq!(cfg.l2.sets(), 8192);
        // 16 KiB / 64 B / 4 ways = 64 sets.
        assert_eq!(cfg.l1d.sets(), 64);
    }

    #[test]
    fn cycles_per_ns() {
        assert!((SystemConfig::paper().cycles_per_ns() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn small_config_is_smaller() {
        let s = SystemConfig::small();
        assert!(s.core.cores < SystemConfig::paper().core.cores);
        assert!(s.l2.capacity_bytes < SystemConfig::paper().l2.capacity_bytes);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(SystemConfig::paper().to_string().contains("16 cores"));
    }
}
