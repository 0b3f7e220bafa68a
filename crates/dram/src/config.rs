//! DRAM device configuration and the Table II presets.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use core::fmt;

use silcfm_types::SilcFmError;

use crate::energy::EnergyParams;

/// Core DRAM timing constraints, in memory-controller cycles.
///
/// Table II's timing cells did not survive the source text's OCR; standard
/// DDR3-1600 values (11-11-11-28) are used for both devices, consistent with
/// the paper's statement that NM offers only "slightly reduced" latency and
/// that its advantage is bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTimings {
    /// CAS latency (column access) in memory cycles.
    pub t_cas: u64,
    /// RAS-to-CAS delay (activate to column command).
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Minimum row-active time (activate to precharge).
    pub t_ras: u64,
}

impl DramTimings {
    /// DDR3-1600-like 11-11-11-28.
    pub const fn ddr3_1600() -> Self {
        Self {
            t_cas: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
        }
    }

    /// HBM generation 2 at the same 800 MHz bus clock; identical cycle
    /// counts, marginally lower effective latency through wider/closer I/O.
    pub const fn hbm2() -> Self {
        Self {
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_ras: 26,
        }
    }

    /// Closed-row access latency: activate + column access.
    pub const fn row_miss_latency(&self) -> u64 {
        self.t_rcd + self.t_cas
    }

    /// Conflict latency: precharge + activate + column access.
    pub const fn row_conflict_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas
    }
}

/// Full configuration of one DRAM device (NM or FM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of independent channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Row-buffer size in bytes (open-page policy).
    pub row_bytes: u64,
    /// Data-bus width in bits (per channel).
    pub bus_bits: u32,
    /// Bus clock in MHz (double data rate assumed).
    pub bus_mhz: u32,
    /// Read-queue capacity per channel.
    pub read_queue: u32,
    /// Write-queue capacity per channel.
    pub write_queue: u32,
    /// Timing constraints.
    pub timings: DramTimings,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// CPU cycles per memory cycle (3.2 GHz CPU / 800 MHz bus = 4).
    pub cpu_cycles_per_mem_cycle: u64,
}

impl DramConfig {
    /// The Table II HBM2 near memory: 8 channels × 128-bit @ 800 MHz
    /// (1.6 GT/s), 8 banks, 8 KB rows, 32-entry queues.
    pub const fn hbm2() -> Self {
        Self {
            name: "HBM2",
            channels: 8,
            ranks: 1,
            banks: 8,
            row_bytes: 8 << 10,
            bus_bits: 128,
            bus_mhz: 800,
            read_queue: 32,
            write_queue: 32,
            timings: DramTimings::hbm2(),
            energy: EnergyParams::hbm2(),
            cpu_cycles_per_mem_cycle: 4,
        }
    }

    /// The Table II DDR3 far memory: 4 channels × 64-bit @ 800 MHz
    /// (1.6 GT/s), 8 banks, 8 KB rows, 32-entry queues.
    pub const fn ddr3() -> Self {
        Self {
            name: "DDR3",
            channels: 4,
            ranks: 1,
            banks: 8,
            row_bytes: 8 << 10,
            bus_bits: 64,
            bus_mhz: 800,
            read_queue: 32,
            write_queue: 32,
            timings: DramTimings::ddr3_1600(),
            energy: EnergyParams::ddr3(),
            cpu_cycles_per_mem_cycle: 4,
        }
    }

    /// Bytes transferred per memory cycle per channel (double data rate).
    pub const fn bus_bytes_per_cycle(&self) -> u64 {
        (self.bus_bits as u64 / 8) * 2
    }

    /// Memory cycles the data bus is occupied by a transfer of `bytes`.
    ///
    /// Called once per 64 B chunk of every transfer; real bus widths make
    /// `bus_bytes_per_cycle` a power of two, turning the rounding division
    /// into a shift.
    pub fn burst_cycles(&self, bytes: u32) -> u64 {
        let per_cycle = self.bus_bytes_per_cycle();
        if per_cycle.is_power_of_two() {
            (u64::from(bytes) + per_cycle - 1) >> per_cycle.trailing_zeros()
        } else {
            u64::from(bytes).div_ceil(per_cycle)
        }
    }

    /// Theoretical peak bandwidth across all channels, in GB/s.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        let bytes_per_sec = self.bus_bytes_per_cycle() as f64
            * f64::from(self.bus_mhz)
            * 1e6
            * f64::from(self.channels);
        bytes_per_sec / 1e9
    }

    /// Total banks across the device.
    pub const fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks
    }

    /// Validates the structural invariants the address mapper and channel
    /// model rely on. The Table II presets always pass; hand-built
    /// configurations go through here before a model is constructed.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::DramConfig`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), SilcFmError> {
        if self.channels == 0 {
            return Err(SilcFmError::dram_config("channel count must be non-zero"));
        }
        if self.ranks == 0 || self.banks == 0 {
            return Err(SilcFmError::dram_config(
                "ranks and banks per channel must be non-zero",
            ));
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err(SilcFmError::dram_config(format!(
                "row size must be a non-zero power of two, got {}",
                self.row_bytes
            )));
        }
        if self.bus_bits == 0 || !self.bus_bits.is_multiple_of(8) {
            return Err(SilcFmError::dram_config(format!(
                "bus width must be a non-zero multiple of 8 bits, got {}",
                self.bus_bits
            )));
        }
        if self.bus_mhz == 0 {
            return Err(SilcFmError::dram_config("bus clock must be non-zero"));
        }
        if self.read_queue == 0 || self.write_queue == 0 {
            return Err(SilcFmError::dram_config(
                "read and write queue capacities must be non-zero",
            ));
        }
        if self.cpu_cycles_per_mem_cycle == 0 {
            return Err(SilcFmError::dram_config(
                "CPU:memory clock ratio must be non-zero",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for DramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}ch x {}bit @ {}MHz DDR ({:.1} GB/s peak)",
            self.name,
            self.channels,
            self.bus_bits,
            self.bus_mhz,
            self.peak_bandwidth_gbs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bandwidth_ratio_is_4_to_1() {
        let nm = DramConfig::hbm2();
        let fm = DramConfig::ddr3();
        assert!((nm.peak_bandwidth_gbs() - 204.8).abs() < 1e-9);
        assert!((fm.peak_bandwidth_gbs() - 51.2).abs() < 1e-9);
        assert!((nm.peak_bandwidth_gbs() / fm.peak_bandwidth_gbs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn burst_cycles() {
        let nm = DramConfig::hbm2();
        // 128-bit DDR = 32 B per memory cycle; 64 B takes 2 cycles.
        assert_eq!(nm.bus_bytes_per_cycle(), 32);
        assert_eq!(nm.burst_cycles(64), 2);
        let fm = DramConfig::ddr3();
        // 64-bit DDR = 16 B per memory cycle; 64 B takes 4 cycles.
        assert_eq!(fm.burst_cycles(64), 4);
        // Partial transfers round up.
        assert_eq!(fm.burst_cycles(8), 1);
    }

    #[test]
    fn timing_helpers() {
        let t = DramTimings::ddr3_1600();
        assert_eq!(t.row_miss_latency(), 22);
        assert_eq!(t.row_conflict_latency(), 33);
    }

    #[test]
    fn bank_counts_match_table2() {
        assert_eq!(DramConfig::hbm2().total_banks(), 64);
        assert_eq!(DramConfig::ddr3().total_banks(), 32);
    }

    #[test]
    fn presets_validate() {
        assert!(DramConfig::hbm2().validate().is_ok());
        assert!(DramConfig::ddr3().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        type Breakage = (&'static str, fn(&mut DramConfig));
        let breakages: [Breakage; 7] = [
            ("channel", |c| c.channels = 0),
            ("banks", |c| c.banks = 0),
            ("row", |c| c.row_bytes = 3000),
            ("bus width", |c| c.bus_bits = 12),
            ("bus clock", |c| c.bus_mhz = 0),
            ("queue", |c| c.read_queue = 0),
            ("clock ratio", |c| c.cpu_cycles_per_mem_cycle = 0),
        ];
        for (what, breakage) in breakages {
            let mut cfg = DramConfig::ddr3();
            breakage(&mut cfg);
            let err = cfg.validate().expect_err(what);
            assert!(
                matches!(err, SilcFmError::DramConfig { .. }),
                "{what}: {err}"
            );
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn display_is_informative() {
        let s = DramConfig::hbm2().to_string();
        assert!(s.contains("HBM2"));
        assert!(s.contains("204.8"));
    }
}
