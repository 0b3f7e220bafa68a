//! The top-level DRAM device model.

use silcfm_types::fault::{ChannelFault, FaultEffect};
use silcfm_types::obs::{Event, FaultClass, NullTracer, RowKind, TraceEvent, Tracer};

use crate::bank::RowOutcome;
use crate::channel::{Channel, ChannelHealth};
use crate::config::DramConfig;
use crate::mapping::{AddressMapper, ChunkWalker, CHANNEL_INTERLEAVE_BYTES};
use crate::stats::DramStats;

/// The observability spelling of a row-buffer outcome.
const fn row_kind(outcome: RowOutcome) -> RowKind {
    match outcome {
        RowOutcome::Hit => RowKind::Hit,
        RowOutcome::Miss => RowKind::Miss,
        RowOutcome::Conflict => RowKind::Conflict,
    }
}

/// An event-driven model of one DRAM device (the NM or the FM).
///
/// The public interface works in **CPU cycles**; internally the model runs on
/// the memory-bus clock (`cfg.cpu_cycles_per_mem_cycle` CPU cycles per bus
/// cycle). Transactions larger than the 64 B channel-interleave granularity
/// are split into per-channel beats that proceed in parallel across
/// channels; the transaction completes when its last beat completes.
///
/// # Example
///
/// ```
/// use silcfm_dram::{DramConfig, DramModel};
/// let mut fm = DramModel::new(DramConfig::ddr3());
/// let t1 = fm.read(0, 0, 64);
/// let t2 = fm.read(t1, 0, 64); // same row: faster
/// assert!(t2 - t1 < t1);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel<T: Tracer = NullTracer> {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    stats: DramStats,
    // Observability (a ZST plus an empty Vec when T = NullTracer).
    tracer: T,
    /// Per-channel `busy_cycles` at the previous queue sample, so each
    /// `QueueDepthSample` carries the busy delta of its epoch.
    last_busy: Vec<u64>,
}

impl DramModel {
    /// Creates an untraced device model from a configuration.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel::with_tracer(cfg, NullTracer)
    }
}

impl<T: Tracer> DramModel<T> {
    /// Creates a device model that records command-issue and queue-depth
    /// events into `tracer`; see [`DramModel::new`] for the untraced
    /// spelling.
    pub fn with_tracer(cfg: DramConfig, tracer: T) -> Self {
        Self {
            mapper: AddressMapper::new(&cfg),
            channels: (0..cfg.channels).map(|_| Channel::new(&cfg)).collect(),
            stats: DramStats::default(),
            tracer,
            last_busy: vec![0; cfg.channels as usize],
            cfg,
        }
    }

    /// The device configuration.
    pub const fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub const fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Performs a read of `bytes` at device-local address `addr`, arriving at
    /// CPU-cycle `now`. Returns the CPU-cycle completion time of the last
    /// beat.
    pub fn read(&mut self, now: u64, addr: u64, bytes: u32) -> u64 {
        self.stats.reads += 1;
        self.stats.bytes_read += u64::from(bytes);
        self.transfer(now, addr, bytes, false)
    }

    /// Performs a write of `bytes` at device-local address `addr`, arriving
    /// at CPU-cycle `now`. Writes are posted: the returned completion time is
    /// when the data has drained to the array, which callers typically use
    /// only for accounting.
    pub fn write(&mut self, now: u64, addr: u64, bytes: u32) -> u64 {
        self.stats.writes += 1;
        self.stats.bytes_written += u64::from(bytes);
        self.transfer(now, addr, bytes, true)
    }

    /// Performs a low-priority streamed transfer (migration, prefetch or
    /// other management traffic) of `bytes` at device-local address `addr`.
    ///
    /// Streamed transfers consume data-bus bandwidth and write-queue slots
    /// but bypass the bank/row model: controllers schedule such traffic in
    /// row-sorted batches during idle slots, so it contends with demand for
    /// *bandwidth* without inflating demand *latency* the way a same-queue
    /// FIFO would.
    pub fn stream(&mut self, now: u64, addr: u64, bytes: u32, is_write: bool) -> u64 {
        if is_write {
            self.stats.writes += 1;
            self.stats.bytes_written += u64::from(bytes);
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += u64::from(bytes);
        }
        // Route through the bus-only path used for writes.
        self.transfer(now, addr, bytes, true)
    }

    /// Energy consumed so far in picojoules, given the elapsed CPU cycles of
    /// the run (for background power).
    pub fn energy_pj(&self, elapsed_cpu_cycles: u64) -> f64 {
        let cpu_hz = f64::from(self.cfg.bus_mhz) * 1e6 * self.cfg.cpu_cycles_per_mem_cycle as f64;
        let seconds = elapsed_cpu_cycles as f64 / cpu_hz;
        self.cfg
            .energy
            .energy_pj(self.stats.total_bytes(), self.stats.activations(), seconds)
    }

    /// Resets all channel state and statistics.
    pub fn reset(&mut self) {
        self.channels = (0..self.cfg.channels)
            .map(|_| Channel::new(&self.cfg))
            .collect();
        self.stats.reset();
        self.last_busy.fill(0);
    }

    /// Emits one [`Event::QueueDepthSample`] per channel, stamped at CPU
    /// cycle `now_cpu`: outstanding read/write queue entries plus the data
    /// bus's busy cycles since the previous sample. A no-op when tracing
    /// is disabled.
    pub fn sample_queues(&mut self, now_cpu: u64) {
        if !T::ENABLED {
            return;
        }
        let now_mem = now_cpu / self.cfg.cpu_cycles_per_mem_cycle;
        for (i, (channel, last)) in self
            .channels
            .iter()
            .zip(self.last_busy.iter_mut())
            .enumerate()
        {
            let busy = channel.busy_cycles();
            let delta = busy.saturating_sub(*last);
            *last = busy;
            let (reads, writes) = channel.queue_depths(now_mem);
            self.tracer.record(
                now_cpu,
                Event::QueueDepthSample {
                    channel: i as u8,
                    reads: reads.min(u16::MAX as usize) as u16,
                    writes: writes.min(u16::MAX as usize) as u16,
                    busy: delta.min(u64::from(u32::MAX)) as u32,
                },
            );
        }
    }

    /// Summed outstanding (read, write) queue entries across channels at
    /// CPU cycle `now_cpu`, for the epoch time series.
    pub fn queue_depth_totals(&self, now_cpu: u64) -> (u64, u64) {
        let now_mem = now_cpu / self.cfg.cpu_cycles_per_mem_cycle;
        self.channels.iter().fold((0, 0), |(r, w), channel| {
            let (cr, cw) = channel.queue_depths(now_mem);
            (r + cr as u64, w + cw as u64)
        })
    }

    /// Applies a channel fault arriving at CPU cycle `now_cpu` and returns
    /// its effect classification (DESIGN.md §10).
    ///
    /// Stall durations in the fault are CPU cycles and are converted to the
    /// memory clock here. Faults naming a channel the device does not have
    /// are absorbed as [`FaultEffect::Masked`].
    pub fn inject_channel_fault(&mut self, fault: ChannelFault, now_cpu: u64) -> FaultEffect {
        let ratio = self.cfg.cpu_cycles_per_mem_cycle;
        let now_mem = now_cpu / ratio;
        let Some(channel) = self.channels.get_mut(fault.channel() as usize) else {
            return FaultEffect::Masked;
        };
        let (class, effect) = match fault {
            ChannelFault::Stall {
                duration_cycles, ..
            } => {
                let until = now_mem + duration_cycles.div_ceil(ratio).max(1);
                channel.set_health(ChannelHealth::Stalled { until });
                // Timing-only: every access still completes, just later.
                (FaultClass::ChannelStall, FaultEffect::Corrected)
            }
            ChannelFault::Fail { .. } => {
                channel.set_health(ChannelHealth::Failed);
                // Service survives through the NACK-and-retry path; no data
                // is lost, so the failure is recovered rather than corrected.
                (FaultClass::ChannelFail, FaultEffect::Recovered)
            }
            ChannelFault::Repair { .. } => {
                let effect = if channel.health() == ChannelHealth::Healthy {
                    FaultEffect::Masked
                } else {
                    channel.set_health(ChannelHealth::Healthy);
                    FaultEffect::Corrected
                };
                (FaultClass::ChannelRepair, effect)
            }
        };
        if T::ENABLED {
            self.tracer.record(
                now_cpu,
                Event::FaultInjected {
                    kind: class,
                    target: u32::from(fault.channel()),
                },
            );
        }
        effect
    }

    /// Health of channel `ch`, or `None` for a channel the device lacks
    /// (diagnostics and tests).
    pub fn channel_health(&self, ch: u32) -> Option<ChannelHealth> {
        self.channels.get(ch as usize).map(Channel::health)
    }

    /// Takes the buffered trace events (oldest first).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// Events discarded because the trace buffer was full.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    fn transfer(&mut self, now_cpu: u64, addr: u64, bytes: u32, is_write: bool) -> u64 {
        let ratio = self.cfg.cpu_cycles_per_mem_cycle;
        // The CPU:bus clock ratio is 4 in every Table II configuration, so
        // the rounding division reduces to a shift.
        let now_mem = if ratio.is_power_of_two() {
            (now_cpu + ratio - 1) >> ratio.trailing_zeros()
        } else {
            now_cpu.div_ceil(ratio)
        };
        let mut last_completion = now_mem;

        let end = addr + u64::from(bytes);
        let mut cursor = addr;
        // One decode for the whole transfer; the walker's increments track
        // the channel rotation and row crossings of consecutive chunks.
        let mut walker = ChunkWalker::new(&self.mapper, addr);
        while cursor < end {
            let chunk_end = ((cursor / CHANNEL_INTERLEAVE_BYTES) + 1) * CHANNEL_INTERLEAVE_BYTES;
            let chunk_bytes = (chunk_end.min(end) - cursor) as u32;
            let loc = walker.location();
            let burst = self.cfg.burst_cycles(chunk_bytes);
            // The mapper reduces every address modulo `cfg.channels`, so the
            // probe cannot miss; breaking keeps the walk panic-free anyway.
            let Some(channel) = self.channels.get_mut(loc.channel as usize) else {
                debug_assert!(false, "mapper yields channel < cfg.channels");
                break;
            };
            let acc = channel.access(now_mem, loc, burst, is_write, &self.cfg);
            if T::ENABLED {
                self.tracer.record(
                    now_cpu,
                    Event::DramCmdIssue {
                        channel: loc.channel as u8,
                        write: is_write,
                        outcome: row_kind(acc.outcome),
                    },
                );
            }
            // Row-buffer statistics describe the read stream; writes are
            // batch-drained and bypass the bank model (see `Channel`), and a
            // NACKed beat never reached a bank at all.
            if acc.nacked {
                self.stats.nacks += 1;
            } else if !is_write {
                match acc.outcome {
                    RowOutcome::Hit => self.stats.row_hits += 1,
                    RowOutcome::Miss => self.stats.row_misses += 1,
                    RowOutcome::Conflict => self.stats.row_conflicts += 1,
                }
            }
            if acc.stalled {
                self.stats.stall_delays += 1;
            }
            self.stats.bus_busy_cycles += acc.burst;
            last_completion = last_completion.max(acc.completion);
            cursor = chunk_end.min(end);
            walker.advance();
        }
        last_completion * ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_latency_components() {
        let cfg = DramConfig::ddr3();
        let mut m = DramModel::new(cfg);
        let done = m.read(0, 0, 64);
        // Row miss: tRCD + tCAS + burst(4) memory cycles, ×4 CPU cycles.
        let expected = (cfg.timings.row_miss_latency() + 4) * 4;
        assert_eq!(done, expected);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut m = DramModel::new(DramConfig::ddr3());
        let t1 = m.read(0, 0, 64);
        let t2 = m.read(t1, 0, 64);
        assert!(t2 - t1 < t1);
        assert_eq!(m.stats().row_hits, 1);
        assert_eq!(m.stats().row_misses, 1);
    }

    #[test]
    fn large_transfer_spreads_across_channels() {
        let cfg = DramConfig::hbm2();
        let mut m = DramModel::new(cfg);
        // 2 KB = 32 beats over 8 channels = 4 beats per channel.
        let done = m.read(0, 0, 2048);
        // Each channel: miss latency + 4 bursts of 2 cycles = 20+8 = 28 mem cycles.
        let expected = (cfg.timings.row_miss_latency() + 4 * 2) * 4;
        assert_eq!(done, expected);
        assert_eq!(m.stats().row_hits + m.stats().row_misses, 32);
    }

    #[test]
    fn hbm_moves_2kb_faster_than_ddr3() {
        let mut nm = DramModel::new(DramConfig::hbm2());
        let mut fm = DramModel::new(DramConfig::ddr3());
        assert!(nm.read(0, 0, 2048) < fm.read(0, 0, 2048));
    }

    #[test]
    fn sustained_streaming_approaches_peak_bandwidth() {
        let cfg = DramConfig::hbm2();
        let mut m = DramModel::new(cfg);
        // Issue the whole 1 MiB stream at time 0; the finite read queues
        // provide back-pressure and the model pipelines the beats.
        let total_bytes = 1u64 << 20;
        let mut t = 0u64;
        let mut addr = 0u64;
        while addr < total_bytes {
            t = t.max(m.read(0, addr, 64));
            addr += 64;
        }
        // Achieved bandwidth in bytes per CPU cycle vs peak.
        let cpu_hz = 3.2e9;
        let seconds = t as f64 / cpu_hz;
        let gbs = total_bytes as f64 / seconds / 1e9;
        let peak = cfg.peak_bandwidth_gbs();
        assert!(
            gbs > peak * 0.5,
            "streaming should reach at least half of peak: {gbs:.1} vs {peak:.1} GB/s"
        );
        assert!(gbs <= peak * 1.01, "cannot exceed peak: {gbs:.1} GB/s");
    }

    #[test]
    fn writes_are_counted() {
        let mut m = DramModel::new(DramConfig::ddr3());
        let _ = m.write(0, 0, 64);
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().bytes_written, 64);
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut m = DramModel::new(DramConfig::ddr3());
        let e0 = m.energy_pj(1000);
        let _ = m.read(0, 0, 2048);
        let e1 = m.energy_pj(1000);
        assert!(e1 > e0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut m = DramModel::new(DramConfig::ddr3());
        let t1 = m.read(0, 0, 64);
        m.reset();
        assert_eq!(m.stats().reads, 0);
        assert_eq!(
            m.read(0, 0, 64),
            t1,
            "reset model repeats first-access timing"
        );
    }

    #[test]
    fn arrival_time_is_respected() {
        let mut m = DramModel::new(DramConfig::ddr3());
        let done = m.read(10_000, 0, 64);
        assert!(done > 10_000);
    }

    #[test]
    fn failed_channel_nacks_reads_until_repaired() {
        let cfg = DramConfig::ddr3();
        let mut m = DramModel::new(cfg);
        let healthy = m.read(0, 0, 64);
        m.reset();
        assert_eq!(
            m.inject_channel_fault(ChannelFault::Fail { channel: 0 }, 0),
            FaultEffect::Recovered
        );
        assert_eq!(m.channel_health(0), Some(ChannelHealth::Failed));
        // Address 0 maps to channel 0: the read bounces with the penalty.
        let nacked = m.read(0, 0, 64);
        assert_eq!(m.stats().nacks, 1);
        assert_eq!(m.stats().row_hits + m.stats().row_misses, 0);
        assert_eq!(
            nacked,
            2 * cfg.timings.row_conflict_latency() * cfg.cpu_cycles_per_mem_cycle
        );
        // Other channels are unaffected.
        let other = m.read(0, 64, 64);
        assert!(!matches!(m.channel_health(1), Some(ChannelHealth::Failed)));
        assert!(other >= healthy);
        assert_eq!(
            m.inject_channel_fault(ChannelFault::Repair { channel: 0 }, 0),
            FaultEffect::Corrected
        );
        m.reset();
        assert_eq!(m.read(0, 0, 64), healthy);
    }

    #[test]
    fn stalled_channel_delays_and_self_heals() {
        let cfg = DramConfig::ddr3();
        let mut m = DramModel::new(cfg);
        let healthy = m.read(0, 0, 64);
        m.reset();
        assert_eq!(
            m.inject_channel_fault(
                ChannelFault::Stall {
                    channel: 0,
                    duration_cycles: 4_000,
                },
                0,
            ),
            FaultEffect::Corrected
        );
        // The beat arrives at CPU cycle 0 but is held to the stall horizon.
        let delayed = m.read(0, 0, 64);
        assert!(delayed >= 4_000, "stall must delay completion: {delayed}");
        assert_eq!(m.stats().stall_delays, 1);
        // A later arrival finds the channel healed.
        let after = m.read(40_000, 0, 64);
        assert_eq!(m.channel_health(0), Some(ChannelHealth::Healthy));
        assert!(after - 40_000 <= healthy);
    }

    #[test]
    fn faults_on_absent_channels_are_masked() {
        let mut m = DramModel::new(DramConfig::ddr3());
        assert_eq!(
            m.inject_channel_fault(ChannelFault::Fail { channel: 200 }, 0),
            FaultEffect::Masked
        );
        // Repairing an already-healthy channel has no observable target.
        assert_eq!(
            m.inject_channel_fault(ChannelFault::Repair { channel: 0 }, 0),
            FaultEffect::Masked
        );
        assert_eq!(m.channel_health(200), None);
    }
}
