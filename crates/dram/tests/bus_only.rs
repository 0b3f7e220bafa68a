//! The bus-only path against a per-beat reference: every write and stream
//! must end, count and trace exactly as the documented bus rules say.
//!
//! Three parties see the same random script on each Table II preset, with
//! unaligned 8–2048 B transfers, demand reads in between, and channel
//! stalls, failures and repairs:
//!
//! * an untraced model, which keeps no write queue;
//! * a traced model, which keeps the write queue for queue-depth sampling;
//! * a per-beat reference bus, written here from the model's documented
//!   rules and sharing no code with it. It has no banks, so it re-reads bus
//!   and health state from the untraced model after each read or fault.
//!
//! The reference predicts every transfer's return value, NACK, stall and
//! busy-cycle count, every channel's bus and health, and on the traced
//! model every bus-only `DramCmdIssue` and every sampled write-queue depth.
//! The two models must agree on read completions, fault effects,
//! statistics and read-queue depths: a write queue that delayed a bus-only
//! beat would split them.

use std::collections::VecDeque;

use silcfm_dram::{ChannelHealth, DramConfig, DramModel};
use silcfm_types::check::forall;
use silcfm_types::fault::ChannelFault;
use silcfm_types::obs::{Event, RowKind, TraceEvent, Tracer};
use silcfm_types::rng::{Rng, Xoshiro256StarStar};

/// A tracer that keeps every event.
#[derive(Debug, Default)]
struct Recorder(Vec<TraceEvent>);

impl Tracer for Recorder {
    const ENABLED: bool = true;

    fn record(&mut self, at: u64, event: Event) {
        self.0.push(TraceEvent { at, event });
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.0)
    }

    fn dropped(&self) -> u64 {
        0
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A bus-only transfer: a write, or a stream in either direction.
    Transfer {
        at: u64,
        addr: u64,
        bytes: u32,
        is_write: bool,
    },
    Read {
        at: u64,
        addr: u64,
        bytes: u32,
    },
    Fault {
        at: u64,
        fault: ChannelFault,
    },
    Sample {
        at: u64,
    },
}

fn script(rng: &mut Xoshiro256StarStar, channels: u32) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut base = 0u64;
    let addr = |rng: &mut Xoshiro256StarStar| rng.gen_range(0..1u64 << 22);
    let bytes = |rng: &mut Xoshiro256StarStar| rng.gen_range(8..=2048u32);
    for _ in 0..rng.gen_range(1..160usize) {
        // Arrivals mostly advance but may step back, as a record's lagged
        // traffic trails the next record's critical reads.
        if rng.gen_bool(0.15) {
            base = (base + rng.gen_range(0..4_000u64)).saturating_sub(rng.gen_range(0..600u64));
        }
        let at = base + rng.gen_range(0..8u64);
        let step = if rng.gen_bool(0.06) {
            // One past the last channel is absent: the fault is masked.
            let channel = rng.gen_range(0..=channels) as u8;
            let fault = match rng.gen_range(0..3u32) {
                0 => ChannelFault::Stall {
                    channel,
                    duration_cycles: rng.gen_range(1..6_000u64),
                },
                1 => ChannelFault::Fail { channel },
                _ => ChannelFault::Repair { channel },
            };
            Step::Fault { at, fault }
        } else if rng.gen_bool(0.05) {
            Step::Sample {
                at: at + rng.gen_range(0..2_000u64),
            }
        } else if rng.gen_bool(0.2) {
            Step::Read {
                at: at.saturating_sub(rng.gen_range(0..300u64)),
                addr: addr(rng),
                bytes: bytes(rng),
            }
        } else {
            Step::Transfer {
                at,
                addr: addr(rng),
                bytes: bytes(rng),
                is_write: rng.gen_bool(0.5),
            }
        };
        steps.push(step);
    }
    steps
}

/// The bus-only rules, beat by beat: a failed channel NACKs after twice
/// the conflict latency, a stalled one holds the beat to its horizon (or
/// heals once the horizon has passed), and a served beat takes the bus
/// from its arrival or when the bus frees, whichever is later. The write
/// queue drains the entries completed by a beat's start and, when full,
/// also those completed by the time the oldest needed slot frees.
struct ReferenceBus {
    cfg: DramConfig,
    bus_free: Vec<u64>,
    health: Vec<ChannelHealth>,
    writes: Vec<VecDeque<u64>>,
    nacks: u64,
    stalls: u64,
    busy: u64,
    /// The expected bus-only command issues: (CPU cycle, channel, outcome).
    issues: Vec<(u64, u8, RowKind)>,
}

impl ReferenceBus {
    fn new(cfg: DramConfig) -> Self {
        let n = cfg.channels as usize;
        Self {
            cfg,
            bus_free: vec![0; n],
            health: vec![ChannelHealth::Healthy; n],
            writes: vec![VecDeque::new(); n],
            nacks: 0,
            stalls: 0,
            busy: 0,
            issues: Vec::new(),
        }
    }

    /// Adopts the bus and health state of `m` (after a read or a fault,
    /// which this reference does not model).
    fn sync<T: Tracer>(&mut self, m: &DramModel<T>) {
        for ch in 0..self.cfg.channels {
            self.bus_free[ch as usize] = m.channel_bus_free_at(ch).unwrap();
            self.health[ch as usize] = m.channel_health(ch).unwrap();
        }
    }

    fn transfer(&mut self, at_cpu: u64, addr: u64, bytes: u32) -> u64 {
        let ratio = self.cfg.cpu_cycles_per_mem_cycle;
        let at = at_cpu.div_ceil(ratio);
        let bytes_per_cycle = 2 * u64::from(self.cfg.bus_bits) / 8;
        let t = self.cfg.timings;
        let cap = self.cfg.write_queue as usize;
        let mut last = at;
        let end = addr + u64::from(bytes);
        let mut cursor = addr;
        while cursor < end {
            let chunk_end = (cursor / 64 + 1) * 64;
            let burst = (chunk_end.min(end) - cursor).div_ceil(bytes_per_cycle);
            let ch = ((cursor / 64) % u64::from(self.cfg.channels)) as usize;
            cursor = chunk_end.min(end);
            let from = match self.health[ch] {
                ChannelHealth::Failed => {
                    self.nacks += 1;
                    last = last.max(at + 2 * (t.t_rp + t.t_rcd + t.t_cas));
                    self.issues.push((at_cpu, ch as u8, RowKind::Conflict));
                    continue;
                }
                ChannelHealth::Stalled { until } if at < until => {
                    self.stalls += 1;
                    until
                }
                _ => {
                    self.health[ch] = ChannelHealth::Healthy;
                    at
                }
            };
            self.issues.push((at_cpu, ch as u8, RowKind::Hit));
            self.bus_free[ch] = self.bus_free[ch].max(from) + burst;
            self.busy += burst;
            last = last.max(self.bus_free[ch]);
            let queue = &mut self.writes[ch];
            queue.retain(|&done| done > from);
            if queue.len() >= cap {
                let slot = queue[queue.len() - cap];
                queue.retain(|&done| done > slot);
            }
            queue.push_back(self.bus_free[ch]);
        }
        last * ratio
    }

    /// Write-queue entries per channel still outstanding at memory cycle
    /// `now`.
    fn write_depths(&self, now: u64) -> Vec<u64> {
        self.writes
            .iter()
            .map(|q| q.iter().filter(|&&done| done > now).count() as u64)
            .collect()
    }
}

fn check(cfg: DramConfig, steps: &[Step]) {
    let mut plain = DramModel::new(cfg);
    let mut traced = DramModel::with_tracer(cfg, Recorder::default());
    let mut reference = ReferenceBus::new(cfg);
    let mut depths = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        match step {
            Step::Transfer {
                at,
                addr,
                bytes,
                is_write,
            } => {
                let before = *plain.stats();
                let (a, b) = if is_write && addr % 2 == 0 {
                    (plain.write(at, addr, bytes), traced.write(at, addr, bytes))
                } else {
                    (
                        plain.stream(at, addr, bytes, is_write),
                        traced.stream(at, addr, bytes, is_write),
                    )
                };
                let expected = reference.transfer(at, addr, bytes);
                assert_eq!(a, expected, "return of step {i}");
                assert_eq!(b, expected, "traced return of step {i}");
                let after = plain.stats();
                assert_eq!(
                    after.nacks - before.nacks,
                    reference.nacks,
                    "nacks of step {i}"
                );
                assert_eq!(after.stall_delays - before.stall_delays, reference.stalls);
                assert_eq!(
                    after.bus_busy_cycles - before.bus_busy_cycles,
                    reference.busy
                );
                (reference.nacks, reference.stalls, reference.busy) = (0, 0, 0);
                for ch in 0..cfg.channels {
                    assert_eq!(
                        plain.channel_bus_free_at(ch),
                        Some(reference.bus_free[ch as usize])
                    );
                    assert_eq!(
                        plain.channel_health(ch),
                        Some(reference.health[ch as usize])
                    );
                }
            }
            Step::Read { at, addr, bytes } => {
                let a = plain.read(at, addr, bytes);
                let b = traced.read(at, addr, bytes);
                assert_eq!(a, b, "read of step {i}");
                reference.sync(&plain);
            }
            Step::Fault { at, fault } => {
                let a = plain.inject_channel_fault(fault, at);
                let b = traced.inject_channel_fault(fault, at);
                assert_eq!(a, b, "fault effect of step {i}");
                reference.sync(&plain);
            }
            Step::Sample { at } => {
                traced.sample_queues(at);
                let now_mem = at / cfg.cpu_cycles_per_mem_cycle;
                let expected = reference.write_depths(now_mem);
                let (reads, writes) = plain.queue_depth_totals(at);
                assert_eq!(writes, 0, "an untraced model keeps no write queue");
                assert_eq!(
                    traced.queue_depth_totals(at),
                    (reads, expected.iter().sum()),
                    "queue depths at step {i}"
                );
                depths.extend(expected);
            }
        }
        assert_eq!(plain.stats(), traced.stats(), "stats after step {i}");
        for ch in 0..cfg.channels {
            assert_eq!(
                plain.channel_bus_free_at(ch),
                traced.channel_bus_free_at(ch),
                "bus {ch} after step {i}"
            );
        }
    }
    let events = traced.drain_trace();
    let issues: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::DramCmdIssue {
                channel,
                write: true,
                outcome,
            } => Some((e.at, channel, outcome)),
            _ => None,
        })
        .collect();
    assert_eq!(issues, reference.issues, "bus-only command issues");
    let sampled: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::QueueDepthSample { writes, .. } => Some(u64::from(writes)),
            _ => None,
        })
        .collect();
    assert_eq!(sampled, depths, "sampled write-queue depths");
}

#[test]
fn bus_only_transfers_follow_the_per_beat_rules() {
    for cfg in [DramConfig::hbm2(), DramConfig::ddr3()] {
        forall("bus_only_transfers_follow_the_per_beat_rules", |rng| {
            check(cfg, &script(rng, cfg.channels));
        });
    }
}
