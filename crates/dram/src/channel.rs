//! Per-channel state: banks, shared data bus, and the read queue.

use std::collections::VecDeque;

use crate::bank::{Bank, RowOutcome};
use crate::config::DramConfig;
use crate::mapping::Location;

/// Health of one channel under fault injection (DESIGN.md §10).
///
/// A healthy channel serves accesses normally. A stalled channel holds
/// arrivals until a known memory cycle and then heals itself (a recoverable
/// glitch: retraining, refresh storm, thermal throttle). A failed channel
/// NACKs every access after a fixed penalty until an explicit repair fault
/// restores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelHealth {
    /// Normal service.
    #[default]
    Healthy,
    /// Transiently stalled: arrivals are delayed to `until`, after which
    /// the channel heals itself.
    Stalled {
        /// Memory cycle at which service resumes.
        until: u64,
    },
    /// Hard-failed: every access is NACKed until an explicit repair.
    Failed,
}

/// One DRAM channel: a set of banks behind a shared command/data bus, with
/// a finite read queue providing back-pressure.
///
/// Reads go through [`access`](Self::access): read-queue admission, the
/// bank's row-buffer timing, then the bus. Writes and streams are bus-only:
/// real controllers buffer them and drain them in row-sorted batches, so
/// they hold the data bus for their burst without touching bank state. The
/// device model checks each such beat's arrival against the channel's
/// health (`arrive`) and holds the bus for it (`occupy`).
///
/// There is no write queue here. Its admission cannot move a bus-only
/// completion (the inertness lemma): every queued write completion was a
/// `bus_free_at` when it was pushed, and `bus_free_at` never falls, so a
/// full queue's wait `admitted <= bus_free_at` and the beat starts at
/// `max(arrival, bus_free_at)` either way. The queue is therefore
/// observability state only, and traced device models keep it
/// ([`crate::DramModel`]).
///
/// All times are memory cycles.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Bank>,
    bus_free_at: u64,
    read_inflight: VecDeque<u64>,
    read_cap: usize,
    /// Total memory cycles the data bus has been held (for occupancy
    /// metrics; the observability layer samples deltas of this).
    busy_cycles: u64,
    /// Fault-injection health state; `Healthy` unless a fault plane says
    /// otherwise, so the faults-off path is untouched.
    health: ChannelHealth,
}

/// Timing result of a channel read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAccess {
    /// Memory-cycle timestamp at which the transfer finishes.
    pub completion: u64,
    /// Row-buffer outcome at the target bank.
    pub outcome: RowOutcome,
    /// Memory cycles the data bus was held.
    pub burst: u64,
    /// The access was NACKed by a hard-failed channel (no data moved).
    pub nacked: bool,
    /// The access's arrival was delayed by a transient channel stall.
    pub stalled: bool,
}

/// When a beat arriving at a channel may start, per [`Channel::arrive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// The channel serves the beat from this memory cycle: the arrival
    /// itself, or the end of a transient stall (`stalled`).
    Ready {
        /// Earliest memory cycle the beat may start.
        from: u64,
        /// The arrival was held to a stall horizon.
        stalled: bool,
    },
    /// The channel is hard-failed: the beat bounces at `completion`
    /// without touching bus, banks or queues.
    Nacked {
        /// Memory cycle at which the NACK returns.
        completion: u64,
    },
}

impl Channel {
    /// Creates a channel with the bank count and read-queue depth of `cfg`.
    pub fn new(cfg: &DramConfig) -> Self {
        Self {
            banks: vec![Bank::new(); (cfg.ranks * cfg.banks) as usize],
            bus_free_at: 0,
            read_inflight: VecDeque::new(),
            read_cap: cfg.read_queue as usize,
            busy_cycles: 0,
            health: ChannelHealth::Healthy,
        }
    }

    /// Applies the channel's health to a beat arriving at memory-cycle
    /// `at`: a stall whose window has passed heals here.
    pub(crate) fn arrive(&mut self, at: u64, cfg: &DramConfig) -> Arrival {
        match self.health {
            ChannelHealth::Healthy => Arrival::Ready {
                from: at,
                stalled: false,
            },
            ChannelHealth::Stalled { until } => {
                if at >= until {
                    // The stall window has passed: self-heal.
                    self.health = ChannelHealth::Healthy;
                    Arrival::Ready {
                        from: at,
                        stalled: false,
                    }
                } else {
                    Arrival::Ready {
                        from: until,
                        stalled: true,
                    }
                }
            }
            // NACK: the access bounces after a fixed penalty (roughly a
            // worst-case bank turnaround). The retry goes elsewhere or waits
            // for repair.
            ChannelHealth::Failed => Arrival::Nacked {
                completion: at + 2 * cfg.timings.row_conflict_latency(),
            },
        }
    }

    /// Holds the data bus for `burst` cycles from `from` or from when it
    /// frees, whichever is later, and returns the completion.
    pub(crate) fn occupy(&mut self, from: u64, burst: u64) -> u64 {
        let completion = from.max(self.bus_free_at) + burst;
        self.bus_free_at = completion;
        self.busy_cycles += burst;
        completion
    }

    /// Performs one read of `burst` bus cycles at `loc`, arriving at
    /// memory-cycle `at`.
    pub fn access(
        &mut self,
        at: u64,
        loc: Location,
        burst: u64,
        cfg: &DramConfig,
    ) -> ChannelAccess {
        let (at, stalled) = match self.arrive(at, cfg) {
            Arrival::Ready { from, stalled } => (from, stalled),
            Arrival::Nacked { completion } => {
                return ChannelAccess {
                    completion,
                    outcome: RowOutcome::Conflict,
                    burst: 0,
                    nacked: true,
                    stalled: false,
                };
            }
        };
        let admitted = admit(&mut self.read_inflight, self.read_cap, at);
        let Some(bank) = self.banks.get_mut(loc.bank_in_channel(cfg)) else {
            debug_assert!(false, "mapper yields bank < ranks * banks");
            return ChannelAccess {
                completion: admitted,
                outcome: RowOutcome::Hit,
                burst: 0,
                nacked: false,
                stalled,
            };
        };
        let (data_at, outcome) = bank.access(admitted, loc.row, &cfg.timings);
        let completion = self.occupy(data_at, burst);
        self.read_inflight.push_back(completion);
        ChannelAccess {
            completion,
            outcome,
            burst,
            nacked: false,
            stalled,
        }
    }

    /// Current fault-injection health state.
    pub const fn health(&self) -> ChannelHealth {
        self.health
    }

    /// Sets the health state (called by the fault plane).
    pub fn set_health(&mut self, health: ChannelHealth) {
        self.health = health;
    }

    /// Earliest time the shared data bus is free.
    pub const fn bus_free_at(&self) -> u64 {
        self.bus_free_at
    }

    /// Number of reads currently in flight (for tests/diagnostics).
    pub fn reads_in_flight(&self) -> usize {
        self.read_inflight.len()
    }

    /// Total memory cycles the data bus has been held.
    pub const fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Read-queue entries still outstanding (completion after `now`), for
    /// queue-depth sampling.
    pub fn read_depth(&self, now: u64) -> usize {
        outstanding(&self.read_inflight, now)
    }
}

/// Entries of `queue` whose completion lies after `now`.
pub(crate) fn outstanding(queue: &VecDeque<u64>, now: u64) -> usize {
    queue.iter().filter(|&&t| t > now).count()
}

/// Queue admission: drains completed entries and, if the queue is full,
/// stalls the arrival until a slot frees up. Completion times are pushed in
/// increasing order because the channel data bus serializes transfer ends,
/// so the front entries are always the oldest.
pub(crate) fn admit(queue: &mut VecDeque<u64>, cap: usize, at: u64) -> u64 {
    while queue.front().is_some_and(|&t| t <= at) {
        queue.pop_front();
    }
    let mut admitted = at;
    if let Some(&wait) = queue.len().checked_sub(cap).and_then(|i| queue.get(i)) {
        // Wait for the entry whose completion frees the needed slot.
        admitted = wait;
        while queue.front().is_some_and(|&t| t <= admitted) {
            queue.pop_front();
        }
    }
    admitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapper;

    fn setup() -> (Channel, DramConfig, AddressMapper) {
        let cfg = DramConfig::ddr3();
        (Channel::new(&cfg), cfg, AddressMapper::new(&cfg))
    }

    #[test]
    fn bus_serializes_back_to_back_row_hits() {
        let (mut ch, cfg, m) = setup();
        let loc = m.decode(0);
        let a = ch.access(0, loc, 4, &cfg);
        let b = ch.access(0, loc, 4, &cfg);
        assert_eq!(a.outcome, RowOutcome::Miss);
        assert_eq!(b.outcome, RowOutcome::Hit);
        // Second transfer cannot start before the first releases the bus.
        assert!(b.completion >= a.completion + 4);
    }

    #[test]
    fn different_banks_overlap_commands() {
        let (mut ch, cfg, m) = setup();
        // Two rows in different banks of channel 0.
        let stride = cfg.row_bytes * u64::from(cfg.channels);
        let l0 = m.decode(0);
        let l1 = m.decode(stride);
        assert_ne!(l0.bank, l1.bank);
        let a = ch.access(0, l0, 4, &cfg);
        let b = ch.access(0, l1, 4, &cfg);
        // Bank 1's activate overlaps bank 0's access; only the bus serializes,
        // so the second completes soon after the first.
        assert!(b.completion <= a.completion.max(b.burst + cfg.timings.row_miss_latency()) + 4);
    }

    #[test]
    fn full_read_queue_back_pressures() {
        let (mut ch, cfg, m) = setup();
        let loc = m.decode(0);
        // Saturate the 32-entry read queue with same-cycle arrivals.
        let mut completions = Vec::new();
        for _ in 0..33 {
            completions.push(ch.access(0, loc, 4, &cfg).completion);
        }
        // The 33rd must have been admitted no earlier than the 1st completion.
        assert!(completions[32] > completions[0]);
        assert!(ch.reads_in_flight() <= 33);
    }

    #[test]
    fn bus_only_beats_wait_only_for_the_bus() {
        let (mut ch, cfg, m) = setup();
        let loc = m.decode(0);
        for _ in 0..32 {
            ch.access(0, loc, 4, &cfg);
        }
        // A bus-only beat is not blocked by the full read queue, only by
        // the bus the reads hold.
        let busy = ch.bus_free_at();
        assert_eq!(ch.occupy(0, 4), busy + 4);
        // On an idle bus it starts at its arrival.
        let (mut idle, _, _) = setup();
        assert_eq!(idle.occupy(100, 4), 104);
    }

    #[test]
    fn admit_drains_completed() {
        let mut q = VecDeque::from(vec![5u64, 10, 15]);
        let admitted = admit(&mut q, 8, 12);
        assert_eq!(admitted, 12);
        assert_eq!(q.len(), 1); // only the 15 remains
    }

    #[test]
    fn failed_channel_nacks_without_bus_activity() {
        let (mut ch, cfg, m) = setup();
        let loc = m.decode(0);
        ch.set_health(ChannelHealth::Failed);
        let a = ch.access(100, loc, 4, &cfg);
        assert!(a.nacked);
        assert_eq!(a.burst, 0);
        assert_eq!(a.completion, 100 + 2 * cfg.timings.row_conflict_latency());
        assert_eq!(ch.busy_cycles(), 0);
        assert_eq!(ch.reads_in_flight(), 0);
        // Failure persists until an explicit repair.
        assert!(ch.access(1_000_000, loc, 4, &cfg).nacked);
        ch.set_health(ChannelHealth::Healthy);
        assert!(!ch.access(1_000_001, loc, 4, &cfg).nacked);
    }

    #[test]
    fn stalled_channel_delays_arrivals_then_self_heals() {
        let (mut ch, cfg, m) = setup();
        let loc = m.decode(0);
        ch.set_health(ChannelHealth::Stalled { until: 500 });
        let a = ch.access(0, loc, 4, &cfg);
        assert!(a.stalled && !a.nacked);
        // Arrival was pushed to the end of the stall window.
        assert!(a.completion >= 500 + cfg.timings.row_miss_latency() + 4);
        // An arrival past the window heals the channel in place.
        let b = ch.access(5_000, loc, 4, &cfg);
        assert!(!b.stalled);
        assert_eq!(ch.health(), ChannelHealth::Healthy);
    }

    #[test]
    fn admit_waits_when_full() {
        let mut q: VecDeque<u64> = (1..=4).map(|i| i * 10).collect();
        let admitted = admit(&mut q, 4, 5);
        // Queue of cap 4 is full; must wait until the first (t=10) completes.
        assert_eq!(admitted, 10);
    }
}
