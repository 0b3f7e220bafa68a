//! The multicore system: cores + caches + scheme + two DRAM devices.

use silcfm_cache::CacheHierarchy;
use silcfm_cpu::Core;
use silcfm_dram::{DramConfig, DramModel};
use silcfm_fault::{FaultDriver, FaultStats};
use silcfm_obs::ObsReport;
use silcfm_trace::{PageMapper, PlacementPolicy, WorkloadGen, WorkloadProfile};
use silcfm_types::fault::{FaultKind, ScheduledFault};
use silcfm_types::obs::{NullTracer, Tracer};
use silcfm_types::{
    Access, AccessClass, AddressSpace, CoreId, MemKind, MemOp, MemoryScheme, SchemeOutcome,
    SystemConfig, TraceRecord, VirtAddr,
};

use crate::metrics::TrafficTally;
use crate::observe::RunObs;

/// CPU cycles by which background (migration/prefetch) operations trail the
/// demand access that caused them, modelling demand-first scheduling in the
/// memory controller.
const BACKGROUND_LAG: u64 = 120;

/// Aggregate outcome of [`System::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemOutcome {
    /// Cycle at which the last core finished.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// LLC misses across all cores.
    pub llc_misses: u64,
}

/// Per-core execution state: the core model plus the scheduler bookkeeping.
/// One struct per core means the run loop touches exactly one
/// bounds-checked element per serviced access; only the issue times live
/// apart, in the run loop's dense array, because the pick reads every
/// lane's on every access.
struct Lane {
    core: Core,
    /// The record waiting to issue.
    pending: TraceRecord,
    /// Memory accesses still to issue on this lane.
    remaining: u64,
    /// Cycle at which this lane retired its last instruction.
    finish_time: u64,
    /// Records pulled from the feed in bulk but not yet issued. Chunked
    /// pulls amortize the per-record feed call (and, on the sharded path,
    /// the queue handoff) without touching the issue order: the scheduler
    /// below still interleaves lanes access by access.
    buf: Vec<TraceRecord>,
    /// Next unread index into `buf`.
    pos: usize,
    /// Records this lane may still pull from the feed. The bound matters on
    /// the sharded path: producers generate exactly `accesses_per_core`
    /// records per lane, so pulling past it would block on a chunk that
    /// will never arrive.
    unfetched: u64,
}

impl Lane {
    /// Takes the lane's next record, refilling `buf` from the feed when it
    /// runs dry. `i` is this lane's index in the feed.
    fn take<F: RecordFeed>(&mut self, feed: &mut F, i: usize) -> TraceRecord {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let got = feed.next_chunk(i, &mut self.buf, self.unfetched);
            debug_assert!(got > 0, "feed returned an empty chunk for lane {i}");
            debug_assert_eq!(got, self.buf.len());
        }
        let rec = match self.buf.get(self.pos) {
            Some(rec) => *rec,
            None => {
                debug_assert!(false, "lane {i} over-consumed its record buffer");
                TraceRecord::load(0, VirtAddr::new(0), 0)
            }
        };
        self.pos += 1;
        self.unfetched = self.unfetched.saturating_sub(1);
        rec
    }
}

/// A per-lane source of trace records: the contract between the run loop
/// and whatever generates the workload stream.
///
/// [`System::run_with_feed_tapped`] pulls every record through this interface in
/// the scheduler's (timing-driven) order; each lane's sub-stream must come
/// back in generation order. The serial path wires lanes straight to their
/// generators; the sharded path ([`crate::shard`]) feeds pre-generated
/// epoch chunks from producer threads. Because the per-lane streams are
/// pure functions of (profile, lane, seed), identical records reach an
/// identical run loop — which is why sharded results are bit-identical to
/// serial ones at any thread count.
pub trait RecordFeed {
    /// Returns lane `lane`'s next record. The run loop pulls only through
    /// [`next_chunk`](Self::next_chunk), whose default calls this once.
    fn next(&mut self, lane: usize) -> TraceRecord;

    /// Appends up to `max` of lane `lane`'s next records to `buf` and
    /// returns how many were appended (at least one when `max > 0`).
    ///
    /// The run loop buffers records per lane and pulls through this method,
    /// so feeds that hold records in bulk — the sharded path's epoch chunks,
    /// the serial generators — can hand over a whole run of them per call
    /// instead of paying a virtual dispatch (and, sharded, a queue lock) per
    /// record. The default pulls exactly one record via [`next`], so a feed
    /// that only implements the scalar method keeps its exact behavior.
    ///
    /// Chunking is a transport detail: each lane's records arrive in the
    /// same order `next` would produce, and the run loop still issues
    /// accesses one at a time in cross-lane timing order, so results are
    /// bit-identical to record-at-a-time feeding.
    ///
    /// [`next`]: RecordFeed::next
    fn next_chunk(&mut self, lane: usize, buf: &mut Vec<TraceRecord>, max: u64) -> usize {
        if max == 0 {
            return 0;
        }
        buf.push(self.next(lane));
        1
    }
}

/// A per-serviced-record completion hook: the contract between the run
/// loop and the request-serving plane (`silcfm-serve`).
///
/// [`System::run_with_feed_tapped`] calls [`on_serviced`] exactly once per
/// serviced record — cache hits and demand misses alike — in service order,
/// with the record's issue and completion cycles and the NM/FM NACK counts
/// the record's charges incurred (non-zero only while a channel is failed,
/// DESIGN.md §10). The tap observes; it can never steer the run: records
/// reach the machine unchanged, so tapped results stay bit-identical to
/// untapped ones.
///
/// [`on_serviced`]: ServiceTap::on_serviced
pub trait ServiceTap {
    /// Whether the tap is live. `false` compiles every tap hook out of the
    /// run loop, exactly like [`Tracer::ENABLED`].
    const ENABLED: bool = true;

    /// Observes one serviced record on `lane`: its issue cycle (post
    /// cache-hierarchy lookup), its completion cycle, and how many NM/FM
    /// operations were NACKed by failed channels while servicing it.
    fn on_serviced(
        &mut self,
        lane: usize,
        issue: u64,
        completion: u64,
        nm_nacks: u64,
        fm_nacks: u64,
    );
}

/// The no-op tap: [`ServiceTap::ENABLED`] is `false`, so every hook in the
/// run loop compiles to nothing and untapped paths pay zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTap;

impl ServiceTap for NullTap {
    const ENABLED: bool = false;

    fn on_serviced(&mut self, _: usize, _: u64, _: u64, _: u64, _: u64) {}
}

/// Issue time marking a finished lane in the run loop's dense schedule. A
/// live lane's issue time is a cycle count, which never reaches it.
const FINISHED: u64 = u64::MAX;

/// The run loop's pick: the lane with the smallest issue time, the lowest
/// index among ties, or `None` once every lane is [`FINISHED`]. For the
/// handful of cores a linear scan of the dense times beats heap
/// maintenance on every access; the strict `<` in index order keeps the
/// first of equal times, the order a min-heap over `(time, index)` gives.
fn next_lane(issue_at: &[u64]) -> Option<(u64, usize)> {
    let mut best = (FINISHED, 0);
    for (i, &t) in issue_at.iter().enumerate() {
        if t < best.0 {
            best = (t, i);
        }
    }
    (best.0 != FINISHED).then_some(best)
}

/// One lane's record generator: an infinite deterministic stream.
/// [`WorkloadGen`] is the closed-loop implementation; the request-serving
/// plane layers arrival stamps and admission over it with its own
/// implementation. Streams must be pure functions of their construction
/// inputs — that purity is what makes sharded runs ([`crate::shard`])
/// bit-identical to serial ones.
pub trait RecordStream {
    /// Produces the stream's next record.
    fn next_record(&mut self) -> TraceRecord;
}

impl RecordStream for WorkloadGen {
    fn next_record(&mut self) -> TraceRecord {
        WorkloadGen::next_record(self)
    }
}

/// The serial feed: one [`RecordStream`] per lane, pulled inline by the
/// run loop. [`System::run`] feeds its [`WorkloadGen`]s through it, and so
/// does the sharded runner at one thread.
pub(crate) struct StreamFeed<G> {
    streams: Vec<G>,
}

impl<G: RecordStream> StreamFeed<G> {
    /// A feed over `streams`, lane `i` reading `streams[i]`.
    pub(crate) fn new(streams: impl IntoIterator<Item = G>) -> Self {
        Self {
            streams: streams.into_iter().collect(),
        }
    }
}

/// Records per [`RecordFeed::next_chunk`] pull on the serial path: large
/// enough to amortize the virtual call, small enough that per-lane buffers
/// stay a few cache pages.
const GEN_CHUNK: u64 = 1024;

impl<G: RecordStream> RecordFeed for StreamFeed<G> {
    fn next(&mut self, lane: usize) -> TraceRecord {
        match self.streams.get_mut(lane) {
            Some(g) => g.next_record(),
            None => {
                debug_assert!(false, "feed polled for a lane it does not own");
                TraceRecord::load(0, VirtAddr::new(0), 0)
            }
        }
    }

    fn next_chunk(&mut self, lane: usize, buf: &mut Vec<TraceRecord>, max: u64) -> usize {
        let Some(g) = self.streams.get_mut(lane) else {
            debug_assert!(false, "feed polled for a lane it does not own");
            return 0;
        };
        let count = max.min(GEN_CHUNK);
        buf.reserve(count as usize);
        for _ in 0..count {
            buf.push(g.next_record());
        }
        count as usize
    }
}

/// A complete simulated machine under one placement scheme.
///
/// The tracer type parameter defaults to [`NullTracer`]: the untraced
/// system carries no observability state and every `if T::ENABLED` hook in
/// [`System::run`] compiles to nothing.
pub struct System<T: Tracer = NullTracer> {
    cfg: SystemConfig,
    space: AddressSpace,
    hierarchy: CacheHierarchy,
    mapper: PageMapper,
    scheme: Box<dyn MemoryScheme>,
    nm: DramModel<T>,
    fm: DramModel<T>,
    tally: TrafficTally,
    obs: Option<RunObs>,
    /// Scheduled fault injection (DESIGN.md §10); `None` — the default —
    /// keeps the run loop's fault hook to a single branch per access.
    faults: Option<FaultDriver>,
    fault_stats: FaultStats,
}

impl System {
    /// Builds an untraced system over `space` with the given page placement
    /// and memory scheme.
    pub fn new(
        cfg: SystemConfig,
        space: AddressSpace,
        placement: PlacementPolicy,
        scheme: Box<dyn MemoryScheme>,
    ) -> Self {
        System::with_observability(cfg, space, placement, scheme, NullTracer, NullTracer, None)
    }
}

impl<T: Tracer> System<T> {
    /// Builds a system whose DRAM devices record into the given tracers and
    /// whose run maintains `obs` (when `Some`); controller-side tracing
    /// travels inside `scheme` itself. See [`System::new`] for the untraced
    /// spelling.
    pub fn with_observability(
        cfg: SystemConfig,
        space: AddressSpace,
        placement: PlacementPolicy,
        scheme: Box<dyn MemoryScheme>,
        nm_tracer: T,
        fm_tracer: T,
        obs: Option<RunObs>,
    ) -> Self {
        Self {
            hierarchy: CacheHierarchy::new(&cfg),
            mapper: PageMapper::new(space, placement),
            scheme,
            nm: DramModel::with_tracer(DramConfig::hbm2(), nm_tracer),
            fm: DramModel::with_tracer(DramConfig::ddr3(), fm_tracer),
            tally: TrafficTally::default(),
            cfg,
            space,
            obs,
            faults: None,
            fault_stats: FaultStats::default(),
        }
    }

    /// Arms the system with a fault schedule: faults whose delivery cycle
    /// has passed are applied immediately before each demand access.
    pub fn set_fault_driver(&mut self, driver: FaultDriver) {
        self.faults = Some(driver);
    }

    /// The fault-effect ledger accumulated so far.
    pub const fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Scheduled faults not yet delivered (0 when no driver is armed).
    pub fn faults_remaining(&self) -> usize {
        self.faults.as_ref().map_or(0, FaultDriver::remaining)
    }

    /// Finalizes the run's observability state into an [`ObsReport`]
    /// (draining every tracer), or `None` if the system was built without
    /// one. `total_cycles` is the [`SystemOutcome::cycles`] of the run.
    pub fn finish_observation(&mut self, total_cycles: u64) -> Option<ObsReport> {
        self.obs.take().map(|o| {
            o.finish(
                total_cycles,
                self.scheme.as_mut(),
                &self.tally,
                &mut self.nm,
                &mut self.fm,
            )
        })
    }

    /// The flat address space being simulated.
    pub const fn space(&self) -> AddressSpace {
        self.space
    }

    /// The scheme under test.
    pub fn scheme(&self) -> &dyn MemoryScheme {
        self.scheme.as_ref()
    }

    /// Traffic tallies accumulated so far.
    pub const fn tally(&self) -> &TrafficTally {
        &self.tally
    }

    /// Near-memory device statistics.
    pub fn nm_stats(&self) -> &silcfm_dram::DramStats {
        self.nm.stats()
    }

    /// Far-memory device statistics.
    pub fn fm_stats(&self) -> &silcfm_dram::DramStats {
        self.fm.stats()
    }

    /// Cache hierarchy statistics.
    pub fn hierarchy_stats(&self) -> &silcfm_cache::HierarchyStats {
        self.hierarchy.stats()
    }

    /// Bytes of footprint actually touched (unique pages allocated).
    pub fn footprint_bytes(&self) -> u64 {
        self.mapper.pages_allocated() as u64 * 2048
    }

    /// Total DRAM energy in picojoules after `cycles` of execution.
    pub fn energy_pj(&self, cycles: u64) -> f64 {
        self.nm.energy_pj(cycles) + self.fm.energy_pj(cycles)
    }

    /// Number of cores (= workload lanes) this system simulates.
    pub fn core_count(&self) -> usize {
        usize::from(self.cfg.core.cores)
    }

    /// Runs one copy of `profile` on every core (the paper's rate mode)
    /// until each core has issued `accesses_per_core` memory accesses.
    ///
    /// # Panics
    ///
    /// Panics if the combined footprint exceeds the physical address space.
    // Kept out of line: inlined into its one caller (`run_spec`, which holds
    // every tier's setup) the serial run loop measured a few percent slower.
    #[inline(never)]
    pub fn run(
        &mut self,
        profile: &WorkloadProfile,
        accesses_per_core: u64,
        seed: u64,
    ) -> SystemOutcome {
        let lanes = self.core_count();
        let mut feed = StreamFeed::new(
            (0..lanes).map(|i| WorkloadGen::new(profile, CoreId::new(i as u16), seed)),
        );
        self.run_with_feed_tapped(&mut feed, accesses_per_core, &mut NullTap)
    }

    /// The run loop, generic over where the workload records come from and
    /// with a [`ServiceTap`] observing every serviced record. Every path
    /// into the simulator — serial, traced, faulted, sharded, served —
    /// executes this exact loop; feeds differ only in how lane sub-streams
    /// are produced, never in what reaches the shared machine state
    /// (caches, page pool, scheme, DRAM), so results are a pure function of
    /// the record streams. Untapped callers pass [`NullTap`], whose
    /// disabled hooks compile out, so tapped and untapped runs execute the
    /// same machine code over the same state and remain bit-identical.
    pub fn run_with_feed_tapped<F: RecordFeed, S: ServiceTap>(
        &mut self,
        feed: &mut F,
        accesses_per_core: u64,
        tap: &mut S,
    ) -> SystemOutcome {
        let n = self.core_count();
        // Setup: one lane per core, primed with its first record. This is
        // the run's only allocation; the access loop below reuses it.
        let mut lanes: Vec<Lane> = (0..n)
            .map(|i| {
                let core = Core::new(
                    CoreId::new(i as u16),
                    u64::from(self.cfg.core.rob_entries),
                    u64::from(self.cfg.core.width),
                );
                Lane {
                    core,
                    pending: TraceRecord::load(0, VirtAddr::new(0), 0),
                    remaining: accesses_per_core,
                    finish_time: 0,
                    // silcfm-lint: allow(A1) -- lane setup, before the access loop: the buffer is allocated once here and refilled in place by `Lane::take`
                    buf: Vec::new(),
                    pos: 0,
                    unfetched: accesses_per_core,
                }
            })
            .collect();
        // Each lane's next issue time, dense so the per-record pick scans
        // one small array instead of every `Lane`; `FINISHED` marks a lane
        // with nothing left to issue.
        // silcfm-lint: allow(A1) -- lane setup, before the access loop: allocated once per run
        let mut issue_at = vec![FINISHED; n];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let pending = lane.take(feed, i);
            lane.core.execute_compute(u64::from(pending.compute));
            // Open-loop arrival stamps floor the issue time; `not_before`
            // is 0 for ordinary records, so `.max` is the identity there.
            if let Some(at) = issue_at.get_mut(i) {
                *at = lane
                    .core
                    .issue_time(pending.dependent)
                    .max(pending.not_before);
            }
            lane.pending = pending;
        }

        // One outcome reused for every scheme access (the reuse protocol):
        // the hot loop never allocates for ordinary misses.
        let mut out = SchemeOutcome::empty();

        // Each step services the lane with the smallest (issue time, index)
        // pair; see `next_lane`. The index is below `issue_at.len() ==
        // lanes.len()`, so the re-borrows below cannot miss; the `else` arms
        // keep the loop panic-free regardless.
        while let Some((t_sched, i)) = next_lane(&issue_at) {
            let Some(lane) = lanes.get_mut(i) else {
                debug_assert!(false, "scheduler picked a lane index below the lane count");
                break;
            };
            let rec = lane.pending;
            // Global stalls may have moved the core's clock since scheduling.
            let t = lane.core.issue_time(rec.dependent).max(t_sched);
            let core_id = lane.core.id();
            let paddr = self
                .mapper
                .translate(core_id, rec.vaddr)
                // silcfm-lint: allow(P1) -- documented `# Panics` precondition: a footprint that exceeds physical memory must abort loudly, not simulate garbage
                .expect("workload footprint exceeds physical memory");

            let h = self
                .hierarchy
                .access_data(core_id, paddr, rec.kind.is_write());
            let issue = t + u64::from(h.latency_cycles);
            if T::ENABLED {
                // Stamp scheme-side events with the access's issue cycle.
                self.scheme.trace_clock(issue);
            }

            // Deliver any faults that have come due, before the demand
            // access observes the machine (one branch when no driver is
            // armed). Each delivery reuses `out`; the demand path below
            // clears it again.
            if self.faults.is_some() {
                while let Some(f) = self.faults.as_mut().and_then(|d| d.pop_due(issue)) {
                    self.deliver_fault(f, issue, &mut out);
                }
            }

            // NACK baselines for the tap: the deltas across this record's
            // charges attribute failed-channel rejections to the record
            // being serviced (both branches compile out when untapped).
            let (nm_nacks0, fm_nacks0) = if S::ENABLED {
                (self.nm.stats().nacks, self.fm.stats().nacks)
            } else {
                (0, 0)
            };

            // A scheme-imposed global stall, applied to every lane after the
            // charges are computed (reading it now: the writeback loop below
            // reuses `out`).
            let mut stall_all_until = None;
            let completion = if h.traffic.demand_fetch {
                // The demand fetch reaches the flat-memory scheme as a read
                // (write-allocate: stores fetch for ownership).
                self.scheme
                    .access(&Access::read(paddr, rec.pc, core_id), &mut out);
                let mut cursor = issue;
                for op in &out.critical {
                    cursor = self.charge(op, cursor);
                }
                // Background (swap/migration/prefetch) traffic is issued
                // slightly behind the demand: memory controllers prioritize
                // demand reads, draining management traffic afterwards.
                for op in &out.background {
                    let _ = self.charge(op, issue + BACKGROUND_LAG);
                }
                if out.global_stall_cycles > 0 {
                    stall_all_until = Some(cursor + out.global_stall_cycles);
                }
                if T::ENABLED {
                    if let Some(o) = self.obs.as_mut() {
                        o.on_demand(
                            out.serviced_from,
                            AccessClass::of_outcome(&out),
                            cursor.saturating_sub(issue),
                        );
                    }
                }
                cursor
            } else {
                issue
            };

            // Dirty LLC victims go to memory off the critical path.
            for wb in &h.traffic.writebacks {
                self.scheme
                    .access(&Access::write(*wb, 0, core_id), &mut out);
                for op in out.critical.iter().chain(out.background.iter()) {
                    let _ = self.charge(op, issue + BACKGROUND_LAG);
                }
            }

            if S::ENABLED {
                tap.on_serviced(
                    i,
                    issue,
                    completion,
                    self.nm.stats().nacks - nm_nacks0,
                    self.fm.stats().nacks - fm_nacks0,
                );
            }

            if let Some(until) = stall_all_until {
                for l in lanes.iter_mut() {
                    l.core.stall_until(until);
                }
            }

            if T::ENABLED {
                if let Some(o) = self.obs.as_mut() {
                    if o.due(completion) {
                        o.epoch_tick(
                            completion,
                            self.scheme.as_ref(),
                            &self.tally,
                            &mut self.nm,
                            &mut self.fm,
                        );
                    }
                }
            }

            let Some(lane) = lanes.get_mut(i) else {
                debug_assert!(false, "scheduler picked a lane index below the lane count");
                break;
            };
            lane.core.execute_memory(completion, rec.dependent);
            lane.remaining -= 1;
            let next = if lane.remaining > 0 {
                let rec = lane.take(feed, i);
                lane.core.execute_compute(u64::from(rec.compute));
                lane.pending = rec;
                lane.core.issue_time(rec.dependent).max(rec.not_before)
            } else {
                lane.finish_time = lane.core.finish();
                FINISHED
            };
            debug_assert!(
                lane.remaining == 0 || next != FINISHED,
                "a live lane's issue time collided with the finished marker"
            );
            if let Some(at) = issue_at.get_mut(i) {
                *at = next;
            }
        }

        SystemOutcome {
            cycles: lanes.iter().map(|l| l.finish_time).max().unwrap_or(0),
            instructions: lanes.iter().map(|l| l.core.instructions()).sum(),
            llc_misses: self.hierarchy.stats().l2_misses,
        }
    }

    /// Applies one scheduled fault at CPU cycle `now` and records its
    /// effect. Scheme faults may emit recovery traffic (restore streams,
    /// metadata rewrites) into `out`; that traffic is charged like any
    /// other background work.
    fn deliver_fault(&mut self, f: ScheduledFault, now: u64, out: &mut SchemeOutcome) {
        let effect = match f.kind {
            FaultKind::Scheme(sf) => {
                // The default `apply_fault` leaves `out` untouched, so clear
                // the reused outcome here lest a baseline recharge the
                // previous access's operations.
                out.clear();
                let effect = self.scheme.apply_fault(&sf, out);
                for op in out.critical.iter().chain(out.background.iter()) {
                    let _ = self.charge(op, now + BACKGROUND_LAG);
                }
                effect
            }
            FaultKind::Dram { device, fault } => match device {
                MemKind::Near => self.nm.inject_channel_fault(fault, now),
                MemKind::Far => self.fm.inject_channel_fault(fault, now),
            },
        };
        self.fault_stats.record(effect);
    }

    /// Charges one memory operation against the owning DRAM device at CPU
    /// cycle `at`; returns its completion time.
    ///
    /// Metadata operations are latency-only: the paper stores remap
    /// metadata in a *dedicated* NM channel (§III-D) whose tiny 8-byte
    /// transfers never contend with data traffic, so they are modelled as a
    /// fixed row-hit NM access rather than routed through the data
    /// channels.
    fn charge(&mut self, op: &MemOp, at: u64) -> u64 {
        /// CPU cycles per serialized remap-entry fetch: an NM row-buffer
        /// hit (tCAS + burst ≈ 11 bus cycles at 4 CPU cycles each).
        const METADATA_LATENCY: u64 = 44;
        if op.class == silcfm_types::TrafficClass::Metadata {
            match op.mem {
                MemKind::Near => self.tally.nm_other += u64::from(op.bytes),
                MemKind::Far => self.tally.fm_other += u64::from(op.bytes),
            }
            return if op.kind.is_write() {
                at // posted
            } else {
                at + METADATA_LATENCY
            };
        }
        let dev_addr = self.space.device_addr(op.addr);
        let bytes = op.bytes;
        let demand = op.class.is_demand();
        let dev = match op.mem {
            MemKind::Near => {
                if demand {
                    self.tally.nm_demand += u64::from(bytes);
                } else {
                    self.tally.nm_other += u64::from(bytes);
                }
                &mut self.nm
            }
            MemKind::Far => {
                if demand {
                    self.tally.fm_demand += u64::from(bytes);
                } else {
                    self.tally.fm_other += u64::from(bytes);
                }
                &mut self.fm
            }
        };
        if demand {
            if op.kind.is_write() {
                dev.write(at, dev_addr, bytes)
            } else {
                dev.read(at, dev_addr, bytes)
            }
        } else {
            // Migration/prefetch traffic: bandwidth-class streaming.
            dev.stream(at, dev_addr, bytes, op.kind.is_write())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_baselines::RandomStatic;
    use silcfm_trace::profiles;
    use silcfm_types::rng::Rng;

    fn space() -> AddressSpace {
        // Enough for the scaled footprint of the test profile.
        AddressSpace::new(2048 * 2048, 4 * 2048 * 2048)
    }

    fn run_once(placement: PlacementPolicy) -> (SystemOutcome, TrafficTally) {
        let cfg = SystemConfig::small();
        let scheme = Box::new(RandomStatic::new(space()));
        let mut sys = System::new(cfg, space(), placement, scheme);
        let profile = silcfm_trace::profiles::scaled(profiles::by_name("dealii").unwrap(), 0.1);
        let out = sys.run(&profile, 2_000, 42);
        (out, *sys.tally())
    }

    #[test]
    fn run_is_deterministic() {
        let (a, ta) = run_once(PlacementPolicy::RandomSeeded(1));
        let (b, tb) = run_once(PlacementPolicy::RandomSeeded(1));
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn executes_the_requested_work() {
        let (out, tally) = run_once(PlacementPolicy::RandomSeeded(1));
        assert!(out.cycles > 0);
        // 4 cores x 2000 memory accesses plus compute.
        assert!(out.instructions >= 8_000);
        assert!(tally.total_bytes() > 0);
    }

    #[test]
    fn far_only_placement_never_uses_nm() {
        let (_, tally) = run_once(PlacementPolicy::FarOnly);
        assert_eq!(tally.nm_demand, 0);
        assert_eq!(tally.nm_other, 0);
        assert!(tally.fm_demand > 0);
    }

    #[test]
    fn random_placement_is_slower_far_only_is_slowest() {
        // With some pages in fast NM, execution should not be slower than
        // the all-FM baseline.
        let (mixed, _) = run_once(PlacementPolicy::RandomSeeded(1));
        let (far, _) = run_once(PlacementPolicy::FarOnly);
        assert!(
            mixed.cycles <= far.cycles,
            "NM pages should help: {} vs {}",
            mixed.cycles,
            far.cycles
        );
    }

    #[test]
    fn dense_pick_matches_the_option_scan() {
        silcfm_types::check::forall("dense_lane_pick", |rng| {
            let lanes = rng.gen_range(1..17usize);
            // A narrow time range forces ties; some lanes are finished.
            let keys: Vec<Option<u64>> = (0..lanes)
                .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0..4u64)))
                .collect();
            let reference = keys
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (t, i)))
                .min();
            let dense: Vec<u64> = keys.iter().map(|t| t.unwrap_or(FINISHED)).collect();
            assert_eq!(next_lane(&dense), reference, "keys {keys:?}");
        });
    }

    #[test]
    fn footprint_tracks_allocations() {
        let cfg = SystemConfig::small();
        let scheme = Box::new(RandomStatic::new(space()));
        let mut sys = System::new(cfg, space(), PlacementPolicy::RandomSeeded(1), scheme);
        let profile = silcfm_trace::profiles::scaled(profiles::by_name("dealii").unwrap(), 0.1);
        let _ = sys.run(&profile, 500, 42);
        assert!(sys.footprint_bytes() > 0);
        assert!(sys.energy_pj(1_000_000) > 0.0);
    }
}
