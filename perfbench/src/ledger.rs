//! The per-layer ledger: each layer of one captured job replayed alone, in
//! the engine's service order, through the layer's own public functions.
//! Every layer is timed on exactly the inputs it saw in the run, and the
//! replays re-derive — and check — every tapped issue cycle, demand
//! completion and NACK count.
//!
//! | layer | replayed through |
//! |---|---|
//! | `trace` | `WorkloadGen::next_record` / `ServeLaneGen` |
//! | `trace.vm` | `PageMapper::translate` |
//! | `cache` | `CacheHierarchy::access_data` |
//! | `fault` | `FaultSchedule::generate`, `FaultDriver::pop_due` at the tapped issue cycles |
//! | `core` / `baselines` | `MemoryScheme::access` and `apply_fault` |
//! | `dram` | `DramModel::read` / `write` / `stream` under the run loop's charge rule |
//! | `cpu` | `Core::execute_compute` / `issue_time` / `execute_memory` / `stall_until` |
//! | `serve` | `plan_trial`, `RequestTracker::on_serviced` |
//! | `obs` | `QuantileSketch::record` |
//!
//! Glue — the run loop's scheduler scan, lane buffers and dispatch, plus
//! the capture hooks — is the traced end-to-end time minus the layers' sum.

use std::time::{Duration, Instant};

use silcfm_cache::CacheHierarchy;
use silcfm_cpu::Core;
use silcfm_dram::{DramConfig, DramModel};
use silcfm_fault::{FaultDriver, FaultStats};
use silcfm_obs::QuantileSketch;
use silcfm_serve::{
    classify_retry, plan_trial, Disposition, FailureTimeline, LanePlan, RequestTracker,
    ServeParams, ServeSource,
};
use silcfm_sim::{LaneSource, RecordStream, SchemeKind, ServiceTap, ShardReport, TrafficTally};
use silcfm_trace::vm::PAGE_BYTES;
use silcfm_trace::{PageMapper, WorkloadGen};
use silcfm_types::fault::{ChannelFault, FaultKind};
use silcfm_types::{
    Access, AddressSpace, CoreId, MemKind, MemOp, SchemeOutcome, TraceRecord, TrafficClass,
};

use crate::capture::{capture, Capture, Serviced};
use crate::jobs::{digest_str, Job, Machine, SHARD_THREADS};
use crate::report::Metric;

/// CPU cycles by which background operations and writebacks trail their
/// demand access: the run loop's demand-first scheduling lag.
const BACKGROUND_LAG: u64 = 120;

/// CPU cycles the run loop charges a metadata read: metadata lives in a
/// dedicated NM channel and is modelled latency-only.
const METADATA_LATENCY: u64 = 44;

/// How far below zero glue may read, as a share of the traced end-to-end
/// time, before the ledger is flagged as not adding up. Each replay pays
/// its own bookkeeping (recording the next layer's inputs) and runs on
/// fresh structures, so the layer sum carries a few percent of replay
/// overhead; a timing check never fails a job's correctness.
pub const GLUE_TOLERANCE: f64 = 0.10;

/// One timed interval: a job, or one stage of it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the log.
    pub id: usize,
    /// The enclosing job span.
    pub parent: Option<usize>,
    /// `job`, a stage, or a layer name.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: String,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Every span opened so far, indexed by id.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now and returns its id.
    pub fn open(&mut self, name: &'static str, job: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            job: job.to_string(),
            start_ns: 0,
            dur_ns: 0,
        });
        self.spans[id].start_ns = nanos(self.origin.elapsed());
        id
    }

    /// Closes span `id` now and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let end = nanos(self.origin.elapsed());
        let span = &mut self.spans[id];
        span.dur_ns = end.saturating_sub(span.start_ns);
        Duration::from_nanos(span.dur_ns)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Host time of each layer's replay of one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Record generation.
    pub trace: Duration,
    /// Page translation.
    pub vm: Duration,
    /// Cache hierarchy.
    pub cache: Duration,
    /// Fault schedule generation and delivery.
    pub fault: Duration,
    /// The placement scheme (`core` or `baselines`).
    pub scheme: Duration,
    /// Both DRAM devices.
    pub dram: Duration,
    /// The cores.
    pub cpu: Duration,
    /// Admission planning.
    pub plan: Duration,
    /// The request tracker's tap.
    pub tap: Duration,
    /// Quantile-sketch inserts.
    pub obs: Duration,
}

impl LayerTimes {
    /// Host time the layers account for. `obs` is not added again: the
    /// sketch inserts it times run inside the tracker's tap.
    pub fn total(&self) -> Duration {
        self.trace
            + self.vm
            + self.cache
            + self.fault
            + self.scheme
            + self.dram
            + self.cpu
            + self.plan
            + self.tap
    }
}

/// Exact, host-independent work counts of one job's replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Serviced records.
    pub records: u64,
    /// Physical pages allocated.
    pub pages: u64,
    /// LLC lookups and misses.
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Dirty LLC victims written back.
    pub writebacks: u64,
    /// `MemoryScheme::access` calls (demand misses and writebacks).
    pub scheme_accesses: u64,
    /// Memory operations the scheme emitted for them.
    pub scheme_ops: u64,
    /// Demand accesses the scheme counted.
    pub demand_accesses: u64,
    /// Of those, serviced from NM.
    pub serviced_from_nm: u64,
    /// Scheme-imposed global stalls.
    pub stalls: u64,
    /// DRAM transactions (metadata is latency-only and not one).
    pub charges: u64,
    /// Bytes moved by the NM device.
    pub nm_bytes: u64,
    /// Bytes moved by the FM device.
    pub fm_bytes: u64,
    /// Row-buffer hits over both devices.
    pub row_hits: u64,
    /// Beats over both devices.
    pub row_beats: u64,
    /// Beats NACKed by failed channels.
    pub nacks: u64,
    /// Faults the schedule holds.
    pub faults_scheduled: u64,
    /// Faults that came due before the run ended.
    pub faults_delivered: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed within their deadline.
    pub completed: u64,
    /// Requests past their deadline.
    pub timed_out: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Requests a failed channel NACKed.
    pub nacked_requests: u64,
    /// Latency samples the sketch took.
    pub samples: u64,
}

/// One job's replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Host time per layer.
    pub times: LayerTimes,
    /// Work per layer.
    pub counts: LayerCounts,
    /// Serviced records whose replayed issue cycle, completion or NACK
    /// counts differ from the tapped ones.
    pub mismatches: u64,
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
    /// Cycle at which the replayed cores finished.
    pub finish_cycles: u64,
}

/// One DRAM-side action of a serviced record, in the run loop's order.
#[derive(Debug, Clone, Copy)]
enum Charge {
    /// A channel fault delivered to a device.
    Inject(MemKind, ChannelFault),
    /// A critical-path op, chained from the previous one's completion.
    Chained(MemOp),
    /// A background op or writeback, issued `BACKGROUND_LAG` behind the
    /// access.
    Lagged(MemOp),
}

/// The two devices plus the run loop's traffic tally, charged by its rule.
struct Devices {
    nm: DramModel,
    fm: DramModel,
    space: AddressSpace,
    tally: TrafficTally,
    charges: u64,
}

impl Devices {
    fn new(space: AddressSpace) -> Self {
        Self {
            nm: DramModel::new(DramConfig::hbm2()),
            fm: DramModel::new(DramConfig::ddr3()),
            space,
            tally: TrafficTally::default(),
            charges: 0,
        }
    }

    fn nacks(&self) -> (u64, u64) {
        (self.nm.stats().nacks, self.fm.stats().nacks)
    }

    /// Charges `op` at CPU cycle `at` and returns its completion: metadata
    /// is latency-only, demand ops go through the bank model, everything
    /// else streams.
    fn charge(&mut self, op: &MemOp, at: u64) -> u64 {
        let bytes = u64::from(op.bytes);
        let (dev, demand_bytes, other_bytes) = match op.mem {
            MemKind::Near => (
                &mut self.nm,
                &mut self.tally.nm_demand,
                &mut self.tally.nm_other,
            ),
            MemKind::Far => (
                &mut self.fm,
                &mut self.tally.fm_demand,
                &mut self.tally.fm_other,
            ),
        };
        if op.class == TrafficClass::Metadata {
            *other_bytes += bytes;
            return if op.kind.is_write() {
                at
            } else {
                at + METADATA_LATENCY
            };
        }
        let demand = op.class.is_demand();
        if demand {
            *demand_bytes += bytes;
        } else {
            *other_bytes += bytes;
        }
        self.charges += 1;
        let addr = self.space.device_addr(op.addr);
        match (demand, op.kind.is_write()) {
            (true, true) => dev.write(at, addr, op.bytes),
            (true, false) => dev.read(at, addr, op.bytes),
            (false, is_write) => dev.stream(at, addr, op.bytes, is_write),
        }
    }

    fn inject(
        &mut self,
        device: MemKind,
        fault: ChannelFault,
        now: u64,
    ) -> silcfm_types::FaultEffect {
        match device {
            MemKind::Near => self.nm.inject_channel_fault(fault, now),
            MemKind::Far => self.fm.inject_channel_fault(fault, now),
        }
    }
}

/// The layer a scheme's replay is reported under: the SILC-FM controller
/// (`core`) or a baseline (`baselines`).
pub fn scheme_layer(scheme: SchemeKind) -> &'static str {
    if matches!(scheme, SchemeKind::SilcFm(_)) {
        "core"
    } else {
        "baselines"
    }
}

/// Draws `per_lane` records from each lane's stream.
fn generate<G: RecordStream>(
    gens: impl Iterator<Item = G>,
    per_lane: usize,
) -> Vec<Vec<TraceRecord>> {
    gens.map(|mut gen| {
        let mut out = Vec::with_capacity(per_lane);
        for _ in 0..per_lane {
            out.push(gen.next_record());
        }
        out
    })
    .collect()
}

/// Replays every layer of `cap` alone and checks each against the run,
/// recording one span per layer under the job span `parent`.
pub fn replay_layers(
    job: &Job,
    m: &Machine,
    cap: &Capture,
    spans: &mut SpanLog,
    parent: usize,
) -> Replay {
    let mut rep = Replay::default();
    let lanes = m.lanes();
    let per_lane = m.params.accesses_per_core as usize;
    let seed = m.params.seed;
    let serviced = &cap.serviced;
    let n = serviced.len();
    rep.counts.records = n as u64;
    if n != lanes * per_lane || cap.records.iter().any(|r| r.len() != per_lane) {
        rep.failures.push(format!(
            "captured {n} serviced records, expected {}",
            lanes * per_lane
        ));
        return rep;
    }
    // The engine services a lane's records in the order it pulled them, so
    // each tap event pairs with its lane's next captured record.
    let mut taken = vec![0usize; lanes];
    let order: Vec<TraceRecord> = serviced
        .iter()
        .map(|s| {
            let lane = s.lane as usize;
            let rec = cap.records[lane][taken[lane]];
            taken[lane] += 1;
            rec
        })
        .collect();
    let serving = job.trial.as_ref().zip(cap.serving.as_ref());

    // trace: regenerate every lane's stream.
    let span = spans.open("trace", &job.name, Some(parent));
    let regenerated = match serving {
        Some((trial, sv)) => {
            let source = ServeSource::new(&cap.scaled, &sv.plans, &trial.serve, seed);
            generate((0..lanes).map(|l| source.stream(l)), per_lane)
        }
        None => generate(
            (0..lanes).map(|l| WorkloadGen::new(&cap.scaled, CoreId::new(l as u16), seed)),
            per_lane,
        ),
    };
    rep.times.trace = spans.close(span);
    if regenerated != cap.records {
        rep.failures
            .push("regenerated records differ from the captured ones".to_string());
    }

    // trace.vm: translate in service order.
    let span = spans.open("trace.vm", &job.name, Some(parent));
    let mut mapper = PageMapper::new(cap.space, job.scheme.placement(seed));
    let paddrs: Option<Vec<_>> = serviced
        .iter()
        .zip(&order)
        .map(|(s, rec)| mapper.translate(CoreId::new(s.lane as u16), rec.vaddr))
        .collect();
    rep.times.vm = spans.close(span);
    let Some(paddrs) = paddrs else {
        rep.failures
            .push("replayed footprint exceeds physical memory".to_string());
        return rep;
    };
    rep.counts.pages = mapper.pages_allocated() as u64;
    if rep.counts.pages * PAGE_BYTES != cap.system.footprint_bytes() {
        rep.failures
            .push("replayed page allocation differs from the run's".to_string());
    }

    // cache: every record through the hierarchy.
    let mut latency = Vec::with_capacity(n);
    let mut demand = Vec::with_capacity(n);
    let mut writebacks = Vec::new();
    let mut wb_end = Vec::with_capacity(n);
    let span = spans.open("cache", &job.name, Some(parent));
    let mut hierarchy = CacheHierarchy::new(&m.cfg);
    for ((s, rec), paddr) in serviced.iter().zip(&order).zip(&paddrs) {
        let a = hierarchy.access_data(CoreId::new(s.lane as u16), *paddr, rec.kind.is_write());
        latency.push(a.latency_cycles);
        demand.push(a.traffic.demand_fetch);
        writebacks.extend_from_slice(&a.traffic.writebacks);
        wb_end.push(writebacks.len());
    }
    rep.times.cache = spans.close(span);
    let hs = hierarchy.stats();
    rep.counts.llc_accesses = hs.l2_hits + hs.l2_misses;
    rep.counts.llc_misses = hs.l2_misses;
    rep.counts.writebacks = writebacks.len() as u64;
    if hs != cap.system.hierarchy_stats() {
        rep.failures
            .push("replayed cache statistics differ from the run's".to_string());
    }
    rep.mismatches += serviced
        .iter()
        .zip(&demand)
        .filter(|(s, d)| !**d && s.completion != s.issue)
        .count() as u64;

    // fault: regenerate the schedule, deliver at the tapped issue cycles.
    let mut deliveries = Vec::new();
    if let Some((trial, sv)) = serving {
        if let Some(faults) = &trial.faults {
            let span = spans.open("fault", &job.name, Some(parent));
            let schedule = job.schedule(faults, cap.space);
            if let Ok(schedule) = &schedule {
                let mut driver = FaultDriver::new(schedule.clone());
                for (k, s) in serviced.iter().enumerate() {
                    while let Some(f) = driver.pop_due(s.issue) {
                        deliveries.push((k, f));
                    }
                }
            }
            rep.times.fault = spans.close(span);
            if schedule.as_ref().ok() != sv.schedule.as_ref() {
                rep.failures
                    .push("regenerated fault schedule differs from the run's".to_string());
            }
            rep.counts.faults_scheduled = sv.schedule.as_ref().map_or(0, |s| s.len() as u64);
            rep.counts.faults_delivered = deliveries.len() as u64;
            if deliveries.len() != sv.report.faults_delivered {
                rep.failures
                    .push("replayed fault deliveries differ from the run's".to_string());
            }
        }
    }

    // core / baselines: demand misses, writebacks and scheme faults.
    let mut charges: Vec<Charge> = Vec::with_capacity(2 * n);
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut stalls: Vec<(usize, u64)> = Vec::new();
    let mut fault_stats = FaultStats::default();
    let mut due = deliveries.iter().peekable();
    let mut wb_start = 0;
    let span = spans.open(scheme_layer(job.scheme), &job.name, Some(parent));
    let mut scheme = job.scheme.build(cap.space, m.records_per_job());
    let mut out = SchemeOutcome::empty();
    for (k, ((s, rec), paddr)) in serviced.iter().zip(&order).zip(&paddrs).enumerate() {
        while let Some(&(_, f)) = due.next_if(|d| d.0 == k) {
            match f.kind {
                FaultKind::Scheme(sf) => {
                    out.clear();
                    fault_stats.record(scheme.apply_fault(&sf, &mut out));
                    charges.extend(
                        out.critical
                            .iter()
                            .chain(out.background.iter())
                            .map(|op| Charge::Lagged(*op)),
                    );
                }
                FaultKind::Dram { device, fault } => charges.push(Charge::Inject(device, fault)),
            }
        }
        let faults_end = charges.len();
        let core = CoreId::new(s.lane as u16);
        if demand[k] {
            scheme.access(&Access::read(*paddr, rec.pc, core), &mut out);
            rep.counts.scheme_accesses += 1;
            rep.counts.scheme_ops += (out.critical.len() + out.background.len()) as u64;
            charges.extend(out.critical.iter().map(|op| Charge::Chained(*op)));
            charges.extend(out.background.iter().map(|op| Charge::Lagged(*op)));
            if out.global_stall_cycles > 0 {
                stalls.push((k, out.global_stall_cycles));
            }
        }
        for wb in &writebacks[wb_start..wb_end[k]] {
            scheme.access(&Access::write(*wb, 0, core), &mut out);
            rep.counts.scheme_accesses += 1;
            rep.counts.scheme_ops += (out.critical.len() + out.background.len()) as u64;
            charges.extend(
                out.critical
                    .iter()
                    .chain(out.background.iter())
                    .map(|op| Charge::Lagged(*op)),
            );
        }
        wb_start = wb_end[k];
        bounds.push((faults_end, charges.len()));
    }
    rep.times.scheme = spans.close(span);
    let stats = scheme.stats();
    rep.counts.demand_accesses = stats.accesses;
    rep.counts.serviced_from_nm = stats.serviced_from_nm;
    rep.counts.stalls = stalls.len() as u64;
    if stats != cap.system.scheme().stats() {
        rep.failures
            .push("replayed scheme statistics differ from the run's".to_string());
    }

    // dram: the charges, chained from the tapped issue cycles.
    let span = spans.open("dram", &job.name, Some(parent));
    let mut dev = Devices::new(cap.space);
    let mut start = 0;
    for (k, s) in serviced.iter().enumerate() {
        let (faults_end, end) = bounds[k];
        for c in &charges[start..faults_end] {
            match *c {
                Charge::Inject(device, fault) => {
                    fault_stats.record(dev.inject(device, fault, s.issue));
                }
                Charge::Chained(op) | Charge::Lagged(op) => {
                    dev.charge(&op, s.issue + BACKGROUND_LAG);
                }
            }
        }
        let (nm0, fm0) = dev.nacks();
        let mut cursor = s.issue;
        for c in &charges[faults_end..end] {
            match *c {
                Charge::Chained(op) => cursor = dev.charge(&op, cursor),
                Charge::Lagged(op) => {
                    dev.charge(&op, s.issue + BACKGROUND_LAG);
                }
                Charge::Inject(..) => {}
            }
        }
        let completion = if demand[k] { cursor } else { s.issue };
        let (nm1, fm1) = dev.nacks();
        if completion != s.completion
            || nm1 - nm0 != u64::from(s.nm_nacks)
            || fm1 - fm0 != u64::from(s.fm_nacks)
        {
            rep.mismatches += 1;
        }
        start = end;
    }
    rep.times.dram = spans.close(span);
    let (nm, fm) = (dev.nm.stats(), dev.fm.stats());
    rep.counts.charges = dev.charges;
    rep.counts.nm_bytes = nm.total_bytes();
    rep.counts.fm_bytes = fm.total_bytes();
    rep.counts.row_hits = nm.row_hits + fm.row_hits;
    rep.counts.row_beats = nm.row_hits
        + nm.row_misses
        + nm.row_conflicts
        + fm.row_hits
        + fm.row_misses
        + fm.row_conflicts;
    rep.counts.nacks = nm.nacks + fm.nacks;
    if nm != cap.system.nm_stats() || fm != cap.system.fm_stats() {
        rep.failures
            .push("replayed DRAM statistics differ from the run's".to_string());
    }
    if dev.tally != *cap.system.tally() {
        rep.failures
            .push("replayed traffic tally differs from the run's".to_string());
    }
    if fault_stats != *cap.system.fault_stats() {
        rep.failures
            .push("replayed fault ledger differs from the run's".to_string());
    }

    // cpu: the cores, fed the tapped completions and the scheme's stalls.
    let span = spans.open("cpu", &job.name, Some(parent));
    let (rob, width) = (
        u64::from(m.cfg.core.rob_entries),
        u64::from(m.cfg.core.width),
    );
    let mut cores: Vec<Core> = (0..lanes)
        .map(|l| Core::new(CoreId::new(l as u16), rob, width))
        .collect();
    let mut next_issue = vec![0u64; lanes];
    let mut taken = vec![1usize; lanes];
    let mut finish = vec![0u64; lanes];
    for ((core, next), records) in cores.iter_mut().zip(&mut next_issue).zip(&cap.records) {
        let first = records[0];
        core.execute_compute(u64::from(first.compute));
        *next = core.issue_time(first.dependent).max(first.not_before);
    }
    let mut stall = stalls.iter().peekable();
    for (k, (s, rec)) in serviced.iter().zip(&order).enumerate() {
        let lane = s.lane as usize;
        let t = cores[lane].issue_time(rec.dependent).max(next_issue[lane]);
        if t + u64::from(latency[k]) != s.issue {
            rep.mismatches += 1;
        }
        if let Some(&(_, cycles)) = stall.next_if(|st| st.0 == k) {
            for core in &mut cores {
                core.stall_until(s.completion + cycles);
            }
        }
        let core = &mut cores[lane];
        core.execute_memory(s.completion, rec.dependent);
        if let Some(next) = cap.records[lane].get(taken[lane]) {
            taken[lane] += 1;
            core.execute_compute(u64::from(next.compute));
            next_issue[lane] = core.issue_time(next.dependent).max(next.not_before);
        } else {
            finish[lane] = core.finish();
        }
    }
    rep.times.cpu = spans.close(span);
    rep.finish_cycles = finish.iter().copied().max().unwrap_or(0);
    let instructions: u64 = cores.iter().map(Core::instructions).sum();
    if rep.finish_cycles != cap.outcome.cycles || instructions != cap.outcome.instructions {
        rep.failures
            .push("replayed cores finish differently from the run".to_string());
    }

    // serve and obs: the request plane.
    if let Some((trial, sv)) = serving {
        let span = spans.open("serve", &job.name, Some(parent));
        let planned = Instant::now();
        let plans = plan_trial(
            trial.arrival,
            trial.rate_per_m,
            m.cfg.core.cores,
            seed,
            m.params.accesses_per_core,
            &trial.serve,
        );
        rep.times.plan = planned.elapsed();
        let timeline = sv
            .schedule
            .as_ref()
            .map_or_else(FailureTimeline::default, |s| {
                FailureTimeline::from_faults(s.faults())
            });
        let mut tracker = RequestTracker::new(&plans, &trial.serve, timeline.clone());
        for s in serviced {
            tracker.on_serviced(
                s.lane as usize,
                s.issue,
                s.completion,
                u64::from(s.nm_nacks),
                u64::from(s.fm_nacks),
            );
        }
        let stats = tracker.finish(cap.outcome.cycles);
        rep.times.tap = spans.close(span).saturating_sub(rep.times.plan);
        if plans != sv.plans {
            rep.failures
                .push("replayed admission plans differ from the run's".to_string());
        }
        if stats.digest() != sv.report.stats.digest() {
            rep.failures
                .push("replayed request plane differs from the run's".to_string());
        }
        let ledger = stats.ledger;
        if !ledger.conserved() {
            rep.failures
                .push(format!("request ledger not conserved: {ledger:?}"));
        }
        rep.counts.offered = ledger.offered;
        rep.counts.completed = ledger.completed;
        rep.counts.timed_out = ledger.timed_out;
        rep.counts.shed = ledger.shed;
        rep.counts.retries = ledger.retries;
        rep.counts.nacked_requests = stats.nacked.len() as u64;

        let samples = completed_latencies(&plans, serviced, &trial.serve, &timeline);
        let span = spans.open("obs", &job.name, Some(parent));
        let mut sketch = QuantileSketch::new();
        for v in &samples {
            sketch.record(*v);
        }
        rep.times.obs = spans.close(span);
        rep.counts.samples = samples.len() as u64;
        let (mut replayed, mut run) = (String::new(), String::new());
        sketch.encode(&mut replayed);
        stats.latency.encode(&mut run);
        if replayed != run {
            rep.failures
                .push("replayed latency sketch differs from the run's".to_string());
        }
    }
    rep
}

/// The latency of every request that completed within its deadline, in
/// resolution order — the samples the tracker folds into its sketch.
fn completed_latencies(
    plans: &[LanePlan],
    serviced: &[Serviced],
    serve: &ServeParams,
    timeline: &FailureTimeline,
) -> Vec<u64> {
    let k = serve.records_per_request.max(1);
    // Per lane: records served, NM and FM NACKs of the open request.
    let mut lanes = vec![(0u64, 0u64, 0u64); plans.len()];
    let mut out = Vec::new();
    for s in serviced {
        let lane = s.lane as usize;
        let Some(st) = lanes.get_mut(lane) else {
            continue;
        };
        let idx = st.0;
        st.0 += 1;
        if idx % k == 0 {
            st.1 = 0;
            st.2 = 0;
        }
        st.1 += u64::from(s.nm_nacks);
        st.2 += u64::from(s.fm_nacks);
        if idx % k + 1 != k {
            continue;
        }
        let Some(&arrival) = plans[lane].admitted.get((idx / k) as usize) else {
            continue;
        };
        let done = if st.1 == 0 && st.2 == 0 {
            (s.completion <= arrival.saturating_add(serve.deadline_cycles)).then_some(s.completion)
        } else {
            let r = classify_retry(arrival, s.completion, st.1 > 0, st.2 > 0, timeline, serve);
            (r.disposition == Disposition::Completed).then_some(r.final_at)
        };
        if let Some(at) = done {
            out.push(at.saturating_sub(arrival));
        }
    }
    out
}

/// A serving trial's serial and sharded host times and its shard report.
#[derive(Debug, Clone, Copy)]
pub struct ShardRun {
    /// Serial engine.
    pub serial: Duration,
    /// Sharded engine, [`SHARD_THREADS`] threads.
    pub sharded: Duration,
    /// The sharded engine's epoch-merge report.
    pub report: ShardReport,
}

/// One traced job.
#[derive(Debug)]
pub struct TracedJob {
    /// The job's name.
    pub name: String,
    /// `core` or `baselines`.
    pub scheme_layer: &'static str,
    /// Host time of the untraced serial run.
    pub untraced: Duration,
    /// Host time of the traced (capture) run.
    pub e2e: Duration,
    /// The layer replays.
    pub replay: Replay,
    /// The serial-vs-sharded timing (serving trials only).
    pub shard: Option<ShardRun>,
    /// Every failed check, one line each.
    pub failures: Vec<String>,
}

/// Traces one job: an untraced serial run (and, for serving trials, the
/// sharded run), the capture run, and every layer's replay, each a span
/// under one job span. `expected` is the stored digest, where one exists.
pub fn trace_job(job: &Job, m: &Machine, expected: Option<u64>, spans: &mut SpanLog) -> TracedJob {
    let root = spans.open("job", &job.name, None);
    let mut failures = Vec::new();

    let span = spans.open("untraced", &job.name, Some(root));
    let plain = job.run(m, 1);
    let untraced = spans.close(span);
    let plain = match plain {
        Ok(out) => Some(out.digest()),
        Err(e) => {
            failures.push(e);
            None
        }
    };

    let mut shard = None;
    if job.trial.is_some() {
        let span = spans.open("sharded", &job.name, Some(root));
        let sharded_run = job.run_serve_sharded(m, SHARD_THREADS);
        let sharded = spans.close(span);
        match sharded_run {
            Ok((report, engine)) => {
                if Some(digest_str(&report.digest())) != plain {
                    failures.push("sharded serving digest differs from the serial one".to_string());
                }
                if engine.delta_mismatches > 0 {
                    failures.push(format!(
                        "{} shard epoch deltas mismatched",
                        engine.delta_mismatches
                    ));
                }
                shard = Some(ShardRun {
                    serial: untraced,
                    sharded,
                    report: engine,
                });
            }
            Err(e) => failures.push(e),
        }
    }

    let span = spans.open("capture", &job.name, Some(root));
    let cap = capture(job, m);
    spans.close(span);
    let (e2e, replay) = match cap {
        Ok(cap) => {
            if Some(cap.digest) != plain {
                failures.push("traced run's digest differs from the untraced run's".to_string());
            }
            if let Some(want) = expected {
                if cap.digest != want {
                    failures.push(format!(
                        "digest {:016x} differs from the stored {want:016x}",
                        cap.digest
                    ));
                }
            }
            if let Some(sv) = &cap.serving {
                if !sv.report.stats.ledger.conserved() || !sv.report.fault_stats.conserved() {
                    failures.push("a conservation ledger is violated".to_string());
                }
            }
            let replay = replay_layers(job, m, &cap, spans, root);
            (cap.e2e, replay)
        }
        Err(e) => {
            failures.push(e);
            (Duration::ZERO, Replay::default())
        }
    };
    failures.extend(replay.failures.iter().cloned());
    if replay.mismatches > 0 {
        failures.push(format!(
            "{} replayed records differ from the tapped ones",
            replay.mismatches
        ));
    }
    spans.close(root);
    TracedJob {
        name: job.name.clone(),
        scheme_layer: scheme_layer(job.scheme),
        untraced,
        e2e,
        replay,
        shard,
        failures,
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// `num / den`, or 0 when the layer did no work on this workload.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass over a batch, in
/// `BENCHMARK.json` order.
pub fn layer_metrics(jobs: &[TracedJob]) -> Vec<Metric> {
    let count =
        |f: fn(&LayerCounts) -> u64| jobs.iter().map(|j| f(&j.replay.counts)).sum::<u64>() as f64;
    let time = |f: fn(&TracedJob) -> Duration| ns(jobs.iter().map(f).sum());
    let of_layer = |layer: &str, f: fn(&TracedJob) -> f64| {
        jobs.iter()
            .filter(|j| j.scheme_layer == layer)
            .map(f)
            .sum::<f64>()
    };
    let shards = || jobs.iter().filter_map(|j| j.shard.as_ref());

    let records = count(|c| c.records);
    let e2e = time(|j| j.e2e);
    let glue = e2e - time(|j| j.replay.times.total());
    let trace = time(|j| j.replay.times.trace);
    let offered = count(|c| c.offered);
    let completed = count(|c| c.completed);
    let scheme_ns = |j: &TracedJob| ns(j.replay.times.scheme);
    let scheme_accesses = |j: &TracedJob| j.replay.counts.scheme_accesses as f64;
    let core_accesses = of_layer("core", scheme_accesses);
    let base_accesses = of_layer("baselines", scheme_accesses);
    let serve_records: f64 = jobs
        .iter()
        .filter(|j| j.shard.is_some())
        .map(|j| j.replay.counts.records as f64)
        .sum();
    let serial = ns(shards().map(|s| s.serial).sum());
    let sharded = ns(shards().map(|s| s.sharded).sum());
    let failed = jobs.iter().filter(|j| !j.failures.is_empty()).count() as f64;
    let mismatches = jobs.iter().map(|j| j.replay.mismatches).sum::<u64>() as f64;

    vec![
        Metric::new("trace.records", "count", records),
        Metric::new("trace.gen_ns_per_record", "ns/record", per(trace, records)),
        Metric::new(
            "trace.vm.translate_ns",
            "ns/translation",
            per(time(|j| j.replay.times.vm), records),
        ),
        Metric::new("trace.vm.pages", "count", count(|c| c.pages)),
        Metric::new(
            "cpu.ns_per_record",
            "ns/record",
            per(time(|j| j.replay.times.cpu), records),
        ),
        Metric::new("cache.accesses", "count", records),
        Metric::new(
            "cache.ns_per_access",
            "ns/access",
            per(time(|j| j.replay.times.cache), records),
        ),
        Metric::new(
            "cache.llc_miss_rate",
            "fraction",
            per(count(|c| c.llc_misses), count(|c| c.llc_accesses)),
        ),
        Metric::new("cache.writebacks", "count", count(|c| c.writebacks)),
        Metric::new("core.accesses", "count", core_accesses),
        Metric::new(
            "core.ns_per_access",
            "ns/access",
            per(of_layer("core", scheme_ns), core_accesses),
        ),
        Metric::new(
            "core.ops_per_access",
            "ops/access",
            per(
                of_layer("core", |j| j.replay.counts.scheme_ops as f64),
                core_accesses,
            ),
        ),
        Metric::new(
            "core.access_rate",
            "fraction",
            per(
                of_layer("core", |j| j.replay.counts.serviced_from_nm as f64),
                of_layer("core", |j| j.replay.counts.demand_accesses as f64),
            ),
        ),
        Metric::new("baselines.accesses", "count", base_accesses),
        Metric::new(
            "baselines.ns_per_access",
            "ns/access",
            per(of_layer("baselines", scheme_ns), base_accesses),
        ),
        Metric::new("dram.charges", "count", count(|c| c.charges)),
        Metric::new(
            "dram.ns_per_charge",
            "ns/charge",
            per(time(|j| j.replay.times.dram), count(|c| c.charges)),
        ),
        Metric::new("dram.nm_bytes", "bytes", count(|c| c.nm_bytes)),
        Metric::new("dram.fm_bytes", "bytes", count(|c| c.fm_bytes)),
        Metric::new(
            "dram.row_hit_rate",
            "fraction",
            per(count(|c| c.row_hits), count(|c| c.row_beats)),
        ),
        Metric::new("dram.nacks", "count", count(|c| c.nacks)),
        Metric::new("sim.glue_ns_per_record", "ns/record", per(glue, records)),
        Metric::new("sim.glue_share", "fraction", per(glue, e2e)),
        Metric::new("sim.shard.speedup", "x", per(serial, sharded)),
        Metric::new(
            "sim.shard.amdahl_bound",
            "x",
            per(1.0, 1.0 - per(trace, e2e)),
        ),
        Metric::new(
            "sim.shard.epochs_merged",
            "count",
            shards().map(|s| s.report.epochs_merged).sum::<u64>() as f64,
        ),
        Metric::new(
            "sim.shard.delta_mismatches",
            "count",
            shards().map(|s| s.report.delta_mismatches).sum::<u64>() as f64,
        ),
        Metric::new(
            "serve.plan_ns_per_request",
            "ns/request",
            per(time(|j| j.replay.times.plan), offered),
        ),
        Metric::new(
            "serve.tap_ns_per_record",
            "ns/record",
            per(time(|j| j.replay.times.tap), serve_records),
        ),
        Metric::new("serve.offered", "count", offered),
        Metric::new("serve.completed", "count", completed),
        Metric::new("serve.timed_out", "count", count(|c| c.timed_out)),
        Metric::new("serve.shed", "count", count(|c| c.shed)),
        Metric::new("serve.retries", "count", count(|c| c.retries)),
        Metric::new("serve.goodput", "fraction", per(completed, offered)),
        Metric::new(
            "obs.sketch_ns_per_sample",
            "ns/sample",
            per(time(|j| j.replay.times.obs), count(|c| c.samples)),
        ),
        Metric::new("fault.injected", "count", count(|c| c.faults_scheduled)),
        Metric::new("fault.delivered", "count", count(|c| c.faults_delivered)),
        Metric::new(
            "fault.nacked_requests",
            "count",
            count(|c| c.nacked_requests),
        ),
        Metric::new(
            "bench.capture_overhead",
            "x",
            per(e2e, time(|j| j.untraced)),
        ),
        Metric::new("bench.replay_mismatches", "count", mismatches),
        Metric::new(
            "bench.job_fail_frac",
            "fraction",
            per(failed, jobs.len() as f64),
        ),
    ]
}

/// Glue as a share of the traced end-to-end time over `jobs`.
pub fn glue_share(jobs: &[TracedJob]) -> f64 {
    let e2e: Duration = jobs.iter().map(|j| j.e2e).sum();
    let layers: Duration = jobs.iter().map(|j| j.replay.times.total()).sum();
    per(ns(e2e) - ns(layers), ns(e2e))
}

/// A human-readable split of the traced end-to-end time by layer.
pub fn layer_table(jobs: &[TracedJob]) -> String {
    let total = |f: fn(&TracedJob) -> Duration| jobs.iter().map(f).sum::<Duration>();
    let e2e = total(|j| j.e2e).as_secs_f64();
    let scheme = jobs.first().map_or("core", |j| j.scheme_layer);
    let rows = [
        ("trace", total(|j| j.replay.times.trace)),
        ("trace.vm", total(|j| j.replay.times.vm)),
        ("cache", total(|j| j.replay.times.cache)),
        (scheme, total(|j| j.replay.times.scheme)),
        ("dram", total(|j| j.replay.times.dram)),
        ("cpu", total(|j| j.replay.times.cpu)),
        ("fault", total(|j| j.replay.times.fault)),
        ("serve", total(|j| j.replay.times.plan + j.replay.times.tap)),
    ];
    let layers: f64 = rows.iter().map(|r| r.1.as_secs_f64()).sum();
    let glue = e2e - layers;
    let share = |s: f64| 100.0 * per(s, e2e);
    let mut out = format!("{:<10} {:>10} {:>7}\n", "layer", "host ms", "share");
    for (name, d) in rows {
        let s = d.as_secs_f64();
        out.push_str(&format!(
            "{name:<10} {:>10.1} {:>6.1}%\n",
            s * 1e3,
            share(s)
        ));
    }
    out.push_str(&format!(
        "{:<10} {:>10.1} {:>6.1}%\n",
        "glue",
        glue * 1e3,
        share(glue)
    ));
    out.push_str(&format!(
        "{:<10} {:>10.1} {:>6.1}%  traced end-to-end; untraced {:.1} ms\n",
        "total",
        e2e * 1e3,
        100.0,
        total(|j| j.untraced).as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "obs sketch inserts {:.3} ms, inside serve\n",
        total(|j| j.replay.times.obs).as_secs_f64() * 1e3
    ));
    let verdict = if glue >= -GLUE_TOLERANCE * e2e {
        "ok"
    } else {
        "VIOLATED"
    };
    out.push_str(&format!(
        "check: layers + glue = traced end-to-end, glue >= -{:.0}% of it: {verdict}\n",
        GLUE_TOLERANCE * 100.0
    ));
    out
}
