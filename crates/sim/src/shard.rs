//! Sharding one simulation run across threads, with deterministic
//! epoch-barrier merges (DESIGN.md §11).
//!
//! The grid runner parallelizes *across* independent runs; this module
//! parallelizes *inside* one run. The constraint is absolute: the sharded
//! result must be **bit-identical** to [`System::run`] at any thread count,
//! the same contract `tests/golden.rs` pins for grid parallelism.
//!
//! What makes that possible is a structural fact of the simulator: the
//! per-lane (per-core) workload streams are pure functions of
//! (profile, lane, seed) — the generators share no state — while everything
//! *downstream* of a record (first-touch page allocation, the shared L2,
//! the scheme's sets/predictor/aging, DRAM bank timing, scheme-emitted
//! global stalls) is coupled across lanes through the timing-driven
//! interleave. So the run is sharded along exactly that seam:
//!
//! * **producer lanes** — worker threads own disjoint lane subsets (dealt
//!   round-robin, the same rule the PR-1 pool uses for grid jobs) and
//!   pre-generate each lane's records in fixed-size *epoch chunks*, with a
//!   bounded lookahead per lane;
//! * **one consumer** — the unmodified [`System::run_with_feed_tapped`] loop pulls
//!   records from the per-lane chunk queues in the scheduler's order and
//!   commits all shared-state effects serially, exactly as the serial path
//!   does.
//!
//! Epoch boundaries are the merge barriers: each chunk carries the lane's
//! self-accounted [`LaneDelta`] (records, writes, compute, address
//! checksum), the consumer re-tallies the same delta as it drains the
//! chunk, and once every lane has crossed epoch *e* the per-lane deltas are
//! folded — always in lane order 0, 1, … — into the run's merged delta and
//! rolling checksum. A producer/consumer disagreement (a torn handoff)
//! is counted in [`ShardReport::delta_mismatches`]; determinism tests
//! assert it stays zero and that the checksum is invariant across thread
//! counts.
//!
//! Throughput scales with the workload-generation share of the run (the
//! shared-state commit loop is the serial fraction); the `scaling` bench
//! bin measures the sweep and records it in `results/BENCH_throughput.json`.

use std::collections::VecDeque;
use std::hash::Hasher as _;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use silcfm_trace::{WorkloadGen, WorkloadProfile};
use silcfm_types::obs::Tracer;
use silcfm_types::{CoreId, FxHasher, TraceRecord, VirtAddr};

use crate::system::{NullTap, RecordFeed, ServiceTap, System, SystemOutcome};

/// One lane's record generator, as the sharded runner sees it: an infinite
/// deterministic stream. [`WorkloadGen`] is the closed-loop implementation;
/// the request-serving plane layers arrival stamps and admission over it
/// with its own implementation. Streams must be pure functions of their
/// construction inputs — that purity is what makes sharded runs
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

/// A factory of per-lane [`RecordStream`]s: producers (or the inline mode)
/// call [`stream`] once per owned lane, on whatever thread owns it, so the
/// factory must be shareable while the streams themselves move to their
/// thread.
///
/// [`stream`]: LaneSource::stream
pub trait LaneSource: Sync {
    /// The per-lane stream type.
    type Stream: RecordStream + Send;

    /// Builds lane `lane`'s stream. Must be a pure function of
    /// `(self, lane)`: two calls with the same lane yield streams that
    /// emit identical records.
    fn stream(&self, lane: usize) -> Self::Stream;
}

/// The closed-loop source behind [`run_system_sharded`]: one
/// [`WorkloadGen`] per lane, the exact generators the serial path builds.
struct WorkloadSource<'p> {
    profile: &'p WorkloadProfile,
    seed: u64,
}

impl LaneSource for WorkloadSource<'_> {
    type Stream = WorkloadGen;

    fn stream(&self, lane: usize) -> WorkloadGen {
        WorkloadGen::new(self.profile, CoreId::new(lane as u16), self.seed)
    }
}

/// Sharding knobs for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Total threads the run may use, consumer included. `1` (or `0`) runs
    /// the chunked feed inline on the calling thread — same merge path, no
    /// workers; `t >= 2` spawns `min(t - 1, lanes)` producer threads.
    pub threads: usize,
    /// Records per lane per epoch (the barrier spacing). Larger epochs
    /// amortize handoff synchronization; smaller ones bound lookahead
    /// memory and merge latency.
    pub epoch_records: u64,
    /// Chunks a producer may run ahead of the consumer on each lane.
    pub lookahead_epochs: usize,
}

impl ShardParams {
    /// Sharding at `threads` threads with the default epoch geometry.
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            epoch_records: 4096,
            lookahead_epochs: 4,
        }
    }
}

impl Default for ShardParams {
    fn default() -> Self {
        Self::with_threads(crate::runner::default_threads())
    }
}

/// One lane's accumulated accounting over an epoch (or a whole run): the
/// mergeable delta exchanged at epoch barriers. Fields add under
/// [`LaneDelta::merge`], so any grouping of epochs and lanes folds to the
/// same total — the conservation law the merge tests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneDelta {
    /// Records generated/consumed.
    pub records: u64,
    /// Store records among them.
    pub writes: u64,
    /// Total compute-gap instructions attached to the records.
    pub compute: u64,
    /// Wrapping sum of raw virtual addresses: an order-insensitive content
    /// check that catches dropped, duplicated, or corrupted records.
    pub vaddr_check: u64,
}

impl LaneDelta {
    /// Accounts one record.
    fn note(&mut self, rec: &TraceRecord) {
        self.records += 1;
        self.writes += u64::from(rec.kind.is_write());
        self.compute += u64::from(rec.compute);
        self.vaddr_check = self.vaddr_check.wrapping_add(rec.vaddr.value() | 1);
    }

    /// Folds another delta into this one. Addition is associative and
    /// commutative, but the sharded runner still merges in (epoch, lane)
    /// order so the rolling checksum — which *is* order-sensitive — comes
    /// out identical at every thread count.
    pub fn merge(&mut self, other: &LaneDelta) {
        self.records += other.records;
        self.writes += other.writes;
        self.compute += other.compute;
        self.vaddr_check = self.vaddr_check.wrapping_add(other.vaddr_check);
    }
}

/// What the sharded run did, beyond the (bit-identical) simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Workload lanes (= simulated cores).
    pub lanes: usize,
    /// Producer threads actually spawned (0 = inline chunked mode).
    pub producer_threads: usize,
    /// Records per lane per epoch.
    pub epoch_records: u64,
    /// Epoch barriers crossed (complete lane rows merged).
    pub epochs_merged: u64,
    /// All lanes' deltas folded together: `records` must equal
    /// `lanes * accesses_per_core` for a complete run.
    pub merged: LaneDelta,
    /// Rolling digest over every (epoch, lane, delta) in merge order; a
    /// pure function of the workload streams, so it is invariant across
    /// thread counts and epoch-aligned at any lane interleave.
    pub checksum: u64,
    /// Producer-vs-consumer delta disagreements (0 on a healthy run).
    pub delta_mismatches: u64,
}

/// One pre-generated epoch of a lane's stream plus its producer-side delta.
struct Chunk {
    records: Vec<TraceRecord>,
    delta: LaneDelta,
}

/// Generates the next `count` records of `gen` into a recycled buffer.
fn fill_chunk<G: RecordStream>(gen: &mut G, mut buf: Vec<TraceRecord>, count: u64) -> Chunk {
    buf.clear();
    let mut delta = LaneDelta::default();
    for _ in 0..count {
        let rec = gen.next_record();
        delta.note(&rec);
        buf.push(rec);
    }
    Chunk {
        records: buf,
        delta,
    }
}

#[derive(Default)]
struct LaneQueueState {
    /// Chunks generated but not yet consumed, oldest first.
    filled: VecDeque<Chunk>,
    /// Drained record buffers returned by the consumer for reuse, so the
    /// steady state allocates nothing.
    spare: Vec<Vec<TraceRecord>>,
}

/// Wakes producers when the consumer frees a slot in *any* lane's queue.
///
/// One version counter shared by every queue of the run. A producer owning
/// several lanes must never block on one particular full lane: the consumer
/// might be starved on a *different* lane of the same producer (the run
/// loop consumes lanes in timing order, e.g. pulling many records from lane
/// 0 while priming), and neither side would ever advance. Instead producers
/// sweep their lanes with [`LaneQueue::try_acquire_buffer`] and sleep here
/// only when every owned lane is at its lookahead bound — a state the
/// consumer is guaranteed to break, because the lane it wants next cannot
/// be both empty (it is waiting on it) and full (its producer sleeps).
#[derive(Default)]
struct SpaceSignal {
    version: Mutex<u64>,
    changed: Condvar,
}

impl SpaceSignal {
    fn version(&self) -> u64 {
        *self.version.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumer side: a slot was freed; wake every sweeping producer.
    fn bump(&self) {
        let mut v = self.version.lock().unwrap_or_else(PoisonError::into_inner);
        *v = v.wrapping_add(1);
        drop(v);
        self.changed.notify_all();
    }

    /// Producer side: sleeps until the version moves past the one read
    /// *before* the fruitless sweep — a pop landing mid-sweep is seen here
    /// as an immediate return, never a lost wakeup.
    fn wait_past(&self, seen: u64) {
        let mut v = self.version.lock().unwrap_or_else(PoisonError::into_inner);
        while *v == seen {
            v = self.changed.wait(v).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The bounded handoff between one lane's producer and the consumer.
struct LaneQueue {
    state: Mutex<LaneQueueState>,
    /// Consumer waits here for a chunk.
    can_pop: Condvar,
}

impl LaneQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(LaneQueueState::default()),
            can_pop: Condvar::new(),
        }
    }

    /// Locks the queue. A poisoned lock is recovered rather than unwrapped:
    /// the data is plain bookkeeping, and any torn state a panicking thread
    /// could leave behind is caught downstream by the epoch delta check.
    fn lock(&self) -> MutexGuard<'_, LaneQueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Producer side: if fewer than `lookahead` chunks are queued, hands
    /// back a recycled buffer to fill; `None` means the lane is at its
    /// bound right now (never blocks — see [`SpaceSignal`]).
    fn try_acquire_buffer(&self, lookahead: usize) -> Option<Vec<TraceRecord>> {
        let mut st = self.lock();
        if st.filled.len() >= lookahead.max(1) {
            return None;
        }
        Some(st.spare.pop().unwrap_or_default())
    }

    /// Producer side: publishes a filled chunk.
    fn push(&self, chunk: Chunk) {
        self.lock().filled.push_back(chunk);
        self.can_pop.notify_one();
    }

    /// Consumer side: blocks until the lane's next chunk is available.
    /// Producers generate exactly as many chunks as the consumer pops, so
    /// no end-of-stream marker is needed.
    fn pop(&self, space: &SpaceSignal) -> Chunk {
        let mut st = self.lock();
        loop {
            if let Some(chunk) = st.filled.pop_front() {
                drop(st);
                space.bump();
                return chunk;
            }
            st = self
                .can_pop
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Consumer side: returns a drained buffer for reuse.
    fn recycle(&self, buf: Vec<TraceRecord>) {
        self.lock().spare.push(buf);
    }
}

/// One epoch row being collected: deltas from each lane, merged once all
/// have arrived.
struct EpochSlot {
    missing: usize,
    deltas: Vec<Option<LaneDelta>>,
}

impl EpochSlot {
    fn new(lanes: usize) -> Self {
        Self {
            missing: lanes,
            deltas: (0..lanes).map(|_| None).collect(),
        }
    }
}

/// The epoch-barrier merge: collects per-(lane, epoch) deltas as the
/// consumer finishes chunks — in whatever interleave the scheduler's timing
/// produces — and folds complete epochs in (epoch, lane) order, so the
/// merged totals and checksum are deterministic at any thread count.
struct EpochMerge {
    lanes: usize,
    /// Epoch rows still collecting; front is `base_epoch`.
    window: VecDeque<EpochSlot>,
    base_epoch: u64,
    merged: LaneDelta,
    epochs_merged: u64,
    hasher: FxHasher,
    delta_mismatches: u64,
}

impl EpochMerge {
    fn new(lanes: usize) -> Self {
        Self {
            lanes,
            window: VecDeque::new(),
            base_epoch: 0,
            merged: LaneDelta::default(),
            epochs_merged: 0,
            hasher: FxHasher::default(),
            delta_mismatches: 0,
        }
    }

    /// Records lane `lane`'s completed epoch `epoch`, then merges every
    /// epoch whose full lane row has arrived.
    fn complete(&mut self, lane: usize, epoch: u64, delta: LaneDelta) {
        let Some(offset) = epoch.checked_sub(self.base_epoch) else {
            debug_assert!(false, "epoch {epoch} completed twice");
            self.delta_mismatches += 1;
            return;
        };
        let offset = offset as usize;
        while self.window.len() <= offset {
            self.window.push_back(EpochSlot::new(self.lanes));
        }
        match self
            .window
            .get_mut(offset)
            .and_then(|slot| slot.deltas.get_mut(lane))
        {
            Some(cell @ None) => {
                *cell = Some(delta);
                if let Some(slot) = self.window.get_mut(offset) {
                    slot.missing -= 1;
                }
            }
            _ => {
                debug_assert!(false, "lane {lane} reported epoch {epoch} twice");
                self.delta_mismatches += 1;
                return;
            }
        }
        // Fold every complete epoch at the front of the window, lane 0
        // first — the deterministic merge order.
        while self.window.front().is_some_and(|slot| slot.missing == 0) {
            if let Some(slot) = self.window.pop_front() {
                for (lane, delta) in slot.deltas.iter().enumerate() {
                    let Some(delta) = delta else { continue };
                    self.merged.merge(delta);
                    self.hasher.write_u64(self.base_epoch);
                    self.hasher.write_u64(lane as u64);
                    self.hasher.write_u64(delta.records);
                    self.hasher.write_u64(delta.writes);
                    self.hasher.write_u64(delta.compute);
                    self.hasher.write_u64(delta.vaddr_check);
                }
            }
            self.base_epoch += 1;
            self.epochs_merged += 1;
        }
    }
}

/// Inline chunk generation for the single-threaded mode: the same chunked
/// feed and merge path, with chunks produced on demand by the consumer.
struct InlineLane<G: RecordStream> {
    gen: G,
    remaining: u64,
    spare: Vec<Vec<TraceRecord>>,
}

/// Where a lane's next chunk comes from.
enum ChunkSource<'q, G: RecordStream> {
    Inline(Vec<InlineLane<G>>),
    Queues {
        queues: &'q [LaneQueue],
        space: &'q SpaceSignal,
    },
}

/// Per-lane consumption state.
struct Cursor {
    records: Vec<TraceRecord>,
    pos: usize,
    /// Producer-side delta of the current chunk.
    produced: LaneDelta,
    /// Consumer-side re-tally of the current chunk.
    consumed: LaneDelta,
    /// Epoch index of the current chunk.
    epoch: u64,
}

impl Cursor {
    fn new() -> Self {
        Self {
            records: Vec::new(),
            pos: 0,
            produced: LaneDelta::default(),
            consumed: LaneDelta::default(),
            epoch: 0,
        }
    }
}

/// The sharded [`RecordFeed`]: hands each lane's pre-generated records to
/// the run loop and drives the epoch-barrier merge as chunks drain.
struct ShardFeed<'q, G: RecordStream> {
    source: ChunkSource<'q, G>,
    cursors: Vec<Cursor>,
    epoch_records: u64,
    merge: EpochMerge,
}

impl<'q, G: RecordStream> ShardFeed<'q, G> {
    fn new(source: ChunkSource<'q, G>, lanes: usize, epoch_records: u64) -> Self {
        Self {
            source,
            cursors: (0..lanes).map(|_| Cursor::new()).collect(),
            epoch_records,
            merge: EpochMerge::new(lanes),
        }
    }

    /// Installs lane `lane`'s next chunk into its cursor.
    fn refill(&mut self, lane: usize) {
        let chunk = match &mut self.source {
            ChunkSource::Queues { queues, space } => match queues.get(lane) {
                Some(q) => q.pop(space),
                None => {
                    debug_assert!(false, "no queue for lane {lane}");
                    return;
                }
            },
            ChunkSource::Inline(lanes) => match lanes.get_mut(lane) {
                Some(il) => {
                    let buf = il.spare.pop().unwrap_or_default();
                    let count = il.remaining.min(self.epoch_records);
                    il.remaining -= count;
                    fill_chunk(&mut il.gen, buf, count)
                }
                None => {
                    debug_assert!(false, "no inline generator for lane {lane}");
                    return;
                }
            },
        };
        if let Some(cur) = self.cursors.get_mut(lane) {
            cur.records = chunk.records;
            cur.produced = chunk.delta;
            cur.consumed = LaneDelta::default();
            cur.pos = 0;
        }
    }

    /// Closes the current chunk of `lane`: verifies the consumer's re-tally
    /// against the producer's delta, reports the epoch to the merge, and
    /// recycles the buffer.
    fn close_chunk(&mut self, lane: usize) {
        let Some(cur) = self.cursors.get_mut(lane) else {
            return;
        };
        let consumed = cur.consumed;
        let produced = cur.produced;
        let epoch = cur.epoch;
        let buf = std::mem::take(&mut cur.records);
        cur.epoch += 1;
        if produced != consumed {
            debug_assert!(false, "lane {lane} epoch {epoch}: producer delta {produced:?} != consumer delta {consumed:?}");
            self.merge.delta_mismatches += 1;
        }
        self.merge.complete(lane, epoch, consumed);
        match &mut self.source {
            ChunkSource::Queues { queues, .. } => {
                if let Some(q) = queues.get(lane) {
                    q.recycle(buf);
                }
            }
            ChunkSource::Inline(lanes) => {
                if let Some(il) = lanes.get_mut(lane) {
                    il.spare.push(buf);
                }
            }
        }
    }

    /// Seals the run into its report. All chunks have drained by now (the
    /// run loop consumes exactly what the producers generate), so the merge
    /// window is empty unless a handoff tore.
    fn finish(mut self, producer_threads: usize) -> ShardReport {
        self.merge.delta_mismatches += self.window_leftovers();
        ShardReport {
            lanes: self.cursors.len(),
            producer_threads,
            epoch_records: self.epoch_records,
            epochs_merged: self.merge.epochs_merged,
            merged: self.merge.merged,
            checksum: self.merge.hasher.finish(),
            delta_mismatches: self.merge.delta_mismatches,
        }
    }

    fn window_leftovers(&self) -> u64 {
        self.merge
            .window
            .iter()
            .map(|slot| slot.deltas.iter().flatten().count() as u64)
            .sum()
    }
}

impl<G: RecordStream> RecordFeed for ShardFeed<'_, G> {
    fn next(&mut self, lane: usize) -> TraceRecord {
        let exhausted = match self.cursors.get(lane) {
            Some(cur) => cur.pos >= cur.records.len(),
            None => {
                debug_assert!(false, "feed polled for a lane it does not own");
                return TraceRecord::load(0, VirtAddr::new(0), 0);
            }
        };
        if exhausted {
            self.refill(lane);
        }
        let (rec, drained) = match self.cursors.get_mut(lane) {
            Some(cur) => match cur.records.get(cur.pos) {
                Some(rec) => {
                    let rec = *rec;
                    cur.pos += 1;
                    cur.consumed.note(&rec);
                    (rec, cur.pos >= cur.records.len())
                }
                None => {
                    debug_assert!(false, "lane {lane} over-consumed its stream");
                    (TraceRecord::load(0, VirtAddr::new(0), 0), false)
                }
            },
            None => (TraceRecord::load(0, VirtAddr::new(0), 0), false),
        };
        if drained {
            // Close eagerly so the final epoch merges without an extra poll
            // and the buffer goes back to the producer immediately.
            self.close_chunk(lane);
        }
        rec
    }

    /// Hands the run loop the rest of the lane's current producer chunk (up
    /// to `max` records) in one call: one queue handoff per epoch instead of
    /// one lock round-trip per record. Record order, the consumer re-tally,
    /// and epoch close points are exactly those of the scalar path.
    fn next_chunk(&mut self, lane: usize, buf: &mut Vec<TraceRecord>, max: u64) -> usize {
        if max == 0 {
            return 0;
        }
        let exhausted = match self.cursors.get(lane) {
            Some(cur) => cur.pos >= cur.records.len(),
            None => {
                debug_assert!(false, "feed polled for a lane it does not own");
                return 0;
            }
        };
        if exhausted {
            self.refill(lane);
        }
        let (count, drained) = match self.cursors.get_mut(lane) {
            Some(cur) => {
                let left = cur.records.len() - cur.pos;
                let count = left.min(usize::try_from(max).unwrap_or(usize::MAX));
                let Some(run) = cur.records.get(cur.pos..cur.pos + count) else {
                    debug_assert!(false, "lane {lane} over-consumed its stream");
                    return 0;
                };
                buf.extend_from_slice(run);
                for rec in run {
                    cur.consumed.note(rec);
                }
                cur.pos += count;
                (count, cur.pos >= cur.records.len())
            }
            None => (0, false),
        };
        if drained {
            self.close_chunk(lane);
        }
        count
    }
}

/// One producer worker: owns a dealt subset of lanes, builds their
/// generators (setup parallelism comes free), and sweeps epoch chunks into
/// the bounded per-lane queues until every owned lane's stream is fully
/// generated. A sweep skips lanes at their lookahead bound — blocking on
/// one full lane could deadlock against a consumer starved on another —
/// and only a sweep with no progress at all sleeps, on [`SpaceSignal`].
fn producer<L: LaneSource>(
    lane_ids: Vec<usize>,
    source: &L,
    accesses_per_lane: u64,
    queues: &[LaneQueue],
    space: &SpaceSignal,
    shard: ShardParams,
) {
    let mut lanes: Vec<(usize, L::Stream, u64)> = lane_ids
        .into_iter()
        .map(|i| (i, source.stream(i), accesses_per_lane))
        .collect();
    let epoch = shard.epoch_records.max(1);
    while !lanes.is_empty() {
        // Read the version *before* sweeping: a pop landing mid-sweep makes
        // the wait below return immediately instead of being lost.
        let seen = space.version();
        let mut progressed = false;
        lanes.retain_mut(|(i, gen, remaining)| {
            let Some(q) = queues.get(*i) else {
                debug_assert!(false, "producer dealt a lane with no queue");
                return false;
            };
            let Some(buf) = q.try_acquire_buffer(shard.lookahead_epochs) else {
                return true; // lane full right now; revisit next sweep
            };
            progressed = true;
            let count = (*remaining).min(epoch);
            q.push(fill_chunk(gen, buf, count));
            *remaining -= count;
            *remaining > 0
        });
        if !progressed && !lanes.is_empty() {
            space.wait_past(seen);
        }
    }
}

/// Runs `system` sharded: per-lane record generation on producer threads
/// (or inline when `shard.threads <= 1`), the shared-state commit loop on
/// the calling thread, and deltas merged at epoch barriers in lane order.
///
/// The [`SystemOutcome`] — and every statistic the system accumulates — is
/// bit-identical to [`System::run`] with the same arguments, at any thread
/// count. See the module docs for why.
pub fn run_system_sharded<T: Tracer>(
    system: &mut System<T>,
    profile: &WorkloadProfile,
    accesses_per_core: u64,
    seed: u64,
    shard: &ShardParams,
) -> (SystemOutcome, ShardReport) {
    let source = WorkloadSource { profile, seed };
    run_system_sharded_tapped(system, &source, accesses_per_core, shard, &mut NullTap)
}

/// [`run_system_sharded`] generalized over the lane streams and a
/// [`ServiceTap`]: the request-serving plane feeds admission-planned
/// streams in through `source` and observes completions through `tap`,
/// over the same producer/consumer machinery and epoch-barrier merge.
/// With one [`WorkloadGen`] stream per lane and [`NullTap`] this *is*
/// `run_system_sharded` — the closed-loop spelling delegates here.
pub fn run_system_sharded_tapped<T: Tracer, L: LaneSource, S: ServiceTap>(
    system: &mut System<T>,
    source: &L,
    accesses_per_core: u64,
    shard: &ShardParams,
    tap: &mut S,
) -> (SystemOutcome, ShardReport) {
    let lanes = system.core_count();
    let epoch = shard.epoch_records.max(1);
    let producers = if shard.threads <= 1 {
        0
    } else {
        (shard.threads - 1).min(lanes)
    };

    if producers == 0 {
        let inline: Vec<InlineLane<L::Stream>> = (0..lanes)
            .map(|i| InlineLane {
                gen: source.stream(i),
                remaining: accesses_per_core,
                spare: Vec::new(),
            })
            .collect();
        let mut feed = ShardFeed::new(ChunkSource::Inline(inline), lanes, epoch);
        let outcome = system.run_with_feed_tapped(&mut feed, accesses_per_core, tap);
        return (outcome, feed.finish(0));
    }

    let queues: Vec<LaneQueue> = (0..lanes).map(|_| LaneQueue::new()).collect();
    let queues = queues.as_slice();
    let space = SpaceSignal::default();
    let space = &space;
    std::thread::scope(|scope| {
        // Deal lanes round-robin across producers — the PR-1 pool's rule.
        for p in 0..producers {
            let ids: Vec<usize> = (p..lanes).step_by(producers).collect();
            let shard = *shard;
            scope.spawn(move || producer(ids, source, accesses_per_core, queues, space, shard));
        }
        let mut feed =
            ShardFeed::<L::Stream>::new(ChunkSource::Queues { queues, space }, lanes, epoch);
        let outcome = system.run_with_feed_tapped(&mut feed, accesses_per_core, tap);
        (outcome, feed.finish(producers))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_baselines::RandomStatic;
    use silcfm_trace::{profiles, PlacementPolicy};
    use silcfm_types::{AddressSpace, SystemConfig};

    fn space() -> AddressSpace {
        AddressSpace::new(2048 * 2048, 4 * 2048 * 2048)
    }

    fn system() -> System {
        System::new(
            SystemConfig::small(),
            space(),
            PlacementPolicy::RandomSeeded(1),
            Box::new(RandomStatic::new(space())),
        )
    }

    fn profile() -> WorkloadProfile {
        profiles::scaled(profiles::by_name("dealii").unwrap(), 0.1)
    }

    #[test]
    fn sharded_outcome_matches_serial_at_every_thread_count() {
        let profile = profile();
        let mut serial_sys = system();
        let serial = serial_sys.run(&profile, 2_000, 42);
        let serial_tally = *serial_sys.tally();

        let mut checksums = Vec::new();
        for threads in [0, 1, 2, 3, 5, 9] {
            let shard = ShardParams {
                threads,
                epoch_records: 96,
                lookahead_epochs: 3,
            };
            let mut sys = system();
            let (outcome, report) = run_system_sharded(&mut sys, &profile, 2_000, 42, &shard);
            assert_eq!(outcome, serial, "threads={threads}");
            assert_eq!(*sys.tally(), serial_tally, "threads={threads}");
            assert_eq!(report.delta_mismatches, 0);
            assert_eq!(report.merged.records, 2_000 * report.lanes as u64);
            assert_eq!(report.epochs_merged, 2_000u64.div_ceil(96));
            checksums.push(report.checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "shard checksum must be thread-count invariant: {checksums:?}"
        );
    }

    #[test]
    fn lane_deltas_merge_conservatively() {
        let profile = profile();
        let shard = ShardParams {
            threads: 2,
            epoch_records: 64,
            lookahead_epochs: 2,
        };
        let mut sys = system();
        let (_, report) = run_system_sharded(&mut sys, &profile, 777, 7, &shard);
        // Whole-run totals survive any epoch/lane grouping.
        assert_eq!(report.merged.records, 777 * report.lanes as u64);
        assert!(report.merged.writes <= report.merged.records);
        assert!(report.merged.vaddr_check != 0);
        // Re-merging two independent copies doubles every field.
        let mut doubled = report.merged;
        doubled.merge(&report.merged);
        assert_eq!(doubled.records, 2 * report.merged.records);
        assert_eq!(doubled.writes, 2 * report.merged.writes);
        assert_eq!(doubled.compute, 2 * report.merged.compute);
    }

    #[test]
    fn epoch_sizes_do_not_change_results_only_checksums() {
        let profile = profile();
        let mut base_sys = system();
        let base = base_sys.run(&profile, 1_500, 11);
        for epoch_records in [1, 7, 100, 1_500, 10_000] {
            let shard = ShardParams {
                threads: 2,
                epoch_records,
                lookahead_epochs: 1,
            };
            let mut sys = system();
            let (outcome, report) = run_system_sharded(&mut sys, &profile, 1_500, 11, &shard);
            assert_eq!(outcome, base, "epoch={epoch_records}");
            assert_eq!(report.delta_mismatches, 0);
            assert_eq!(
                report.epochs_merged,
                1_500u64.div_ceil(epoch_records.max(1))
            );
        }
    }
}
