//! Capturing one job's per-layer inputs: a recording [`RecordFeed`] and a
//! recording [`ServiceTap`] ride the engine's public hooks while the job
//! runs on the serial engine, built exactly as `run`/`run_serve` build it.

use std::time::{Duration, Instant};

use silcfm_fault::FaultSchedule;
use silcfm_serve::{LanePlan, ServeReport, ServeSource};
use silcfm_sim::system::SystemOutcome;
use silcfm_sim::{LaneSource, NullTap, RecordFeed, RecordStream, ServiceTap, System};
use silcfm_trace::{WorkloadGen, WorkloadProfile};
use silcfm_types::{AddressSpace, CoreId, TraceRecord};

use crate::jobs::{digest_result, digest_str, Built, Job, Machine, Serving};

/// Records handed over per feed pull, as the engine's own serial feed does.
const CHUNK: u64 = 1024;

/// A feed over per-lane record streams that keeps a copy of every record
/// it hands to the engine.
pub struct RecordingFeed<G> {
    gens: Vec<G>,
    /// Each lane's records, in generation order.
    pub captured: Vec<Vec<TraceRecord>>,
}

impl<G: RecordStream> RecordingFeed<G> {
    /// A feed over one stream per lane, each expected to yield `per_lane`
    /// records.
    pub fn new(gens: Vec<G>, per_lane: u64) -> Self {
        let captured = gens
            .iter()
            .map(|_| Vec::with_capacity(per_lane as usize))
            .collect();
        Self { gens, captured }
    }
}

impl<G: RecordStream> RecordFeed for RecordingFeed<G> {
    fn next(&mut self, lane: usize) -> TraceRecord {
        let rec = self.gens[lane].next_record();
        self.captured[lane].push(rec);
        rec
    }

    fn next_chunk(&mut self, lane: usize, buf: &mut Vec<TraceRecord>, max: u64) -> usize {
        let (gen, captured) = (&mut self.gens[lane], &mut self.captured[lane]);
        let count = max.min(CHUNK) as usize;
        for _ in 0..count {
            let rec = gen.next_record();
            buf.push(rec);
            captured.push(rec);
        }
        count
    }
}

/// One serviced record as the engine's tap reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serviced {
    /// Issue cycle, after the cache-hierarchy lookup.
    pub issue: u64,
    /// Completion cycle.
    pub completion: u64,
    /// Lane (= core) that issued the record.
    pub lane: u32,
    /// NM operations NACKed by failed channels while servicing it.
    pub nm_nacks: u32,
    /// FM operations NACKed by failed channels while servicing it.
    pub fm_nacks: u32,
}

/// A tap that records every serviced record, then forwards it to `inner`.
pub struct RecordingTap<S> {
    /// The tap the run has anyway: the request tracker, or none.
    pub inner: S,
    /// Every serviced record, in service order.
    pub serviced: Vec<Serviced>,
}

impl<S: ServiceTap> ServiceTap for RecordingTap<S> {
    fn on_serviced(
        &mut self,
        lane: usize,
        issue: u64,
        completion: u64,
        nm_nacks: u64,
        fm_nacks: u64,
    ) {
        self.serviced.push(Serviced {
            issue,
            completion,
            lane: narrow(lane as u64),
            nm_nacks: narrow(nm_nacks),
            fm_nacks: narrow(fm_nacks),
        });
        if S::ENABLED {
            self.inner
                .on_serviced(lane, issue, completion, nm_nacks, fm_nacks);
        }
    }
}

/// Saturating `u64 -> u32`: lanes and per-record NACK counts sit far below
/// the limit, and a saturated count would still show as a replay mismatch.
fn narrow(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// A serving trial's captured request plane.
pub struct CapturedServing {
    /// The admission plans the trial ran.
    pub plans: Vec<LanePlan>,
    /// The fault schedule armed on the engine, if any.
    pub schedule: Option<FaultSchedule>,
    /// The trial's report, as `run_serve` returns it.
    pub report: ServeReport,
}

/// Everything one traced job recorded, with the finished machine.
pub struct Capture {
    /// Host time of the job, set-up included, as `run`/`run_serve` spend it.
    pub e2e: Duration,
    /// The footprint-scaled profile the lanes ran.
    pub scaled: WorkloadProfile,
    /// The simulated flat address space.
    pub space: AddressSpace,
    /// The machine after the run.
    pub system: System,
    /// The run's outcome.
    pub outcome: SystemOutcome,
    /// Each lane's records, in generation order.
    pub records: Vec<Vec<TraceRecord>>,
    /// Every serviced record, in service order.
    pub serviced: Vec<Serviced>,
    /// The request plane (serving trials only).
    pub serving: Option<CapturedServing>,
    /// The job's output digest, comparable with an untraced run's.
    pub digest: u64,
}

/// Runs `job` once on the serial engine with the recording feed and tap.
///
/// # Errors
///
/// Returns the job's set-up error (an invalid fault configuration).
pub fn capture(job: &Job, m: &Machine) -> Result<Capture, String> {
    let start = Instant::now();
    let Built {
        scaled,
        space,
        mut system,
        serving,
    } = job.build(m)?;
    let (lanes, per_lane, seed) = (m.lanes(), m.params.accesses_per_core, m.params.seed);
    let serviced = Vec::with_capacity(lanes * per_lane as usize);
    let Some(Serving {
        trial,
        plans,
        schedule,
        tracker,
    }) = serving
    else {
        let gens = (0..lanes)
            .map(|l| WorkloadGen::new(&scaled, CoreId::new(l as u16), seed))
            .collect();
        let mut feed = RecordingFeed::new(gens, per_lane);
        let mut tap = RecordingTap {
            inner: NullTap,
            serviced,
        };
        let outcome = system.run_with_feed_tapped(&mut feed, per_lane, &mut tap);
        let result = job.result(&system, outcome);
        let e2e = start.elapsed();
        return Ok(Capture {
            e2e,
            scaled,
            space,
            system,
            outcome,
            records: feed.captured,
            serviced: tap.serviced,
            serving: None,
            digest: digest_result(&result),
        });
    };
    let source = ServeSource::new(&scaled, &plans, &trial.serve, seed);
    let gens = (0..lanes).map(|l| source.stream(l)).collect();
    let mut feed = RecordingFeed::new(gens, per_lane);
    let mut tap = RecordingTap {
        inner: tracker,
        serviced,
    };
    let outcome = system.run_with_feed_tapped(&mut feed, per_lane, &mut tap);
    let stats = tap.inner.finish(outcome.cycles);
    let scheduled = schedule.as_ref().map_or(0, FaultSchedule::len);
    let report = job.serve_report(&trial, &system, outcome, stats, scheduled, 0);
    let e2e = start.elapsed();
    let digest = digest_str(&report.digest());
    Ok(Capture {
        e2e,
        scaled,
        space,
        system,
        outcome,
        records: feed.captured,
        serviced: tap.serviced,
        serving: Some(CapturedServing {
            plans,
            schedule,
            report,
        }),
        digest,
    })
}
