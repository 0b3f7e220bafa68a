//! Request completion tracking, retry accounting, and the per-epoch SLO
//! series.
//!
//! The tracker rides the engine's [`ServiceTap`]: every serviced record
//! reports its lane, issue/completion cycles, and how many channel NACKs
//! the two DRAM devices absorbed while serving it. Records are grouped
//! back into requests (per-lane, in order — the same grouping the
//! admission planner used), and each request resolves into exactly one
//! ledger disposition:
//!
//! * **completed** — last record done within the deadline, no NACKs (or a
//!   retry ladder that reached a healthy channel in time);
//! * **timed_out** — the deadline passed, either in the engine or while
//!   backing off;
//! * **failed** — the retry budget ran dry with a channel still failed.
//!
//! Retries are modeled in the *cycle domain against the fault schedule*:
//! a NACKed request retries with exponential backoff, and an attempt
//! succeeds iff every affected device shows no failed channel at the
//! attempt cycle (the [`FailureTimeline`] derived from the schedule). This
//! keeps the tap a pure observer — retry traffic never re-enters the
//! engine, so the admitted record stream (and with it the sharded
//! byte-identity proof) is untouched.

use silcfm_obs::sampler::{EpochSampler, SLO_SERIES};
use silcfm_obs::QuantileSketch;
use silcfm_sim::ServiceTap;
use silcfm_types::fault::{ChannelFault, FaultKind, ScheduledFault};
use silcfm_types::MemKind;

use crate::ledger::RequestLedger;
use crate::plan::{LanePlan, ServeParams};

/// Per-device "some channel is failed" intervals, derived from a fault
/// schedule. `Fail` opens (when the first channel goes down), `Repair`
/// closes (when the last one comes back); an unrepaired failure extends to
/// the end of time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureTimeline {
    nm: Vec<(u64, u64)>,
    fm: Vec<(u64, u64)>,
}

impl FailureTimeline {
    /// Builds the timeline from a (time-sorted) fault schedule. Non-channel
    /// faults and timing-only stalls are ignored — only hard `Fail` /
    /// `Repair` transitions define the retry ladder's success criterion.
    pub fn from_faults(faults: &[ScheduledFault]) -> Self {
        let mut timeline = Self::default();
        // Per-device per-channel failed counts; a device's interval is open
        // while any channel count is positive.
        let mut counts = [[0u32; 256]; 2];
        let mut down = [0u32; 2];
        let mut open = [None::<u64>; 2];
        for f in faults {
            let FaultKind::Dram { device, fault } = f.kind else {
                continue;
            };
            let d = match device {
                MemKind::Near => 0,
                MemKind::Far => 1,
            };
            let ch = usize::from(fault.channel());
            match fault {
                ChannelFault::Stall { .. } => {}
                ChannelFault::Fail { .. } => {
                    if counts[d][ch] == 0 {
                        down[d] += 1;
                        if down[d] == 1 {
                            open[d] = Some(f.at);
                        }
                    }
                    counts[d][ch] += 1;
                }
                ChannelFault::Repair { .. } => {
                    if counts[d][ch] > 0 {
                        counts[d][ch] -= 1;
                        if counts[d][ch] == 0 {
                            down[d] -= 1;
                            if down[d] == 0 {
                                if let Some(start) = open[d].take() {
                                    timeline.device_mut(d).push((start, f.at));
                                }
                            }
                        }
                    }
                }
            }
        }
        for (d, slot) in open.iter().enumerate() {
            if let Some(start) = *slot {
                timeline.device_mut(d).push((start, u64::MAX));
            }
        }
        timeline
    }

    fn device_mut(&mut self, d: usize) -> &mut Vec<(u64, u64)> {
        if d == 0 {
            &mut self.nm
        } else {
            &mut self.fm
        }
    }

    fn device(&self, device: MemKind) -> &[(u64, u64)] {
        match device {
            MemKind::Near => &self.nm,
            MemKind::Far => &self.fm,
        }
    }

    /// Whether `device` has at least one failed channel at cycle `t`.
    /// Interval bounds are `[start, end)`: at the repair cycle itself the
    /// device is healthy again.
    pub fn failed_at(&self, device: MemKind, t: u64) -> bool {
        let iv = self.device(device);
        let i = iv.partition_point(|&(start, _)| start <= t);
        i > 0 && t < iv[i - 1].1
    }

    /// Cycles at which a device returned to all-channels-healthy, across
    /// both devices, sorted. These are the recovery-measurement anchors.
    pub fn repairs(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .nm
            .iter()
            .chain(self.fm.iter())
            .filter(|&&(_, end)| end != u64::MAX)
            .map(|&(_, end)| end)
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether the window `[from, to]` overlaps a failed interval of
    /// `device` (the property tests' NACK-attribution check).
    pub fn overlaps_failure(&self, device: MemKind, from: u64, to: u64) -> bool {
        self.device(device)
            .iter()
            .any(|&(start, end)| start <= to && from < end)
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Within deadline.
    Completed,
    /// Deadline passed (in-engine or during backoff).
    TimedOut,
    /// Retry budget exhausted against a still-failed channel.
    Failed,
}

/// Outcome of a retry ladder (or of a clean in-engine completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The request's disposition.
    pub disposition: Disposition,
    /// Cycle at which the disposition was known: the (possibly retried)
    /// completion, or the deadline for timeouts, or the last attempt for
    /// failures.
    pub final_at: u64,
    /// Retry attempts actually issued.
    pub attempts: u32,
}

/// Classifies a channel-NACKed request through its retry ladder: attempt
/// `i` fires at `completion + backoff * (2^i - 1)`; an attempt past the
/// deadline is never issued (the request times out), an issued attempt
/// succeeds iff every affected device has no failed channel at that cycle,
/// and a successful attempt completes `est_service_cycles` later (counted
/// against the deadline). Pure function — the property tests drive it
/// directly.
pub fn classify_retry(
    arrival: u64,
    completion: u64,
    nm_affected: bool,
    fm_affected: bool,
    timeline: &FailureTimeline,
    params: &ServeParams,
) -> Resolution {
    let deadline_at = arrival.saturating_add(params.deadline_cycles);
    let mut attempts = 0u32;
    let mut last_attempt = completion;
    for i in 1..=params.retry_budget {
        let factor = (1u64 << i.min(63)) - 1;
        let t = completion.saturating_add(params.retry_backoff_cycles.saturating_mul(factor));
        if t > deadline_at {
            return Resolution {
                disposition: Disposition::TimedOut,
                final_at: deadline_at,
                attempts,
            };
        }
        attempts += 1;
        last_attempt = t;
        let nm_ok = !nm_affected || !timeline.failed_at(MemKind::Near, t);
        let fm_ok = !fm_affected || !timeline.failed_at(MemKind::Far, t);
        if nm_ok && fm_ok {
            let final_at = t.saturating_add(params.est_service_cycles);
            let disposition = if final_at <= deadline_at {
                Disposition::Completed
            } else {
                Disposition::TimedOut
            };
            return Resolution {
                disposition,
                final_at,
                attempts,
            };
        }
    }
    Resolution {
        disposition: Disposition::Failed,
        final_at: last_attempt,
        attempts,
    }
}

/// A channel-NACKed request's audit record, kept for the property tests:
/// its engine window and which devices NACKed it, so a test can check
/// every NACK overlaps a schedule-derived failure interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NackedRequest {
    /// Lane the request ran on.
    pub lane: usize,
    /// Arrival cycle from the admission plan.
    pub arrival: u64,
    /// Issue cycle of the request's first record.
    pub first_issue: u64,
    /// Completion cycle of its last record.
    pub completion: u64,
    /// Whether the NM (HBM) device NACKed any of its records.
    pub nm: bool,
    /// Whether the FM (DDR) device NACKed any of its records.
    pub fm: bool,
    /// How the retry ladder resolved it.
    pub resolution: Resolution,
}

/// Per-epoch request accounting.
#[derive(Debug, Clone)]
struct EpochBucket {
    offered: u64,
    shed: u64,
    completed: u64,
    timed_out: u64,
    failed: u64,
    retries: u64,
    sketch: QuantileSketch,
}

impl EpochBucket {
    fn empty() -> Self {
        Self {
            offered: 0,
            shed: 0,
            completed: 0,
            timed_out: 0,
            failed: 0,
            retries: 0,
            sketch: QuantileSketch::new(),
        }
    }
}

/// Per-lane record-grouping state.
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    served: u64,
    first_issue: u64,
    nm_nacks: u64,
    fm_nacks: u64,
}

/// End-of-run serving statistics: the conservation ledger, the
/// completed-request latency sketch, the `obs.slo.*` epoch series, the
/// NACK audit trail, and per-repair recovery times.
#[derive(Debug, Clone)]
pub struct ServeRunStats {
    /// The conservation ledger ([`RequestLedger::conserved`] must hold).
    pub ledger: RequestLedger,
    /// Latency sketch over *completed* requests only (shed, timed-out and
    /// failed requests have no meaningful service latency; their load
    /// shows up in the disposition counts instead).
    pub latency: QuantileSketch,
    /// The `obs.slo.*` per-epoch series.
    pub series: EpochSampler,
    /// Every channel-NACKed request, for the NACK-attribution audit.
    pub nacked: Vec<NackedRequest>,
    /// Per-repair recovery: `(repair cycle, cycles until the end of the
    /// first SLO-compliant epoch at or after it)`. `None` when no later
    /// epoch was compliant within the run.
    pub recoveries: Vec<(u64, Option<u64>)>,
}

impl ServeRunStats {
    /// Whole-run p99 of completed-request latency.
    pub fn p99(&self) -> u64 {
        self.latency.p99()
    }

    /// Encodes the run's observable state into a deterministic string:
    /// the ledger, the latency sketch, and every epoch row bit-exactly.
    /// String equality is the serial-vs-sharded byte-identity gate.
    pub fn digest(&self) -> String {
        let l = &self.ledger;
        let mut out = format!(
            "ledger {} {} {} {} {} {} {}\nsketch ",
            l.offered, l.admitted, l.completed, l.shed, l.timed_out, l.failed, l.retries
        );
        self.latency.encode(&mut out);
        out.push('\n');
        for i in 0..self.series.rows() {
            out.push_str("row");
            for v in self.series.row(i) {
                out.push_str(&format!(" {:016x}", v.to_bits()));
            }
            out.push('\n');
        }
        out
    }
}

/// The [`ServiceTap`] implementation: groups serviced records into
/// requests, resolves each through the deadline/retry model, and buckets
/// the outcome into epochs.
#[derive(Debug, Clone)]
pub struct RequestTracker {
    params: ServeParams,
    records_per_request: u64,
    admitted: Vec<Vec<u64>>,
    lanes: Vec<LaneState>,
    timeline: FailureTimeline,
    ledger: RequestLedger,
    latency: QuantileSketch,
    buckets: Vec<EpochBucket>,
    nacked: Vec<NackedRequest>,
}

impl RequestTracker {
    /// A tracker for `plans` (one per lane) under `params`, resolving
    /// retries against `timeline`. The offered / admitted / shed ledger
    /// entries and their epoch attribution are prefilled from the plans —
    /// they are admission-time facts, known before the engine runs.
    pub fn new(plans: &[LanePlan], params: &ServeParams, timeline: FailureTimeline) -> Self {
        let epoch = params.epoch_cycles.max(1);
        let mut tracker = Self {
            params: *params,
            records_per_request: params.records_per_request.max(1),
            admitted: plans.iter().map(|p| p.admitted.clone()).collect(),
            lanes: vec![LaneState::default(); plans.len()],
            timeline,
            ledger: RequestLedger::default(),
            latency: QuantileSketch::new(),
            buckets: Vec::new(),
            nacked: Vec::new(),
        };
        for plan in plans {
            tracker.ledger.offered += plan.offered;
            tracker.ledger.admitted += plan.admitted.len() as u64;
            tracker.ledger.shed += plan.shed();
            for &at in &plan.admitted {
                tracker.bucket_at(at, epoch).offered += 1;
            }
            for &at in &plan.shed_arrivals {
                let b = tracker.bucket_at(at, epoch);
                b.offered += 1;
                b.shed += 1;
            }
        }
        tracker
    }

    fn bucket_at(&mut self, cycle: u64, epoch: u64) -> &mut EpochBucket {
        let idx = (cycle / epoch) as usize;
        while self.buckets.len() <= idx {
            self.buckets.push(EpochBucket::empty());
        }
        &mut self.buckets[idx]
    }

    /// Resolves one fully-serviced request. Runs once per
    /// `records_per_request` serviced records; epoch-bucket growth is
    /// amortized over the requests that fill the epoch (declared as a lint
    /// amortization boundary).
    fn finish_request(
        &mut self,
        lane: usize,
        arrival: u64,
        first_issue: u64,
        completion: u64,
        nm_nacks: u64,
        fm_nacks: u64,
    ) {
        let resolution = if nm_nacks == 0 && fm_nacks == 0 {
            let deadline_at = arrival.saturating_add(self.params.deadline_cycles);
            Resolution {
                disposition: if completion <= deadline_at {
                    Disposition::Completed
                } else {
                    Disposition::TimedOut
                },
                final_at: completion,
                attempts: 0,
            }
        } else {
            let r = classify_retry(
                arrival,
                completion,
                nm_nacks > 0,
                fm_nacks > 0,
                &self.timeline,
                &self.params,
            );
            self.nacked.push(NackedRequest {
                lane,
                arrival,
                first_issue,
                completion,
                nm: nm_nacks > 0,
                fm: fm_nacks > 0,
                resolution: r,
            });
            r
        };

        self.ledger.retries += u64::from(resolution.attempts);
        let latency = resolution.final_at.saturating_sub(arrival);
        match resolution.disposition {
            Disposition::Completed => {
                self.ledger.completed += 1;
                self.latency.record(latency);
            }
            Disposition::TimedOut => self.ledger.timed_out += 1,
            Disposition::Failed => self.ledger.failed += 1,
        }

        let epoch = self.params.epoch_cycles.max(1);
        let attempts = u64::from(resolution.attempts);
        let disposition = resolution.disposition;
        let b = self.bucket_at(resolution.final_at, epoch);
        b.retries += attempts;
        match disposition {
            Disposition::Completed => {
                b.completed += 1;
                b.sketch.record(latency);
            }
            Disposition::TimedOut => b.timed_out += 1,
            Disposition::Failed => b.failed += 1,
        }
    }

    /// Finalizes the run: checks internal conservation, renders the epoch
    /// series, and measures recovery after each channel repair.
    pub fn finish(self, total_cycles: u64) -> ServeRunStats {
        let epoch = self.params.epoch_cycles.max(1);
        let slo = self.params.slo_p99_cycles;
        let expected = total_cycles.max(self.buckets.len() as u64 * epoch);
        let mut series = EpochSampler::new(SLO_SERIES, epoch, expected);
        let mut compliant_flags = Vec::with_capacity(self.buckets.len());
        for b in &self.buckets {
            let p99 = b.sketch.p99();
            let compliant = p99 <= slo && b.failed == 0;
            compliant_flags.push(compliant);
            series.record(&[
                b.offered as f64,
                b.completed as f64,
                b.shed as f64,
                b.timed_out as f64,
                b.failed as f64,
                b.retries as f64,
                p99 as f64,
                f64::from(u8::from(compliant)),
            ]);
        }
        series.seal(expected, &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        // The sealed top-up rows past the last recorded bucket are quiet
        // epochs — no request resolved in them — and count compliant, so a
        // repair landing in the quiet tail still measures a finite recovery.
        let total_epochs = expected.div_ceil(epoch) as usize;
        if total_epochs > compliant_flags.len() {
            compliant_flags.resize(total_epochs, true);
        }

        let recoveries = self
            .timeline
            .repairs()
            .into_iter()
            .map(|repair| {
                let first = (repair / epoch) as usize;
                let recovered = (first..compliant_flags.len())
                    .find(|&e| compliant_flags[e])
                    .map(|e| ((e as u64 + 1) * epoch).saturating_sub(repair));
                (repair, recovered)
            })
            .collect();

        ServeRunStats {
            ledger: self.ledger,
            latency: self.latency,
            series,
            nacked: self.nacked,
            recoveries,
        }
    }
}

impl ServiceTap for RequestTracker {
    fn on_serviced(&mut self, lane: usize, issue: u64, completion: u64, nm: u64, fm: u64) {
        let k = self.records_per_request;
        let Some(st) = self.lanes.get_mut(lane) else {
            return;
        };
        let idx = st.served;
        st.served += 1;
        let within = idx % k;
        if within == 0 {
            st.first_issue = issue;
            st.nm_nacks = 0;
            st.fm_nacks = 0;
        }
        st.nm_nacks += nm;
        st.fm_nacks += fm;
        if within + 1 == k {
            let first_issue = st.first_issue;
            let nm_total = st.nm_nacks;
            let fm_total = st.fm_nacks;
            let request = (idx / k) as usize;
            let arrival = match self.admitted.get(lane).and_then(|a| a.get(request)) {
                Some(&at) => at,
                // Tail filler past the admitted population: batch records
                // that pad the lane to its fixed count, outside the ledger.
                None => return,
            };
            self.finish_request(lane, arrival, first_issue, completion, nm_total, fm_total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::fault::FaultKind;

    fn fail(device: MemKind, channel: u8, at: u64) -> ScheduledFault {
        ScheduledFault {
            at,
            kind: FaultKind::Dram {
                device,
                fault: ChannelFault::Fail { channel },
            },
        }
    }

    fn repair(device: MemKind, channel: u8, at: u64) -> ScheduledFault {
        ScheduledFault {
            at,
            kind: FaultKind::Dram {
                device,
                fault: ChannelFault::Repair { channel },
            },
        }
    }

    fn params() -> ServeParams {
        ServeParams::default_plane()
    }

    #[test]
    fn timeline_tracks_overlapping_channel_failures() {
        let faults = [
            fail(MemKind::Far, 0, 100),
            fail(MemKind::Far, 1, 150),
            repair(MemKind::Far, 0, 200),
            repair(MemKind::Far, 1, 300),
            fail(MemKind::Near, 2, 500),
        ];
        let t = FailureTimeline::from_faults(&faults);
        assert!(!t.failed_at(MemKind::Far, 99));
        assert!(t.failed_at(MemKind::Far, 100));
        assert!(t.failed_at(MemKind::Far, 250), "ch1 still down");
        assert!(!t.failed_at(MemKind::Far, 300), "repair cycle is healthy");
        // Unrepaired NM failure extends forever.
        assert!(t.failed_at(MemKind::Near, u64::MAX - 1));
        assert_eq!(t.repairs(), vec![300]);
        assert!(t.overlaps_failure(MemKind::Far, 0, 120));
        assert!(!t.overlaps_failure(MemKind::Far, 301, 400));
    }

    #[test]
    fn retry_ladder_respects_deadline_and_budget() {
        let p = params();
        let deadline_at = 1_000 + p.deadline_cycles;
        // Channel repaired early: first attempt succeeds.
        let t = FailureTimeline::from_faults(&[
            fail(MemKind::Far, 0, 0),
            repair(MemKind::Far, 0, 1_500),
        ]);
        let r = classify_retry(1_000, 2_000, false, true, &t, &p);
        assert_eq!(r.disposition, Disposition::Completed);
        assert_eq!(r.attempts, 1);
        assert!(r.final_at <= deadline_at);

        // Channel never repaired: budget exhausted, every attempt within
        // the deadline.
        let t = FailureTimeline::from_faults(&[fail(MemKind::Far, 0, 0)]);
        let r = classify_retry(1_000, 2_000, false, true, &t, &p);
        assert_eq!(r.disposition, Disposition::Failed);
        assert_eq!(r.attempts, p.retry_budget);

        // Completion so late every attempt would blow the deadline: no
        // attempt is issued.
        let r = classify_retry(1_000, 1_000 + p.deadline_cycles, false, true, &t, &p);
        assert_eq!(r.disposition, Disposition::TimedOut);
        assert_eq!(r.attempts, 0);
        assert_eq!(r.final_at, deadline_at);
    }

    #[test]
    fn tracker_resolves_requests_and_conserves() {
        let p = ServeParams {
            records_per_request: 2,
            epoch_cycles: 1_000,
            ..params()
        };
        let plans = vec![LanePlan {
            admitted: vec![100, 400],
            shed_arrivals: vec![450],
            offered: 3,
        }];
        let mut tr = RequestTracker::new(&plans, &p, FailureTimeline::default());
        // Request 0: two records, clean, completes at 700.
        tr.on_serviced(0, 150, 300, 0, 0);
        tr.on_serviced(0, 320, 700, 0, 0);
        // Request 1: clean but past the deadline.
        tr.on_serviced(0, 500, 600, 0, 0);
        tr.on_serviced(0, 620, 400 + p.deadline_cycles + 1, 0, 0);
        // Tail filler: ignored.
        tr.on_serviced(0, 1_000, 1_100, 0, 0);
        let stats = tr.finish(50_000);
        assert!(stats.ledger.conserved(), "{:?}", stats.ledger);
        assert_eq!(stats.ledger.completed, 1);
        assert_eq!(stats.ledger.timed_out, 1);
        assert_eq!(stats.ledger.shed, 1);
        assert_eq!(stats.latency.count(), 1);
        assert_eq!(stats.latency.p99(), stats.latency.quantile(0.5));
        // Row 0 saw all three arrivals and the clean completion.
        let row = stats.series.row(0).to_vec();
        assert_eq!(row[0], 3.0); // offered
        assert_eq!(row[1], 1.0); // completed
        assert_eq!(row[2], 1.0); // shed
        assert_eq!(stats.series.rows(), 50);
    }

    #[test]
    fn nacked_requests_are_audited_and_retries_counted() {
        let p = ServeParams {
            records_per_request: 1,
            ..params()
        };
        let plans = vec![LanePlan {
            admitted: vec![1_000],
            shed_arrivals: vec![],
            offered: 1,
        }];
        let t = FailureTimeline::from_faults(&[
            fail(MemKind::Far, 0, 0),
            repair(MemKind::Far, 0, 2_500),
        ]);
        let mut tr = RequestTracker::new(&plans, &p, t);
        tr.on_serviced(0, 1_100, 2_000, 0, 3);
        let stats = tr.finish(10_000);
        assert!(stats.ledger.conserved());
        assert_eq!(stats.nacked.len(), 1);
        let n = stats.nacked[0];
        assert!(n.fm && !n.nm);
        assert_eq!(n.resolution.disposition, Disposition::Completed);
        assert_eq!(stats.ledger.retries, u64::from(n.resolution.attempts));
        assert!(stats.ledger.retries > 0);
    }

    #[test]
    fn recovery_is_measured_from_repair_to_compliant_epoch() {
        let p = ServeParams {
            records_per_request: 1,
            epoch_cycles: 1_000,
            ..params()
        };
        let plans = vec![LanePlan {
            admitted: vec![500, 2_500],
            shed_arrivals: vec![],
            offered: 2,
        }];
        let t = FailureTimeline::from_faults(&[
            fail(MemKind::Far, 0, 100),
            repair(MemKind::Far, 0, 1_200),
        ]);
        let mut tr = RequestTracker::new(&plans, &p, t);
        // Request 0 NACKed, never recovers in time? It completes via retry
        // after the repair (attempt at 900+2000*1=2900 > repair 1200 OK).
        tr.on_serviced(0, 600, 900, 0, 1);
        // Request 1 clean in epoch 2.
        tr.on_serviced(0, 2_600, 2_800, 0, 0);
        let stats = tr.finish(5_000);
        assert_eq!(stats.recoveries.len(), 1);
        let (repair_at, rec) = stats.recoveries[0];
        assert_eq!(repair_at, 1_200);
        // First compliant epoch at/after the repair ends at a multiple of
        // the epoch length; recovery is that boundary minus the repair.
        let rec = rec.expect("a compliant epoch exists");
        assert_eq!((repair_at + rec) % p.epoch_cycles, 0);
    }

    #[test]
    fn digests_are_deterministic() {
        let p = params();
        let plans = vec![LanePlan {
            admitted: vec![100],
            shed_arrivals: vec![],
            offered: 1,
        }];
        let run = || {
            let mut tr = RequestTracker::new(&plans, &p, FailureTimeline::default());
            tr.on_serviced(0, 150, 5_000, 0, 0);
            for i in 1..p.records_per_request {
                tr.on_serviced(0, 5_000 + i, 6_000 + i, 0, 0);
            }
            tr.finish(200_000).digest()
        };
        assert_eq!(run(), run());
        assert!(run().starts_with("ledger 1 1 1 0 0 0 0"));
    }
}
