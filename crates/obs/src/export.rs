//! Exporters: Chrome trace-event JSON, CSV time series, human summary —
//! and [`check_chrome_trace`], the validator for the first.
//!
//! The three exporters are deterministic functions of an [`ObsReport`]:
//! fixed float precision, stable orderings, no wall-clock or environment
//! input — so identical seeds yield byte-identical artifacts, which the
//! golden tests pin across serial and parallel runs.

use core::fmt::Write as _;
use std::collections::BTreeMap;

use silcfm_types::obs::Event;
use silcfm_types::AccessClass;

use crate::json::{self, Value};
use crate::report::{ObsReport, TaggedEvent, Unit};
use crate::sketch::QuantileSketch;
use crate::table::{Align, TextTable};

/// The Chrome trace `tid` hosting one event, giving one track per
/// controller/channel unit: controller on 1, NM channels from 16, FM
/// channels from 48.
fn track_of(e: &TaggedEvent) -> u32 {
    let base = match e.unit {
        Unit::Controller => return 1,
        Unit::Nm => 16,
        Unit::Fm => 48,
    };
    match e.event {
        Event::DramCmdIssue { channel, .. } | Event::QueueDepthSample { channel, .. } => {
            base + u32::from(channel)
        }
        _ => base,
    }
}

/// Human-readable name of a track id (inverse of [`track_of`]).
fn track_name(tid: u32) -> String {
    match tid {
        1 => "controller".to_string(),
        16..=47 => format!("nm.ch{}", tid - 16),
        _ => format!("fm.ch{}", tid - 48),
    }
}

/// The `"args"` object body for one event (no surrounding braces).
fn args_of(event: &Event) -> String {
    match event {
        Event::SwapStart { frame, subblock } | Event::SwapDone { frame, subblock } => {
            format!("\"frame\":{frame},\"subblock\":{subblock}")
        }
        Event::LockPromote { frame, native } => format!("\"frame\":{frame},\"native\":{native}"),
        Event::LockDemote { frame } | Event::Recovered { frame } | Event::Poisoned { frame } => {
            format!("\"frame\":{frame}")
        }
        Event::BypassDecision { engaged } | Event::Failover { engaged } => {
            format!("\"engaged\":{engaged}")
        }
        Event::FaultInjected { kind, target } => {
            format!("\"kind\":\"{}\",\"target\":{target}", kind.label())
        }
        Event::HistoryFetch { bits } => format!("\"bits\":{bits}"),
        Event::PredictorHit | Event::PredictorMiss => String::new(),
        Event::DramCmdIssue {
            channel,
            write,
            outcome,
        } => format!(
            "\"channel\":{channel},\"write\":{write},\"outcome\":\"{}\"",
            outcome.label()
        ),
        Event::QueueDepthSample {
            reads,
            writes,
            busy,
            ..
        } => format!("\"reads\":{reads},\"writes\":{writes},\"busy\":{busy}"),
    }
}

/// Renders the report as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are raw
/// simulation cycles. Queue-depth samples become counter tracks; all other
/// events are instants on their unit's thread track.
pub fn chrome_trace(report: &ObsReport) -> String {
    // Declare a thread-name metadata record for every track that has at
    // least one event, in tid order (keeps output deterministic and lets
    // the validator require every declared track to be non-empty).
    let mut tids: Vec<u32> = report.events.iter().map(track_of).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"silcfm\"}}",
    );
    for tid in &tids {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            track_name(*tid)
        );
    }
    for e in &report.events {
        let tid = track_of(e);
        let args = args_of(&e.event);
        match e.event {
            Event::QueueDepthSample { .. } => {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{} queues\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                     \"tid\":{tid},\"args\":{{{args}}}}}",
                    track_name(tid),
                    e.at
                );
            }
            _ => {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                     \"tid\":{tid},\"s\":\"t\"{}}}",
                    e.event.label(),
                    e.at,
                    if args.is_empty() {
                        String::new()
                    } else {
                        format!(",\"args\":{{{args}}}")
                    }
                );
            }
        }
    }
    let overall = report.latency.overall();
    let [p50, p95, p99, p999] = overall.percentiles();
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\
         \"total_cycles\":{},\"dropped_events\":{},\
         \"demand_lat_count\":{},\"demand_lat_p50\":{p50},\
         \"demand_lat_p95\":{p95},\"demand_lat_p99\":{p99},\
         \"demand_lat_p999\":{p999}}}}}\n",
        report.total_cycles,
        report.dropped,
        overall.count()
    );
    out
}

/// Renders the epoch time series as CSV: `epoch,cycle_start,<columns...>`
/// with six-decimal fixed-point values.
pub fn csv_series(report: &ObsReport) -> String {
    let s = &report.series;
    let mut out = String::from("epoch,cycle_start");
    for name in s.names() {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for i in 0..s.rows() {
        let _ = write!(out, "{i},{}", i as u64 * s.epoch());
        for v in s.row(i) {
            let _ = write!(out, ",{v:.6}");
        }
        out.push('\n');
    }
    out
}

/// Renders the human `--trace-summary` view: run totals, per-unit event
/// counts, and the per-class demand-latency percentiles.
pub fn summary(report: &ObsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} cycles, {} events captured, {} dropped, {} epoch rows",
        report.total_cycles,
        report.event_count(),
        report.dropped,
        report.series.rows()
    );

    let mut counts: BTreeMap<(Unit, &'static str), u64> = BTreeMap::new();
    for e in &report.events {
        *counts.entry((e.unit, e.event.label())).or_default() += 1;
    }
    if !counts.is_empty() {
        let mut t = TextTable::new(&[
            ("unit", Align::Left),
            ("event", Align::Left),
            ("count", Align::Right),
        ]);
        for ((unit, label), n) in &counts {
            t.row(vec![
                unit.label().to_string(),
                (*label).to_string(),
                n.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }

    // The percentile plane: per-class sketches plus the merged overall row.
    let mut t = TextTable::new(&[
        ("latency class", Align::Left),
        ("count", Align::Right),
        ("mean", Align::Right),
        ("p50", Align::Right),
        ("p95", Align::Right),
        ("p99", Align::Right),
        ("p999", Align::Right),
        ("max", Align::Right),
    ]);
    for class in AccessClass::ALL {
        t.row(sketch_row(class.label(), report.latency.sketch(class)));
    }
    t.row(sketch_row("overall", &report.latency.overall()));
    out.push('\n');
    out.push_str(&t.render());
    out
}

fn sketch_row(label: &str, s: &QuantileSketch) -> Vec<String> {
    let [p50, p95, p99, p999] = s.percentiles();
    vec![
        label.to_string(),
        s.count().to_string(),
        format!("{:.1}", s.mean()),
        p50.to_string(),
        p95.to_string(),
        p99.to_string(),
        p999.to_string(),
        s.max().to_string(),
    ]
}

/// One declared thread track of a Chrome trace under validation.
struct Track {
    tid: u32,
    label: String,
    events: u64,
    last_ts: f64,
}

/// Validates Chrome trace-event JSON such as [`chrome_trace`] writes: the
/// text must parse, hold a `traceEvents` array, declare at least one named
/// thread track, place every non-metadata event on a declared track with
/// a non-negative timestamp that never regresses within its track, and
/// give every declared track at least one event.
///
/// Returns `(events, tracks)`: the non-metadata event count and the number
/// of declared tracks. The error names the first violation found.
pub fn check_chrome_trace(text: &str) -> Result<(u64, usize), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no `traceEvents` array")?;

    // Declared tracks: thread_name metadata records.
    let mut tracks: Vec<Track> = Vec::new();
    for e in events {
        if e.get("name").and_then(Value::as_str) == Some("thread_name") {
            let tid = e
                .get("tid")
                .and_then(Value::as_f64)
                .ok_or("thread_name record without tid")? as u32;
            let label = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .ok_or("thread_name record without args.name")?;
            tracks.push(Track {
                tid,
                label: label.to_string(),
                events: 0,
                last_ts: -1.0,
            });
        }
    }
    if tracks.is_empty() {
        return Err("no thread tracks declared".to_string());
    }

    let mut total = 0u64;
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            continue;
        }
        let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(-1.0) as u32;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or("event without ts")?;
        if ts < 0.0 {
            return Err(format!("negative timestamp {ts}"));
        }
        total += 1;
        let track = tracks
            .iter_mut()
            .find(|t| t.tid == tid)
            .ok_or_else(|| format!("event on undeclared track tid={tid}"))?;
        if ts < track.last_ts {
            return Err(format!(
                "timestamps regress on track `{}` ({ts} after {})",
                track.label, track.last_ts
            ));
        }
        track.last_ts = ts;
        track.events += 1;
    }
    if let Some(empty) = tracks.iter().find(|t| t.events == 0) {
        return Err(format!("declared track `{}` has no events", empty.label));
    }
    Ok((total, tracks.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{EpochSampler, RUN_SERIES};
    use silcfm_types::obs::{RowKind, TraceEvent};

    fn sample_report() -> ObsReport {
        let mut series = EpochSampler::new(RUN_SERIES, 100, 300);
        series.seal(
            250,
            &[
                0.5, 0.25, 3.0, 1.0, 0.1, 0.2, 4.0, 2.0, 80.0, 80.0, 80.0, 80.0,
            ],
        );
        let mut latency = crate::sketch::LatencyBreakdown::new();
        latency.record(AccessClass::NmHit, 80);
        latency.record(AccessClass::SwapPath, 900);
        ObsReport::assemble(
            [
                vec![
                    TraceEvent {
                        at: 10,
                        event: Event::SwapStart {
                            frame: 1,
                            subblock: 2,
                        },
                    },
                    TraceEvent {
                        at: 12,
                        event: Event::PredictorHit,
                    },
                ],
                vec![
                    TraceEvent {
                        at: 11,
                        event: Event::DramCmdIssue {
                            channel: 0,
                            write: false,
                            outcome: RowKind::Miss,
                        },
                    },
                    TraceEvent {
                        at: 100,
                        event: Event::QueueDepthSample {
                            channel: 0,
                            reads: 3,
                            writes: 1,
                            busy: 44,
                        },
                    },
                ],
                vec![TraceEvent {
                    at: 15,
                    event: Event::DramCmdIssue {
                        channel: 2,
                        write: true,
                        outcome: RowKind::Hit,
                    },
                }],
            ],
            0,
            latency,
            series,
            250,
        )
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&sample_report());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains("\"name\":\"nm.ch0\""));
        assert!(json.contains("\"name\":\"fm.ch2\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"outcome\":\"miss\""));
        // It must parse with the in-tree JSON parser.
        let v = crate::json::parse(&json).expect("chrome trace parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(events.len() >= 5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = csv_series(&sample_report());
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "epoch,cycle_start,obs.hit_rate,obs.nm_demand_frac,obs.swaps,obs.locks,\
             obs.nm_bus_util,obs.fm_bus_util,obs.read_queue,obs.write_queue,\
             obs.lat.p50,obs.lat.p95,obs.lat.p99,obs.lat.p999"
        );
        assert_eq!(lines.count(), 3); // ceil(250/100)
        assert!(csv.contains("0.500000"));
    }

    #[test]
    fn summary_mentions_everything() {
        let text = summary(&sample_report());
        assert!(text.contains("250 cycles"));
        assert!(text.contains("swap_start"));
        assert!(text.contains("dram_cmd"));
        // The percentile plane lists every class plus the merged overall.
        assert!(text.contains("latency class"));
        for class in AccessClass::ALL {
            assert!(text.contains(class.label()), "missing {class}");
        }
        assert!(text.contains("overall"));
    }

    #[test]
    fn chrome_trace_carries_overall_percentiles() {
        let json = chrome_trace(&sample_report());
        let v = crate::json::parse(&json).expect("chrome trace parses");
        let other = v.get("otherData").unwrap();
        assert_eq!(
            other.get("demand_lat_count").and_then(|n| n.as_f64()),
            Some(2.0)
        );
        // p999 of {80, 900} clamps to the recorded max.
        assert_eq!(
            other.get("demand_lat_p999").and_then(|n| n.as_f64()),
            Some(900.0)
        );
    }

    /// The sample report's Chrome trace with one more record spliced in
    /// at the end of `traceEvents`.
    fn trace_with(record: &str) -> String {
        let json = chrome_trace(&sample_report());
        let spliced = json.replacen("\n],", &format!(",\n{record}\n],"), 1);
        assert_ne!(spliced, json, "splice point missing");
        spliced
    }

    #[test]
    fn check_accepts_the_exporters_trace() {
        // Controller, nm.ch0 and fm.ch2 tracks; the nm track carries the
        // command and the queue-depth counter sample.
        assert_eq!(
            check_chrome_trace(&chrome_trace(&sample_report())),
            Ok((5, 3))
        );
    }

    #[test]
    fn check_rejects_invalid_json() {
        let json = chrome_trace(&sample_report());
        let err = check_chrome_trace(json.trim_end().trim_end_matches('}')).unwrap_err();
        assert!(err.starts_with("invalid JSON"), "{err}");
    }

    #[test]
    fn check_rejects_a_document_without_trace_events() {
        let json = chrome_trace(&sample_report()).replacen("traceEvents", "events", 1);
        let err = check_chrome_trace(&json).unwrap_err();
        assert!(err.contains("no `traceEvents`"), "{err}");
    }

    #[test]
    fn check_rejects_an_event_on_an_undeclared_track() {
        let json = trace_with(r#"{"name":"stray","ph":"i","ts":20,"pid":0,"tid":99,"s":"t"}"#);
        let err = check_chrome_trace(&json).unwrap_err();
        assert!(err.contains("undeclared track tid=99"), "{err}");
    }

    #[test]
    fn check_rejects_a_declared_track_without_events() {
        let json = trace_with(
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":99,"args":{"name":"ghost"}}"#,
        );
        let err = check_chrome_trace(&json).unwrap_err();
        assert!(err.contains("`ghost` has no events"), "{err}");
    }

    #[test]
    fn check_rejects_a_timestamp_regressing_on_one_track() {
        // The controller track already holds events at cycles 10 and 12.
        let json = trace_with(r#"{"name":"late","ph":"i","ts":3,"pid":0,"tid":1,"s":"t"}"#);
        let err = check_chrome_trace(&json).unwrap_err();
        assert!(err.contains("regress on track `controller`"), "{err}");
    }
}
