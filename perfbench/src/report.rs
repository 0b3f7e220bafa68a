//! Statistics and output: medians and tail percentiles, peak memory, the
//! result line the benchmark ends with, and the span file.

use crate::ledger::Span;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// One named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`, in `unit`.
    pub const fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it (the maximum for smaller samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Its nearest-rank percentile.
    pub percentile: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The tail percentile of `values`; see [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.saturating_sub(TAIL_BEYOND + 1);
    Tail {
        value: v.get(rank).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (rank + 1) as f64 / n as f64
        },
        beyond: n.saturating_sub(rank + 1),
    }
}

/// Per-metric medians across passes that each report the same metric list.
pub fn medians(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            Metric {
                value: median(&values),
                ..*m
            }
        })
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`), where the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The benchmark's last output line: one JSON object.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"job\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.name,
                s.job,
                s.start_ns,
                s.dur_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// A JSON number with all of the value's digits. JSON has no spelling for
/// a non-finite value; those read as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
