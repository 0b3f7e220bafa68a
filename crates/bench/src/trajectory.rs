//! The performance trajectory, `results/BENCH_trajectory.json`: one row of
//! full-system speed metrics per recorded change, and the band check that
//! gates a new measurement against the last row.
//!
//! Wall-clock rates on a shared host swing ±30% run to run, so only the
//! `ratio_*` metrics are gated: each divides two regimes timed in the same
//! interleaved rounds, which cancels host speed. The absolute `fs_*` rates
//! give the history context and are never gated.

use std::path::Path;

use silcfm_obs::json;

/// Multiplicative tolerance of the gate: a ratio may drift to `BAND` times
/// or `1 / BAND` times its last committed value before the gate trips —
/// wide enough for cross-host noise, tight enough to catch a 2x hot-path
/// regression.
pub const BAND: f64 = 1.6;

/// Accesses per regime per round that the committed rows were measured
/// at; rows at this budget are recorded as mode `"smoke"`.
pub const SMOKE_BUDGET: u64 = 16_000;

/// The metrics of one row, in file order. Only the `ratio_` entries are
/// gated.
pub const METRICS: [&str; 6] = [
    "fs_base_acc_s",
    "fs_silcfm_acc_s",
    "fs_silcfm_traced_acc_s",
    "ratio_fs_silcfm_over_base",
    "ratio_fs_traced_over_untraced",
    "ratio_fs_silcfm_over_rand",
];

/// One measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Free-form label naming the change the run measured.
    pub label: String,
    /// `"smoke"` at [`SMOKE_BUDGET`], `"default"` otherwise.
    pub mode: String,
    /// Accesses per regime per round.
    pub budget: u64,
    /// Values in [`METRICS`] order.
    pub values: [f64; 6],
}

impl Row {
    /// A row for a run measured at `budget` from its three full-system
    /// rates: the no-NM baseline, SILC-FM untraced and SILC-FM fully traced,
    /// plus random placement for the scheme ratio.
    pub fn measured(
        label: &str,
        budget: u64,
        base: f64,
        rand: f64,
        silcfm: f64,
        traced: f64,
    ) -> Self {
        let mode = if budget == SMOKE_BUDGET {
            "smoke"
        } else {
            "default"
        };
        Self {
            label: label.to_string(),
            mode: mode.to_string(),
            budget,
            values: [
                base,
                silcfm,
                traced,
                silcfm / base,
                traced / silcfm,
                silcfm / rand,
            ],
        }
    }
}

/// Whether `now` is within [`BAND`] of `base`, both edges inclusive.
pub fn in_band(now: f64, base: f64) -> bool {
    let drift = now / base;
    (1.0 / BAND..=BAND).contains(&drift)
}

/// One gated metric of a new run against the last committed row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The `ratio_` metric's name.
    pub name: &'static str,
    /// Its value in the last committed row.
    pub base: f64,
    /// Its value now.
    pub now: f64,
    /// Whether `now` is within [`BAND`] of `base`.
    pub ok: bool,
}

/// Gates every `ratio_` metric of `now` against `last`.
pub fn check(now: &Row, last: &Row) -> Vec<Verdict> {
    METRICS
        .iter()
        .zip(now.values.iter().zip(&last.values))
        .filter(|(name, _)| name.starts_with("ratio_"))
        .map(|(&name, (&now, &base))| Verdict {
            name,
            base,
            now,
            ok: in_band(now, base),
        })
        .collect()
}

/// Parses a trajectory file into its rows, oldest first.
///
/// # Errors
///
/// Returns a reason when the text is not JSON or a row lacks a field.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let root = json::parse(text)?;
    let runs = root
        .get("runs")
        .and_then(json::Value::as_array)
        .ok_or("no \"runs\" array")?;
    runs.iter()
        .enumerate()
        .map(|(i, run)| {
            let field = |name: &str| run.get(name).ok_or(format!("run {i} has no \"{name}\""));
            let text = |name: &str| {
                field(name)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("run {i}: \"{name}\" is not a string"))
            };
            let metrics = field("metrics")?;
            let mut values = [0.0; 6];
            for (value, name) in values.iter_mut().zip(METRICS) {
                *value = metrics
                    .get(name)
                    .and_then(json::Value::as_f64)
                    .ok_or(format!("run {i} has no metric \"{name}\""))?;
            }
            Ok(Row {
                label: text("label")?,
                mode: text("mode")?,
                budget: field("budget")?
                    .as_f64()
                    .ok_or(format!("run {i}: \"budget\" is not a number"))?
                    as u64,
                values,
            })
        })
        .collect()
}

/// Reads the trajectory at `path`; a missing file holds no rows.
///
/// # Errors
///
/// Returns a reason when the file exists but cannot be read or parsed.
pub fn load(path: &Path) -> Result<Vec<Row>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.to_string()),
    }
}

/// Renders the whole trajectory file.
pub fn render(rows: &[Row]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|row| {
            let body: Vec<String> = METRICS
                .iter()
                .zip(&row.values)
                .map(|(name, v)| format!("        \"{name}\": {v:.4}"))
                .collect();
            format!(
                "    {{\n      \"label\": \"{}\",\n      \"mode\": \"{}\",\n      \
                 \"budget\": {},\n      \"metrics\": {{\n{}\n      }}\n    }}",
                row.label,
                row.mode,
                row.budget,
                body.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"meta\": {{\n    \"unit\": \"simulated accesses per second (fs_*) and \
         dimensionless ratios (ratio_*)\",\n    \"methodology\": \"interleaved regimes, \
         best-of per regime across rounds; only ratio_* metrics are gated\",\n    \
         \"config\": \"small\"\n  }},\n  \"runs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../results/BENCH_trajectory.json");

    #[test]
    fn committed_trajectory_round_trips_byte_for_byte() {
        let rows = parse(COMMITTED).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].label, "pr15-sparse-history");
        assert_eq!(rows[2].mode, "smoke");
        assert_eq!(rows[2].budget, SMOKE_BUDGET);
        assert_eq!(render(&rows), COMMITTED);
    }

    #[test]
    fn band_edges_are_inclusive() {
        let base = 0.5;
        for (now, ok) in [
            (base * BAND * 0.999, true),
            (base * BAND, true),
            (base * BAND * 1.001, false),
            (base / BAND * 1.001, true),
            (base / BAND, true),
            (base / BAND * 0.999, false),
            (base, true),
        ] {
            assert_eq!(in_band(now, base), ok, "{now} against {base}");
        }
    }

    #[test]
    fn gate_trips_on_an_out_of_band_ratio() {
        let last = parse(COMMITTED).unwrap().pop().unwrap();
        // The smoke traced ratio the gate would see if tracing got 2x dearer.
        let now = Row::measured(
            "x",
            SMOKE_BUDGET,
            last.values[0],
            last.values[1] / last.values[5],
            last.values[1],
            last.values[2] / 2.0,
        );
        let verdicts = check(&now, &last);
        let names: Vec<&str> = verdicts.iter().map(|v| v.name).collect();
        assert_eq!(names, METRICS[3..]);
        let ok: Vec<bool> = verdicts.iter().map(|v| v.ok).collect();
        assert_eq!(ok, [true, false, true]);
        // The same run with tracing at its committed price passes.
        let steady = Row {
            values: last.values,
            ..now
        };
        assert!(check(&steady, &last).iter().all(|v| v.ok));
    }

    #[test]
    fn malformed_rows_are_errors() {
        assert!(parse("{}").is_err());
        let torn = COMMITTED.replace("\"fs_base_acc_s\"", "\"fs_base\"");
        assert!(parse(&torn).unwrap_err().contains("fs_base_acc_s"));
    }
}
