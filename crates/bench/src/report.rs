//! Plain-text tables for the paper's figures and tables ([`crate::paper`]).

use core::fmt::Write as _;

/// One labelled row of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (workload name, scheme name, …).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// Formats a fixed-width table with a title, column headers and rows, the
/// way [`crate::paper`] prints every figure's data series.
///
/// # Panics
///
/// Panics if a row's value count does not match the column count.
///
/// # Example
///
/// ```
/// use silcfm_bench::report::{format_table, Row};
/// let t = format_table(
///     "Fig. X",
///     &["a", "b"],
///     &[Row::new("w1", vec![1.0, 2.0])],
///     2,
/// );
/// assert!(t.contains("Fig. X"));
/// assert!(t.contains("1.00"));
/// ```
pub fn format_table(title: &str, columns: &[&str], rows: &[Row], precision: usize) -> String {
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .chain([8, title.len().min(24)])
        .max()
        .unwrap_or(8);
    let col_w = columns
        .iter()
        .map(|c| c.len().max(precision + 4))
        .max()
        .unwrap_or(8);

    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:label_w$}", "");
    for c in columns {
        let _ = write!(out, " {c:>col_w$}");
    }
    let _ = writeln!(out);
    for row in rows {
        assert_eq!(
            row.values.len(),
            columns.len(),
            "row '{}' has {} values for {} columns",
            row.label,
            row.values.len(),
            columns.len()
        );
        let _ = write!(out, "{:label_w$}", row.label);
        for v in &row.values {
            let _ = write!(out, " {v:>col_w$.precision$}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_a_simple_table() {
        let t = format_table(
            "Test",
            &["x", "y"],
            &[
                Row::new("row1", vec![1.5, 2.25]),
                Row::new("gmean", vec![3.0, 4.0]),
            ],
            2,
        );
        assert!(t.starts_with("# Test\n"));
        assert!(t.contains("1.50"));
        assert!(t.contains("2.25"));
        assert!(t.contains("gmean"));
        // Header row has both column names.
        let header = t.lines().nth(1).unwrap();
        assert!(header.contains('x') && header.contains('y'));
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn mismatched_columns_panic() {
        let _ = format_table("T", &["a"], &[Row::new("r", vec![1.0, 2.0])], 2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let t = format_table("Empty", &["a"], &[], 2);
        assert!(t.contains("Empty"));
    }
}
