//! A fixed-width text-table renderer with per-column alignment.
//!
//! The trace summaries ([`crate::export`]) and the `scheme_shootout`
//! example print through it. It is one of two table renderers: the paper's
//! figures print through `silcfm_bench::report::format_table`, a numeric
//! grid whose exact layout the committed `results/experiments_quick.txt`
//! pins.

use core::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// A simple monospace table: headers, aligned columns, two-space gutters.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given `(header, alignment)` columns.
    pub fn new(columns: &[(&str, Align)]) -> Self {
        Self {
            headers: columns.iter().map(|(h, _)| (*h).to_string()).collect(),
            aligns: columns.iter().map(|(_, a)| *a).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Missing cells render empty; extra cells are kept
    /// (and widen nothing, since they have no column).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: header line, separator, then one line per row.
    /// The output ends with a newline.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                if let Some(w) = widths.get_mut(i) {
                    *w = (*w).max(cell.len());
                }
            }
        }
        let mut out = String::new();
        self.render_line(&mut out, &self.headers, &widths);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        self.render_line(&mut out, &rule, &widths);
        for row in &self.rows {
            self.render_line(&mut out, row, &widths);
        }
        out
    }

    fn render_line(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        static EMPTY: String = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).unwrap_or(&EMPTY);
            let align = self.aligns.get(i).copied().unwrap_or(Align::Left);
            if i > 0 {
                out.push_str("  ");
            }
            let pad = w.saturating_sub(cell.len());
            match align {
                Align::Left => {
                    out.push_str(cell);
                    // Trailing spaces on the last column would be noise.
                    if i + 1 < widths.len() {
                        let _ = write!(out, "{:pad$}", "", pad = pad);
                    }
                }
                Align::Right => {
                    let _ = write!(out, "{:pad$}", "", pad = pad);
                    out.push_str(cell);
                }
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&[("scheme", Align::Left), ("rate", Align::Right)]);
        t.row(vec!["silcfm".to_string(), "1234".to_string()]);
        t.row(vec!["pom".to_string(), "7".to_string()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "scheme  rate");
        assert_eq!(lines[1], "------  ----");
        assert_eq!(lines[2], "silcfm  1234");
        assert_eq!(lines[3], "pom        7");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn wide_cells_stretch_their_column() {
        let mut t = TextTable::new(&[("a", Align::Left), ("b", Align::Right)]);
        t.row(vec!["very-long-label".to_string(), "1".to_string()]);
        let rendered = t.render();
        assert!(rendered.starts_with("a                b\n"));
    }

    #[test]
    fn missing_cells_render_empty() {
        let mut t = TextTable::new(&[("a", Align::Left), ("b", Align::Right)]);
        t.row(vec!["x".to_string()]);
        let rendered = t.render();
        assert_eq!(rendered.lines().last().unwrap(), "x   ");
    }
}
