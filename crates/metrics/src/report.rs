//! Plain-text and CSV table rendering for experiment results.
//!
//! The experiment harness emits every reproduced figure/table both as an
//! aligned text table (for terminals and `EXPERIMENTS.md`) and as CSV (for
//! downstream plotting).

use std::fmt::Write as _;

/// A simple column-aligned table with a title.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows are
    /// truncated to the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats a float with 3 decimal places (the precision the paper reports).
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_is_aligned() {
        let mut t = Table::new("demo", &["model", "fps"]);
        t.push_row(vec!["DroNet".into(), "18.0".into()]);
        t.push_row(vec!["TinyYoloVoc".into(), "0.6".into()]);
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("DroNet"));
        let lines: Vec<&str> = text.lines().collect();
        // Header and row lines all share the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        assert!(t.to_csv().lines().nth(1).unwrap().contains("1,,"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["name"]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(0.12345), "0.123");
    }
}
