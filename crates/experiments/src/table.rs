//! Minimal fixed-width table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple table: a title, column headers, and rows of (label, values).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
    notes: Vec<String>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a row of pre-formatted cells.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Table {
        self.rows.push((label.into(), cells));
        self
    }

    /// Adds a row of floats rendered with 2 decimals.
    pub fn row_f(&mut self, label: impl Into<String>, cells: &[f64]) -> &mut Table {
        self.row(label, cells.iter().map(|v| format!("{v:.2}")).collect())
    }

    /// Adds a row of floats rendered with 2 decimals, with `-` for each
    /// cell the row has no value for.
    pub fn row_opt(&mut self, label: impl Into<String>, cells: &[Option<f64>]) -> &mut Table {
        let cell = |v: &Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
        self.row(label, cells.iter().map(cell).collect())
    }

    /// Appends a free-form footnote.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Table {
        self.notes.push(s.into());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([12])
            .max()
            .unwrap_or(12);
        let mut col_w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for (_, cells) in &self.rows {
            for (i, c) in cells.iter().enumerate() {
                if i >= col_w.len() {
                    col_w.push(c.len());
                } else {
                    col_w[i] = col_w[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<label_w$}", "");
        for (h, w) in self.headers.iter().zip(&col_w) {
            let _ = write!(out, "  {h:>w$}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for (i, c) in cells.iter().enumerate() {
                let w = col_w.get(i).copied().unwrap_or(c.len());
                let _ = write!(out, "  {c:>w$}");
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row_f("first", &[1.0, 2.5]);
        t.row_f("second-longer", &[10.25, 0.125]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("first"));
        assert!(s.contains("10.25"));
        assert!(s.contains("note: hello"));
        // Columns aligned: every data line has the same width up to the end.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains('.')).collect();
        assert_eq!(lines.len(), 2);
    }
}
