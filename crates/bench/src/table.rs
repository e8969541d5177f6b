//! Minimal fixed-width ASCII table formatting for the benchmark harness.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// ```
/// use dsm_bench::table::Table;
/// let mut t = Table::new(&["Protocol", "64", "256"]);
/// t.row(&["SC".to_string(), "24654".to_string(), "6297".to_string()]);
/// let s = t.render();
/// assert!(s.contains("SC"));
/// assert!(s.contains("24654"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows extend the column count.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Render the table with a header underline; first column is
    /// left-aligned, the rest right-aligned (numbers).
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "  {cell:>w$}");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["App", "x"]);
        t.row(&["lu".into(), "1".into()]);
        t.row(&["barnes-original".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all data lines same width
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["x".into()]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }
}
