//! Fixed-width text and CSV table rendering for the experiment binaries.
//!
//! Each figure/table binary prints the same rows the paper reports; this
//! module keeps the formatting in one place.
//!
//! ```
//! use vr_metrics::table::TextTable;
//!
//! let mut t = TextTable::new(vec!["trace", "G-LS", "V-R", "reduction"]);
//! t.row(vec!["SPEC-Trace-1".into(), "100.0".into(), "70.7".into(), "29.3%".into()]);
//! let text = t.render();
//! assert!(text.contains("SPEC-Trace-1"));
//! ```

/// A simple column-aligned text table that can also render as CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a column-aligned text table with a header rule.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[c] {
                    out.push(' ');
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat_n('-', rule_len));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders as CSV (no quoting; cells must not contain commas).
    ///
    /// # Panics
    ///
    /// Panics if any cell contains a comma or newline.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            for (c, cell) in row.iter().enumerate() {
                assert!(
                    !cell.contains(',') && !cell.contains('\n'),
                    "cell {cell:?} cannot be rendered as CSV"
                );
                if c > 0 {
                    out.push(',');
                }
                out.push_str(cell);
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` decimal places (helper for table cells).
pub fn fmt_f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header", "c"]);
        t.row(vec!["xxxx".into(), "1".into(), "2".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     long-header"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxx  1"));
    }

    #[test]
    fn csv_rendering() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.render_csv(), "x,y\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "CSV")]
    fn csv_rejects_commas() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x,y".into()]);
        t.render_csv();
    }

    #[test]
    fn float_helpers() {
        assert_eq!(fmt_f(4.5678, 2), "4.57");
    }
}
