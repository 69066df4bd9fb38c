//! Plain-text table rendering for the experiment harness — every figure
//! and table binary prints its rows through this formatter.

use std::fmt;

/// A text table with a header row.
///
/// # Examples
///
/// ```
/// use orinoco_stats::TextTable;
///
/// let mut t = TextTable::new(vec!["bench", "IPC"]);
/// t.row(vec!["mcf_like".into(), "1.23".into()]);
/// let s = t.to_string();
/// assert!(s.contains("bench"));
/// assert!(s.contains("1.23"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers. The first column
    /// (labels) is left-aligned, the rest (numbers) right-aligned.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Convenience: a row from a label and float values with `prec`
    /// decimals.
    ///
    /// # Panics
    ///
    /// Panics if the arity (1 + values) differs from the header width.
    pub fn row_f64(&mut self, label: &str, values: &[f64], prec: usize) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.prec$}")));
        self.row(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{:<w$}", cells[i], w = widths[i])?;
                } else {
                    write!(f, "{:>w$}", cells[i], w = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["name", "v"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "22.5".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with('-'));
        // numbers right-aligned in a fixed-width column
        assert!(lines[2].ends_with(" 1.0"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    fn row_f64_formats() {
        let mut t = TextTable::new(vec!["b", "x", "y"]);
        t.row_f64("k", &[1.23456, 2.0], 2);
        assert!(t.to_string().contains("1.23"));
        assert!(t.to_string().contains("2.00"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
