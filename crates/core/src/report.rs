//! Report rendering: aligned text tables, CSV emission, ASCII charts.

use std::fmt::Write as _;

/// A simple aligned text table that can also emit CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match the header count).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {cell:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// A horizontal-bar ASCII chart, one labelled bar per point scaled to the
/// maximum value — enough to eyeball the reproduced figure shapes in a
/// terminal.
pub fn bar_chart(title: &str, unit: &str, points: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title} [{unit}]");
    let max = points.iter().map(|(_, v)| *v).fold(f64::EPSILON, f64::max);
    let wlabel = points.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in points {
        let bar = ((value / max) * 50.0).round().max(0.0) as usize;
        let _ = writeln!(
            out,
            "{label:<wlabel$} | {} {value:.1}",
            "#".repeat(bar.min(50))
        );
    }
    out
}

/// Format microseconds compactly for table cells.
pub fn fmt_us(us: f64) -> String {
    if us < 1_000.0 {
        format!("{us:.0}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

/// Format an ops/second figure compactly.
pub fn fmt_ops(ops: f64) -> String {
    if ops >= 1_000.0 {
        format!("{:.1}k", ops / 1_000.0)
    } else {
        format!("{ops:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| a   | long-header |"));
        assert!(s.contains("| 333 | 4           |"));
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["v,1".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"v,1\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn chart_scales_bars() {
        let s = bar_chart("lat", "us", &[("rf=1".into(), 10.0), ("rf=6".into(), 50.0)]);
        let lines: Vec<&str> = s.lines().collect();
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.matches('#').count()).collect();
        assert!(bars[1] > bars[0]);
        assert_eq!(bars[1], 50);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_us(412.0), "412us");
        assert_eq!(fmt_us(3_200.0), "3.20ms");
        assert_eq!(fmt_us(1_500_000.0), "1.50s");
        assert_eq!(fmt_ops(25_300.0), "25.3k");
        assert_eq!(fmt_ops(412.0), "412");
    }
}
