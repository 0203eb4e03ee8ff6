//! Plain-text rendering of tables and figures.
//!
//! `check_claims` regenerates every table as an aligned text table and
//! every figure as an ASCII chart, so `cargo run -p rckalign-bench --bin
//! check_claims` prints the same rows/series the paper reports.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create with column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
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

    /// Render with aligned columns (first column left-aligned, the rest
    /// right-aligned — the conventional look for numeric tables).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (k, cell) in cells.iter().enumerate() {
                if k == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[0]);
                } else {
                    let _ = write!(out, "  {:>width$}", cell, width = widths[k]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as RFC-4180-ish CSV (quotes around cells containing commas
    /// or quotes), for downstream plotting tools.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let row_line =
            |cells: &[String]| cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",");
        let _ = writeln!(out, "{}", row_line(&self.headers));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row_line(row));
        }
        out
    }
}

/// Render a simulator report as a per-core statistics table (cores with
/// zero activity are skipped).
pub fn per_core_table(report: &rck_noc::SimReport) -> TextTable {
    let makespan = report.makespan.since(rck_noc::SimTime::ZERO);
    let mut t = TextTable::new(&[
        "Core", "busy (s)", "comm (s)", "idle (s)", "util", "msgs out", "msgs in", "probes",
    ]);
    for (k, c) in report.per_core.iter().enumerate() {
        if c.busy.0 == 0 && c.msgs_sent == 0 && c.msgs_recv == 0 {
            continue;
        }
        t.row(&[
            format!("rck{k:02}"),
            fmt_secs(c.busy.as_secs_f64()),
            fmt_secs(c.comm.as_secs_f64()),
            fmt_secs(c.idle.as_secs_f64()),
            format!("{:.0}%", c.utilization(makespan) * 100.0),
            c.msgs_sent.to_string(),
            c.msgs_recv.to_string(),
            c.probes.to_string(),
        ]);
    }
    t
}

/// Format seconds with a sensible precision for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format a speedup factor.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}")
}

/// One named series of (x, y) points for an ASCII chart.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Marker character.
    pub marker: char,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Render series as an ASCII scatter chart, optionally with a log y-axis
/// (Figure 5 of the paper is log-scale).
pub fn ascii_chart(series: &[Series], width: usize, height: usize, log_y: bool) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let tx = |x: f64| x;
    let ty = |y: f64| if log_y { y.max(1e-12).log10() } else { y };
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(tx(x));
        x1 = x1.max(tx(x));
        y0 = y0.min(ty(y));
        y1 = y1.max(ty(y));
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let cx = (((tx(x) - x0) / (x1 - x0)) * (width as f64 - 1.0)).round() as usize;
            let cy = (((ty(y) - y0) / (y1 - y0)) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = s.marker;
        }
    }

    let mut out = String::new();
    let y_label = |v: f64| {
        if log_y {
            format!("{:>9.1}", 10f64.powf(v))
        } else {
            format!("{v:>9.1}")
        }
    };
    for (r, row) in grid.iter().enumerate() {
        // Label top, middle, bottom rows.
        let frac = 1.0 - r as f64 / (height as f64 - 1.0);
        let label = if r == 0 || r == height - 1 || r == height / 2 {
            y_label(y0 + frac * (y1 - y0))
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{} +{}", " ".repeat(9), "-".repeat(width));
    let _ = writeln!(
        out,
        "{}  {:<10.0}{:>width$.0}",
        " ".repeat(9),
        x0,
        x1,
        width = width.saturating_sub(10)
    );
    for s in series {
        let _ = writeln!(out, "    {}  {}", s.marker, s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Slave Cores", "rckAlign", "TM-align"]);
        t.row(&["1".into(), "2027".into(), "5212".into()]);
        t.row(&["47".into(), "56".into(), "120".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Slave Cores"));
        assert!(lines[1].starts_with('-'));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["plain".into(), "1".into()]);
        t.row(&["with,comma".into(), "quote\"inside".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"quote\"\"inside\"");
    }

    #[test]
    fn per_core_table_skips_idle_cores() {
        use rck_noc::{CoreStats, SimDuration, SimReport, SimTime};
        let report = SimReport {
            makespan: SimTime(1_000_000),
            per_core: vec![
                CoreStats {
                    busy: SimDuration(500_000),
                    msgs_sent: 2,
                    ..Default::default()
                },
                CoreStats::default(),
            ],
        };
        let t = per_core_table(&report);
        assert_eq!(t.len(), 1);
        let text = t.render();
        assert!(text.contains("rck00"));
        assert!(!text.contains("rck01"));
        assert!(text.contains("50%"));
    }

    #[test]
    fn fmt_secs_precision() {
        assert_eq!(fmt_secs(2029.4), "2029");
        assert_eq!(fmt_secs(56.234), "56.2");
        assert_eq!(fmt_secs(0.1234), "0.123");
    }

    #[test]
    fn chart_contains_markers_and_legend() {
        let s = ascii_chart(
            &[
                Series {
                    label: "rckAlign".into(),
                    marker: '*',
                    points: vec![(1.0, 2027.0), (47.0, 56.0)],
                },
                Series {
                    label: "TM-align".into(),
                    marker: 'o',
                    points: vec![(1.0, 5212.0), (47.0, 120.0)],
                },
            ],
            60,
            15,
            true,
        );
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("rckAlign"));
        assert!(s.lines().count() > 15);
    }

    #[test]
    fn chart_empty_data() {
        assert_eq!(ascii_chart(&[], 40, 10, false), "(no data)\n");
    }

    #[test]
    fn chart_single_point_no_panic() {
        let s = ascii_chart(
            &[Series {
                label: "x".into(),
                marker: '+',
                points: vec![(5.0, 5.0)],
            }],
            20,
            5,
            false,
        );
        assert!(s.contains('+'));
    }
}
