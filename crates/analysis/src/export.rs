//! Machine-readable export of figure data (CSV and JSON).
//!
//! The repro harness writes one file per figure so results can be
//! compared against the paper (EXPERIMENTS.md) or re-plotted elsewhere.
//! [`FIGURE_FILES`] names those files and pairs each with its exporter.

use crate::collect::SOCIAL_APPS;
use crate::digest::DigestFigures;
use crate::figures::{Fig1, Fig2, Fig3, Fig4, Fig4Series, Fig5, Fig6, Fig7, Fig8};
use crate::stats::BoxStats;
use devclass::FigureBucket;
use geoloc::SubPop;
use nettrace::time::{Day, Month, StudyCalendar};
use std::fmt::{self, Write as _};

/// A figure export failed to serialize. Writing the plain figure tables
/// cannot fail today, but the export surface is part of the study's
/// fallible API: drivers report the typed error instead of unwinding
/// mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportError {
    /// Which figure was being exported (`"fig6"`, `"fig7"`).
    pub figure: &'static str,
    /// What the serializer said.
    pub detail: String,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exporting {} failed: {}", self.figure, self.detail)
    }
}

impl std::error::Error for ExportError {}

/// Renders one figure file's contents from a run's figures.
pub type FigureExporter = fn(&DigestFigures) -> Result<String, ExportError>;

/// The eight figure files of a run, in report order: each file's name
/// and the exporter that renders it. Exact and digest runs write the
/// same files from the same [`DigestFigures`].
pub const FIGURE_FILES: [(&str, FigureExporter); 8] = [
    ("fig1.csv", |f| Ok(fig1_csv(&f.fig1))),
    ("fig2.csv", |f| Ok(fig2_csv(&f.fig2))),
    ("fig3.csv", |f| Ok(fig3_csv(&f.fig3))),
    ("fig4.csv", |f| Ok(fig4_csv(&f.fig4))),
    ("fig5.csv", |f| Ok(fig5_csv(&f.fig5))),
    ("fig6.json", |f| fig6_json(&f.fig6)),
    ("fig7.json", |f| fig7_json(&f.fig7)),
    ("fig8.csv", |f| Ok(fig8_csv(&f.fig8))),
];

/// CSV for Figure 1: day, per-bucket counts, total.
pub fn fig1_csv(f: &Fig1) -> String {
    let mut out = String::from("date,mobile,laptop_desktop,iot,unclassified,total\n");
    for d in 0..StudyCalendar::NUM_DAYS as usize {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            Day(d as u16).label(),
            f.per_bucket[0][d],
            f.per_bucket[1][d],
            f.per_bucket[2][d],
            f.per_bucket[3][d],
            f.total[d]
        ));
    }
    out
}

/// CSV for Figure 2: day, mean/median per bucket (bytes).
pub fn fig2_csv(f: &Fig2) -> String {
    let mut out = String::from("date");
    for b in FigureBucket::ALL {
        out.push_str(&format!(
            ",mean_{0},median_{0}",
            b.name().to_lowercase().replace([' ', '&'], "_")
        ));
    }
    out.push('\n');
    for d in 0..StudyCalendar::NUM_DAYS as usize {
        out.push_str(&Day(d as u16).label());
        for b in 0..4 {
            out.push_str(&format!(",{:.0},{:.0}", f.mean[b][d], f.median[b][d]));
        }
        out.push('\n');
    }
    out
}

/// CSV for Figure 3: hour-of-week rows, one column per week.
pub fn fig3_csv(f: &Fig3) -> String {
    let mut out = String::from("hour_of_week");
    for l in f.labels {
        out.push_str(&format!(",{}", l.replace(' ', "_")));
    }
    out.push('\n');
    for h in 0..168 {
        out.push_str(&format!("{h}"));
        for w in 0..4 {
            out.push_str(&format!(",{:.4}", f.weeks[w][h]));
        }
        out.push('\n');
    }
    out
}

/// CSV for Figure 4: day, four median series (bytes).
pub fn fig4_csv(f: &Fig4) -> String {
    let mut out = String::from("date");
    for s in Fig4Series::ALL {
        out.push_str(&format!(",{}", s.label().replace(' ', "_").to_lowercase()));
    }
    out.push('\n');
    for d in 0..StudyCalendar::NUM_DAYS as usize {
        out.push_str(&Day(d as u16).label());
        for i in 0..4 {
            out.push_str(&format!(",{:.0}", f.series[i][d]));
        }
        out.push('\n');
    }
    out
}

/// CSV for Figure 5: day, zoom bytes.
pub fn fig5_csv(f: &Fig5) -> String {
    let mut out = String::from("date,zoom_bytes\n");
    for d in 0..StudyCalendar::NUM_DAYS as usize {
        out.push_str(&format!("{},{:.0}\n", Day(d as u16).label(), f.daily[d]));
    }
    out
}

/// A float as the figure JSON writes it: whole values with one decimal
/// (`3.0`), others in shortest round-trip form.
fn json_f64(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// One box-table row: three labelled string fields, then the row's box
/// stats (`None` for an empty cell).
type BoxRow<'a> = ([(&'a str, &'a str); 3], Option<&'a BoxStats>);

/// The pretty-printed (two-space indent) JSON array both box-table
/// figures export, one object per row, with `null` stats for an empty
/// cell. Labels are fixed ASCII names, so they need no escaping.
fn box_table_json(rows: &[BoxRow]) -> String {
    let mut out = String::from("[");
    for (i, (labels, stats)) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n  {" } else { ",\n  {" });
        for (key, value) in labels {
            let _ = write!(out, "\n    \"{key}\": \"{value}\",");
        }
        match stats {
            None => out.push_str("\n    \"stats\": null"),
            Some(b) => {
                let _ = write!(out, "\n    \"stats\": {{\n      \"n\": {}", b.n);
                for (key, v) in [
                    ("p1", b.p1),
                    ("q1", b.q1),
                    ("median", b.median),
                    ("q3", b.q3),
                    ("p95", b.p95),
                    ("p99", b.p99),
                ] {
                    let _ = write!(out, ",\n      \"{key}\": {}", json_f64(v));
                }
                out.push_str("\n    }");
            }
        }
        out.push_str("\n  }");
    }
    out.push_str("\n]");
    out
}

/// One row per (sub-population, month) box of `table`, labelled
/// `first`, then by [`SubPop::ALL`] and [`Month::ALL`].
fn subpop_month_rows<'a>(
    rows: &mut Vec<BoxRow<'a>>,
    first: (&'a str, &'a str),
    table: &'a [[Option<BoxStats>; 4]; 2],
) {
    for (sp, months) in SubPop::ALL.iter().zip(table) {
        for (m, b) in Month::ALL.iter().zip(months) {
            let labels = [first, ("subpop", sp.label()), ("month", m.name())];
            rows.push((labels, b.as_ref()));
        }
    }
}

/// JSON for Figure 6: app → subpop → month → box stats.
pub fn fig6_json(f: &Fig6) -> Result<String, ExportError> {
    let mut rows = Vec::new();
    for (app, table) in SOCIAL_APPS.iter().zip(&f.boxes) {
        subpop_month_rows(&mut rows, ("app", app.name()), table);
    }
    Ok(box_table_json(&rows))
}

/// JSON for Figure 7: metric → subpop → month → box stats.
pub fn fig7_json(f: &Fig7) -> Result<String, ExportError> {
    let mut rows = Vec::new();
    for (metric, table) in [("bytes", &f.bytes), ("connections", &f.conns)] {
        subpop_month_rows(&mut rows, ("metric", metric), table);
    }
    Ok(box_table_json(&rows))
}

/// CSV for Figure 8: day, 3-day-MA gameplay bytes.
pub fn fig8_csv(f: &Fig8) -> String {
    let mut out = String::from("date,gameplay_bytes_ma3\n");
    for d in 0..StudyCalendar::NUM_DAYS as usize {
        out.push_str(&format!("{},{:.0}\n", Day(d as u16).label(), f.daily_ma[d]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::StudyCollector;
    use crate::figures::{self, StudySummary};

    fn empty_figs() -> (StudyCollector, StudySummary) {
        let c = StudyCollector::new();
        let s = StudySummary::finalize(&c);
        (c, s)
    }

    #[test]
    fn csvs_have_expected_shape() {
        let (c, s) = empty_figs();
        let f1 = figures::figure1(&c, &s);
        let csv = fig1_csv(&f1);
        assert_eq!(csv.lines().count(), 122); // header + 121 days
        assert!(csv.starts_with("date,mobile"));
        assert!(csv.contains("2020-02-01"));
        assert!(csv.contains("2020-05-31"));

        let f3 = figures::figure3(&c, &s);
        assert_eq!(fig3_csv(&f3).lines().count(), 169);

        let f5 = figures::figure5(&c, &s);
        assert_eq!(fig5_csv(&f5).lines().count(), 122);
    }

    #[test]
    fn jsons_parse_back() {
        use lockdown_obs::json::parse;
        let (c, s) = empty_figs();
        let f6 = figures::figure6(&c, &s);
        let v = parse(&fig6_json(&f6).unwrap()).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 3 * 2 * 4);
        let f7 = figures::figure7(&c, &s);
        let v = parse(&fig7_json(&f7).unwrap()).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2 * 2 * 4);
    }

    #[test]
    fn box_tables_keep_their_pretty_layout() {
        let b = BoxStats {
            n: 3,
            p1: 0.5,
            q1: 1.0,
            median: 2.25,
            q3: 4e6,
            p95: 1e-7,
            p99: -0.0,
        };
        let json = box_table_json(&[
            ([("app", "A"), ("subpop", "S"), ("month", "M")], Some(&b)),
            ([("app", "B"), ("subpop", "S"), ("month", "M")], None),
        ]);
        let expected = r#"[
  {
    "app": "A",
    "subpop": "S",
    "month": "M",
    "stats": {
      "n": 3,
      "p1": 0.5,
      "q1": 1.0,
      "median": 2.25,
      "q3": 4000000.0,
      "p95": 0.0000001,
      "p99": -0.0
    }
  },
  {
    "app": "B",
    "subpop": "S",
    "month": "M",
    "stats": null
  }
]"#;
        assert_eq!(json, expected);
    }
}
