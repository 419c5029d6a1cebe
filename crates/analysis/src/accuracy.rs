//! Measured accuracy of digest-mode figures against an exact reference.
//!
//! Digest mode ([`crate::digest`]) runs the exact figures' selections
//! with histogram cells, and promises an exactness contract,
//! [`FIGURE_CLASSES`]: headline statistics and the additive figures are
//! bit-identical to the monolithic computation, and every distribution
//! figure is a ≤2× log2-bucket approximation ([`QUANTILE_BOUND`]). This
//! module is the one instrument that *checks* the promise, on the figure
//! files users read and CI gates: [`diff_figure_file`] diffs the two
//! texts of one figure file, holding each value to the class whose
//! columns hold it, and [`compare`] exports two figure sets through
//! [`FIGURE_FILES`] and diffs each pair. `repro compare` calls the same
//! function on the files of two run directories.
//!
//! Error semantics, per value pair `(a, b)`:
//!
//! * **Exact** values (fig1, fig2's `mean_*` columns, fig5, fig8, every
//!   box `n`, and everything when neither side is a digest run) must be
//!   equal, with no slack.
//! * **Approximate** values (fig2's `median_*` columns, fig3, fig4, the
//!   fig6/7 boxes) may differ by the multiplicative error
//!   `max(a/b, b/a)` up to their class's bound. Figure 3 is
//!   renormalized by its own minimum nonzero median, a ratio of two
//!   approximate quantiles, so its propagated bound is
//!   [`QUANTILE_BOUND`]² = 4× even though each quantile is within 2×.
//! * A pair where exactly one side is zero (a value present in one run
//!   and absent in the other) or the sign flips has no meaningful ratio;
//!   it is a mismatch in every class.
//!
//! The files round fig2, fig4, fig5 and fig8 to whole bytes, and hold
//! neither the headline nor fig8's switch count; tests assert the exact
//! classes and those equal on the [`DigestFigures`] structs directly.

use crate::collect::StudyCollector;
use crate::digest::{DigestFigures, QUANTILE_BOUND};
use crate::export::{ExportError, FIGURE_FILES};
use crate::figures::{self, HeadlineParts, HeadlineStats, StudySummary};
use lockdown_obs::json::{self, Value};

/// Slack for float comparison against an approximate class's bound: the
/// measured ratios are quotients of f64 values on both sides. Exact
/// values get none.
const BOUND_EPS: f64 = 1e-9;

/// The accuracy class of one rendered figure, or of some columns of it:
/// whether digest mode reproduces it exactly, and the guaranteed
/// worst-case multiplicative error when it does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureClass {
    /// Figure name as it appears in reports (`"fig2.median"`, …). Its
    /// stem names the figure file (`fig2` → `fig2.csv`).
    pub figure: &'static str,
    /// The values of that file this class holds: those whose column
    /// starts with this prefix (`""` holds them all). A CSV value's
    /// column is its header; a box-table value's is its row's labels,
    /// in key order, and its keys, joined by `/`
    /// (`bytes/February/Domestic/stats/median`).
    pub columns: &'static str,
    /// True when digest mode reproduces this figure bit-exactly.
    pub exact: bool,
    /// Guaranteed max multiplicative error (1.0 for exact figures).
    pub bound: f64,
}

/// The digest-mode accuracy contract, one entry per compared figure, in
/// report order. This is the single source of truth consumed by the
/// manifest `accuracy` section, the text reports, and
/// [`diff_figure_file`].
pub const FIGURE_CLASSES: [FigureClass; 10] = [
    FigureClass {
        figure: "fig1",
        columns: "",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig2.mean",
        columns: "mean_",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig2.median",
        columns: "median_",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig3",
        columns: "Week_of_",
        exact: false,
        bound: QUANTILE_BOUND * QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig4",
        columns: "",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig5",
        columns: "",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig6",
        columns: "",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig7.bytes",
        columns: "bytes/",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig7.conns",
        columns: "connections/",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig8",
        columns: "",
        exact: true,
        bound: 1.0,
    },
];

/// Headline statistics flattened to named f64 values, in a fixed order
/// — the shape shared by the manifest `accuracy.headline` object and
/// cross-run drift computations.
pub fn headline_fields(h: &HeadlineStats) -> [(&'static str, f64); 10] {
    [
        ("peak_active", f64::from(h.peak_active)),
        ("trough_active", f64::from(h.trough_active)),
        ("post_shutdown_devices", h.post_shutdown_devices as f64),
        ("identified_devices", h.identified_devices as f64),
        ("intl_devices", h.intl_devices as f64),
        (
            "traffic_growth_feb_to_aprmay",
            h.traffic_growth_feb_to_aprmay,
        ),
        ("sites_growth", h.sites_growth),
        ("switches_pre", h.switches_pre as f64),
        ("switches_post", h.switches_post as f64),
        ("switches_new", h.switches_new as f64),
    ]
}

/// Render the exact-path figure set into the digest-mode container so
/// both sides of [`compare`] share one type. This *is* the exact
/// computation: each `figures::figureN` runs the same selection as the
/// digest over every sample and renders it before the next figure
/// selects, so only one figure's samples are alive at a time. The
/// headline reads Figure 1's daily totals, as a digest's does.
pub fn exact_figures(c: &StudyCollector, s: &StudySummary) -> DigestFigures {
    let fig1 = figures::figure1(c, s);
    DigestFigures {
        headline: HeadlineParts::select(c, s).render(&fig1.total),
        fig1,
        fig2: figures::figure2(c, s),
        fig3: figures::figure3(c, s),
        fig4: figures::figure4(c, s),
        fig5: figures::figure5(c, s),
        fig6: figures::figure6(c, s),
        fig7: figures::figure7(c, s),
        fig8: figures::figure8(c, s),
    }
}

/// The classes of figure file `file`: those whose figure stem is the
/// file's stem (`fig2.csv` holds `fig2.mean` and `fig2.median`).
fn classes_of(file: &str) -> impl Iterator<Item = &'static FigureClass> + '_ {
    let stem = file.split('.').next();
    FIGURE_CLASSES
        .iter()
        .filter(move |c| c.figure.split('.').next() == stem)
}

/// One figure file's diff between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureFileDiff {
    /// File name (e.g. `fig2.csv`).
    pub file: &'static str,
    /// The file's loosest bound in this comparison: the largest bound
    /// of its classes when a digest run is compared, else 1.0.
    pub tolerance: f64,
    /// Numeric value pairs compared.
    pub compared: usize,
    /// Values outside their class (an exact value that differs, an
    /// approximate one past its bound, a zero or a sign on one side
    /// only) plus shape and text differences.
    pub mismatched: usize,
    /// Largest measured value ratio (max(a/b, b/a) over pairs with
    /// the same nonzero sign; 0 if nothing compared).
    pub max_ratio: f64,
    /// Largest absolute delta.
    pub max_abs_delta: f64,
    /// Set when the file could not be compared at all (missing on one
    /// or both sides, unreadable, unparseable).
    pub note: Option<String>,
}

impl FigureFileDiff {
    fn new(file: &'static str, digest: bool) -> Self {
        FigureFileDiff {
            file,
            tolerance: classes_of(file)
                .filter(|_| digest)
                .map(|c| c.bound)
                .fold(1.0, f64::max),
            compared: 0,
            mismatched: 0,
            max_ratio: 0.0,
            max_abs_delta: 0.0,
            note: None,
        }
    }

    /// A file that could not be compared; `note` says why.
    pub fn skipped(file: &'static str, digest: bool, note: String) -> Self {
        FigureFileDiff {
            note: Some(note),
            ..FigureFileDiff::new(file, digest)
        }
    }

    /// True when the file was compared and every value sits inside its
    /// class.
    pub fn within(&self) -> bool {
        self.note.is_none() && self.mismatched == 0
    }

    /// Pair two values; `bound` is `None` when they must be equal.
    fn pair(&mut self, a: f64, b: f64, bound: Option<f64>) {
        self.compared += 1;
        self.max_abs_delta = self.max_abs_delta.max((a - b).abs());
        if a == b {
            self.max_ratio = self.max_ratio.max(1.0);
            return;
        }
        if a == 0.0 || b == 0.0 || a.signum() != b.signum() {
            self.mismatched += 1;
            return;
        }
        let ratio = (a / b).max(b / a);
        self.max_ratio = self.max_ratio.max(ratio);
        match bound {
            Some(bound) if ratio <= bound + BOUND_EPS => {}
            _ => self.mismatched += 1,
        }
    }

    /// Positional CSV diff: numeric fields pair up as values of their
    /// header's column, other fields (headers, dates) must match as
    /// text, and a line or field count that differs is a mismatch.
    fn csv(&mut self, a: &str, b: &str, bound: &dyn Fn(&str) -> Option<f64>) {
        let header: Vec<&str> = a.lines().next().unwrap_or("").split(',').collect();
        self.mismatched += a.lines().count().abs_diff(b.lines().count());
        for (ra, rb) in a.lines().zip(b.lines()) {
            self.mismatched += ra.split(',').count().abs_diff(rb.split(',').count());
            for (i, (va, vb)) in ra.split(',').zip(rb.split(',')).enumerate() {
                match (va.parse::<f64>(), vb.parse::<f64>()) {
                    (Ok(x), Ok(y)) => self.pair(x, y, bound(header.get(i).unwrap_or(&""))),
                    _ if va != vb => self.mismatched += 1,
                    _ => {}
                }
            }
        }
    }

    /// Parallel JSON walk; `column` names the values below it (see
    /// [`FigureClass::columns`]). A box's `n` counts its samples, which
    /// every mode keeps exactly.
    fn json(&mut self, a: &Value, b: &Value, column: &str, bound: &dyn Fn(&str) -> Option<f64>) {
        let join = |head: &str, tail: &str| {
            if head.is_empty() {
                tail.to_string()
            } else {
                format!("{head}/{tail}")
            }
        };
        match (a, b) {
            (Value::Object(oa), Value::Object(ob)) => {
                self.mismatched += oa.len().abs_diff(ob.len());
                let row = oa
                    .values()
                    .filter_map(Value::as_str)
                    .fold(column.to_string(), |row, label| join(&row, label));
                for (key, va) in oa {
                    match ob.get(key) {
                        Some(vb) => self.json(va, vb, &join(&row, key), bound),
                        None => self.mismatched += 1,
                    }
                }
            }
            (Value::Array(xa), Value::Array(xb)) => {
                self.mismatched += xa.len().abs_diff(xb.len());
                for (va, vb) in xa.iter().zip(xb) {
                    self.json(va, vb, column, bound);
                }
            }
            (Value::Number(x), Value::Number(y)) => {
                let count = column.rsplit('/').next() == Some("n");
                self.pair(*x, *y, if count { None } else { bound(column) });
            }
            (Value::Null, Value::Null) => {}
            (Value::Bool(x), Value::Bool(y)) if x == y => {}
            (Value::String(x), Value::String(y)) if x == y => {}
            _ => self.mismatched += 1,
        }
    }
}

/// Diff the texts `a` and `b` of figure file `file` value by value. When
/// `digest` (either run is a digest run) each value is held to the
/// [`FIGURE_CLASSES`] entry whose columns hold it; values no approximate
/// class holds, and every value when not `digest`, must be equal. A CSV
/// side with no lines holds no value to compare: the file is skipped
/// with the note "empty file".
pub fn diff_figure_file(file: &'static str, a: &str, b: &str, digest: bool) -> FigureFileDiff {
    let bound = |column: &str| {
        classes_of(file)
            .find(|c| column.starts_with(c.columns))
            .filter(|c| digest && !c.exact)
            .map(|c| c.bound)
    };
    let mut diff = FigureFileDiff::new(file, digest);
    if file.ends_with(".json") {
        let (Ok(a), Ok(b)) = (json::parse(a), json::parse(b)) else {
            return FigureFileDiff::skipped(file, digest, "unparseable JSON".to_string());
        };
        diff.json(&a, &b, "", &bound);
    } else if a.is_empty() || b.is_empty() {
        return FigureFileDiff::skipped(file, digest, "empty file".to_string());
    } else {
        diff.csv(a, b, &bound);
    }
    diff
}

/// Diff a digest run's figures (`candidate`) against an exact
/// `reference`: both are exported through [`FIGURE_FILES`], and each
/// file pair goes through [`diff_figure_file`] under the digest
/// contract. One row per file, in [`FIGURE_FILES`] order.
pub fn compare(
    candidate: &DigestFigures,
    reference: &DigestFigures,
) -> Result<Vec<FigureFileDiff>, ExportError> {
    FIGURE_FILES
        .iter()
        .map(|&(file, export)| {
            Ok(diff_figure_file(
                file,
                &export(candidate)?,
                &export(reference)?,
                true,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "date,mean_iot,median_iot\n";

    fn fig2(rows: &str, other: &str, digest: bool) -> FigureFileDiff {
        diff_figure_file(
            "fig2.csv",
            &format!("{FIG2}{rows}"),
            &format!("{FIG2}{other}"),
            digest,
        )
    }

    #[test]
    fn self_compare_is_perfect() {
        // A figure set compared against itself: every value is equal
        // (the empty render's box tables hold none).
        let d = crate::digest::ShardDigest::empty().render();
        let diffs = compare(&d, &d).expect("export");
        assert_eq!(diffs.len(), FIGURE_FILES.len());
        for f in &diffs {
            assert!(f.within(), "{f:?}");
            assert!(f.max_ratio <= 1.0 && f.max_abs_delta == 0.0, "{f:?}");
        }
    }

    #[test]
    fn per_file_tolerances_follow_the_accuracy_contract() {
        let tolerance =
            |digest| FIGURE_FILES.map(|(file, _)| diff_figure_file(file, "", "", digest).tolerance);
        assert_eq!(tolerance(true), [1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 2.0, 1.0]);
        assert_eq!(tolerance(false), [1.0; 8]);
    }

    #[test]
    fn mean_columns_are_exact_while_medians_get_2x() {
        let f = fig2("d,100,100\n", "d,100,190\n", true);
        assert!(f.within(), "{f:?}");
        assert_eq!((f.compared, f.max_ratio), (2, 1.9));
        // A mean 1 % off is a mismatch; so is a median past 2×.
        assert_eq!(fig2("d,100,100\n", "d,101,100\n", true).mismatched, 1);
        assert_eq!(fig2("d,100,100\n", "d,100,210\n", true).mismatched, 1);
        // Between two exact runs the medians must be equal too.
        assert_eq!(fig2("d,100,100\n", "d,100,190\n", false).mismatched, 1);
        // The hour column of fig3 is not a week column: exact.
        let fig3 = |hour: &str| format!("hour_of_week,Week_of_2/20/20\n{hour},1.0\n");
        assert!(diff_figure_file("fig3.csv", &fig3("0"), &fig3("0"), true).within());
        assert!(!diff_figure_file("fig3.csv", &fig3("1"), &fig3("2"), true).within());
    }

    #[test]
    fn one_sided_zero_and_sign_flip_are_mismatches() {
        for other in ["d,100,0\n", "d,100,-3\n"] {
            let f = fig2("d,100,3\n", other, true);
            assert_eq!(f.mismatched, 1, "{other}: {f:?}");
            assert!(!f.within());
        }
    }

    #[test]
    fn an_empty_csv_side_is_not_within() {
        let full = format!("{FIG2}d,100,3\n");
        for (a, b) in [("", ""), ("", full.as_str()), (full.as_str(), "")] {
            for digest in [true, false] {
                let f = diff_figure_file("fig2.csv", a, b, digest);
                assert_eq!(f.note.as_deref(), Some("empty file"), "{a:?} {b:?}");
                assert!(!f.within());
            }
        }
    }

    #[test]
    fn ratio_is_direction_free() {
        for (a, b) in [("d,1,2\n", "d,1,4\n"), ("d,1,4\n", "d,1,2\n")] {
            let f = fig2(a, b, true);
            assert_eq!(f.max_ratio, 2.0);
            assert!(f.within(), "2.0 is within the ≤2× bound");
        }
    }

    #[test]
    fn box_counts_stay_exact_and_fig7_rows_find_their_class() {
        let boxes = |metric: &str, n: u32, median: f64| {
            format!(
                r#"[{{"metric":"{metric}","month":"May","stats":{{"n":{n},"median":{median}}}}}]"#
            )
        };
        let fig7 = |a: &str, b: &str| diff_figure_file("fig7.json", a, b, true);
        assert!(fig7(&boxes("bytes", 4, 1.0), &boxes("bytes", 4, 1.9)).within());
        let f = fig7(&boxes("bytes", 4, 1.0), &boxes("bytes", 5, 1.0));
        assert_eq!(f.mismatched, 1, "n drift must be a mismatch, not a ratio");
        assert_eq!(
            fig7(&boxes("connections", 4, 1.0), &boxes("connections", 4, 2.1)).mismatched,
            1
        );
        // A row the file's classes do not hold is exact.
        assert_eq!(
            fig7(&boxes("packets", 4, 1.0), &boxes("packets", 4, 1.9)).mismatched,
            1
        );
        let bad = diff_figure_file("fig6.json", "[", "[]", true);
        assert_eq!(bad.note.as_deref(), Some("unparseable JSON"));
        assert!(!bad.within());
    }

    #[test]
    fn headline_fields_cover_every_stat() {
        let h = HeadlineStats {
            peak_active: 10,
            trough_active: 2,
            post_shutdown_devices: 5,
            identified_devices: 4,
            intl_devices: 1,
            traffic_growth_feb_to_aprmay: 0.5,
            sites_growth: 0.2,
            switches_pre: 3,
            switches_post: 2,
            switches_new: 1,
        };
        let fields = headline_fields(&h);
        assert_eq!(fields.len(), 10);
        assert_eq!(fields[0], ("peak_active", 10.0));
        assert_eq!(fields[5].1, 0.5);
    }
}
