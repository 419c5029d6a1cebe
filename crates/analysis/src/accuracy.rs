//! Measured accuracy of digest-mode figures against an exact reference.
//!
//! Digest mode ([`crate::digest`]) runs the exact figures' selections
//! with histogram cells, and promises an exactness contract: headline
//! statistics and the additive figures are bit-identical to the
//! monolithic computation, and every distribution figure is a ≤2×
//! log2-bucket approximation ([`QUANTILE_BOUND`]). This module is the
//! instrument that *checks* the promise: [`compare`] takes a candidate
//! figure set (typically a digest run's) and an exact reference
//! (typically rendered from a full `Study` via [`exact_figures`]) and
//! reports, per figure, the measured worst and mean multiplicative
//! error next to the guaranteed bound.
//!
//! Error semantics:
//!
//! * **Exact figures** (fig1, fig2 means, fig5, fig8, headline): the
//!   report carries the max absolute delta, which must be zero.
//! * **Approximate figures** (fig2 medians, fig3, fig4, fig6/7 boxes):
//!   each positive value pair contributes a multiplicative error
//!   `max(a/e, e/a) ≥ 1`; the report carries the max and mean over all
//!   pairs, to be read against the figure's bound. Figure 3 is
//!   renormalized by its own minimum nonzero median, a ratio of two
//!   approximate quantiles, so its propagated bound is
//!   [`QUANTILE_BOUND`]² = 4× even though each quantile is within 2×.
//! * A pair where exactly one side is zero (a value present in one run
//!   and absent in the other) has no finite ratio; it is counted as a
//!   `mismatched` point and fails the bound check.

use crate::collect::StudyCollector;
use crate::digest::{DigestFigures, QUANTILE_BOUND};
use crate::figures::{self, HeadlineStats, StudySummary};
use crate::stats::BoxStats;

/// Slack for float comparison against a bound: the measured ratios are
/// products/quotients of f64 arithmetic on both sides.
const BOUND_EPS: f64 = 1e-9;

/// The accuracy class of one rendered figure: whether digest mode
/// reproduces it exactly, and the guaranteed worst-case multiplicative
/// error when it does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureClass {
    /// Figure name as it appears in reports (`"fig2.median"`, …).
    pub figure: &'static str,
    /// True when digest mode reproduces this figure bit-exactly.
    pub exact: bool,
    /// Guaranteed max multiplicative error (1.0 for exact figures).
    pub bound: f64,
}

/// The digest-mode accuracy contract, one entry per compared figure, in
/// report order. This is the single source of truth consumed by the
/// manifest `accuracy` section, the text reports, and [`compare`].
pub const FIGURE_CLASSES: [FigureClass; 10] = [
    FigureClass {
        figure: "fig1",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig2.mean",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig2.median",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig3",
        exact: false,
        bound: QUANTILE_BOUND * QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig4",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig5",
        exact: true,
        bound: 1.0,
    },
    FigureClass {
        figure: "fig6",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig7.bytes",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig7.conns",
        exact: false,
        bound: QUANTILE_BOUND,
    },
    FigureClass {
        figure: "fig8",
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

/// Measured error of one figure in an [`AccuracyReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FigureAccuracy {
    /// Figure name (`"fig2.median"`, …).
    pub figure: &'static str,
    /// True when the digest contract promises this figure exactly.
    pub exact: bool,
    /// Guaranteed max multiplicative error (1.0 for exact figures).
    pub bound: f64,
    /// Positive value pairs that contributed a ratio.
    pub compared: usize,
    /// Pairs where exactly one side was zero/absent (no finite ratio).
    pub mismatched: usize,
    /// Worst measured multiplicative error (1.0 = perfect, or no pairs).
    pub max_ratio: f64,
    /// Mean measured multiplicative error over compared pairs.
    pub mean_ratio: f64,
    /// Max absolute delta over every value pair (exactness witness).
    pub max_abs_delta: f64,
}

impl FigureAccuracy {
    /// Whether the measured error honors this figure's guarantee:
    /// bit-equality for exact figures, `max_ratio ≤ bound` (and no
    /// zero-mismatched points) for approximate ones.
    pub fn within_bound(&self) -> bool {
        if self.mismatched > 0 {
            return false;
        }
        if self.exact {
            self.max_abs_delta == 0.0
        } else {
            self.max_ratio <= self.bound + BOUND_EPS
        }
    }
}

/// Measured per-figure error between two rendered figure sets.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Max absolute delta over the ten headline fields (must be 0: the
    /// headline is exact in digest mode).
    pub headline_max_abs_delta: f64,
    /// Max relative delta over the headline fields
    /// (`|a−e| / max(|a|,|e|)`; 0 when both sides are 0).
    pub headline_max_rel_delta: f64,
    /// One row per figure, in [`FIGURE_CLASSES`] order.
    pub figures: Vec<FigureAccuracy>,
}

impl AccuracyReport {
    /// Whether every figure honors its guaranteed bound and the
    /// headline is bit-identical.
    pub fn within_bounds(&self) -> bool {
        self.headline_max_abs_delta == 0.0 && self.figures.iter().all(FigureAccuracy::within_bound)
    }

    /// Worst measured multiplicative error across the approximate
    /// figures (1.0 when nothing was compared).
    pub fn worst_ratio(&self) -> f64 {
        self.figures
            .iter()
            .filter(|f| !f.exact)
            .map(|f| f.max_ratio)
            .fold(1.0, f64::max)
    }

    /// Human-readable rows for the text reports, one line per figure
    /// plus a headline line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "headline      exact  Δmax {:.3} (rel {:.2e})\n",
            self.headline_max_abs_delta, self.headline_max_rel_delta
        ));
        for f in &self.figures {
            if f.exact {
                out.push_str(&format!(
                    "{:<13} exact  Δmax {:.3}{}\n",
                    f.figure,
                    f.max_abs_delta,
                    if f.within_bound() { "" } else { "  VIOLATED" },
                ));
            } else {
                out.push_str(&format!(
                    "{:<13} ≤{:.0}×   measured max {:.3}× mean {:.3}× over {} points{}{}\n",
                    f.figure,
                    f.bound,
                    f.max_ratio,
                    f.mean_ratio,
                    f.compared,
                    if f.mismatched > 0 {
                        format!(" ({} mismatched)", f.mismatched)
                    } else {
                        String::new()
                    },
                    if f.within_bound() { "" } else { "  VIOLATED" },
                ));
            }
        }
        out
    }
}

/// Render the exact-path figure set into the digest-mode container so
/// both sides of [`compare`] share one type. This *is* the exact
/// computation: each `figures::figureN` runs the same selection as the
/// digest over every sample and renders it before the next figure
/// selects, so only one figure's samples are alive at a time.
pub fn exact_figures(c: &StudyCollector, s: &StudySummary) -> DigestFigures {
    DigestFigures {
        fig1: figures::figure1(c, s),
        fig2: figures::figure2(c, s),
        fig3: figures::figure3(c, s),
        fig4: figures::figure4(c, s),
        fig5: figures::figure5(c, s),
        fig6: figures::figure6(c, s),
        fig7: figures::figure7(c, s),
        fig8: figures::figure8(c, s),
        headline: figures::headline_stats(c, s),
    }
}

/// Running error accumulator over one figure's value pairs.
#[derive(Debug, Default)]
struct Acc {
    compared: usize,
    mismatched: usize,
    max_ratio: f64,
    sum_ratio: f64,
    max_abs: f64,
}

impl Acc {
    fn pair(&mut self, a: f64, e: f64) {
        let d = (a - e).abs();
        if d > self.max_abs {
            self.max_abs = d;
        }
        if a == 0.0 && e == 0.0 {
            return;
        }
        if a <= 0.0 || e <= 0.0 {
            self.mismatched += 1;
            return;
        }
        let r = if a > e { a / e } else { e / a };
        self.compared += 1;
        self.sum_ratio += r;
        if r > self.max_ratio {
            self.max_ratio = r;
        }
    }

    fn boxes(&mut self, a: Option<&BoxStats>, e: Option<&BoxStats>) {
        match (a, e) {
            (None, None) => {}
            (Some(a), Some(e)) => {
                // The sample count is additive and therefore exact even
                // in digest mode; a count drift is a mismatch, not a
                // quantile error.
                if a.n != e.n {
                    self.mismatched += 1;
                }
                for (av, ev) in [
                    (a.p1, e.p1),
                    (a.q1, e.q1),
                    (a.median, e.median),
                    (a.q3, e.q3),
                    (a.p95, e.p95),
                    (a.p99, e.p99),
                ] {
                    self.pair(av, ev);
                }
            }
            _ => self.mismatched += 1,
        }
    }

    fn finish(self, class: &FigureClass) -> FigureAccuracy {
        FigureAccuracy {
            figure: class.figure,
            exact: class.exact,
            bound: class.bound,
            compared: self.compared,
            mismatched: self.mismatched,
            max_ratio: if self.compared == 0 {
                1.0
            } else {
                self.max_ratio
            },
            mean_ratio: if self.compared == 0 {
                1.0
            } else {
                self.sum_ratio / self.compared as f64
            },
            max_abs_delta: self.max_abs,
        }
    }
}

/// Measure the per-figure error of `candidate` against the exact
/// `reference`, figure by figure in [`FIGURE_CLASSES`] order. Symmetric
/// in its error metric (multiplicative error is direction-free), but
/// conventionally called with the digest's figures first.
pub fn compare(candidate: &DigestFigures, reference: &DigestFigures) -> AccuracyReport {
    let mut headline_abs = 0.0f64;
    let mut headline_rel = 0.0f64;
    for ((_, a), (_, e)) in headline_fields(&candidate.headline)
        .iter()
        .zip(headline_fields(&reference.headline).iter())
    {
        let d = (a - e).abs();
        headline_abs = headline_abs.max(d);
        let denom = a.abs().max(e.abs());
        if denom > 0.0 {
            headline_rel = headline_rel.max(d / denom);
        }
    }

    let mut figures = Vec::with_capacity(FIGURE_CLASSES.len());
    for class in &FIGURE_CLASSES {
        let mut acc = Acc::default();
        match class.figure {
            "fig1" => {
                for (arow, erow) in candidate
                    .fig1
                    .per_bucket
                    .iter()
                    .chain(std::iter::once(&candidate.fig1.total))
                    .zip(
                        reference
                            .fig1
                            .per_bucket
                            .iter()
                            .chain(std::iter::once(&reference.fig1.total)),
                    )
                {
                    for (&a, &e) in arow.iter().zip(erow.iter()) {
                        acc.pair(f64::from(a), f64::from(e));
                    }
                }
            }
            "fig2.mean" => {
                for (arow, erow) in candidate.fig2.mean.iter().zip(reference.fig2.mean.iter()) {
                    for (&a, &e) in arow.iter().zip(erow.iter()) {
                        acc.pair(a, e);
                    }
                }
            }
            "fig2.median" => {
                for (arow, erow) in candidate
                    .fig2
                    .median
                    .iter()
                    .zip(reference.fig2.median.iter())
                {
                    for (&a, &e) in arow.iter().zip(erow.iter()) {
                        acc.pair(a, e);
                    }
                }
            }
            "fig3" => {
                for (arow, erow) in candidate.fig3.weeks.iter().zip(reference.fig3.weeks.iter()) {
                    for (&a, &e) in arow.iter().zip(erow.iter()) {
                        acc.pair(a, e);
                    }
                }
            }
            "fig4" => {
                for (arow, erow) in candidate
                    .fig4
                    .series
                    .iter()
                    .zip(reference.fig4.series.iter())
                {
                    for (&a, &e) in arow.iter().zip(erow.iter()) {
                        acc.pair(a, e);
                    }
                }
            }
            "fig5" => {
                for (&a, &e) in candidate.fig5.daily.iter().zip(reference.fig5.daily.iter()) {
                    acc.pair(a, e);
                }
            }
            "fig6" => {
                for (agrid, egrid) in candidate.fig6.boxes.iter().zip(reference.fig6.boxes.iter()) {
                    for (arow, erow) in agrid.iter().zip(egrid.iter()) {
                        for (a, e) in arow.iter().zip(erow.iter()) {
                            acc.boxes(a.as_ref(), e.as_ref());
                        }
                    }
                }
            }
            "fig7.bytes" => {
                for (arow, erow) in candidate.fig7.bytes.iter().zip(reference.fig7.bytes.iter()) {
                    for (a, e) in arow.iter().zip(erow.iter()) {
                        acc.boxes(a.as_ref(), e.as_ref());
                    }
                }
            }
            "fig7.conns" => {
                for (arow, erow) in candidate.fig7.conns.iter().zip(reference.fig7.conns.iter()) {
                    for (a, e) in arow.iter().zip(erow.iter()) {
                        acc.boxes(a.as_ref(), e.as_ref());
                    }
                }
            }
            "fig8" => {
                for (&a, &e) in candidate
                    .fig8
                    .daily_ma
                    .iter()
                    .zip(reference.fig8.daily_ma.iter())
                {
                    acc.pair(a, e);
                }
                acc.pair(
                    candidate.fig8.n_switches as f64,
                    reference.fig8.n_switches as f64,
                );
            }
            other => unreachable!("unknown figure class {other}"),
        }
        figures.push(acc.finish(class));
    }

    AccuracyReport {
        headline_max_abs_delta: headline_abs,
        headline_max_rel_delta: headline_rel,
        figures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_compare_is_perfect() {
        // A figure set compared against itself: every exact row has a
        // zero delta, every approximate row a 1.0× ratio.
        let d = crate::digest::ShardDigest::empty().render();
        let r = compare(&d, &d);
        assert!(r.within_bounds(), "{r:?}");
        assert_eq!(r.headline_max_abs_delta, 0.0);
        assert_eq!(r.worst_ratio(), 1.0);
        assert_eq!(r.figures.len(), FIGURE_CLASSES.len());
    }

    #[test]
    fn one_sided_zero_is_a_mismatch() {
        let mut acc = Acc::default();
        acc.pair(3.0, 0.0);
        let f = acc.finish(&FIGURE_CLASSES[2]);
        assert_eq!(f.mismatched, 1);
        assert!(!f.within_bound());
    }

    #[test]
    fn ratio_is_direction_free() {
        let mut a = Acc::default();
        a.pair(2.0, 4.0);
        a.pair(4.0, 2.0);
        let f = a.finish(&FIGURE_CLASSES[2]);
        assert_eq!(f.max_ratio, 2.0);
        assert_eq!(f.mean_ratio, 2.0);
        assert!(f.within_bound(), "2.0 is within the ≤2× bound");
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
