//! Finalization and the one reduction behind every figure.
//!
//! After the one-pass collection, devices are classified, segmented and
//! filtered exactly once (§3–4 of the paper) into a [`StudySummary`],
//! indexed by the slots of the collector's stores. Each figure then has
//! one *selection*, which picks the figure's devices from the summary
//! and records what they contribute, and one *render*, which turns the
//! selection into the series or boxes the paper plots. Counts and byte
//! sums are kept as integers. A quantile cell keeps its samples in a
//! [`SampleStore`], and that is the only place exact and digest runs
//! differ:
//!
//! * `Vec<f64>` keeps every sample. [`figure1`]..[`figure8`] and
//!   [`headline_stats`] select and render one figure each over it, so
//!   only one figure's samples are alive at a time.
//! * [`LogHist`](crate::LogHist) keeps a fixed-size histogram.
//!   [`ShardDigest`](crate::ShardDigest) holds every selection of one
//!   shard over it, adds shards together, and renders after the merge.
//!
//! Selections walk devices in slot order, which reaches no output: a
//! sample store sorts before it reads, and all else is integer sums.

use crate::collect::StudyCollector;
use crate::stats::{self, moving_average, BoxStats};
use devclass::{Classifier, DeviceType, FigureBucket};
use geoloc::SubPop;
use nettrace::fasthash::FastBuildHasher;
use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::DeviceId;
use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::ops::AddAssign;

/// Minimum active days before a device counts as a resident rather than
/// a campus visitor (§3: "we discard information for devices that appear
/// on the network for fewer than 14 days").
pub const VISITOR_FILTER_DAYS: usize = 14;

/// Post-shutdown users: devices with at least this many active days
/// after the academic break begins. (Departing students linger a few
/// days past the stay-at-home order; a week of post-break presence
/// separates residents from stragglers.)
pub const POST_SHUTDOWN_MIN_DAYS: usize = 7;

const ND: usize = StudyCalendar::NUM_DAYS as usize;
/// The paper's shutdown day (2020-03-19).
const SHUTDOWN_DAY: usize = 47;
/// The academic break begins (2020-03-22).
const BREAK_START: Day = Day(50);

/// What finalization decided about one resident: a device that passed
/// the 14-day visitor filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// Its classified type.
    pub device_type: DeviceType,
    /// Whether it is a post-shutdown user.
    pub post_shutdown: bool,
    /// Its sub-population, if it is an *identified* post-shutdown user:
    /// one with a usable February midpoint, as the paper's 18 % counts.
    pub subpop: Option<SubPop>,
}

/// The classified, segmented device universe of one collector, indexed
/// by that collector's slots. It reads only the collector it was
/// finalized from; debug builds check the pairing at every walk.
pub struct StudySummary {
    /// Per slot: `None` for a visitor, else what was decided.
    slots: Vec<Option<Resident>>,
    /// The [`fingerprint`] of the collector it was finalized from.
    numbering: u64,
}

/// A fingerprint of `c`'s device numbering.
fn fingerprint(c: &StudyCollector) -> u64 {
    FastBuildHasher::default().hash_one(c.devices())
}

impl StudySummary {
    /// Classify, segment and filter the collected universe, in one pass
    /// over the profile table.
    pub fn finalize(c: &StudyCollector) -> StudySummary {
        let classifier = Classifier::new();
        c.debug_assert_slots();
        let active = |days: &[u64]| days.iter().filter(|&&b| b > 0).count();
        let slots = c
            .profiles
            .iter()
            .enumerate()
            .map(|(slot, (_, profile))| {
                let row = c.volume.row(slot)?;
                if active(&row) < VISITOR_FILTER_DAYS {
                    return None;
                }
                let post_shutdown =
                    active(&row[BREAK_START.0 as usize..]) >= POST_SHUTDOWN_MIN_DAYS;
                let midpoint = c.midpoints.get(slot).filter(|_| post_shutdown);
                Some(Resident {
                    device_type: classifier.classify(profile),
                    post_shutdown,
                    subpop: midpoint.and_then(|m| m.subpop()),
                })
            })
            .collect();
        let numbering = fingerprint(c);
        StudySummary { slots, numbering }
    }

    /// The residents of `c` with their slots, in slot order. `c` must be
    /// the collector this summary was finalized from.
    pub fn residents(&self, c: &StudyCollector) -> impl Iterator<Item = (usize, Resident)> + '_ {
        debug_assert!(
            self.numbering == fingerprint(c),
            "summary read with another collector"
        );
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(slot, r)| Some((slot, (*r)?)))
    }

    /// The post-shutdown users of `c` with their slots, in slot order.
    pub fn post_shutdown(
        &self,
        c: &StudyCollector,
    ) -> impl Iterator<Item = (usize, Resident)> + '_ {
        self.residents(c).filter(|(_, r)| r.post_shutdown)
    }

    /// The residents of `c` keyed by device: the view that compares the
    /// summaries of collectors whose slots differ.
    pub fn by_device(&self, c: &StudyCollector) -> BTreeMap<DeviceId, Resident> {
        self.residents(c)
            .map(|(slot, r)| (c.devices()[slot], r))
            .collect()
    }
}

/// How a figure cell keeps its samples: the one thing in which an exact
/// run and a digest run differ. Selections record positive samples;
/// renders read medians and boxes.
pub trait SampleStore: Clone + Default {
    /// Keep a byte or connection count.
    fn record(&mut self, v: u64);
    /// Keep a duration in hours (Figure 6).
    fn record_hours(&mut self, hours: f64);
    /// Add another cell's samples (a shard merge).
    fn merge(&mut self, other: &Self);
    /// The median, or `None` without samples.
    fn median(&mut self) -> Option<f64>;
    /// The box of the counts kept by [`record`](Self::record).
    fn box_stats(&mut self) -> Option<BoxStats>;
    /// The box, in hours, of the durations kept by
    /// [`record_hours`](Self::record_hours).
    fn hours_box(&mut self) -> Option<BoxStats>;
}

/// Every sample, read with the R-7 percentiles of [`crate::stats`].
impl SampleStore for Vec<f64> {
    fn record(&mut self, v: u64) {
        self.push(v as f64);
    }

    fn record_hours(&mut self, hours: f64) {
        self.push(hours);
    }

    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }

    fn median(&mut self) -> Option<f64> {
        stats::median(self)
    }

    fn box_stats(&mut self) -> Option<BoxStats> {
        BoxStats::compute(self)
    }

    fn hours_box(&mut self) -> Option<BoxStats> {
        BoxStats::compute(self)
    }
}

/// One row of `len` cells per figure bucket or series.
fn rows<T: Clone + Default>(len: usize) -> [Vec<T>; 4] {
    std::array::from_fn(|_| vec![T::default(); len])
}

/// Add `other` into `sums`, cell by cell.
fn add<T: Copy + AddAssign>(sums: &mut [T], other: &[T]) {
    for (a, &b) in sums.iter_mut().zip(other) {
        *a += b;
    }
}

/// Merge `other`'s samples into `cells`, cell by cell.
fn merge_cells<S: SampleStore>(cells: &mut [S], other: &[S]) {
    for (a, b) in cells.iter_mut().zip(other) {
        a.merge(b);
    }
}

/// Integer sums become `f64` only here, at render. Every partial sum is
/// an integer below 2^53, so an `f64` sum of the same values, in any
/// order and over any split into shards, gives these bits exactly.
fn to_f64(sums: &[u64]) -> Vec<f64> {
    sums.iter().map(|&b| b as f64).collect()
}

/// Figure 1: active devices per day, by figure bucket.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// `per_bucket[b][d]` = active devices of bucket `b` on day `d`.
    pub per_bucket: [Vec<u32>; 4],
    /// Total active devices per day.
    pub total: Vec<u32>,
}

impl Fig1 {
    pub(crate) fn empty() -> Fig1 {
        Fig1 {
            per_bucket: rows(ND),
            total: vec![0; ND],
        }
    }

    /// Figure 1's selection: every resident counts on its active days.
    /// The counts are the figure.
    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Fig1 {
        let mut f = Fig1::empty();
        for (slot, r) in s.residents(c) {
            let Some(row) = c.volume.row(slot) else {
                continue;
            };
            let b = r.device_type.figure_bucket().index();
            for (d, &bytes) in row.iter().enumerate() {
                if bytes > 0 {
                    f.per_bucket[b][d] += 1;
                    f.total[d] += 1;
                }
            }
        }
        f
    }

    pub(crate) fn merge(&mut self, other: &Fig1) {
        for (a, b) in self.per_bucket.iter_mut().zip(&other.per_bucket) {
            add(a, b);
        }
        add(&mut self.total, &other.total);
    }
}

/// Compute Figure 1.
pub fn figure1(c: &StudyCollector, s: &StudySummary) -> Fig1 {
    Fig1::select(c, s)
}

/// Figure 2: mean and median bytes per active device per day, by bucket.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `mean[b][d]` in bytes.
    pub mean: [Vec<f64>; 4],
    /// `median[b][d]` in bytes.
    pub median: [Vec<f64>; 4],
}

/// Figure 2's selection: per bucket and day, the byte sum, count and
/// samples of the active residents.
#[derive(Debug, Clone)]
pub(crate) struct Fig2Parts<S> {
    sum: [Vec<u64>; 4],
    count: [Vec<u32>; 4],
    cells: [Vec<S>; 4],
}

impl<S: SampleStore> Fig2Parts<S> {
    pub(crate) fn empty() -> Self {
        Fig2Parts {
            sum: rows(ND),
            count: rows(ND),
            cells: rows(ND),
        }
    }

    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::empty();
        for (slot, r) in s.residents(c) {
            let Some(row) = c.volume.row(slot) else {
                continue;
            };
            let b = r.device_type.figure_bucket().index();
            for (d, &bytes) in row.iter().enumerate() {
                if bytes > 0 {
                    p.sum[b][d] += bytes;
                    p.count[b][d] += 1;
                    p.cells[b][d].record(bytes);
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        for b in 0..4 {
            add(&mut self.sum[b], &other.sum[b]);
            add(&mut self.count[b], &other.count[b]);
            merge_cells(&mut self.cells[b], &other.cells[b]);
        }
    }

    pub(crate) fn render(mut self) -> Fig2 {
        let mut f = Fig2 {
            mean: rows(ND),
            median: rows(ND),
        };
        for b in 0..4 {
            for d in 0..ND {
                let n = self.count[b][d];
                if n > 0 {
                    // Exact as an `f64` sum would be (see `to_f64`).
                    f.mean[b][d] = self.sum[b][d] as f64 / f64::from(n);
                    f.median[b][d] = self.cells[b][d].median().unwrap_or(0.0);
                }
            }
        }
        f
    }
}

/// Compute Figure 2.
pub fn figure2(c: &StudyCollector, s: &StudySummary) -> Fig2 {
    Fig2Parts::<Vec<f64>>::select(c, s).render()
}

/// Figure 3: normalized median per-device traffic per hour of week.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Week labels, as in the paper.
    pub labels: [&'static str; 4],
    /// `weeks[w][h]` = normalized median volume at hour-of-week `h`.
    pub weeks: [Vec<f64>; 4],
}

/// Figure 3's selection: per (week, hour), the bytes of every resident
/// active in that hour.
#[derive(Debug, Clone)]
pub(crate) struct Fig3Parts<S> {
    cells: [Vec<S>; 4],
}

impl<S: SampleStore> Fig3Parts<S> {
    pub(crate) fn empty() -> Self {
        Fig3Parts { cells: rows(168) }
    }

    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::empty();
        for (slot, _) in s.residents(c) {
            for (w, cells) in p.cells.iter_mut().enumerate() {
                if let Some(row) = c.hourweek.row(slot, w) {
                    for (h, &b) in row.iter().enumerate() {
                        if b > 0 {
                            cells[h].record(b);
                        }
                    }
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            merge_cells(a, b);
        }
    }

    /// Medians, divided by the minimum nonzero median across all weeks
    /// ("normalized by the minimum volume of traffic across all weeks",
    /// §4.1). A digest renormalizes after the merge.
    pub(crate) fn render(mut self) -> Fig3 {
        let mut weeks: [Vec<f64>; 4] = rows(168);
        let mut min_nonzero = f64::INFINITY;
        for (week, cells) in weeks.iter_mut().zip(&mut self.cells) {
            for (v, cell) in week.iter_mut().zip(cells) {
                if let Some(m) = cell.median() {
                    *v = m;
                    if m > 0.0 && m < min_nonzero {
                        min_nonzero = m;
                    }
                }
            }
        }
        if min_nonzero.is_finite() && min_nonzero > 0.0 {
            for week in &mut weeks {
                for v in week.iter_mut() {
                    *v /= min_nonzero;
                }
            }
        }
        Fig3 {
            labels: [
                "Week of 2/20/20",
                "Week of 3/19/20",
                "Week of 4/9/20",
                "Week of 5/14/20",
            ],
            weeks,
        }
    }
}

/// Compute Figure 3.
pub fn figure3(c: &StudyCollector, s: &StudySummary) -> Fig3 {
    Fig3Parts::<Vec<f64>>::select(c, s).render()
}

/// Figure 4's four series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig4Series {
    /// International mobile/desktop devices.
    IntlMobileDesktop,
    /// Domestic mobile/desktop devices.
    DomesticMobileDesktop,
    /// International unclassified devices.
    IntlUnclassified,
    /// Domestic unclassified devices.
    DomesticUnclassified,
}

impl Fig4Series {
    /// Legend order of the paper.
    pub const ALL: [Fig4Series; 4] = [
        Fig4Series::IntlMobileDesktop,
        Fig4Series::DomesticMobileDesktop,
        Fig4Series::IntlUnclassified,
        Fig4Series::DomesticUnclassified,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig4Series::IntlMobileDesktop => "International Mobile/Desktop",
            Fig4Series::DomesticMobileDesktop => "Domestic Mobile/Desktop",
            Fig4Series::IntlUnclassified => "International Unclassified Devices",
            Fig4Series::DomesticUnclassified => "Domestic Unclassified Devices",
        }
    }
}

/// Figure 4: median daily non-Zoom bytes per post-shutdown device, by
/// sub-population × (mobile/desktop vs unclassified); IoT excluded.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// `series[i][d]` in bytes, ordered as [`Fig4Series::ALL`].
    pub series: [Vec<f64>; 4],
}

/// Figure 4's selection: per series and day, the non-Zoom bytes of every
/// identified, non-IoT post-shutdown device active that day.
#[derive(Debug, Clone)]
pub(crate) struct Fig4Parts<S> {
    cells: [Vec<S>; 4],
}

impl<S: SampleStore> Fig4Parts<S> {
    pub(crate) fn empty() -> Self {
        Fig4Parts { cells: rows(ND) }
    }

    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::empty();
        for (slot, r) in s.post_shutdown(c) {
            let Some(sp) = r.subpop else { continue };
            // Indices in `Fig4Series::ALL` order.
            let series = match (r.device_type.figure_bucket(), sp) {
                (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::International) => 0,
                (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::Domestic) => 1,
                (FigureBucket::Unclassified, SubPop::International) => 2,
                (FigureBucket::Unclassified, SubPop::Domestic) => 3,
                (FigureBucket::Iot, _) => continue, // "exclude IoT devices here"
            };
            let Some(bytes) = c.volume.row(slot) else {
                continue;
            };
            let zoom = c.zoom.row(slot).unwrap_or([0; ND]);
            for ((cell, b), z) in p.cells[series].iter_mut().zip(bytes).zip(zoom) {
                let v = b.saturating_sub(z);
                if v > 0 {
                    cell.record(v);
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            merge_cells(a, b);
        }
    }

    pub(crate) fn render(self) -> Fig4 {
        Fig4 {
            series: self.cells.map(|row| {
                row.into_iter()
                    .map(|mut c| c.median().unwrap_or(0.0))
                    .collect()
            }),
        }
    }
}

/// Compute Figure 4.
pub fn figure4(c: &StudyCollector, s: &StudySummary) -> Fig4 {
    Fig4Parts::<Vec<f64>>::select(c, s).render()
}

/// Figure 5: daily aggregate Zoom bytes for post-shutdown users.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Bytes per day.
    pub daily: Vec<f64>,
}

/// Figure 5's selection: the post-shutdown users' Zoom bytes per day.
#[derive(Debug, Clone)]
pub(crate) struct Fig5Parts {
    daily: Vec<u64>,
}

impl Fig5Parts {
    pub(crate) fn empty() -> Self {
        Fig5Parts { daily: vec![0; ND] }
    }

    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::empty();
        for (slot, _) in s.post_shutdown(c) {
            if let Some(row) = c.zoom.row(slot) {
                add(&mut p.daily, &row);
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        add(&mut self.daily, &other.daily);
    }

    pub(crate) fn render(&self) -> Fig5 {
        Fig5 {
            daily: to_f64(&self.daily),
        }
    }
}

/// Compute Figure 5.
pub fn figure5(c: &StudyCollector, s: &StudySummary) -> Fig5 {
    Fig5Parts::select(c, s).render()
}

/// Figure 6: monthly social session duration boxes for mobile devices.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `boxes[app][subpop][month]`; app order FB/IG/TT; subpop order
    /// domestic, international. `None` when the group is empty.
    pub boxes: [[[Option<BoxStats>; 4]; 2]; 3],
}

/// Figure 6's selection: per (app, sub-population, month), the session
/// hours of every identified mobile post-shutdown device (§5.2).
#[derive(Debug, Clone, Default)]
pub(crate) struct Fig6Parts<S> {
    cells: [[[S; 4]; 2]; 3],
}

impl<S: SampleStore> Fig6Parts<S> {
    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::default();
        for (slot, r) in s.post_shutdown(c) {
            let (FigureBucket::Mobile, Some(sp), Some(hours)) = (
                r.device_type.figure_bucket(),
                r.subpop,
                c.social_hours.get(slot),
            ) else {
                continue;
            };
            for (cells, months) in p.cells.iter_mut().zip(hours) {
                for (cell, &h) in cells[sp.index()].iter_mut().zip(months) {
                    if h > 0.0 {
                        cell.record_hours(h);
                    }
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        merge_cells(
            self.cells.as_flattened_mut().as_flattened_mut(),
            other.cells.as_flattened().as_flattened(),
        );
    }

    pub(crate) fn render(self) -> Fig6 {
        Fig6 {
            boxes: self
                .cells
                .map(|app| app.map(|sp| sp.map(|mut c| c.hours_box()))),
        }
    }
}

/// Compute Figure 6 (mobile traffic only, §5.2).
pub fn figure6(c: &StudyCollector, s: &StudySummary) -> Fig6 {
    Fig6Parts::<Vec<f64>>::select(c, s).render()
}

/// Figure 7: monthly Steam bytes and connections boxes.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `bytes[subpop][month]` (domestic = 0).
    pub bytes: [[Option<BoxStats>; 4]; 2],
    /// `conns[subpop][month]`.
    pub conns: [[Option<BoxStats>; 4]; 2],
}

/// Figure 7's selection: per (sub-population, month), the Steam bytes
/// and connections of every identified post-shutdown device that used
/// Steam that month.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fig7Parts<S> {
    bytes: [[S; 4]; 2],
    conns: [[S; 4]; 2],
}

impl<S: SampleStore> Fig7Parts<S> {
    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let mut p = Self::default();
        for (slot, r) in s.post_shutdown(c) {
            let (Some(sp), Some(months)) = (r.subpop, c.steam.get(slot)) else {
                continue;
            };
            for (mi, &(b, n)) in months.iter().enumerate() {
                if b > 0 {
                    p.bytes[sp.index()][mi].record(b);
                    p.conns[sp.index()][mi].record(u64::from(n));
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        merge_cells(self.bytes.as_flattened_mut(), other.bytes.as_flattened());
        merge_cells(self.conns.as_flattened_mut(), other.conns.as_flattened());
    }

    pub(crate) fn render(self) -> Fig7 {
        let boxes = |cells: [[S; 4]; 2]| cells.map(|sp| sp.map(|mut c| c.box_stats()));
        Fig7 {
            bytes: boxes(self.bytes),
            conns: boxes(self.conns),
        }
    }
}

/// Compute Figure 7.
pub fn figure7(c: &StudyCollector, s: &StudySummary) -> Fig7 {
    Fig7Parts::<Vec<f64>>::select(c, s).render()
}

/// Figure 8: 3-day moving average of Switch gameplay bytes per day, over
/// Switches active in both February and May (§5.3.2).
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Smoothed bytes per day.
    pub daily_ma: Vec<f64>,
    /// Number of Switches contributing.
    pub n_switches: usize,
}

/// Figure 8's selection: the gameplay bytes per day of the Switches
/// active in both February and May.
#[derive(Debug, Clone)]
pub(crate) struct Fig8Parts {
    daily: Vec<u64>,
    n_switches: usize,
}

impl Fig8Parts {
    pub(crate) fn empty() -> Self {
        Fig8Parts {
            daily: vec![0; ND],
            n_switches: 0,
        }
    }

    pub(crate) fn select(c: &StudyCollector, _s: &StudySummary) -> Self {
        let mut p = Self::empty();
        for slot in c.switch_detect.switches() {
            let active = |m: Month| {
                let first = m.first_day().0;
                (first..first + m.num_days()).any(|d| c.volume.active_on(slot, Day(d)))
            };
            if active(Month::Feb) && active(Month::May) {
                p.n_switches += 1;
                for (d, total) in p.daily.iter_mut().enumerate() {
                    *total += c.switch_gameplay.get(slot, Day(d as u16));
                }
            }
        }
        p
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        add(&mut self.daily, &other.daily);
        self.n_switches += other.n_switches;
    }

    /// The moving average runs once, over the whole (merged) series.
    pub(crate) fn render(&self) -> Fig8 {
        Fig8 {
            daily_ma: moving_average(&to_f64(&self.daily), 3),
            n_switches: self.n_switches,
        }
    }
}

/// Compute Figure 8.
pub fn figure8(c: &StudyCollector, s: &StudySummary) -> Fig8 {
    Fig8Parts::select(c, s).render()
}

/// The paper's in-text headline statistics (DESIGN.md's STAT-* rows),
/// computed from one study run. The 2019 comparison needs a second
/// (counterfactual) run and lives in `lockdown-core`.
/// `PartialEq` is exact (bitwise on the `f64` fields) so equivalence
/// tests can assert that two pipeline variants agree to the last bit.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineStats {
    /// Peak daily active device count (paper: 32,019).
    pub peak_active: u32,
    /// Trough daily active device count during shutdown (paper: 4,973).
    pub trough_active: u32,
    /// Post-shutdown device count (paper: 6,522).
    pub post_shutdown_devices: usize,
    /// Identified devices (with February midpoints).
    pub identified_devices: usize,
    /// International devices among identified (paper: 1,022 = 18%).
    pub intl_devices: usize,
    /// Total traffic growth Feb → mean(Apr, May), post-shutdown users
    /// (paper: +58%).
    pub traffic_growth_feb_to_aprmay: f64,
    /// Mean distinct sites growth Feb → mean(Apr, May) (paper: +34%).
    pub sites_growth: f64,
    /// Switches detected with pre-shutdown activity (paper: 1,097).
    pub switches_pre: usize,
    /// Switches active post-shutdown (paper: 267).
    pub switches_post: usize,
    /// Switches first appearing in April or May (paper: 40).
    pub switches_new: usize,
}

/// A device set's bytes per study month and its active device-days in
/// April and May: the rule behind the headline's traffic growth and the
/// per-device-day comparison with the 2019 counterfactual.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonthTraffic {
    /// Bytes per month, in [`Month::index`] order.
    pub bytes: [u64; 4],
    /// Days in April and May on which a device of the set was active,
    /// summed over its devices.
    pub aprmay_device_days: u64,
}

impl MonthTraffic {
    /// Tally the devices at `slots` in `c`.
    pub fn over(c: &StudyCollector, slots: impl IntoIterator<Item = usize>) -> MonthTraffic {
        let mut t = MonthTraffic::default();
        for slot in slots {
            for (bytes, m) in t.bytes.iter_mut().zip(Month::ALL) {
                *bytes += c.volume.month_total(slot, m);
            }
            for m in [Month::Apr, Month::May] {
                let first = m.first_day().0;
                t.aprmay_device_days += (first..first + m.num_days())
                    .filter(|&d| c.volume.active_on(slot, Day(d)))
                    .count() as u64;
            }
        }
        t
    }

    /// Mean April and May bytes per active device-day (0 without one).
    /// Per-device normalization keeps runs of different population
    /// sizes comparable.
    pub fn aprmay_daily(&self) -> f64 {
        if self.aprmay_device_days == 0 {
            return 0.0;
        }
        let bytes = self.bytes[Month::Apr.index()] + self.bytes[Month::May.index()];
        bytes as f64 / self.aprmay_device_days as f64
    }

    /// Add another device set's tallies (disjoint sets: shards of one
    /// campus).
    pub fn merge(&mut self, other: &MonthTraffic) {
        add(&mut self.bytes, &other.bytes);
        self.aprmay_device_days += other.aprmay_device_days;
    }
}

/// The headline's selection: tallies over the post-shutdown users, the
/// identified devices and the detected Switches. The active-device peak
/// and trough come from Figure 1's counts at render.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeadlineParts {
    post_shutdown: usize,
    identified: usize,
    intl: usize,
    traffic: MonthTraffic,
    /// Distinct sites per month, summed over the post-shutdown users.
    sites: [u64; 4],
    switches_pre: usize,
    switches_post: usize,
    switches_new: usize,
}

impl HeadlineParts {
    /// A Switch's flows all land in its owner's shard, so per-shard
    /// Switch counts add up to the run's.
    pub(crate) fn select(c: &StudyCollector, s: &StudySummary) -> Self {
        let switches = || c.switch_detect.switches();
        let mut h = HeadlineParts {
            traffic: MonthTraffic::over(c, s.post_shutdown(c).map(|(slot, _)| slot)),
            switches_pre: switches()
                .filter(|&slot| {
                    c.volume
                        .first_active_day(slot)
                        .is_some_and(|f| (f.0 as usize) < SHUTDOWN_DAY)
                })
                .count(),
            switches_post: switches()
                .filter(|&slot| c.volume.active_since(slot, BREAK_START))
                .count(),
            switches_new: c.switch_detect.new_switches_since(Day(60)).count(),
            ..Self::default()
        };
        for (slot, r) in s.post_shutdown(c) {
            h.post_shutdown += 1;
            h.identified += usize::from(r.subpop.is_some());
            h.intl += usize::from(r.subpop == Some(SubPop::International));
            for (n, m) in h.sites.iter_mut().zip(Month::ALL) {
                *n += c.sites.count(slot, m) as u64;
            }
        }
        h
    }

    pub(crate) fn merge(&mut self, other: &Self) {
        self.post_shutdown += other.post_shutdown;
        self.identified += other.identified;
        self.intl += other.intl;
        self.traffic.merge(&other.traffic);
        add(&mut self.sites, &other.sites);
        self.switches_pre += other.switches_pre;
        self.switches_post += other.switches_post;
        self.switches_new += other.switches_new;
    }

    /// The statistics, given Figure 1's daily active totals.
    pub(crate) fn render(&self, active: &[u32]) -> HeadlineStats {
        let month_daily = |m: Month| self.traffic.bytes[m.index()] as f64 / f64::from(m.num_days());
        let feb = month_daily(Month::Feb);
        let aprmay = (month_daily(Month::Apr) + month_daily(Month::May)) / 2.0;
        // Mean distinct sites over the fixed post-shutdown user set.
        let sites_mean = |m: Month| {
            if self.post_shutdown == 0 {
                0.0
            } else {
                self.sites[m.index()] as f64 / self.post_shutdown as f64
            }
        };
        let sites_feb = sites_mean(Month::Feb);
        let sites_aprmay = (sites_mean(Month::Apr) + sites_mean(Month::May)) / 2.0;
        HeadlineStats {
            peak_active: active.iter().copied().max().unwrap_or(0),
            trough_active: active[SHUTDOWN_DAY..].iter().copied().min().unwrap_or(0),
            post_shutdown_devices: self.post_shutdown,
            identified_devices: self.identified,
            intl_devices: self.intl,
            traffic_growth_feb_to_aprmay: if feb > 0.0 { aprmay / feb - 1.0 } else { 0.0 },
            sites_growth: if sites_feb > 0.0 {
                sites_aprmay / sites_feb - 1.0
            } else {
                0.0
            },
            switches_pre: self.switches_pre,
            switches_post: self.switches_post,
            switches_new: self.switches_new,
        }
    }
}

/// Compute the headline statistics.
pub fn headline_stats(c: &StudyCollector, s: &StudySummary) -> HeadlineStats {
    HeadlineParts::select(c, s).render(&Fig1::select(c, s).total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_collector_produces_empty_figures() {
        let c = StudyCollector::new();
        let s = StudySummary::finalize(&c);
        assert!(s.residents(&c).next().is_none());
        let f1 = figure1(&c, &s);
        assert!(f1.total.iter().all(|&x| x == 0));
        let f5 = figure5(&c, &s);
        assert!(f5.daily.iter().all(|&x| x == 0.0));
        let f8 = figure8(&c, &s);
        assert_eq!(f8.n_switches, 0);
        let h = headline_stats(&c, &s);
        assert_eq!(h.peak_active, 0);
        assert_eq!(h.post_shutdown_devices, 0);
    }

    #[test]
    fn month_traffic_counts_aprmay_device_days() {
        let mut c = StudyCollector::new();
        let (one, two) = (c.intern(DeviceId(1)), c.intern(DeviceId(2)));
        // Device 1: every day of February and one April day.
        for d in 0..29u16 {
            c.volume.add(one, Day(d), 10);
        }
        c.volume.add(one, Month::Apr.first_day(), 300);
        // Device 2: two May days.
        c.volume.add(two, Month::May.first_day(), 100);
        c.volume.add(two, Day(Month::May.first_day().0 + 1), 200);
        let t = MonthTraffic::over(&c, [one, two]);
        assert_eq!(t.bytes, [290, 0, 300, 300]);
        assert_eq!(t.aprmay_device_days, 3);
        assert_eq!(t.aprmay_daily(), 200.0);
        assert_eq!(MonthTraffic::over(&c, []).aprmay_daily(), 0.0);
    }

    #[test]
    fn visitor_filter_excludes_short_lived_devices() {
        let mut c = StudyCollector::new();
        let (one, two) = (c.intern(DeviceId(1)), c.intern(DeviceId(2)));
        // Device 1: 20 active days. Device 2: 3 active days.
        for d in 0..20u16 {
            c.volume.add(one, Day(d), 100);
        }
        for d in 0..3u16 {
            c.volume.add(two, Day(d), 100);
        }
        let s = StudySummary::finalize(&c);
        let residents = s.by_device(&c);
        assert!(residents.contains_key(&DeviceId(1)));
        assert!(!residents.contains_key(&DeviceId(2)));
        // Neither is post-shutdown (no late activity).
        assert!(s.post_shutdown(&c).next().is_none());
    }

    #[test]
    fn post_shutdown_requires_post_break_presence() {
        let mut c = StudyCollector::new();
        let (one, two) = (c.intern(DeviceId(1)), c.intern(DeviceId(2)));
        for d in 40..80u16 {
            c.volume.add(one, Day(d), 100);
        }
        // Leaver: active long enough but gone before break.
        for d in 0..40u16 {
            c.volume.add(two, Day(d), 100);
        }
        let s = StudySummary::finalize(&c);
        let residents = s.by_device(&c);
        assert!(residents[&DeviceId(1)].post_shutdown);
        assert!(!residents[&DeviceId(2)].post_shutdown);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "summary read with another collector")]
    fn a_summary_read_with_another_collector_panics() {
        // As many devices, other ones: only the numbering tells them apart.
        let (mut a, mut b) = (StudyCollector::new(), StudyCollector::new());
        a.intern(DeviceId(1));
        b.intern(DeviceId(2));
        let s = StudySummary::finalize(&a);
        figure1(&b, &s);
    }
}
