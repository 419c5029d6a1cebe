//! Finalization and figure extraction.
//!
//! After the one-pass collection, devices are classified, segmented and
//! filtered exactly once (§3–4 of the paper); each `figureN` function
//! then reduces the collected state to the series/boxes the paper plots.

use crate::collect::StudyCollector;
use crate::stats::{mean, moving_average, BoxStats};
use devclass::{Classifier, DeviceType, FigureBucket};
use geoloc::{in_united_states, SubPop};
use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::DeviceId;
use std::collections::{HashMap, HashSet};

/// Minimum active days before a device counts as a resident rather than
/// a campus visitor (§3: "we discard information for devices that appear
/// on the network for fewer than 14 days").
pub const VISITOR_FILTER_DAYS: usize = 14;

/// Post-shutdown users: devices with at least this many active days
/// after the academic break begins. (Departing students linger a few
/// days past the stay-at-home order; a week of post-break presence
/// separates residents from stragglers.)
pub const POST_SHUTDOWN_MIN_DAYS: usize = 7;

/// The classified, segmented device universe.
pub struct StudySummary {
    /// Device type per (visitor-filtered) device.
    pub device_types: HashMap<DeviceId, DeviceType>,
    /// Figure bucket per device.
    pub buckets: HashMap<DeviceId, FigureBucket>,
    /// Sub-population per *identified* device (those with usable February
    /// geolocation midpoints; the paper's 18% statistic is over these).
    pub subpop: HashMap<DeviceId, SubPop>,
    /// Devices passing the 14-day visitor filter.
    pub resident: HashSet<DeviceId>,
    /// The post-shutdown user set.
    pub post_shutdown: HashSet<DeviceId>,
}

impl StudySummary {
    /// Classify, segment and filter the collected universe.
    pub fn finalize(c: &StudyCollector) -> StudySummary {
        let classifier = Classifier::new();
        let mut device_types = HashMap::new();
        let mut buckets = HashMap::new();
        let mut resident = HashSet::new();
        let mut post_shutdown = HashSet::new();

        let break_start = Day(50); // 2020-03-22
        for dev in c.volume.devices() {
            if c.volume.active_day_count(dev) < VISITOR_FILTER_DAYS {
                continue;
            }
            resident.insert(dev);
            let t = c
                .profiles
                .get(&dev)
                .map(|p| classifier.classify(p))
                .unwrap_or(DeviceType::Unclassified);
            device_types.insert(dev, t);
            buckets.insert(dev, t.figure_bucket());

            let post_days = (break_start.0..StudyCalendar::NUM_DAYS)
                .filter(|&d| c.volume.active_on(dev, Day(d)))
                .count();
            if post_days >= POST_SHUTDOWN_MIN_DAYS {
                post_shutdown.insert(dev);
            }
        }

        let mut subpop = HashMap::new();
        for (&dev, acc) in &c.midpoints {
            if !post_shutdown.contains(&dev) {
                continue;
            }
            if let Some((lat, lon)) = acc.midpoint() {
                subpop.insert(
                    dev,
                    if in_united_states(lat, lon) {
                        SubPop::Domestic
                    } else {
                        SubPop::International
                    },
                );
            }
        }

        StudySummary {
            device_types,
            buckets,
            subpop,
            resident,
            post_shutdown,
        }
    }
}

/// Figure 1: active devices per day, by figure bucket.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// `per_bucket[b][d]` = active devices of bucket `b` on day `d`.
    pub per_bucket: [Vec<u32>; 4],
    /// Total active devices per day.
    pub total: Vec<u32>,
}

/// Compute Figure 1.
pub fn figure1(c: &StudyCollector, s: &StudySummary) -> Fig1 {
    let nd = StudyCalendar::NUM_DAYS as usize;
    let mut per_bucket = [
        vec![0u32; nd],
        vec![0u32; nd],
        vec![0u32; nd],
        vec![0u32; nd],
    ];
    let mut total = vec![0u32; nd];
    for &dev in &s.resident {
        let Some(row) = c.volume.row(dev) else {
            continue;
        };
        let b = s.buckets[&dev].index();
        for (d, &bytes) in row.iter().enumerate() {
            if bytes > 0 {
                per_bucket[b][d] += 1;
                total[d] += 1;
            }
        }
    }
    Fig1 { per_bucket, total }
}

/// Figure 2: mean and median bytes per active device per day, by bucket.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `mean[b][d]` in bytes.
    pub mean: [Vec<f64>; 4],
    /// `median[b][d]` in bytes.
    pub median: [Vec<f64>; 4],
}

/// Compute Figure 2.
pub fn figure2(c: &StudyCollector, s: &StudySummary) -> Fig2 {
    let nd = StudyCalendar::NUM_DAYS as usize;
    let mut out = Fig2 {
        mean: [vec![0.0; nd], vec![0.0; nd], vec![0.0; nd], vec![0.0; nd]],
        median: [vec![0.0; nd], vec![0.0; nd], vec![0.0; nd], vec![0.0; nd]],
    };
    // Bucket device rows once.
    let mut by_bucket: [Vec<[u64; StudyCalendar::NUM_DAYS as usize]>; 4] = Default::default();
    for &dev in &s.resident {
        if let Some(row) = c.volume.row(dev) {
            by_bucket[s.buckets[&dev].index()].push(row);
        }
    }
    for (b, rows) in by_bucket.iter().enumerate() {
        for d in 0..nd {
            let mut vals: Vec<f64> = rows
                .iter()
                .map(|r| r[d] as f64)
                .filter(|&v| v > 0.0)
                .collect();
            if vals.is_empty() {
                continue;
            }
            out.mean[b][d] = mean(&vals).unwrap_or(0.0);
            out.median[b][d] = crate::stats::median(&mut vals).unwrap_or(0.0);
        }
    }
    out
}

/// Figure 3: normalized median per-device traffic per hour of week.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Week labels, as in the paper.
    pub labels: [&'static str; 4],
    /// `weeks[w][h]` = normalized median volume at hour-of-week `h`.
    pub weeks: [Vec<f64>; 4],
}

/// Compute Figure 3. Normalization divides by the minimum nonzero median
/// across all weeks ("normalized by the minimum volume of traffic across
/// all weeks", §4.1).
pub fn figure3(c: &StudyCollector, s: &StudySummary) -> Fig3 {
    let mut weeks: [Vec<f64>; 4] = [
        vec![0.0; 168],
        vec![0.0; 168],
        vec![0.0; 168],
        vec![0.0; 168],
    ];
    // Per (week, hour): median over devices with traffic in that hour.
    let mut per_hour: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 168]; 4];
    for dev in c.hourweek.devices() {
        if !s.resident.contains(&dev) {
            continue;
        }
        for (w, week_vals) in per_hour.iter_mut().enumerate() {
            if let Some(row) = c.hourweek.row(dev, w) {
                for (h, &b) in row.iter().enumerate() {
                    if b > 0 {
                        week_vals[h].push(b as f64);
                    }
                }
            }
        }
    }
    let mut min_nonzero = f64::INFINITY;
    for (w, week_vals) in per_hour.iter_mut().enumerate() {
        for (h, vals) in week_vals.iter_mut().enumerate() {
            if let Some(m) = crate::stats::median(vals) {
                weeks[w][h] = m;
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

/// Compute Figure 4.
pub fn figure4(c: &StudyCollector, s: &StudySummary) -> Fig4 {
    let nd = StudyCalendar::NUM_DAYS as usize;
    let mut groups: HashMap<Fig4Series, Vec<DeviceId>> = HashMap::new();
    for &dev in &s.post_shutdown {
        let Some(&sp) = s.subpop.get(&dev) else {
            continue;
        };
        let series = match (s.buckets[&dev], sp) {
            (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::International) => {
                Fig4Series::IntlMobileDesktop
            }
            (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::Domestic) => {
                Fig4Series::DomesticMobileDesktop
            }
            (FigureBucket::Unclassified, SubPop::International) => Fig4Series::IntlUnclassified,
            (FigureBucket::Unclassified, SubPop::Domestic) => Fig4Series::DomesticUnclassified,
            (FigureBucket::Iot, _) => continue, // "exclude IoT devices here"
        };
        groups.entry(series).or_default().push(dev);
    }
    let mut out = Fig4 {
        series: [vec![0.0; nd], vec![0.0; nd], vec![0.0; nd], vec![0.0; nd]],
    };
    for (i, series) in Fig4Series::ALL.iter().enumerate() {
        let devs = groups.get(series).cloned().unwrap_or_default();
        for d in 0..nd {
            let day = Day(d as u16);
            let mut vals: Vec<f64> = devs
                .iter()
                .map(|&dev| {
                    let total = c.volume.get(dev, day);
                    let zoom = c.zoom.get(dev, day);
                    total.saturating_sub(zoom) as f64
                })
                .filter(|&v| v > 0.0)
                .collect();
            out.series[i][d] = crate::stats::median(&mut vals).unwrap_or(0.0);
        }
    }
    out
}

/// Figure 5: daily aggregate Zoom bytes for post-shutdown users.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Bytes per day.
    pub daily: Vec<f64>,
}

/// Compute Figure 5.
pub fn figure5(c: &StudyCollector, s: &StudySummary) -> Fig5 {
    let nd = StudyCalendar::NUM_DAYS as usize;
    let mut daily = vec![0.0; nd];
    for &dev in &s.post_shutdown {
        if let Some(row) = c.zoom.row(dev) {
            for (d, &b) in row.iter().enumerate() {
                daily[d] += b as f64;
            }
        }
    }
    Fig5 { daily }
}

/// Figure 6: monthly social session duration boxes for mobile devices.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `boxes[app][subpop][month]`; app order FB/IG/TT; subpop order
    /// domestic, international. `None` when the group is empty.
    pub boxes: [[[Option<BoxStats>; 4]; 2]; 3],
}

/// Compute Figure 6 (mobile traffic only, §5.2).
pub fn figure6(c: &StudyCollector, s: &StudySummary) -> Fig6 {
    let mut boxes: [[[Option<BoxStats>; 4]; 2]; 3] = Default::default();
    let mut samples: Vec<Vec<[Vec<f64>; 4]>> = vec![
        vec![
            [vec![], vec![], vec![], vec![]],
            [vec![], vec![], vec![], vec![]]
        ];
        3
    ];
    for (&dev, hours) in &c.social_hours {
        if !s.post_shutdown.contains(&dev) {
            continue;
        }
        if s.buckets.get(&dev) != Some(&FigureBucket::Mobile) {
            continue;
        }
        let Some(&sp) = s.subpop.get(&dev) else {
            continue;
        };
        let spi = match sp {
            SubPop::Domestic => 0,
            SubPop::International => 1,
        };
        for (ai, months) in hours.iter().enumerate() {
            for (mi, &h) in months.iter().enumerate() {
                if h > 0.0 {
                    samples[ai][spi][mi].push(h);
                }
            }
        }
    }
    for (ai, per_app) in samples.iter_mut().enumerate() {
        for (spi, per_sp) in per_app.iter_mut().enumerate() {
            for (mi, vals) in per_sp.iter_mut().enumerate() {
                boxes[ai][spi][mi] = BoxStats::compute(vals);
            }
        }
    }
    Fig6 { boxes }
}

/// Figure 7: monthly Steam bytes and connections boxes.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `bytes[subpop][month]` (domestic = 0).
    pub bytes: [[Option<BoxStats>; 4]; 2],
    /// `conns[subpop][month]`.
    pub conns: [[Option<BoxStats>; 4]; 2],
}

/// Compute Figure 7.
pub fn figure7(c: &StudyCollector, s: &StudySummary) -> Fig7 {
    let mut bytes_samples: [[Vec<f64>; 4]; 2] = Default::default();
    let mut conns_samples: [[Vec<f64>; 4]; 2] = Default::default();
    for (&dev, months) in &c.steam {
        if !s.post_shutdown.contains(&dev) {
            continue;
        }
        let Some(&sp) = s.subpop.get(&dev) else {
            continue;
        };
        let spi = match sp {
            SubPop::Domestic => 0,
            SubPop::International => 1,
        };
        for (mi, &(b, n)) in months.iter().enumerate() {
            if b > 0 {
                bytes_samples[spi][mi].push(b as f64);
                conns_samples[spi][mi].push(n as f64);
            }
        }
    }
    let mut out = Fig7 {
        bytes: Default::default(),
        conns: Default::default(),
    };
    for spi in 0..2 {
        for mi in 0..4 {
            out.bytes[spi][mi] = BoxStats::compute(&mut bytes_samples[spi][mi]);
            out.conns[spi][mi] = BoxStats::compute(&mut conns_samples[spi][mi]);
        }
    }
    out
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

/// Compute Figure 8.
pub fn figure8(c: &StudyCollector, _s: &StudySummary) -> Fig8 {
    let nd = StudyCalendar::NUM_DAYS as usize;
    let switches: Vec<DeviceId> = c
        .switch_detect
        .switches()
        .into_iter()
        .filter(|&dev| {
            let feb = Month::Feb;
            let may = Month::May;
            let active = |m: Month| {
                (m.first_day().0..m.first_day().0 + m.num_days())
                    .any(|d| c.volume.active_on(dev, Day(d)))
            };
            active(feb) && active(may)
        })
        .collect();
    let mut daily = vec![0.0; nd];
    for &dev in &switches {
        for (d, total) in daily.iter_mut().enumerate() {
            *total += c.switch_gameplay.get(dev, Day(d as u16)) as f64;
        }
    }
    Fig8 {
        daily_ma: moving_average(&daily, 3),
        n_switches: switches.len(),
    }
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

/// Compute the headline statistics.
pub fn headline_stats(c: &StudyCollector, s: &StudySummary) -> HeadlineStats {
    let fig1 = figure1(c, s);
    let peak_active = fig1.total.iter().copied().max().unwrap_or(0);
    let shutdown_day = 47usize; // 2020-03-19
    let trough_active = fig1.total[shutdown_day..]
        .iter()
        .copied()
        .min()
        .unwrap_or(0);

    // Average daily traffic of post-shutdown users, per month.
    let month_daily = |m: Month| -> f64 {
        let total: u64 = s
            .post_shutdown
            .iter()
            .map(|&d| c.volume.month_total(d, m))
            .sum();
        total as f64 / m.num_days() as f64
    };
    let feb = month_daily(Month::Feb);
    let aprmay = (month_daily(Month::Apr) + month_daily(Month::May)) / 2.0;
    let traffic_growth = if feb > 0.0 { aprmay / feb - 1.0 } else { 0.0 };

    let sites_feb = c.sites.mean_over(s.post_shutdown.iter(), Month::Feb);
    let sites_aprmay = (c.sites.mean_over(s.post_shutdown.iter(), Month::Apr)
        + c.sites.mean_over(s.post_shutdown.iter(), Month::May))
        / 2.0;
    let sites_growth = if sites_feb > 0.0 {
        sites_aprmay / sites_feb - 1.0
    } else {
        0.0
    };

    let intl_devices = s
        .subpop
        .values()
        .filter(|&&sp| sp == SubPop::International)
        .count();

    let switches = c.switch_detect.switches();
    let switches_pre = switches
        .iter()
        .filter(|&&d| {
            c.volume
                .first_active_day(d)
                .is_some_and(|f| f.0 < shutdown_day as u16)
        })
        .count();
    let switches_post = switches
        .iter()
        .filter(|&&d| c.volume.active_since(d, Day(50)))
        .count();
    let switches_new = c.switch_detect.new_switches_since(Day(60)).len();

    HeadlineStats {
        peak_active,
        trough_active,
        post_shutdown_devices: s.post_shutdown.len(),
        identified_devices: s.subpop.len(),
        intl_devices,
        traffic_growth_feb_to_aprmay: traffic_growth,
        sites_growth,
        switches_pre,
        switches_post,
        switches_new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_collector_produces_empty_figures() {
        let c = StudyCollector::new();
        let s = StudySummary::finalize(&c);
        assert!(s.resident.is_empty());
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
    fn visitor_filter_excludes_short_lived_devices() {
        let mut c = StudyCollector::new();
        // Device 1: 20 active days. Device 2: 3 active days.
        for d in 0..20u16 {
            c.volume.add(DeviceId(1), Day(d), 100);
        }
        for d in 0..3u16 {
            c.volume.add(DeviceId(2), Day(d), 100);
        }
        let s = StudySummary::finalize(&c);
        assert!(s.resident.contains(&DeviceId(1)));
        assert!(!s.resident.contains(&DeviceId(2)));
        // Neither is post-shutdown (no late activity).
        assert!(s.post_shutdown.is_empty());
    }

    #[test]
    fn post_shutdown_requires_post_break_presence() {
        let mut c = StudyCollector::new();
        for d in 40..80u16 {
            c.volume.add(DeviceId(1), Day(d), 100);
        }
        // Leaver: active long enough but gone before break.
        for d in 0..40u16 {
            c.volume.add(DeviceId(2), Day(d), 100);
        }
        let s = StudySummary::finalize(&c);
        assert!(s.post_shutdown.contains(&DeviceId(1)));
        assert!(!s.post_shutdown.contains(&DeviceId(2)));
    }
}
