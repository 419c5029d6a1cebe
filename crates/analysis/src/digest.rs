//! Fixed-size per-shard study digests for memory-bounded scale-out.
//!
//! The run-level [`StudyCollector`] is
//! O(devices): fine for one campus, fatal for a million-device one. In
//! sharded digest mode each population shard drains its days into its
//! own collector, the collector is reduced to a [`ShardDigest`] — a few
//! hundred kilobytes regardless of shard size — and then dropped before
//! the next shard builds. Digests merge additively in shard-id order,
//! so the merged result is deterministic at any thread count.
//!
//! What survives the digest, and how faithfully:
//!
//! * **Exact** (bit-identical to the monolithic computation at any
//!   shard count): Figure 1 (active-device counts), Figure 2 means,
//!   Figure 5 (aggregate Zoom bytes), Figure 8 (Switch gameplay, the
//!   moving average is applied once after the merge), and *every*
//!   [`HeadlineStats`] field. All of these are sums or counts over
//!   disjoint per-shard device sets; byte totals stay far below 2^53 so
//!   the f64 arithmetic is integer-exact and order-independent.
//! * **Approximate**: distribution shapes — Figure 2 medians, Figure 3,
//!   Figure 4, and the Figure 6/7 boxes — come from log2-bucketed
//!   histograms ([`LogHist`]), so quantiles are resolved to within a
//!   factor of 2 (the bucket's geometric midpoint is reported). The
//!   paper's log-scale plots are insensitive at this resolution.

use crate::collect::StudyCollector;
use crate::figures::{
    Fig1, Fig2, Fig3, Fig4, Fig4Series, Fig5, Fig6, Fig7, Fig8, HeadlineStats, StudySummary,
};
use crate::stats::{moving_average, BoxStats};
use devclass::FigureBucket;
use geoloc::SubPop;
use nettrace::time::{Day, Month, StudyCalendar};

const ND: usize = StudyCalendar::NUM_DAYS as usize;
const MONTHS: [Month; 4] = [Month::Feb, Month::Mar, Month::Apr, Month::May];
/// The paper's shutdown day (2020-03-19), as in `headline_stats`.
const SHUTDOWN_DAY: usize = 47;

/// The guaranteed worst-case multiplicative error of a [`LogHist`]
/// quantile against the exact R-7 quantile of the same samples: each
/// bracketing order statistic is estimated by its bucket's geometric
/// midpoint, within (0.75, 1.5]× of the sample, and interpolation
/// preserves those factors — so 1.5× by construction, advertised with
/// headroom as 2×. Figure 3 renormalizes one quantile by another, so
/// its propagated bound is `QUANTILE_BOUND²`.
pub const QUANTILE_BOUND: f64 = 2.0;

/// A log2-bucketed histogram of positive `u64` samples. 64 buckets of
/// 8 bytes each: 512 bytes regardless of how many samples it absorbs.
/// Bucket `i` holds values `v` with `floor(log2(v)) == i`; quantiles
/// report the bucket's geometric midpoint (`1.5 * 2^i`), a ≤2×
/// approximation by construction.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: [u64; 64],
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: [0; 64] }
    }
}

impl LogHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one positive sample (zero is skipped, mirroring the
    /// figure code's `v > 0` activity filters).
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            return;
        }
        self.counts[63 - v.leading_zeros() as usize] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw per-bucket counts (bucket `i` holds samples `v` with
    /// `floor(log2(v)) == i`). Read-only accuracy instrumentation seam:
    /// lets `accuracy` and external audits inspect the resolution the
    /// digest actually had, without widening the mutation surface.
    pub fn bucket_counts(&self) -> &[u64; 64] {
        &self.counts
    }

    /// Add another histogram (shard merge). Purely additive, so the
    /// result is independent of merge order.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1). `None` when empty.
    ///
    /// Follows the same R-7 convention as `stats::percentile`: the
    /// fractional rank `h = q·(n−1)` interpolates linearly between the
    /// two bracketing order statistics — here estimated by their
    /// buckets' geometric midpoints. Each midpoint sits within
    /// (0.75, 1.5]× of its sample, and a convex combination with the
    /// exact path's weights preserves those factors, so the estimate
    /// stays within 1.5× of the exact interpolated quantile — inside
    /// the advertised [`QUANTILE_BOUND`] even on sparse heavy-tailed
    /// data where the bracketing samples straddle many buckets.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let h = q * (total - 1) as f64;
        let lo = self.value_at_rank(h.floor() as u64);
        let frac = h - h.floor();
        if frac == 0.0 {
            return Some(lo);
        }
        let hi = self.value_at_rank(h.ceil() as u64);
        Some(lo + frac * (hi - lo))
    }

    /// Geometric midpoint of the bucket holding the sample at `rank`
    /// (0-based over the recorded samples in value order).
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return 1.5 * (1u64 << i) as f64;
            }
        }
        1.5 * (1u64 << 63) as f64
    }

    /// Five-number-plus-tails box from the histogram, or `None` if no
    /// samples. `scale` divides the representative values back into the
    /// recorded unit (e.g. `1e6` when samples were micro-hours).
    pub fn box_stats(&self, scale: f64) -> Option<BoxStats> {
        let n = self.count() as usize;
        if n == 0 {
            return None;
        }
        let q = |p: f64| self.quantile(p).unwrap_or(0.0) / scale;
        Some(BoxStats {
            n,
            p1: q(0.01),
            q1: q(0.25),
            median: q(0.50),
            q3: q(0.75),
            p95: q(0.95),
            p99: q(0.99),
        })
    }
}

/// The fixed-size reduction of one shard's collected study state.
///
/// Additive: `merge` folds another shard's digest in, field by field.
/// Merging in shard-id order makes the result byte-deterministic at any
/// thread count; because every field is a sum or count, any merge order
/// actually yields the same bytes — the discipline is belt and braces.
#[derive(Debug, Clone)]
pub struct ShardDigest {
    // ---- exact, additive ----
    fig1_per_bucket: [Vec<u32>; 4],
    fig1_total: Vec<u32>,
    fig2_sum: [Vec<u64>; 4],
    fig2_cnt: [Vec<u32>; 4],
    fig5_daily: Vec<u64>,
    fig8_daily: Vec<u64>,
    fig8_n: usize,
    resident: usize,
    post_shutdown: usize,
    identified: usize,
    intl: usize,
    post_month_bytes: [u64; 4],
    post_aprmay_device_days: u64,
    sites_sum: [u64; 4],
    switches_pre: usize,
    switches_post: usize,
    switches_new: usize,
    // ---- approximate (log2 histograms) ----
    fig2_med: [Vec<LogHist>; 4],
    fig3: [Vec<LogHist>; 4],
    fig4: [Vec<LogHist>; 4],
    fig6: [[[LogHist; 4]; 2]; 3],
    fig7_bytes: [[LogHist; 4]; 2],
    fig7_conns: [[LogHist; 4]; 2],
}

/// Figure 6 hours are fractional; they are histogrammed in micro-hours.
const HOURS_SCALE: f64 = 1e6;

fn hist_grid(len: usize) -> [Vec<LogHist>; 4] {
    [
        vec![LogHist::new(); len],
        vec![LogHist::new(); len],
        vec![LogHist::new(); len],
        vec![LogHist::new(); len],
    ]
}

impl Default for ShardDigest {
    fn default() -> Self {
        Self::empty()
    }
}

impl ShardDigest {
    /// An all-zero digest (the identity element of `merge`).
    pub fn empty() -> Self {
        ShardDigest {
            fig1_per_bucket: [vec![0; ND], vec![0; ND], vec![0; ND], vec![0; ND]],
            fig1_total: vec![0; ND],
            fig2_sum: [vec![0; ND], vec![0; ND], vec![0; ND], vec![0; ND]],
            fig2_cnt: [vec![0; ND], vec![0; ND], vec![0; ND], vec![0; ND]],
            fig5_daily: vec![0; ND],
            fig8_daily: vec![0; ND],
            fig8_n: 0,
            resident: 0,
            post_shutdown: 0,
            identified: 0,
            intl: 0,
            post_month_bytes: [0; 4],
            post_aprmay_device_days: 0,
            sites_sum: [0; 4],
            switches_pre: 0,
            switches_post: 0,
            switches_new: 0,
            fig2_med: hist_grid(ND),
            fig3: hist_grid(168),
            fig4: hist_grid(ND),
            fig6: Default::default(),
            fig7_bytes: Default::default(),
            fig7_conns: Default::default(),
        }
    }

    /// Reduce one shard's collector (plus its finalized summary) to a
    /// digest. The caller drops the collector immediately afterwards —
    /// that is the whole point.
    pub fn extract(c: &StudyCollector, s: &StudySummary) -> ShardDigest {
        let mut d = ShardDigest::empty();
        d.resident = s.resident.len();
        d.post_shutdown = s.post_shutdown.len();
        d.identified = s.subpop.len();
        d.intl = s
            .subpop
            .values()
            .filter(|&&sp| sp == SubPop::International)
            .count();

        // Figures 1 and 2 walk the same resident rows as the exact path.
        for &dev in &s.resident {
            let Some(row) = c.volume.row(dev) else {
                continue;
            };
            let b = s.buckets[&dev].index();
            for (di, &bytes) in row.iter().enumerate() {
                if bytes > 0 {
                    d.fig1_per_bucket[b][di] += 1;
                    d.fig1_total[di] += 1;
                    d.fig2_sum[b][di] += bytes;
                    d.fig2_cnt[b][di] += 1;
                    d.fig2_med[b][di].record(bytes);
                }
            }
        }

        // Figure 3: per (week, hour) distribution over active residents.
        for dev in c.hourweek.devices() {
            if !s.resident.contains(&dev) {
                continue;
            }
            for (w, grid) in d.fig3.iter_mut().enumerate() {
                if let Some(row) = c.hourweek.row(dev, w) {
                    for (h, &b) in row.iter().enumerate() {
                        if b > 0 {
                            grid[h].record(b);
                        }
                    }
                }
            }
        }

        // Post-shutdown users: Figure 5 and the headline month totals
        // cover all of them; Figure 4 only the identified non-IoT ones.
        for &dev in &s.post_shutdown {
            if let Some(row) = c.zoom.row(dev) {
                for (di, &b) in row.iter().enumerate() {
                    d.fig5_daily[di] += b;
                }
            }
            for (mi, m) in MONTHS.iter().enumerate() {
                d.post_month_bytes[mi] += c.volume.month_total(dev, *m);
                d.sites_sum[mi] += c.sites.count(dev, *m) as u64;
            }
            for m in [Month::Apr, Month::May] {
                for dd in m.first_day().0..m.first_day().0 + m.num_days() {
                    if c.volume.active_on(dev, Day(dd)) {
                        d.post_aprmay_device_days += 1;
                    }
                }
            }

            let Some(&sp) = s.subpop.get(&dev) else {
                continue;
            };
            let si = match (s.buckets[&dev], sp) {
                (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::International) => 0,
                (FigureBucket::Mobile | FigureBucket::LaptopDesktop, SubPop::Domestic) => 1,
                (FigureBucket::Unclassified, SubPop::International) => 2,
                (FigureBucket::Unclassified, SubPop::Domestic) => 3,
                (FigureBucket::Iot, _) => continue,
            };
            for di in 0..ND {
                let day = Day(di as u16);
                let v = c.volume.get(dev, day).saturating_sub(c.zoom.get(dev, day));
                if v > 0 {
                    d.fig4[si][di].record(v);
                }
            }
        }

        // Figure 6: social session hours, mobile post-shutdown devices.
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
                        d.fig6[ai][spi][mi].record((h * HOURS_SCALE).round().max(1.0) as u64);
                    }
                }
            }
        }

        // Figure 7: Steam bytes/connections, post-shutdown devices.
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
                    d.fig7_bytes[spi][mi].record(b);
                    d.fig7_conns[spi][mi].record(n as u64);
                }
            }
        }

        // Switch statistics. A Switch's flows live entirely inside its
        // owner's shard, so these per-shard counts sum to the exact
        // run-level values.
        let switches = c.switch_detect.switches();
        for &dev in &switches {
            if c.volume
                .first_active_day(dev)
                .is_some_and(|f| (f.0 as usize) < SHUTDOWN_DAY)
            {
                d.switches_pre += 1;
            }
            if c.volume.active_since(dev, Day(50)) {
                d.switches_post += 1;
            }
            let active = |m: Month| {
                (m.first_day().0..m.first_day().0 + m.num_days())
                    .any(|dd| c.volume.active_on(dev, Day(dd)))
            };
            if active(Month::Feb) && active(Month::May) {
                d.fig8_n += 1;
                for di in 0..ND {
                    d.fig8_daily[di] += c.switch_gameplay.get(dev, Day(di as u16));
                }
            }
        }
        d.switches_new = c.switch_detect.new_switches_since(Day(60)).len();

        d
    }

    /// Fold another shard's digest into this one. Every field is a sum
    /// or a histogram, so this is associative and commutative; callers
    /// still merge in shard-id order for discipline.
    pub fn merge(&mut self, other: &ShardDigest) {
        for b in 0..4 {
            for di in 0..ND {
                self.fig1_per_bucket[b][di] += other.fig1_per_bucket[b][di];
                self.fig2_sum[b][di] += other.fig2_sum[b][di];
                self.fig2_cnt[b][di] += other.fig2_cnt[b][di];
                self.fig2_med[b][di].merge(&other.fig2_med[b][di]);
                self.fig4[b][di].merge(&other.fig4[b][di]);
            }
            for h in 0..168 {
                self.fig3[b][h].merge(&other.fig3[b][h]);
            }
        }
        for di in 0..ND {
            self.fig1_total[di] += other.fig1_total[di];
            self.fig5_daily[di] += other.fig5_daily[di];
            self.fig8_daily[di] += other.fig8_daily[di];
        }
        self.fig8_n += other.fig8_n;
        self.resident += other.resident;
        self.post_shutdown += other.post_shutdown;
        self.identified += other.identified;
        self.intl += other.intl;
        for mi in 0..4 {
            self.post_month_bytes[mi] += other.post_month_bytes[mi];
            self.sites_sum[mi] += other.sites_sum[mi];
        }
        self.post_aprmay_device_days += other.post_aprmay_device_days;
        self.switches_pre += other.switches_pre;
        self.switches_post += other.switches_post;
        self.switches_new += other.switches_new;
        for ai in 0..3 {
            for spi in 0..2 {
                for mi in 0..4 {
                    self.fig6[ai][spi][mi].merge(&other.fig6[ai][spi][mi]);
                }
            }
        }
        for spi in 0..2 {
            for mi in 0..4 {
                self.fig7_bytes[spi][mi].merge(&other.fig7_bytes[spi][mi]);
                self.fig7_conns[spi][mi].merge(&other.fig7_conns[spi][mi]);
            }
        }
    }

    /// Residents counted by this digest (after the 14-day filter).
    pub fn resident_devices(&self) -> usize {
        self.resident
    }

    /// Mean Apr/May bytes per active device-day over this digest's own
    /// post-shutdown users. **Exact and additive** (a ratio of two exact
    /// sums), but an *aggregate* statistic: unlike
    /// `Study::aprmay_daily_traffic_over`, it cannot be restricted to
    /// another run's cohort, so cross-run comparisons built on it
    /// compare each run's own population mix.
    pub fn aprmay_daily_traffic(&self) -> f64 {
        if self.post_aprmay_device_days == 0 {
            return 0.0;
        }
        (self.post_month_bytes[2] + self.post_month_bytes[3]) as f64
            / self.post_aprmay_device_days as f64
    }

    /// Headline statistics. **Exact**: every field is computed from
    /// additive sums with the same arithmetic as
    /// [`headline_stats`](crate::figures::headline_stats), so at any
    /// shard count this equals the monolithic result bit for bit.
    pub fn headline(&self) -> HeadlineStats {
        let peak_active = self.fig1_total.iter().copied().max().unwrap_or(0);
        let trough_active = self.fig1_total[SHUTDOWN_DAY..]
            .iter()
            .copied()
            .min()
            .unwrap_or(0);

        let month_daily =
            |mi: usize| self.post_month_bytes[mi] as f64 / MONTHS[mi].num_days() as f64;
        let feb = month_daily(0);
        let aprmay = (month_daily(2) + month_daily(3)) / 2.0;
        let traffic_growth = if feb > 0.0 { aprmay / feb - 1.0 } else { 0.0 };

        // Mirrors `DistinctSiteCounter::mean_over` over the union of the
        // per-shard post-shutdown sets: sum of counts / population size.
        let sites_mean = |mi: usize| {
            if self.post_shutdown == 0 {
                0.0
            } else {
                self.sites_sum[mi] as f64 / self.post_shutdown as f64
            }
        };
        let sites_feb = sites_mean(0);
        let sites_aprmay = (sites_mean(2) + sites_mean(3)) / 2.0;
        let sites_growth = if sites_feb > 0.0 {
            sites_aprmay / sites_feb - 1.0
        } else {
            0.0
        };

        HeadlineStats {
            peak_active,
            trough_active,
            post_shutdown_devices: self.post_shutdown,
            identified_devices: self.identified,
            intl_devices: self.intl,
            traffic_growth_feb_to_aprmay: traffic_growth,
            sites_growth,
            switches_pre: self.switches_pre,
            switches_post: self.switches_post,
            switches_new: self.switches_new,
        }
    }

    /// Render the merged digest into the standard figure structs so the
    /// existing exporters and ASCII renderers apply unchanged.
    pub fn render(&self) -> DigestFigures {
        let fig1 = Fig1 {
            per_bucket: self.fig1_per_bucket.clone(),
            total: self.fig1_total.clone(),
        };

        let mut fig2 = Fig2 {
            mean: [vec![0.0; ND], vec![0.0; ND], vec![0.0; ND], vec![0.0; ND]],
            median: [vec![0.0; ND], vec![0.0; ND], vec![0.0; ND], vec![0.0; ND]],
        };
        for b in 0..4 {
            for di in 0..ND {
                let n = self.fig2_cnt[b][di];
                if n > 0 {
                    fig2.mean[b][di] = self.fig2_sum[b][di] as f64 / n as f64;
                    fig2.median[b][di] = self.fig2_med[b][di].quantile(0.5).unwrap_or(0.0);
                }
            }
        }

        let mut weeks: [Vec<f64>; 4] = [
            vec![0.0; 168],
            vec![0.0; 168],
            vec![0.0; 168],
            vec![0.0; 168],
        ];
        let mut min_nonzero = f64::INFINITY;
        for (w, grid) in self.fig3.iter().enumerate() {
            for (h, hist) in grid.iter().enumerate() {
                if let Some(m) = hist.quantile(0.5) {
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
        let fig3 = Fig3 {
            labels: [
                "Week of 2/20/20",
                "Week of 3/19/20",
                "Week of 4/9/20",
                "Week of 5/14/20",
            ],
            weeks,
        };

        let mut fig4 = Fig4 {
            series: [vec![0.0; ND], vec![0.0; ND], vec![0.0; ND], vec![0.0; ND]],
        };
        for (i, _) in Fig4Series::ALL.iter().enumerate() {
            for di in 0..ND {
                fig4.series[i][di] = self.fig4[i][di].quantile(0.5).unwrap_or(0.0);
            }
        }

        let fig5 = Fig5 {
            daily: self.fig5_daily.iter().map(|&b| b as f64).collect(),
        };

        let mut fig6 = Fig6 {
            boxes: Default::default(),
        };
        for ai in 0..3 {
            for spi in 0..2 {
                for mi in 0..4 {
                    fig6.boxes[ai][spi][mi] = self.fig6[ai][spi][mi].box_stats(HOURS_SCALE);
                }
            }
        }

        let mut fig7 = Fig7 {
            bytes: Default::default(),
            conns: Default::default(),
        };
        for spi in 0..2 {
            for mi in 0..4 {
                fig7.bytes[spi][mi] = self.fig7_bytes[spi][mi].box_stats(1.0);
                fig7.conns[spi][mi] = self.fig7_conns[spi][mi].box_stats(1.0);
            }
        }

        let daily: Vec<f64> = self.fig8_daily.iter().map(|&b| b as f64).collect();
        let fig8 = Fig8 {
            daily_ma: moving_average(&daily, 3),
            n_switches: self.fig8_n,
        };

        DigestFigures {
            fig1,
            fig2,
            fig3,
            fig4,
            fig5,
            fig6,
            fig7,
            fig8,
            headline: self.headline(),
        }
    }
}

/// The eight paper figures plus headline statistics, rendered from a
/// merged [`ShardDigest`]. Same types as the exact path, so the export
/// and ASCII layers are reused verbatim.
pub struct DigestFigures {
    /// Figure 1 (exact).
    pub fig1: Fig1,
    /// Figure 2 (means exact, medians ≤2× approximate).
    pub fig2: Fig2,
    /// Figure 3 (≤2× approximate, renormalized after merge).
    pub fig3: Fig3,
    /// Figure 4 (≤2× approximate).
    pub fig4: Fig4,
    /// Figure 5 (exact).
    pub fig5: Fig5,
    /// Figure 6 (boxes ≤2× approximate).
    pub fig6: Fig6,
    /// Figure 7 (boxes ≤2× approximate).
    pub fig7: Fig7,
    /// Figure 8 (exact; moving average applied after the merge).
    pub fig8: Fig8,
    /// Headline statistics (exact at any shard count).
    pub headline: HeadlineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::headline_stats;
    use nettrace::DeviceId;

    #[test]
    fn loghist_buckets_and_quantiles() {
        let mut h = LogHist::new();
        h.record(0); // skipped
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 1, 2, 3, 8, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Median rank 3 lands in the [2,4) bucket → midpoint 3.0.
        assert_eq!(h.quantile(0.5), Some(3.0));
        // Extremes resolve to the smallest/largest occupied buckets.
        assert_eq!(h.quantile(0.0), Some(1.5));
        // 1000 lives in the [512, 1024) bucket → midpoint 768.
        assert_eq!(h.quantile(1.0), Some(768.0));
        // Quantile is within 2× of the true value by construction.
        let m = h.quantile(0.5).unwrap();
        assert!((3.0 / 2.0..=3.0 * 2.0).contains(&m));
        // Fractional ranks interpolate between bucket midpoints the
        // same way R-7 interpolates between samples: with 7 samples,
        // q=0.75 has rank 4.5, halfway between ranks 4 ([8,16) → 12)
        // and 5 ([8,16) → 12).
        assert_eq!(h.quantile(0.75), Some(12.0));
        // q=11/12 → rank 5.5, halfway between 12 and 768.
        let v = h.quantile(11.0 / 12.0).unwrap();
        assert!((v - 390.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn loghist_merge_is_additive() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    fn synthetic_collector(dev_base: u64, n: u64) -> StudyCollector {
        let mut c = StudyCollector::new();
        for i in 0..n {
            let dev = DeviceId(dev_base + i);
            // Long-lived, post-shutdown-active device with varying volume.
            for d in 0..StudyCalendar::NUM_DAYS {
                let bytes = 1000 + (i + 1) * (d as u64 % 17);
                c.volume.add(dev, Day(d), bytes);
            }
        }
        c
    }

    #[test]
    fn digest_headline_matches_exact_on_synthetic_data() {
        // Two disjoint device ranges: digest each separately, merge, and
        // compare against the exact computation over the union.
        let a = synthetic_collector(0, 5);
        let b = synthetic_collector(100, 7);
        let sa = StudySummary::finalize(&a);
        let sb = StudySummary::finalize(&b);
        let mut merged = ShardDigest::extract(&a, &sa);
        merged.merge(&ShardDigest::extract(&b, &sb));

        let mut whole = synthetic_collector(0, 5);
        whole.merge(synthetic_collector(100, 7));
        let sw = StudySummary::finalize(&whole);
        let exact = headline_stats(&whole, &sw);

        assert_eq!(merged.headline(), exact);
        assert_eq!(merged.resident_devices(), sw.resident.len());

        // Exact figure parts are byte-identical too.
        let figs = merged.render();
        let f1 = crate::figures::figure1(&whole, &sw);
        assert_eq!(figs.fig1.total, f1.total);
        assert_eq!(figs.fig1.per_bucket, f1.per_bucket);
        let f5 = crate::figures::figure5(&whole, &sw);
        assert_eq!(figs.fig5.daily, f5.daily);
        let f2 = crate::figures::figure2(&whole, &sw);
        assert_eq!(figs.fig2.mean, f2.mean);
    }

    #[test]
    fn digest_medians_are_within_2x_of_exact() {
        let c = synthetic_collector(0, 12);
        let s = StudySummary::finalize(&c);
        let d = ShardDigest::extract(&c, &s);
        let figs = d.render();
        let exact = crate::figures::figure2(&c, &s);
        for b in 0..4 {
            for di in 0..ND {
                let (e, a) = (exact.median[b][di], figs.fig2.median[b][di]);
                if e > 0.0 {
                    assert!(a >= e / 2.0 && a <= e * 2.0, "b={b} d={di} e={e} a={a}");
                }
            }
        }
    }
}
