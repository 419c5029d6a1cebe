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
//! A digest holds every figure's selection from [`crate::figures`], the
//! same functions the exact figures run, with each quantile cell kept
//! as a [`LogHist`] instead of every sample. What survives, and how
//! faithfully:
//!
//! * **Exact** (bit-identical to the monolithic computation at any
//!   shard count): Figure 1 (active-device counts), Figure 2 means,
//!   Figure 5 (aggregate Zoom bytes), Figure 8 (Switch gameplay, the
//!   moving average is applied once after the merge), and *every*
//!   [`HeadlineStats`] field. All of these are integer sums or counts
//!   over disjoint per-shard device sets, which both modes keep and
//!   render alike.
//! * **Approximate**: distribution shapes — Figure 2 medians, Figure 3,
//!   Figure 4, and the Figure 6/7 boxes — come from log2-bucketed
//!   histograms ([`LogHist`]), so quantiles are resolved to within a
//!   factor of 2 (the bucket's geometric midpoint is reported). The
//!   paper's log-scale plots are insensitive at this resolution.

use crate::collect::StudyCollector;
use crate::figures::{
    Fig1, Fig2, Fig2Parts, Fig3, Fig3Parts, Fig4, Fig4Parts, Fig5, Fig5Parts, Fig6, Fig6Parts,
    Fig7, Fig7Parts, Fig8, Fig8Parts, HeadlineParts, HeadlineStats, SampleStore, StudySummary,
};
use crate::stats::BoxStats;

/// The guaranteed worst-case multiplicative error of a [`LogHist`]
/// quantile against the exact R-7 quantile of the same samples: each
/// bracketing order statistic is estimated by its bucket's geometric
/// midpoint, within (0.75, 1.5]× of the sample, and interpolation
/// preserves those factors — so 1.5× by construction, advertised with
/// headroom as 2×. Figure 3 renormalizes one quantile by another, so
/// its propagated bound is `QUANTILE_BOUND²`.
pub const QUANTILE_BOUND: f64 = 2.0;

/// Figure 6 hours are fractional; they are histogrammed in micro-hours.
const HOURS_SCALE: f64 = 1e6;

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

/// A fixed-size histogram per cell; Figure 6 hours in micro-hours.
impl SampleStore for LogHist {
    fn record(&mut self, v: u64) {
        LogHist::record(self, v);
    }

    fn record_hours(&mut self, hours: f64) {
        LogHist::record(self, (hours * HOURS_SCALE).round().max(1.0) as u64);
    }

    fn merge(&mut self, other: &Self) {
        LogHist::merge(self, other);
    }

    fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    fn box_stats(&mut self) -> Option<BoxStats> {
        LogHist::box_stats(self, 1.0)
    }

    fn hours_box(&mut self) -> Option<BoxStats> {
        LogHist::box_stats(self, HOURS_SCALE)
    }
}

/// The fixed-size reduction of one shard's collected study state:
/// every figure's selection, with [`LogHist`] cells.
///
/// Additive: `merge` folds another shard's digest in, figure by figure.
/// Merging in shard-id order makes the result byte-deterministic at any
/// thread count; because every field is a sum, a count or a histogram,
/// any merge order actually yields the same bytes — the discipline is
/// belt and braces.
#[derive(Debug, Clone)]
pub struct ShardDigest {
    resident: usize,
    fig1: Fig1,
    fig2: Fig2Parts<LogHist>,
    fig3: Fig3Parts<LogHist>,
    fig4: Fig4Parts<LogHist>,
    fig5: Fig5Parts,
    fig6: Fig6Parts<LogHist>,
    fig7: Fig7Parts<LogHist>,
    fig8: Fig8Parts,
    headline: HeadlineParts,
}

impl ShardDigest {
    /// An all-zero digest (the identity element of `merge`).
    pub fn empty() -> Self {
        ShardDigest {
            resident: 0,
            fig1: Fig1::empty(),
            fig2: Fig2Parts::empty(),
            fig3: Fig3Parts::empty(),
            fig4: Fig4Parts::empty(),
            fig5: Fig5Parts::empty(),
            fig6: Fig6Parts::default(),
            fig7: Fig7Parts::default(),
            fig8: Fig8Parts::empty(),
            headline: HeadlineParts::default(),
        }
    }

    /// Reduce one shard's collector (plus its finalized summary) to a
    /// digest. The caller drops the collector immediately afterwards —
    /// that is the whole point.
    pub fn extract(c: &StudyCollector, s: &StudySummary) -> ShardDigest {
        ShardDigest {
            resident: s.residents(c).count(),
            fig1: Fig1::select(c, s),
            fig2: Fig2Parts::select(c, s),
            fig3: Fig3Parts::select(c, s),
            fig4: Fig4Parts::select(c, s),
            fig5: Fig5Parts::select(c, s),
            fig6: Fig6Parts::select(c, s),
            fig7: Fig7Parts::select(c, s),
            fig8: Fig8Parts::select(c, s),
            headline: HeadlineParts::select(c, s),
        }
    }

    /// Fold another shard's digest into this one. Every field is a sum
    /// or a histogram, so this is associative and commutative; callers
    /// still merge in shard-id order for discipline.
    pub fn merge(&mut self, other: &ShardDigest) {
        self.resident += other.resident;
        self.fig1.merge(&other.fig1);
        self.fig2.merge(&other.fig2);
        self.fig3.merge(&other.fig3);
        self.fig4.merge(&other.fig4);
        self.fig5.merge(&other.fig5);
        self.fig6.merge(&other.fig6);
        self.fig7.merge(&other.fig7);
        self.fig8.merge(&other.fig8);
        self.headline.merge(&other.headline);
    }

    /// Residents counted by this digest (after the 14-day filter).
    pub fn resident_devices(&self) -> usize {
        self.resident
    }

    /// Headline statistics. **Exact**: the same tallies and arithmetic
    /// as [`headline_stats`](crate::figures::headline_stats), so at any
    /// shard count this equals the monolithic result bit for bit.
    pub fn headline(&self) -> HeadlineStats {
        self.headline.render(&self.fig1.total)
    }

    /// Render the merged digest into the standard figure structs so the
    /// existing exporters and ASCII renderers apply unchanged.
    pub fn render(&self) -> DigestFigures {
        let headline = self.headline();
        let d = self.clone();
        DigestFigures {
            fig1: d.fig1,
            fig2: d.fig2.render(),
            fig3: d.fig3.render(),
            fig4: d.fig4.render(),
            fig5: d.fig5.render(),
            fig6: d.fig6.render(),
            fig7: d.fig7.render(),
            fig8: d.fig8.render(),
            headline,
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
    use crate::accuracy;
    use crate::matrix::HourWeekMatrix;
    use appsig::App;
    use dnslog::{DomainId, DomainTable};
    use lockdown_testkit::{check, Gen};
    use nettrace::time::{Day, Month, StudyCalendar};
    use nettrace::DeviceId;

    const ND: usize = StudyCalendar::NUM_DAYS as usize;

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

    const PHONE: &str = "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/13.0.5 Mobile/15E148 Safari/604.1";
    const LAPTOP: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/80.0.3987.122 Safari/537.36";

    /// Feeds one device's activity to a collector.
    type Fill = Box<dyn Fn(&mut StudyCollector, &DomainTable)>;

    /// One device's activity, drawn at random and fed through the
    /// collector's public accumulators. `full` devices are active every
    /// day, so each case has residents and post-shutdown users.
    fn random_device(g: &mut Gen, dev: DeviceId, full: bool, sites: &[DomainId]) -> Fill {
        let (p, leave) = if full {
            (1.0, ND)
        } else {
            (g.range(0.05..1.0), g.range(30..=ND))
        };
        let mut days = Vec::new();
        for d in 0..leave {
            if g.range(0.0..1.0) < p {
                let bytes = g.range(1u64..1 << 36);
                let zoom = if g.any() { g.range(0..=bytes) } else { 0 };
                days.push((Day(d as u16), bytes, zoom));
            }
        }
        let hours: Vec<(u64, u64)> = g.vec(0..40, |g| (g.range(0..24u64), g.range(1u64..1 << 30)));
        let ua = [None, Some(PHONE), Some(LAPTOP)][g.range(0..3usize)];
        let iot = g.range(0..6u32) == 0;
        let midpoint = [None, Some((39.0, -77.0)), Some((48.85, 2.35))][g.range(0..3usize)];
        let switch = g.range(0..4u32) == 0;
        let steam = std::array::from_fn::<_, 4, _>(|_| match g.range(0..3u32) {
            0 => (0, 0),
            _ => (g.range(1u64..1 << 34), g.range(1u32..500)),
        });
        let social = std::array::from_fn::<_, 3, _>(|_| {
            std::array::from_fn::<_, 4, _>(|_| if g.any() { g.range(0.01..40.0) } else { 0.0 })
        });
        let visited: Vec<(Month, DomainId)> = g.vec(0..12, |g| {
            (
                Month::ALL[g.range(0..4usize)],
                sites[g.range(0..sites.len())],
            )
        });
        Box::new(move |c, table| {
            let slot = c.intern(dev);
            for &(day, bytes, zoom) in &days {
                c.volume.add(slot, day, bytes);
                c.zoom.add(slot, day, zoom);
                if let Some(week) = HourWeekMatrix::week_of(day) {
                    for &(hour, b) in &hours {
                        let ts = day.start().add_secs(hour as i64 * 3600);
                        c.hourweek.add(slot, week, ts, b);
                    }
                }
                if switch {
                    c.switch_detect
                        .observe(slot, day.start(), Some(App::SwitchGameplay), bytes);
                    c.switch_gameplay.add(slot, day, bytes / 2);
                }
            }
            if let Some(ua) = ua {
                c.observe_ua(dev, ua);
            }
            if iot {
                c.profiles.at_mut(slot).iot.add(1, true);
            }
            if let Some((lat, lon)) = midpoint {
                c.midpoints.entry(slot).add(lat, lon, 1.0);
            }
            if steam.iter().any(|&(b, _)| b > 0) {
                *c.steam.entry(slot) = steam;
            }
            if social.iter().flatten().any(|&h| h > 0.0) {
                *c.social_hours.entry(slot) = social;
            }
            for &(month, site) in &visited {
                c.sites.record(slot, month, site, table);
            }
        })
    }

    /// Random collectors, split by device into 1–4 disjoint shards: the
    /// merged `LogHist` digests render fig1, fig2's means, fig5, fig8
    /// and the headline bit for bit as the exact `Vec<f64>` figures of
    /// the whole, count the same samples in every fig6/fig7 box, and
    /// keep every quantile within its bound.
    #[test]
    fn digest_matches_exact_on_random_collectors() {
        let mut table = DomainTable::new();
        let sites: Vec<DomainId> = ["a.example.com", "b.example.org", "www.example.net"]
            .iter()
            .map(|s| table.intern_str(s).unwrap())
            .collect();
        check("digest_matches_exact_on_random_collectors", |g| {
            let k = g.range(1..=4usize);
            let mut whole = StudyCollector::new();
            let mut shards: Vec<StudyCollector> = (0..k).map(|_| StudyCollector::new()).collect();
            for i in 0..g.range(2..24u64) {
                let fill = random_device(g, DeviceId(i), i < 2, &sites);
                fill(&mut whole, &table);
                fill(&mut shards[g.range(0..k)], &table);
            }

            let summary = StudySummary::finalize(&whole);
            let exact = accuracy::exact_figures(&whole, &summary);
            let mut merged = ShardDigest::empty();
            for c in &shards {
                merged.merge(&ShardDigest::extract(c, &StudySummary::finalize(c)));
            }
            let digest = merged.render();

            assert_eq!(digest.headline, exact.headline);
            assert_eq!(digest.fig1.per_bucket, exact.fig1.per_bucket);
            assert_eq!(digest.fig1.total, exact.fig1.total);
            assert_eq!(digest.fig2.mean, exact.fig2.mean);
            assert_eq!(digest.fig5.daily, exact.fig5.daily);
            assert_eq!(digest.fig8.daily_ma, exact.fig8.daily_ma);
            assert_eq!(digest.fig8.n_switches, exact.fig8.n_switches);
            assert_eq!(merged.resident_devices(), summary.residents(&whole).count());
            let counts = |f: &DigestFigures| -> Vec<Option<usize>> {
                let fig6 = f.fig6.boxes.as_flattened().as_flattened().iter();
                let fig7 = f.fig7.bytes.iter().chain(&f.fig7.conns).flatten();
                fig6.chain(fig7).map(|b| b.map(|b| b.n)).collect()
            };
            assert_eq!(counts(&digest), counts(&exact));
            for f in accuracy::compare(&digest, &exact).expect("export") {
                assert!(f.within(), "{f:?}");
            }
        });
    }

    fn synthetic_collector(dev_base: u64, n: u64) -> StudyCollector {
        let mut c = StudyCollector::new();
        for i in 0..n {
            let slot = c.intern(DeviceId(dev_base + i));
            // Long-lived, post-shutdown-active device with varying volume.
            for d in 0..StudyCalendar::NUM_DAYS {
                let bytes = 1000 + (i + 1) * (d as u64 % 17);
                c.volume.add(slot, Day(d), bytes);
            }
        }
        c
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
