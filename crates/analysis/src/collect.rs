//! The streaming study collector.
//!
//! One pass over the normalized, DNS-labeled flow stream feeds every
//! figure and statistic. The collector is day-local and mergeable:
//! workers each collect a disjoint set of days against a shared immutable
//! [`PipelineCtx`], then merge. Classification and population
//! segmentation happen once, at finalize time, exactly as the paper's
//! pipeline classifies devices over the full dataset.
//!
//! The collector numbers its devices once, densely, in one
//! [`DeviceIndex`], kept with the devices' classification evidence in
//! [`DeviceProfiles`] (every device a collector meets has a profile);
//! each other accumulator is a store indexed by that slot, with no
//! numbering of its own, and holds columns only for the days that saw
//! bytes (see [`crate::matrix`]). A collector fed one day therefore
//! holds one day per device, and folding it into the study maps each of
//! its devices once and hands that slot map to every store. The flow
//! stream arrives device by device, so the collector resolves the
//! current device's slot once and indexes every store directly for the
//! rest of its flows; the day's month and figure-3 week are resolved
//! once per day. The figures read the stores through the
//! [`StudySummary`](crate::figures::StudySummary) finalized from the
//! collector, which is indexed by the same slots, so after the last fold
//! no reader translates between slots and device ids; only a reader
//! that meets two collectors (the vs-2019 comparison) resolves a
//! device's slot through [`StudyCollector::slot`].

use crate::matrix::{HourWeekMatrix, SparseDaily, VolumeMatrix};
use appsig::{App, MatchCache, SessionStitcher, SignatureSet};
use devclass::{is_iot_backend, DeviceProfile, SwitchDetector};
use dnslog::{DistinctSiteCounter, DomainId, DomainTable, LabeledFlow};
use geoloc::{GeoDb, MidpointAccumulator};
use nettrace::ip::PrefixSet;
use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::{DeviceId, DeviceIndex, FastMap, FastSet, Oui, SlotValues};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Immutable context shared by all collection workers.
pub struct PipelineCtx {
    /// Application signatures (§5).
    pub signatures: SignatureSet,
    /// Geolocation database (§4.2).
    pub geodb: GeoDb,
    /// CDN prefixes excluded from midpoints (§4.2).
    pub cdns: PrefixSet,
}

impl PipelineCtx {
    /// Standard study context.
    pub fn study() -> Self {
        PipelineCtx {
            signatures: appsig::study_signatures(),
            geodb: geoloc::builtin_geodb(),
            cdns: geoloc::cdn_prefixes(),
        }
    }
}

/// Per-device Steam usage by month: (bytes, connections).
pub type SteamMonthly = [(u64, u32); 4];

/// The social apps of §5.2, in the order of the paper's Figure 6 and of
/// [`SocialHours`].
pub const SOCIAL_APPS: [App; 3] = [App::Facebook, App::Instagram, App::TikTok];

/// Per-device social durations: `[app][month]` hours, apps in
/// [`SOCIAL_APPS`] order.
pub type SocialHours = [[f64; 4]; 3];

/// Index of a social app in [`SOCIAL_APPS`].
pub fn social_index(app: App) -> Option<usize> {
    SOCIAL_APPS.iter().position(|&a| a == app)
}

/// The calendar facts of the day being streamed.
#[derive(Debug, Clone, Copy)]
struct DayFacts {
    day: Day,
    month: Month,
    /// Figure-3 week, if the day is in one.
    week: Option<usize>,
}

/// The devices a collector has seen, numbered densely in first-seen
/// order, each with its classification evidence: the collector's one
/// device numbering. Slot `i` of every store of a [`StudyCollector`]
/// belongs to the `i`-th device [`iter`](Self::iter) yields.
#[derive(Debug, Default)]
pub struct DeviceProfiles {
    index: DeviceIndex,
    /// The profile of each slot.
    evidence: Vec<DeviceProfile>,
}

impl DeviceProfiles {
    /// The profile at `slot`, which [`StudyCollector::intern`] handed
    /// out.
    pub(crate) fn at_mut(&mut self, slot: usize) -> &mut DeviceProfile {
        &mut self.evidence[slot]
    }

    /// `(device, profile)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &DeviceProfile)> + '_ {
        self.index.ids().iter().zip(&self.evidence)
    }

    /// The device's slot, assigned with an empty profile on first sight.
    fn intern(&mut self, device: DeviceId) -> usize {
        let slot = self.index.intern(device);
        if slot == self.evidence.len() {
            self.evidence.push(DeviceProfile::default());
        }
        slot
    }

    /// Fold `other` in: each of its devices maps to a slot here once, and
    /// its profile merges into that slot's. Returns the slot map, in
    /// `other`'s slot order, for every other store's fold.
    fn merge(&mut self, other: DeviceProfiles) -> Vec<usize> {
        let slots = self.index.remap(&other.index);
        self.evidence
            .resize_with(self.index.len(), DeviceProfile::default);
        for (&s, p) in slots.iter().zip(other.evidence) {
            self.evidence[s].merge(p);
        }
        slots
    }
}

/// Everything accumulated over the study. Every public store is indexed
/// by the slots of the collector's one device numbering, its
/// [`profiles`](Self::profiles): a store is written only at slots that
/// [`intern`](Self::intern) or [`slot`](Self::slot) handed out.
#[derive(Default)]
pub struct StudyCollector {
    /// The devices seen, numbered in first-seen order, with their
    /// classification evidence.
    pub profiles: DeviceProfiles,
    /// Per-device daily total bytes.
    pub volume: VolumeMatrix,
    /// Per-device daily Zoom bytes.
    pub zoom: VolumeMatrix,
    /// Per-device hourly bytes in the four Figure 3 weeks.
    pub hourweek: HourWeekMatrix,
    /// Per-device Steam usage by month.
    pub steam: SlotValues<SteamMonthly>,
    /// Per-device social-app session durations by month.
    pub social_hours: SlotValues<SocialHours>,
    /// Per-device daily Switch *gameplay* bytes (update domains filtered).
    pub switch_gameplay: SparseDaily,
    /// Nintendo-traffic-fraction Switch detection.
    pub switch_detect: SwitchDetector,
    /// February destination midpoints (CDNs excluded).
    pub midpoints: SlotValues<MidpointAccumulator>,
    /// Distinct registered domains per device per month.
    pub sites: DistinctSiteCounter,
    /// Domain classification memo. Like every memo here it lives as
    /// long as this collector and is never merged; a study run streams
    /// each (shard, day) cell into a fresh collector, so its memos start
    /// empty every day.
    cache: MatchCache,
    /// Domain → IoT-backend verdict memo (per collector, not merged;
    /// the interned table is append-only so entries never go stale).
    iot_memo: FastMap<DomainId, bool>,
    /// Remote IP → February geolocation memo: `None` for CDN-excluded
    /// or unlocatable addresses (per collector, not merged).
    geo_memo: FastMap<Ipv4Addr, Option<(f64, f64)>>,
    /// User-Agent strings handed out so far (per collector, not merged).
    ua_memo: FastSet<Arc<str>>,
    /// Open social sessions for the day currently being streamed
    /// (per collector; drained by [`finish_day`](Self::finish_day),
    /// never merged).
    stitcher: SessionStitcher,
    /// The day being streamed (per collector).
    facts: Option<DayFacts>,
    /// The previous flow's device and its slot (per collector; slots
    /// never move, so it stays valid).
    cursor: Option<(DeviceId, usize)>,
}

impl StudyCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The device's slot in every store, if the collector has seen it.
    pub fn slot(&self, device: DeviceId) -> Option<usize> {
        self.profiles.index.get(device)
    }

    /// The devices seen, in slot order: slot `i` belongs to
    /// `devices()[i]`.
    pub fn devices(&self) -> &[DeviceId] {
        self.profiles.index.ids()
    }

    /// The device's slot, assigned on first sight. The `observe_*`
    /// methods call it; a caller filling stores directly calls it too.
    pub fn intern(&mut self, device: DeviceId) -> usize {
        self.profiles.intern(device)
    }

    /// Record hardware metadata for a device (from the DHCP stage, where
    /// the pipeline still sees the raw MAC before anonymization).
    pub fn observe_device_meta(&mut self, device: DeviceId, oui: Oui, locally_administered: bool) {
        let slot = self.intern(device);
        let p = self.profiles.at_mut(slot);
        if p.oui.is_none() {
            p.oui = Some(oui);
        }
        p.locally_administered |= locally_administered;
    }

    /// Record a User-Agent sighting.
    pub fn observe_ua(&mut self, device: DeviceId, ua: &str) {
        let slot = self.intern(device);
        let p = self.profiles.at_mut(slot);
        if !p.user_agents.iter().any(|u| **u == *ua) && p.user_agents.len() < 16 {
            let shared = match self.ua_memo.get(ua) {
                Some(s) => Arc::clone(s),
                None => {
                    let s: Arc<str> = ua.into();
                    self.ua_memo.insert(Arc::clone(&s));
                    s
                }
            };
            p.user_agents.push(shared);
        }
    }

    /// The calendar facts of `day`, resolved once per day.
    fn day_facts(&mut self, day: Day) -> DayFacts {
        match self.facts {
            Some(f) if f.day == day => f,
            _ => {
                let f = DayFacts {
                    day,
                    month: day.month(),
                    week: HourWeekMatrix::week_of(day),
                };
                self.facts = Some(f);
                f
            }
        }
    }

    /// The slot of `device`, resolved once while consecutive flows come
    /// from it.
    fn cursor(&mut self, device: DeviceId) -> usize {
        match self.cursor {
            Some((d, slot)) if d == device => slot,
            _ => {
                let slot = self.intern(device);
                self.cursor = Some((device, slot));
                slot
            }
        }
    }

    /// Fold one labeled flow into every accumulator.
    ///
    /// This is the streaming heart of the collector: the pipeline calls
    /// it once per flow, in per-device timestamp order, and nothing is
    /// buffered except open social sessions. Call
    /// [`finish_day`](Self::finish_day) after the day's last flow.
    pub fn observe_flow(
        &mut self,
        ctx: &PipelineCtx,
        table: &DomainTable,
        day: Day,
        lf: &LabeledFlow,
    ) {
        let DayFacts { month, week, .. } = self.day_facts(day);
        let f = &lf.flow;
        let dev = f.device;
        let bytes = f.total_bytes();
        let app = ctx.signatures.classify_flow(lf, table, &mut self.cache);
        let slot = self.cursor(dev);

        self.volume.add(slot, day, bytes);
        if let Some(week) = week {
            self.hourweek.add(slot, week, f.ts, bytes);
        }

        match app {
            Some(App::Zoom) => self.zoom.add(slot, day, bytes),
            // Steam usage (Figure 7): bytes and connection counts.
            Some(App::Steam) => {
                let e = &mut self.steam.entry(slot)[month.index()];
                e.0 += bytes;
                e.1 += 1;
            }
            // Switch gameplay (Figure 8): update/download domains filtered.
            Some(App::SwitchGameplay) => self.switch_gameplay.add(slot, day, bytes),
            _ => {}
        }
        self.switch_detect.observe(slot, f.ts, app, bytes);

        // Classification evidence.
        let profile = self.profiles.at_mut(slot);
        profile.total_bytes += bytes;
        if matches!(app, Some(App::SwitchGameplay | App::SwitchServices)) {
            profile.console_bytes += bytes;
        }
        let is_backend = match lf.domain {
            Some(d) => *self
                .iot_memo
                .entry(d)
                .or_insert_with(|| is_iot_backend(table.name(d))),
            None => false,
        };
        profile.iot.add(bytes, is_backend);

        // Geographic midpoint (February destinations, CDNs excluded).
        // Server addresses repeat across thousands of flows, so the
        // CDN-exclusion and atlas scans are memoized per remote IP.
        if month == Month::Feb {
            let geo = *self.geo_memo.entry(f.remote).or_insert_with(|| {
                if ctx.cdns.contains(f.remote) {
                    None
                } else {
                    ctx.geodb.lookup(f.remote).map(|e| (e.lat, e.lon))
                }
            });
            if let Some((lat, lon)) = geo {
                self.midpoints.entry(slot).add(lat, lon, bytes as f64);
            }
        }

        // Distinct sites.
        if let Some(dom) = lf.domain {
            self.sites.record(slot, month, dom, table);
        }

        // Social session stitching (Figure 6).
        if let Some(a @ (App::Facebook | App::Instagram | App::TikTok)) = app {
            self.stitcher.push(dev, a, f.ts, f.end(), bytes);
        }
    }

    /// Close out the day's streaming state: sessions still open in the
    /// stitcher end, and their durations land in the monthly totals.
    /// Must be called once after each day's flows (and before handing
    /// this collector to [`merge`](Self::merge)).
    pub fn finish_day(&mut self) {
        for session in std::mem::take(&mut self.stitcher).finish() {
            let Some(ai) = social_index(session.app) else {
                continue;
            };
            let Some(m) = StudyCalendar::month_of(session.start) else {
                continue;
            };
            let slot = self.intern(session.device);
            self.social_hours.entry(slot)[ai][m.index()] += session.duration_hours();
        }
    }

    /// Process one day's labeled flows (must be sorted by start time).
    /// Batch wrapper over [`observe_flow`](Self::observe_flow) +
    /// [`finish_day`](Self::finish_day).
    pub fn observe_day(
        &mut self,
        ctx: &PipelineCtx,
        table: &DomainTable,
        day: Day,
        flows: &[LabeledFlow],
    ) {
        for lf in flows {
            self.observe_flow(ctx, table, day, lf);
        }
        self.finish_day();
    }

    /// Merge a worker's collector into this one: the other's devices map
    /// into this collector's slots once, and every store adds what that
    /// slot map says they hold — for a one-day collector, one day per
    /// device. An empty collector takes the other's stores as they are.
    /// Per-device `f64` partial sums (social hours, midpoints) add in
    /// merge order, so merging days in calendar order is deterministic.
    pub fn merge(&mut self, other: StudyCollector) {
        debug_assert_eq!(
            other.stitcher.open_count(),
            0,
            "merge before finish_day: open social sessions would be lost"
        );
        other.debug_assert_slots();
        if self.profiles.evidence.is_empty() {
            // Nothing to add to: take the other's devices and stores as
            // they are. Its memos are dropped, as in any merge.
            *self = StudyCollector {
                cache: std::mem::take(&mut self.cache),
                iot_memo: std::mem::take(&mut self.iot_memo),
                geo_memo: std::mem::take(&mut self.geo_memo),
                ua_memo: std::mem::take(&mut self.ua_memo),
                ..other
            };
            return;
        }
        let slots = self.profiles.merge(other.profiles);
        self.volume.merge(other.volume, &slots);
        self.zoom.merge(other.zoom, &slots);
        self.hourweek.merge(other.hourweek, &slots);
        self.steam.merge_with(other.steam, &slots, |mine, months| {
            for (m, (b, c)) in mine.iter_mut().zip(months) {
                m.0 += b;
                m.1 += c;
            }
        });
        self.social_hours
            .merge_with(other.social_hours, &slots, |mine, apps| {
                for (m, a) in mine.iter_mut().zip(apps) {
                    for (h, x) in m.iter_mut().zip(a) {
                        *h += x;
                    }
                }
            });
        self.switch_gameplay.merge(other.switch_gameplay, &slots);
        self.switch_detect.merge(other.switch_detect, &slots);
        self.midpoints
            .merge_with(other.midpoints, &slots, MidpointAccumulator::merge);
        self.sites.merge(other.sites, &slots);
    }

    /// In debug builds, panics unless every store holds only slots this
    /// collector handed out: a store filled at a slot no device holds
    /// credits its values to no device, or to whichever device later
    /// takes the slot.
    pub(crate) fn debug_assert_slots(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let devices = self.profiles.evidence.len();
        for (store, bound) in [
            ("volume", self.volume.slot_bound()),
            ("zoom", self.zoom.slot_bound()),
            ("hourweek", self.hourweek.slot_bound()),
            ("steam", self.steam.slot_bound()),
            ("social_hours", self.social_hours.slot_bound()),
            ("switch_gameplay", self.switch_gameplay.slot_bound()),
            ("switch_detect", self.switch_detect.slot_bound()),
            ("midpoints", self.midpoints.slot_bound()),
            ("sites", self.sites.slot_bound()),
        ] {
            assert!(
                bound <= devices,
                "{store} holds slot {} of a collector with {devices} devices",
                bound - 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslog::DomainTable;
    use nettrace::flow::{DeviceFlow, Proto};
    use nettrace::Timestamp;
    use std::net::Ipv4Addr;

    fn lf(
        device: u64,
        ts: Timestamp,
        remote: Ipv4Addr,
        bytes: u64,
        domain: Option<dnslog::DomainId>,
    ) -> LabeledFlow {
        LabeledFlow {
            domain,
            flow: DeviceFlow {
                device: DeviceId(device),
                ts,
                duration_micros: 60_000_000,
                remote,
                remote_port: 443,
                proto: Proto::Tcp,
                tx_bytes: bytes / 10,
                rx_bytes: bytes - bytes / 10,
            },
        }
    }

    #[test]
    fn observe_day_populates_everything() {
        let ctx = PipelineCtx::study();
        let mut table = DomainTable::new();
        let zoom = table.intern_str("us04web.zoom.us").unwrap();
        let fb = table.intern_str("www.facebook.com").unwrap();
        let ig = table.intern_str("i.instagram.com").unwrap();
        let steam = table.intern_str("cache1.steamcontent.com").unwrap();
        let play = table.intern_str("nncs1-lp1.n.n.srv.nintendo.net").unwrap();

        let day = Day(10); // February
        let t0 = day.start().add_secs(12 * 3600);
        let us_east = Ipv4Addr::new(34, 16, 0, 50);
        let mut c = StudyCollector::new();
        let flows = vec![
            lf(1, t0, us_east, 1_000_000, Some(zoom)),
            lf(1, t0.add_secs(100), us_east, 2_000_000, Some(fb)),
            lf(1, t0.add_secs(130), us_east, 500_000, Some(ig)),
            lf(2, t0, us_east, 9_000_000, Some(steam)),
            lf(3, t0, us_east, 800_000, Some(play)),
        ];
        c.observe_day(&ctx, &table, day, &flows);

        let slot = |dev: u64| c.slot(DeviceId(dev)).unwrap();
        assert_eq!(c.devices(), &[DeviceId(1), DeviceId(2), DeviceId(3)]);
        assert_eq!(c.volume.get(slot(1), day), 3_500_000);
        assert_eq!(c.zoom.get(slot(1), day), 1_000_000);
        assert_eq!(c.zoom.row(slot(2)), None, "no Zoom row without Zoom");
        assert_eq!(c.steam.get(slot(2)).unwrap()[0], (9_000_000, 1));
        assert_eq!(c.switch_gameplay.get(slot(3), day), 800_000);
        assert_eq!(c.switch_detect.switches().collect::<Vec<_>>(), [slot(3)]);
        // The FB+IG overlapping flows stitched into one Instagram session.
        let hours = c.social_hours.get(slot(1)).unwrap();
        assert!(hours[1][0] > 0.0, "instagram hours {hours:?}");
        assert_eq!(hours[0][0], 0.0, "no separate facebook session");
        // Midpoints recorded (February, non-CDN, geolocatable).
        assert!(c.midpoints.get(slot(1)).is_some());
        // Sites counted.
        assert!(c.sites.count(slot(1), Month::Feb) >= 2);
    }

    #[test]
    fn february_non_cdn_midpoints_split_domestic_from_international() {
        // §4.2 on the study's path: the collector keeps February, non-CDN
        // destinations, and the summary labels post-shutdown devices.
        let ctx = PipelineCtx::study();
        let table = DomainTable::new();
        let regions = geoloc::builtin_regions();
        let host = |name: &str| {
            let region = regions.iter().find(|r| r.name == name).expect(name);
            region.prefix.first_host()
        };
        let (us, cn) = (host("us-central"), host("cn-east"));
        let cdn = geoloc::atlas::cdn_region().prefix.first_host();
        let mut c = StudyCollector::new();
        let feb = Day(1);
        let t = feb.start().add_secs(3600);
        let february = [
            lf(1, t, us, 10_000, None), // mostly the US
            lf(1, t.add_secs(60), cn, 100, None),
            lf(2, t, cn, 10_000, None), // mostly China
            lf(2, t.add_secs(60), us, 500, None),
            lf(4, t, cdn, 10_000, None), // CDNs only
        ];
        c.observe_day(&ctx, &table, feb, &february);
        // April: all four stay on campus and talk to China; device 3
        // appears only now.
        for d in 60..80 {
            let day = Day(d);
            let t = day.start().add_secs(3600);
            let april: Vec<_> = (1..=4).map(|dev| lf(dev, t, cn, 10_000, None)).collect();
            c.observe_day(&ctx, &table, day, &april);
        }

        let s = crate::figures::StudySummary::finalize(&c);
        assert_eq!(s.post_shutdown(&c).count(), 4);
        let residents = s.by_device(&c);
        let subpop = |dev| residents[&DeviceId(dev)].subpop;
        assert_eq!(subpop(1), Some(geoloc::SubPop::Domestic));
        assert_eq!(subpop(2), Some(geoloc::SubPop::International));
        let midpoint = |dev| c.slot(DeviceId(dev)).and_then(|s| c.midpoints.get(s));
        assert!(midpoint(3).is_none(), "April-only");
        assert!(midpoint(4).is_none(), "CDN-only");
        assert_eq!(
            s.post_shutdown(&c)
                .filter(|(_, r)| r.subpop.is_some())
                .count(),
            2
        );
    }

    #[test]
    fn merge_matches_sequential() {
        let ctx = PipelineCtx::study();
        let mut table = DomainTable::new();
        let fb = table.intern_str("www.facebook.com").unwrap();
        let day_a = Day(5);
        let day_b = Day(6);
        let remote = Ipv4Addr::new(34, 16, 0, 50);
        let fa = vec![lf(1, day_a.start().add_secs(100), remote, 1_000, Some(fb))];
        let fbv = vec![lf(1, day_b.start().add_secs(100), remote, 2_000, Some(fb))];

        let mut seq = StudyCollector::new();
        seq.observe_day(&ctx, &table, day_a, &fa);
        seq.observe_day(&ctx, &table, day_b, &fbv);

        let mut w1 = StudyCollector::new();
        let mut w2 = StudyCollector::new();
        w1.observe_day(&ctx, &table, day_a, &fa);
        w2.observe_day(&ctx, &table, day_b, &fbv);
        w1.merge(w2);

        let (s, w) = (
            seq.slot(DeviceId(1)).unwrap(),
            w1.slot(DeviceId(1)).unwrap(),
        );
        assert_eq!(seq.volume.get(s, day_a), w1.volume.get(w, day_a));
        assert_eq!(seq.volume.get(s, day_b), w1.volume.get(w, day_b));
        let sh_seq = seq.social_hours.get(s).unwrap();
        let sh_par = w1.social_hours.get(w).unwrap();
        assert!((sh_seq[0][0] - sh_par[0][0]).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "volume holds slot 1 of a collector with 1 devices")]
    fn a_store_filled_past_the_devices_fails_the_fold() {
        let mut c = StudyCollector::new();
        let slot = c.intern(DeviceId(1));
        c.volume.add(slot + 1, Day(0), 10);
        StudyCollector::new().merge(c);
    }

    #[test]
    fn ua_and_meta_feed_profiles() {
        let mut c = StudyCollector::new();
        let dev = DeviceId(9);
        c.observe_device_meta(dev, Oui::new(0x18, 0xdb, 0xf2), false);
        c.observe_ua(dev, "Mozilla/5.0 (Windows NT 10.0; Win64; x64)");
        c.observe_ua(dev, "Mozilla/5.0 (Windows NT 10.0; Win64; x64)"); // dup
        let slot = c.slot(dev).unwrap();
        let p = &c.profiles.evidence[slot];
        assert_eq!(p.oui, Some(Oui::new(0x18, 0xdb, 0xf2)));
        assert_eq!(p.user_agents.len(), 1);
        // A device seen only through its lease has a slot and a profile,
        // and no traffic row.
        assert_eq!(c.volume.row(slot), None);
        assert_eq!(c.volume.device_count(), 0);
    }
}
