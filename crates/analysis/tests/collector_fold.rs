//! Folding one collector per day into a study collector, in calendar
//! order, must give every per-device tally a naive model computes from
//! the same flows. The two other ways days reach a collector must agree
//! with it: devices split into disjoint groups whose folds are folded
//! together (multi-shard exact runs), and one collector fed every day
//! directly.

use analysis::collect::{PipelineCtx, StudyCollector};
use analysis::matrix::HourWeekMatrix;
use appsig::{App, MatchCache};
use dnslog::{DomainId, DomainTable, LabeledFlow};
use lockdown_testkit::{check, Gen};
use nettrace::flow::{DeviceFlow, Proto};
use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::DeviceId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

const ND: usize = StudyCalendar::NUM_DAYS as usize;

/// The domains `collect.rs`'s own tests intern: Zoom, Facebook,
/// Instagram, Steam and Nintendo gameplay.
const DOMAINS: [&str; 5] = [
    "us04web.zoom.us",
    "www.facebook.com",
    "i.instagram.com",
    "cache1.steamcontent.com",
    "nncs1-lp1.n.n.srv.nintendo.net",
];

/// One generated day: its flows in stream order.
struct GenDay {
    day: Day,
    flows: Vec<LabeledFlow>,
}

/// 1–8 distinct days from February, one figure-3 week and May, in
/// calendar order, each with flows of up to `devices` devices: devices
/// interleave, each device's flows stay in time order, and a few start
/// outside their day.
fn gen_days(g: &mut Gen, devices: u64, domains: &[DomainId]) -> Vec<GenDay> {
    let week = StudyCalendar::figure3_weeks()[g.range(0usize..4)].1;
    let may = Month::May.first_day().0;
    let mut pool: Vec<u16> = (0..Month::Feb.num_days()).collect();
    pool.extend(week.0..week.0 + 7);
    pool.extend(may..may + Month::May.num_days());
    let mut days = BTreeSet::new();
    for _ in 0..g.range(1usize..=8) {
        days.insert(pool[g.range(0..pool.len())]);
    }
    let remotes = [Ipv4Addr::new(34, 16, 0, 50), Ipv4Addr::new(81, 2, 69, 142)];
    days.into_iter()
        .map(|d| {
            let day = Day(d);
            let mut flows: Vec<LabeledFlow> = g.vec(0..40, |g| {
                let offset = if g.range(0u32..20) == 0 {
                    g.range(-7_200i64..100_000)
                } else {
                    g.range(0i64..86_400)
                };
                let bytes = if g.range(0u32..10) == 0 {
                    0
                } else {
                    g.range(1u64..5_000_000)
                };
                LabeledFlow {
                    domain: (g.range(0u32..6) != 0).then(|| domains[g.range(0..domains.len())]),
                    flow: DeviceFlow {
                        device: DeviceId(g.range(1..=devices)),
                        ts: day.start().add_secs(offset),
                        duration_micros: g.range(1_000_000i64..900_000_000),
                        remote: remotes[g.range(0..remotes.len())],
                        remote_port: 443,
                        proto: Proto::Tcp,
                        tx_bytes: bytes / 10,
                        rx_bytes: bytes - bytes / 10,
                    },
                }
            });
            flows.sort_by_key(|lf| lf.flow.ts);
            GenDay { day, flows }
        })
        .collect()
}

/// What the collector should hold, computed flow by flow.
#[derive(Default)]
struct Model {
    volume: BTreeMap<DeviceId, [u64; ND]>,
    zoom: BTreeMap<DeviceId, [u64; ND]>,
    hours: BTreeMap<DeviceId, [[u64; 168]; 4]>,
    gameplay: BTreeMap<(DeviceId, Day), u64>,
    sites: BTreeMap<(DeviceId, usize), BTreeSet<String>>,
    steam: BTreeMap<DeviceId, [(u64, u32); 4]>,
    /// Total and console bytes.
    profiles: BTreeMap<DeviceId, (u64, u64)>,
}

impl Model {
    fn build(days: &[GenDay], ctx: &PipelineCtx, table: &DomainTable) -> Model {
        let mut m = Model::default();
        let mut cache = MatchCache::default();
        for GenDay { day, flows } in days {
            let month = day.month().index();
            for lf in flows {
                let f = &lf.flow;
                let (dev, bytes) = (f.device, f.total_bytes());
                let app = ctx.signatures.classify_flow(lf, table, &mut cache);
                m.volume.entry(dev).or_insert([0; ND])[day.0 as usize] += bytes;
                if let Some(w) = HourWeekMatrix::week_of(*day) {
                    let hour = StudyCalendar::hour_of_week(f.ts);
                    m.hours.entry(dev).or_insert([[0; 168]; 4])[w][hour] += bytes;
                }
                match app {
                    Some(App::Zoom) => {
                        m.zoom.entry(dev).or_insert([0; ND])[day.0 as usize] += bytes
                    }
                    Some(App::Steam) => {
                        let e = &mut m.steam.entry(dev).or_default()[month];
                        e.0 += bytes;
                        e.1 += 1;
                    }
                    Some(App::SwitchGameplay) => {
                        *m.gameplay.entry((dev, *day)).or_default() += bytes
                    }
                    _ => {}
                }
                let p = m.profiles.entry(dev).or_default();
                p.0 += bytes;
                if matches!(app, Some(App::SwitchGameplay | App::SwitchServices)) {
                    p.1 += bytes;
                }
                if let Some(d) = lf.domain {
                    let site = table.name(d).registered_domain().to_string();
                    m.sites.entry((dev, month)).or_default().insert(site);
                }
            }
        }
        m
    }

    /// Every getter the model covers, for each of `devices` (plus one
    /// device that never appears), against `c`.
    fn assert_matches(&self, c: &StudyCollector, devices: u64, days: &[GenDay]) {
        assert_eq!(c.volume.device_count(), self.volume.len());
        for dev in (1..=devices + 1).map(DeviceId) {
            // A device the collector never saw reads at a slot no device
            // holds yet.
            let slot = c.slot(dev).unwrap_or(c.devices().len());
            let row = self.volume.get(&dev);
            assert_eq!(c.volume.row(slot).as_ref(), row, "volume row {dev}");
            let active = row.map_or(0, |r| r.iter().filter(|&&b| b > 0).count());
            assert_eq!(c.volume.active_day_count(slot), active);
            assert_eq!(
                c.zoom.row(slot).as_ref(),
                self.zoom.get(&dev),
                "zoom row {dev}"
            );
            for month in Month::ALL {
                let span =
                    month.first_day().0 as usize..(month.first_day().0 + month.num_days()) as usize;
                let total =
                    |r: Option<&[u64; ND]>| r.map_or(0, |r| r[span.clone()].iter().sum::<u64>());
                assert_eq!(c.volume.month_total(slot, month), total(row));
                assert_eq!(c.zoom.month_total(slot, month), total(self.zoom.get(&dev)));
                let sites = self
                    .sites
                    .get(&(dev, month.index()))
                    .map_or(0, BTreeSet::len);
                assert_eq!(c.sites.count(slot, month), sites, "sites {dev} {month:?}");
            }
            for d in days {
                let at = |r: Option<&[u64; ND]>| r.map_or(0, |r| r[d.day.0 as usize]);
                assert_eq!(c.volume.get(slot, d.day), at(row));
                assert_eq!(c.zoom.get(slot, d.day), at(self.zoom.get(&dev)));
                let play = self.gameplay.get(&(dev, d.day)).copied().unwrap_or(0);
                assert_eq!(c.switch_gameplay.get(slot, d.day), play, "gameplay {dev}");
            }
            for w in 0..4 {
                let want = self.hours.get(&dev).map(|h| h[w]);
                assert_eq!(c.hourweek.row(slot, w), want, "hours {dev} week {w}");
            }
            assert_eq!(c.steam.get(slot), self.steam.get(&dev), "steam {dev}");
            let p = c
                .profiles
                .iter()
                .nth(slot)
                .map(|(_, p)| (p.total_bytes, p.console_bytes));
            assert_eq!(p.as_ref(), self.profiles.get(&dev), "profile {dev}");
        }
    }
}

/// One collector per day (only the flows `keep` admits), finished and
/// folded in calendar order into an empty collector.
fn fold_days(
    days: &[GenDay],
    ctx: &PipelineCtx,
    table: &DomainTable,
    keep: impl Fn(DeviceId) -> bool,
) -> StudyCollector {
    let mut run = StudyCollector::new();
    for d in days {
        let mut c = StudyCollector::new();
        for lf in d.flows.iter().filter(|lf| keep(lf.flow.device)) {
            c.observe_flow(ctx, table, d.day, lf);
        }
        c.finish_day();
        run.merge(c);
    }
    run
}

/// The per-device `f64` state, printed exactly (`{:?}` round-trips).
fn float_state(c: &StudyCollector) -> BTreeMap<DeviceId, String> {
    let mut out: BTreeMap<DeviceId, String> = BTreeMap::new();
    for (slot, h) in c.social_hours.iter() {
        let dev = c.devices()[slot];
        out.entry(dev).or_default().push_str(&format!("{h:?}"));
    }
    for (slot, m) in c.midpoints.iter() {
        let dev = c.devices()[slot];
        out.entry(dev).or_default().push_str(&format!(" {m:?}"));
    }
    out
}

#[test]
fn day_folds_match_the_naive_model_and_every_other_path() {
    let ctx = PipelineCtx::study();
    let mut table = DomainTable::new();
    let domains: Vec<DomainId> = DOMAINS
        .iter()
        .map(|d| table.intern_str(d).unwrap())
        .collect();
    check(
        "day_folds_match_the_naive_model_and_every_other_path",
        |g| {
            let devices = g.range(1u64..=30);
            let days = gen_days(g, devices, &domains);
            let model = Model::build(&days, &ctx, &table);

            let folded = fold_days(&days, &ctx, &table, |_| true);
            model.assert_matches(&folded, devices, &days);

            // Disjoint device groups folded apart, then folded together.
            let odd = g.range(0u64..2);
            let mut shards = fold_days(&days, &ctx, &table, |d| d.0 % 2 == odd);
            shards.merge(fold_days(&days, &ctx, &table, |d| d.0 % 2 != odd));
            model.assert_matches(&shards, devices, &days);
            assert_eq!(float_state(&shards), float_state(&folded));

            // One collector fed every day: the same integers, and the same
            // floats up to the order of their additions.
            let mut direct = StudyCollector::new();
            for d in &days {
                direct.observe_day(&ctx, &table, d.day, &d.flows);
            }
            model.assert_matches(&direct, devices, &days);
            // `direct`'s value for the device at `folded`'s `slot`.
            let theirs = |slot: usize| direct.slot(folded.devices()[slot]).unwrap();
            assert_eq!(direct.social_hours.len(), folded.social_hours.len());
            for (slot, h) in folded.social_hours.iter() {
                let dev = folded.devices()[slot];
                let other = direct.social_hours.get(theirs(slot)).unwrap();
                for (a, b) in h.iter().flatten().zip(other.iter().flatten()) {
                    assert!((a - b).abs() < 1e-12, "social hours {dev}: {a} vs {b}");
                }
            }
            assert_eq!(direct.midpoints.len(), folded.midpoints.len());
            for (slot, m) in folded.midpoints.iter() {
                let dev = folded.devices()[slot];
                let other = direct.midpoints.get(theirs(slot)).unwrap();
                assert_eq!(m.total_weight(), other.total_weight());
                match (m.midpoint(), other.midpoint()) {
                    (Some(a), Some(b)) => assert!(
                        (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                        "midpoint {dev}: {a:?} vs {b:?}"
                    ),
                    (a, b) => assert_eq!(a, b, "midpoint {dev}"),
                }
            }
        },
    );
}
