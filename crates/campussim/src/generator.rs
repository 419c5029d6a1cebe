//! Trace materialization: turning the behavioural model into flows, DNS
//! queries, DHCP leases and User-Agent sightings, one day at a time.
//!
//! [`CampusSim::day_trace`] is a pure function of (config, day): any day
//! can be generated on any thread in any order, and two calls agree bit
//! for bit. The outputs are the *raw* inputs the measurement pipeline
//! consumes — flows are keyed by dynamic IP (not device), so DHCP
//! normalization is doing real work.

use crate::config::SimConfig;
use crate::domains::{ServiceDirectory, ServiceId};
use crate::model::{self, DiurnalKind, SocialApp};
use crate::population::{Device, DeviceOs, Population, Student, TrueKind};
use crate::rng::{self, SmallRng, Stream};
use crate::scenario::Scenario;
use appsig::App;
use dhcplog::{LeaseAction, LeaseEvent};
use dnslog::DnsQuery;
use nettrace::flow::{FlowRecord, Proto};
use nettrace::ip::campus;
use nettrace::time::Day;
use nettrace::{DeviceId, Timestamp};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A User-Agent observation from cleartext HTTP metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UaSighting {
    /// When the string was observed.
    pub ts: Timestamp,
    /// The observing device (normalized).
    pub device: DeviceId,
    /// The raw string.
    pub ua: &'static str,
}

/// Everything the tap collected on one day.
#[derive(Debug, Default)]
pub struct DayTrace {
    /// Flow records, sorted by start time.
    pub flows: Vec<FlowRecord>,
    /// DNS query log, sorted by time.
    pub dns: Vec<DnsQuery>,
    /// DHCP lease events, sorted by time.
    pub leases: Vec<LeaseEvent>,
    /// User-Agent sightings.
    pub ua: Vec<UaSighting>,
}

/// Generation tallies for one [`CampusSim::stream_day`] call.
///
/// The generator is the pipeline's upstream tap: these counts are what
/// an operator compares against the downstream attribution counters to
/// verify nothing was dropped in between. The study driver publishes
/// them as `gen.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DayGenStats {
    /// Devices on campus this day (owner not departed).
    pub devices_present: u64,
    /// Present devices that actually generated traffic sessions.
    pub devices_active: u64,
    /// Flow records emitted.
    pub flows: u64,
    /// DNS queries emitted.
    pub dns_queries: u64,
    /// DHCP lease events emitted.
    pub lease_events: u64,
    /// User-Agent sightings emitted.
    pub ua_sightings: u64,
}

impl std::ops::AddAssign for DayGenStats {
    fn add_assign(&mut self, o: DayGenStats) {
        self.devices_present += o.devices_present;
        self.devices_active += o.devices_active;
        self.flows += o.flows;
        self.dns_queries += o.dns_queries;
        self.lease_events += o.lease_events;
        self.ua_sightings += o.ua_sightings;
    }
}

/// A consumer of one day's event stream.
///
/// [`CampusSim::stream_day`] drives a `DaySink` device by device: for
/// each present device it delivers that device's lease events, then its
/// DNS queries, then its flows, then its User-Agent sightings, each
/// group in timestamp order. The stream is therefore *device-major*:
/// timestamps are monotone within a device but not across devices.
/// That is exactly the [`nettrace::BatchStage`] contract — every event a
/// flow depends on (its device's lease bracket, its service's DNS
/// resolution) arrives before the flow itself, and day-level results
/// must be invariant to device interleaving.
pub trait DaySink {
    /// One DHCP lease event.
    fn lease(&mut self, event: LeaseEvent);
    /// One DNS query with its answer set.
    fn dns(&mut self, query: DnsQuery);
    /// One flow record.
    fn flow(&mut self, flow: FlowRecord);
    /// One User-Agent sighting.
    fn ua(&mut self, sighting: UaSighting);
}

/// A single event from the day stream, for closure-based sinks.
#[derive(Debug, Clone)]
pub enum DayEvent {
    /// A DHCP lease event.
    Lease(LeaseEvent),
    /// A DNS query.
    Dns(DnsQuery),
    /// A flow record.
    Flow(FlowRecord),
    /// A User-Agent sighting.
    Ua(UaSighting),
}

/// Any `FnMut(DayEvent)` is a sink, so ad-hoc consumers need no type.
impl<F: FnMut(DayEvent)> DaySink for F {
    fn lease(&mut self, event: LeaseEvent) {
        self(DayEvent::Lease(event));
    }
    fn dns(&mut self, query: DnsQuery) {
        self(DayEvent::Dns(query));
    }
    fn flow(&mut self, flow: FlowRecord) {
        self(DayEvent::Flow(flow));
    }
    fn ua(&mut self, sighting: UaSighting) {
        self(DayEvent::Ua(sighting));
    }
}

/// Collecting into a [`DayTrace`] is the batch adapter over the stream.
/// Events land unsorted here; [`CampusSim::day_trace`] restores the
/// global timestamp order afterwards.
impl DaySink for DayTrace {
    fn lease(&mut self, event: LeaseEvent) {
        self.leases.push(event);
    }
    fn dns(&mut self, query: DnsQuery) {
        self.dns.push(query);
    }
    fn flow(&mut self, flow: FlowRecord) {
        self.flows.push(flow);
    }
    fn ua(&mut self, sighting: UaSighting) {
        self.ua.push(sighting);
    }
}

/// The synthetic campus — the whole of it, or one population shard.
pub struct CampusSim {
    cfg: SimConfig,
    /// Effective year-over-year growth (scenario override or config knob).
    yoy: f64,
    population: Population,
    directory: Arc<ServiceDirectory>,
}

impl CampusSim {
    /// Build the campus for a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let population = Population::build(&cfg);
        let directory = Arc::new(ServiceDirectory::build());
        Self::for_shard(cfg, population, directory)
    }

    /// Build a campus over one population shard (or any pre-built
    /// population), sharing the service directory across shards. The
    /// generator keys every RNG stream on global device indices, so a
    /// shard sim emits bit-identically to the same devices inside a
    /// monolithic sim.
    pub fn for_shard(
        cfg: SimConfig,
        population: Population,
        directory: Arc<ServiceDirectory>,
    ) -> Self {
        let yoy = cfg.scenario.effective_yoy(cfg.yoy_growth);
        CampusSim {
            cfg,
            yoy,
            population,
            directory,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The scenario this campus runs.
    pub fn scenario(&self) -> &Scenario {
        &self.cfg.scenario
    }

    /// The population (ground truth).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The service directory (world).
    pub fn directory(&self) -> &ServiceDirectory {
        &self.directory
    }

    /// The dynamic IP a device holds on `day`. A daily rotating
    /// permutation of the /16 pool: every device's address changes at
    /// midnight, so the DHCP interval index is genuinely exercised.
    pub fn device_ip(&self, device_index: u32, day: Day) -> Ipv4Addr {
        let pool = campus::residential_pool();
        let capacity = pool.size() - 2; // skip network and broadcast-ish edges
        let idx = (device_index as u64 + day.0 as u64 * 7919) % capacity as u64;
        pool.nth(1 + idx as u32)
    }

    /// Generate one day of traffic as a materialized [`DayTrace`], each
    /// event class globally timestamp-sorted. Thin adapter over
    /// [`stream_day`](Self::stream_day), kept for tools that want random
    /// access; the measurement pipeline itself consumes the stream.
    pub fn day_trace(&self, day: Day) -> DayTrace {
        let mut out = DayTrace::default();
        self.stream_day(day, &mut out);
        out.flows.sort_by_key(|f| (f.ts, f.orig, f.orig_port));
        out.dns.sort_by_key(|q| (q.ts, q.device));
        out.leases.sort_by_key(|l| (l.ts, l.ip));
        out.ua.sort_by_key(|u| (u.ts, u.device));
        out
    }

    /// Generate one day of traffic directly into `sink`, never holding
    /// more than a single device's events in memory. Deterministic;
    /// thread-safe; ordering contract documented on [`DaySink`].
    /// Returns the day's generation tallies so callers can report
    /// generated-session counts without re-counting the stream.
    pub fn stream_day<S: DaySink>(&self, day: Day, sink: &mut S) -> DayGenStats {
        let mut stats = DayGenStats::default();
        // One device's events, and the services it used in first-use
        // order: cleared per device, so their buffers serve the whole day.
        let mut scratch = DayTrace::default();
        let mut used_services = Vec::new();
        // Busy time of synthesis proper (device_day), separated from
        // time the sink spends consuming what we emit. Checked once per
        // day, so the untraced hot path pays nothing per device.
        let mut gen_busy_ns = lockdown_obs::trace::enabled().then_some(0u64);
        for device in &self.population.devices {
            if !self.population.device_present(device, day) {
                continue;
            }
            stats.devices_present += 1;
            let student = self.population.owner_of(device);
            match &mut gen_busy_ns {
                Some(busy) => {
                    let t0 = std::time::Instant::now();
                    self.device_day(device, student, day, &mut scratch, &mut used_services);
                    *busy += t0.elapsed().as_nanos() as u64;
                }
                None => self.device_day(device, student, day, &mut scratch, &mut used_services),
            }
            if scratch.flows.is_empty() && scratch.leases.is_empty() {
                continue;
            }
            stats.devices_active += 1;
            stats.flows += scratch.flows.len() as u64;
            stats.dns_queries += scratch.dns.len() as u64;
            stats.lease_events += scratch.leases.len() as u64;
            stats.ua_sightings += scratch.ua.len() as u64;
            // Per-device timestamp order. A device's flows all share one
            // source IP for the day, so (ts, orig_port) is as fine a key
            // as the global (ts, orig, orig_port) sort in `day_trace`.
            scratch.flows.sort_by_key(|f| (f.ts, f.orig_port));
            scratch.dns.sort_by_key(|q| q.ts);
            scratch.leases.sort_by_key(|l| l.ts);
            scratch.ua.sort_by_key(|u| u.ts);
            for event in scratch.leases.drain(..) {
                sink.lease(event);
            }
            for query in scratch.dns.drain(..) {
                sink.dns(query);
            }
            for flow in scratch.flows.drain(..) {
                sink.flow(flow);
            }
            for sighting in scratch.ua.drain(..) {
                sink.ua(sighting);
            }
        }
        if let Some(busy) = gen_busy_ns {
            lockdown_obs::trace::aggregate(
                "stage",
                "generate",
                busy,
                &[("devices", stats.devices_active), ("flows", stats.flows)],
            );
        }
        stats
    }

    fn device_day(
        &self,
        device: &Device,
        student: &Student,
        day: Day,
        out: &mut DayTrace,
        used_services: &mut Vec<(ServiceId, Timestamp)>,
    ) {
        let mut srng = rng::rng_for(
            self.cfg.seed,
            Stream::Sessions,
            day.0 as u64,
            device.index as u64,
        );
        let post = self.cfg.scenario.post_shutdown(day);
        let weekday = day.weekday();
        if srng.f64() >= model::active_probability(device.kind, weekday, post) {
            return;
        }

        let ip = self.device_ip(device.index, day);
        // Lease bracket for the day.
        out.leases.push(LeaseEvent {
            ts: day.start(),
            action: LeaseAction::Assign,
            ip,
            mac: device.mac,
        });
        out.leases.push(LeaseEvent {
            ts: day.start().add_secs(12 * 3600),
            action: LeaseAction::Renew,
            ip,
            mac: device.mac,
        });
        out.leases.push(LeaseEvent {
            ts: day.end().add_micros(-1),
            action: LeaseAction::Release,
            ip,
            mac: device.mac,
        });

        used_services.clear();
        let mut ctx = DeviceDayCtx {
            sim: self,
            device,
            student,
            day,
            ip,
            post,
            weekend: weekday.is_weekend(),
            srng,
            frng: rng::rng_for(
                self.cfg.seed,
                Stream::Flows,
                day.0 as u64,
                device.index as u64,
            ),
            used_services,
        };

        match device.kind {
            TrueKind::Phone | TrueKind::Companion => {
                ctx.background_web(out);
                ctx.social(out);
                if device.kind == TrueKind::Phone && student.devices.len() == 1 {
                    // Phone-only students attend class by phone.
                    ctx.zoom(out);
                }
                ctx.maybe_steam(out);
            }
            TrueKind::Laptop | TrueKind::Desktop => {
                ctx.background_web(out);
                if self.zoom_device_of(student) == Some(device.index) {
                    ctx.zoom(out);
                }
                ctx.maybe_steam(out);
            }
            TrueKind::Iot => ctx.iot(out),
            TrueKind::Switch => ctx.switch_console(out),
        }

        ctx.emit_dns(out);
        ctx.emit_ua(out);
    }

    /// The device a student attends Zoom classes on: first laptop, else
    /// first desktop, else first phone.
    fn zoom_device_of(&self, student: &Student) -> Option<u32> {
        let pick = |kind: TrueKind| {
            student
                .devices
                .iter()
                .copied()
                .find(|&i| self.population.device(i).kind == kind)
        };
        pick(TrueKind::Laptop)
            .or_else(|| pick(TrueKind::Desktop))
            .or_else(|| pick(TrueKind::Phone))
    }
}

/// Per-device-day generation context.
struct DeviceDayCtx<'a> {
    sim: &'a CampusSim,
    device: &'a Device,
    student: &'a Student,
    day: Day,
    ip: Ipv4Addr,
    post: bool,
    weekend: bool,
    srng: SmallRng,
    frng: SmallRng,
    /// Services used so far with their first-use time, in first-use
    /// order, the order `emit_dns` and `emit_ua` read them in.
    used_services: &'a mut Vec<(ServiceId, Timestamp)>,
}

impl<'a> DeviceDayCtx<'a> {
    fn seed(&self) -> u64 {
        self.sim.cfg.seed
    }

    /// Sample a start timestamp from a diurnal profile.
    fn sample_start(&mut self, kind: DiurnalKind) -> Timestamp {
        let weights: [f64; 24] =
            std::array::from_fn(|h| model::diurnal_weight(kind, self.post, self.weekend, h as u32));
        let total: f64 = weights.iter().sum();
        let mut u = self.srng.f64() * total;
        let mut hour = 23;
        for (h, w) in weights.iter().enumerate() {
            if u < *w {
                hour = h;
                break;
            }
            u -= w;
        }
        self.day
            .start()
            .add_secs(hour as i64 * 3600 + self.srng.gen_range(0..3600))
    }

    /// Emit one flow to a service, clamped inside the day.
    #[allow(clippy::too_many_arguments)]
    fn emit_flow(
        &mut self,
        out: &mut DayTrace,
        service: ServiceId,
        proto: Proto,
        port: u16,
        start: Timestamp,
        dur_secs: f64,
        tx: u64,
        rx: u64,
    ) {
        let start = start.max(self.day.start()).min(self.day.end().add_secs(-2));
        let max_dur = (self.day.end().delta_micros(start) - 1_000_000).max(1_000_000);
        let dur_micros = ((dur_secs * 1e6) as i64).clamp(500_000, max_dur);
        let remote = self.sim.directory.pick_ip(service, self.frng.next_u64());
        let tx = tx.max(200);
        let rx = rx.max(200);
        out.flows.push(FlowRecord {
            ts: start,
            duration_micros: dur_micros,
            orig: self.ip,
            orig_port: self.frng.gen_range(49_152..65_000),
            resp: remote,
            resp_port: port,
            proto,
            orig_bytes: tx,
            resp_bytes: rx,
            orig_pkts: (tx / 1_200 + 1) as u32,
            resp_pkts: (rx / 1_200 + 1) as u32,
        });
        self.note_service(service, start);
    }

    fn note_service(&mut self, service: ServiceId, ts: Timestamp) {
        match self.used_services.iter_mut().find(|(s, _)| *s == service) {
            Some(entry) => {
                if ts < entry.1 {
                    entry.1 = ts;
                }
            }
            None => self.used_services.push((service, ts)),
        }
    }

    /// Pick a background service from the device's zipf-ish home set.
    fn pick_background(&mut self, foreign: bool) -> ServiceId {
        let pool = if foreign {
            self.sim.directory.background_foreign()
        } else {
            self.sim.directory.background_us()
        };
        let breadth = self.sim.cfg.scenario.web_breadth(self.day).min(pool.len());
        // Quadratic skew: low ranks dominate (zipf-like popularity).
        let rank = ((self.srng.f64().powi(2)) * breadth as f64) as usize;
        let base = rng::mix(&[
            self.seed(),
            self.device.index as u64,
            if foreign { 1 } else { 0 },
        ]) as usize;
        pool[(base + rank * 37) % pool.len()]
    }

    /// Background web browsing/streaming.
    fn background_web(&mut self, out: &mut DayTrace) {
        let subpop = self.student.subpop;
        let mult = self.sim.cfg.scenario.leisure_multiplier(subpop, self.day)
            * model::weekend_volume_factor(self.day.weekday())
            * self.sim.yoy
            * self.student.leisure_factor;
        let lambda = model::web_sessions_per_day(self.device.kind) * mult;
        let n = rng::poisson(&mut self.srng, lambda);
        let foreign_share = model::foreign_web_share(
            subpop,
            rng::unit_hash(
                self.seed(),
                Stream::Population,
                self.student.index as u64,
                77,
            ),
        );
        for _ in 0..n {
            let start = self.sample_start(DiurnalKind::Leisure);
            let minutes =
                rng::exponential(&mut self.srng, model::WEB_SESSION_MINUTES).clamp(0.5, 120.0);
            let bytes = minutes
                * model::web_bytes_per_minute(self.device.kind)
                * self.device.volume_factor
                * rng::lognormal_med(&mut self.srng, 1.0, 0.8);
            let foreign = self.srng.f64() < foreign_share;
            let service = self.pick_background(foreign);
            let cdn_bytes = (bytes * model::CDN_SHARE) as u64;
            let main_bytes = bytes as u64 - cdn_bytes;
            self.emit_flow(
                out,
                service,
                Proto::Tcp,
                443,
                start,
                minutes * 60.0,
                main_bytes / 12,
                main_bytes,
            );
            // Page assets ride a CDN (excluded from geolocation).
            if cdn_bytes > 0 {
                let cdns = self.sim.directory.app_services(App::Cdn);
                let cdn = cdns[self.srng.gen_range(0..cdns.len())];
                let cdn_start = start.add_secs(self.srng.gen_range(1..10));
                self.emit_flow(
                    out,
                    cdn,
                    Proto::Tcp,
                    443,
                    cdn_start,
                    minutes * 45.0,
                    cdn_bytes / 20,
                    cdn_bytes,
                );
            }
        }
    }

    /// Social-media sessions (Figure 6 material).
    fn social(&mut self, out: &mut DayTrace) {
        let subpop = self.student.subpop;
        let month = self.day.month();
        for (ai, app) in SocialApp::ALL.into_iter().enumerate() {
            let active_p = model::social_monthly_active_prob(app, subpop, month);
            let active = rng::unit_hash(
                self.seed(),
                Stream::Engagement,
                rng::mix(&[self.device.index as u64, ai as u64, 101]),
                month.index() as u64,
            ) < active_p;
            if !active {
                continue;
            }
            let escalator = rng::unit_hash(
                self.seed(),
                Stream::Engagement,
                rng::mix(&[self.device.index as u64, ai as u64, 202]),
                0,
            ) < model::social_escalator_fraction(app, subpop);
            let sigma = model::social_sigma(app, subpop);
            let engagement = rng::engagement_factor(
                self.seed(),
                self.device.index as u64,
                300 + ai as u64,
                sigma,
            );
            let monthly_hours = self
                .sim
                .cfg
                .scenario
                .social_monthly_hours(app, subpop, escalator, month)
                * engagement;
            let daily_minutes = monthly_hours * 60.0 / month.num_days() as f64;
            let lambda = daily_minutes / model::SOCIAL_SESSION_MINUTES;
            let n = rng::poisson(&mut self.srng, lambda);
            for _ in 0..n {
                let start = self.sample_start(DiurnalKind::Leisure);
                let minutes = rng::exponential(&mut self.srng, model::SOCIAL_SESSION_MINUTES)
                    .clamp(0.5, 90.0);
                let bytes = minutes
                    * model::SOCIAL_BYTES_PER_MINUTE
                    * rng::lognormal_med(&mut self.srng, 1.0, 0.6);
                self.social_session(out, app, start, minutes, bytes as u64);
            }
        }
    }

    /// One social session: overlapping flows across the app's domains
    /// (exactly the structure §5.2's stitcher handles).
    fn social_session(
        &mut self,
        out: &mut DayTrace,
        app: SocialApp,
        start: Timestamp,
        minutes: f64,
        bytes: u64,
    ) {
        let dur = minutes * 60.0;
        match app {
            SocialApp::Facebook => {
                // 2–3 flows, all on Facebook-family domains.
                let services = self.sim.directory.app_services(App::Facebook);
                let n = 2 + usize::from(self.srng.f64() < 0.5);
                for j in 0..n {
                    let svc = services[self.srng.gen_range(0..services.len())];
                    let offset = self.srng.gen_range(0..12) as i64 * j as i64;
                    let share = if j == 0 {
                        bytes * 6 / 10
                    } else {
                        bytes * 4 / 10 / (n as u64 - 1).max(1)
                    };
                    let flow_start = start.add_secs(offset);
                    self.emit_flow(
                        out,
                        svc,
                        Proto::Tcp,
                        443,
                        flow_start,
                        dur - offset as f64,
                        share / 15,
                        share,
                    );
                }
            }
            SocialApp::Instagram => {
                // Instagram rides Facebook-family domains *plus* at least
                // one Instagram-only domain — the disambiguation marker.
                let fb = self.sim.directory.app_services(App::Facebook);
                let ig = self.sim.directory.app_services(App::Instagram);
                let fb_svc = fb[self.srng.gen_range(0..fb.len())];
                let ig_svc = ig[self.srng.gen_range(0..ig.len())];
                self.emit_flow(
                    out,
                    ig_svc,
                    Proto::Tcp,
                    443,
                    start,
                    dur,
                    bytes / 20,
                    bytes * 7 / 10,
                );
                let fb_start = start.add_secs(self.srng.gen_range(1..15));
                self.emit_flow(
                    out,
                    fb_svc,
                    Proto::Tcp,
                    443,
                    fb_start,
                    dur * 0.8,
                    bytes / 40,
                    bytes * 3 / 10,
                );
            }
            SocialApp::TikTok => {
                // Video bytes come from the US CDN edge; the session also
                // touches an API/logging domain (which may sit abroad —
                // byteoversea — but carries few bytes, so heavy TikTok
                // use does not drag the geolocation midpoint offshore).
                let services = self.sim.directory.app_services(App::TikTok);
                let cdn = services[2]; // v16.tiktokcdn.com (US edge)
                self.emit_flow(
                    out,
                    cdn,
                    Proto::Tcp,
                    443,
                    start,
                    dur,
                    bytes / 50,
                    bytes * 85 / 100,
                );
                let other = services[self.srng.gen_range(0..services.len())];
                self.emit_flow(
                    out,
                    other,
                    Proto::Tcp,
                    443,
                    start.add_secs(5),
                    dur - 5.0,
                    bytes / 100,
                    bytes * 15 / 100,
                );
            }
        }
    }

    /// Zoom classes (Figure 5 material).
    fn zoom(&mut self, out: &mut DayTrace) {
        let mut hours = self.sim.cfg.scenario.zoom_hours(self.day)
            * rng::lognormal_med(&mut self.srng, 1.0, 0.4);
        // Not every student attends everything.
        if self.srng.f64() < 0.12 {
            return;
        }
        let services = self.sim.directory.app_services(App::Zoom);
        while hours > 0.05 {
            let meeting = self.srng.gen_range(0.6..1.4f64).min(hours.max(0.1));
            hours -= meeting;
            let start = self.sample_start(DiurnalKind::Class);
            let svc = services[self.srng.gen_range(0..services.len())];
            let bytes = (meeting
                * model::ZOOM_BYTES_PER_HOUR
                * rng::lognormal_med(&mut self.srng, 1.0, 0.5)) as u64;
            // Media rides UDP 8801; signaling is a small TCP 443 flow.
            self.emit_flow(
                out,
                svc,
                Proto::Udp,
                8801,
                start,
                meeting * 3600.0,
                bytes * 45 / 100,
                bytes * 55 / 100,
            );
            self.emit_flow(
                out,
                svc,
                Proto::Tcp,
                443,
                start,
                meeting * 3600.0,
                200_000,
                400_000,
            );
        }
    }

    /// Steam (Figure 7 material). Day-local realization of a monthly plan.
    fn maybe_steam(&mut self, out: &mut DayTrace) {
        if !matches!(
            self.device.kind,
            TrueKind::Laptop | TrueKind::Desktop | TrueKind::Companion
        ) {
            return;
        }
        let subpop = self.student.subpop;
        let month = self.day.month();
        let sm = self.sim.cfg.scenario.steam_month(subpop, month);
        let active_month = rng::unit_hash(
            self.seed(),
            Stream::Engagement,
            rng::mix(&[self.device.index as u64, 400]),
            month.index() as u64,
        ) < sm.active_prob;
        if !active_month {
            return;
        }
        // Gaming days: ~8 expected per active month.
        let target_days = 8.0f64.min(month.num_days() as f64);
        let p_day = target_days / month.num_days() as f64;
        if rng::unit_hash(
            self.seed(),
            Stream::Engagement,
            rng::mix(&[self.device.index as u64, 401, month.index() as u64]),
            self.day.0 as u64,
        ) >= p_day
        {
            return;
        }
        let gamer_boost = if self.student.steam_gamer { 1.5 } else { 0.7 };
        let m_bytes = sm.median_bytes
            * gamer_boost
            * rng::engagement_factor(
                self.seed(),
                self.device.index as u64,
                410 + month.index() as u64,
                model::STEAM_BYTES_SIGMA,
            );
        let m_conns = sm.median_conns
            * rng::engagement_factor(
                self.seed(),
                self.device.index as u64,
                420 + month.index() as u64,
                model::STEAM_CONNS_SIGMA,
            );
        let day_bytes = (m_bytes / target_days).max(1_000.0) as u64;
        let day_conns = ((m_conns / target_days).round() as u64).max(1);
        let services = self.sim.directory.app_services(App::Steam);
        let start = self.sample_start(DiurnalKind::Gaming);
        // One download-heavy flow plus (day_conns - 1) matchmaking pings.
        let svc = services[self.srng.gen_range(0..services.len())];
        let dl_dur = self.srng.gen_range(600.0..7200.0);
        self.emit_flow(
            out,
            svc,
            Proto::Tcp,
            443,
            start,
            dl_dur,
            day_bytes / 40,
            day_bytes * 85 / 100,
        );
        let rest = (day_bytes * 15 / 100) / day_conns.max(1);
        for k in 1..day_conns {
            let svc = services[self.srng.gen_range(0..services.len())];
            let ping_start = start.add_secs(self.srng.gen_range(0..5_400));
            let ping_dur = self.srng.gen_range(30.0..900.0);
            self.emit_flow(
                out,
                svc,
                Proto::Udp,
                27_015 + (k % 20) as u16,
                ping_start,
                ping_dur,
                rest / 3 + 1,
                rest * 2 / 3 + 1,
            );
        }
    }

    /// Nintendo Switch (Figure 8 material).
    fn switch_console(&mut self, out: &mut DayTrace) {
        let mult = self.sim.cfg.scenario.switch_multiplier(self.day);
        let hours = model::SWITCH_GAMEPLAY_HOURS
            * mult
            * self.device.volume_factor.min(4.0)
            * rng::lognormal_med(&mut self.srng, 1.0, 0.6);
        let services = self.sim.directory.app_services(App::SwitchGameplay);
        let n_sessions = 1 + (hours / 1.5) as usize;
        for _ in 0..n_sessions {
            let start = self.sample_start(DiurnalKind::Gaming);
            let h = hours / n_sessions as f64;
            let bytes = (h
                * model::SWITCH_GAMEPLAY_BYTES_PER_HOUR
                * rng::lognormal_med(&mut self.srng, 1.0, 0.4)) as u64;
            let svc = services[self.srng.gen_range(0..services.len())];
            self.emit_flow(
                out,
                svc,
                Proto::Udp,
                443,
                start,
                h * 3600.0,
                bytes * 45 / 100,
                bytes * 55 / 100,
            );
        }
        // Updates / game downloads (filtered out of Figure 8).
        let svc_services = self.sim.directory.app_services(App::SwitchServices);
        let is_launch_day = self.sim.cfg.scenario.policy.console_launch_day == Some(self.day.0);
        let fresh_console = self.device.acquired == Some(self.day);
        let update_p = if is_launch_day {
            0.5
        } else if fresh_console {
            1.0
        } else {
            model::SWITCH_UPDATE_RATE
        };
        if self.srng.f64() < update_p {
            let bytes =
                (model::SWITCH_UPDATE_BYTES * rng::lognormal_med(&mut self.srng, 1.0, 0.7)) as u64;
            let svc = svc_services[self.srng.gen_range(0..svc_services.len())];
            let start = self.sample_start(DiurnalKind::Gaming);
            let dl_dur = self.srng.gen_range(300.0..3_000.0);
            self.emit_flow(out, svc, Proto::Tcp, 443, start, dl_dur, bytes / 100, bytes);
        }
    }

    /// IoT backend chatter.
    fn iot(&mut self, out: &mut DayTrace) {
        let backends = self.sim.directory.iot_backends();
        let backend = backends[self.device.index as usize % backends.len()];
        let total = model::IOT_BYTES_PER_DAY
            * self.device.volume_factor
            * rng::lognormal_med(&mut self.srng, 1.0, 0.4);
        let n = rng::poisson(&mut self.srng, model::IOT_SESSIONS_PER_DAY).max(1);
        let backend_bytes = (total * model::IOT_BACKEND_SHARE) as u64;
        let other_bytes = (total * (1.0 - model::IOT_BACKEND_SHARE)) as u64;
        for k in 0..n {
            let start = self.sample_start(DiurnalKind::Flat);
            let share = backend_bytes / n;
            let dur = self.srng.gen_range(5.0..120.0);
            self.emit_flow(
                out,
                backend,
                Proto::Tcp,
                443,
                start,
                dur,
                share / 3 + 1,
                share * 2 / 3 + 1,
            );
            let _ = k;
        }
        // A little non-backend traffic (time sync, firmware CDN).
        let service = self.pick_background(false);
        let start = self.sample_start(DiurnalKind::Flat);
        self.emit_flow(
            out,
            service,
            Proto::Udp,
            123,
            start,
            10.0,
            other_bytes / 2 + 1,
            other_bytes / 2 + 1,
        );
    }

    /// Emit the day's DNS log: one query per service used, just before
    /// its first flow.
    fn emit_dns(&mut self, out: &mut DayTrace) {
        let mut rng = rng::rng_for(
            self.seed(),
            Stream::Dns,
            self.day.0 as u64,
            self.device.index as u64,
        );
        for (service, first_ts) in self.used_services.iter() {
            let svc = self.sim.directory.service(*service);
            // The full rrset: the client connects to an address it was
            // handed, so every flow to this service is resolvable. It
            // fits the query's inline answer set, so copying it
            // allocates nothing.
            out.dns.push(DnsQuery {
                ts: first_ts.add_micros(-(rng.gen_range(100_000..3_000_000))),
                device: self.device.id,
                qname: svc.domain,
                answers: svc.ips.as_slice().into(),
            });
        }
    }

    /// Emit User-Agent sightings for UA-visible devices.
    fn emit_ua(&mut self, out: &mut DayTrace) {
        if !self.device.ua_visible || self.used_services.is_empty() {
            return;
        }
        let mut rng = rng::rng_for(
            self.seed(),
            Stream::UserAgents,
            self.day.0 as u64,
            self.device.index as u64,
        );
        if rng.f64() > 0.55 {
            return;
        }
        let ua = ua_for(self.device.os);
        let Some(ua) = ua else { return };
        let (_, ts) = (self.used_services[0].0, self.used_services[0].1);
        out.ua.push(UaSighting {
            ts,
            device: self.device.id,
            ua,
        });
    }
}

/// A representative User-Agent string per OS.
pub fn ua_for(os: DeviceOs) -> Option<&'static str> {
    match os {
        DeviceOs::Ios => Some(
            "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/13.0.5 Mobile/15E148 Safari/604.1",
        ),
        DeviceOs::Android => Some(
            "Mozilla/5.0 (Linux; Android 10; Pixel 3) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/80.0.3987.99 Mobile Safari/537.36",
        ),
        DeviceOs::Windows => Some(
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/80.0.3987.122 Safari/537.36",
        ),
        DeviceOs::MacOs => Some(
            "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_3) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/13.0.5 Safari/605.1.15",
        ),
        DeviceOs::Linux => Some("Mozilla/5.0 (X11; Linux x86_64; rv:73.0) Gecko/20100101 Firefox/73.0"),
        DeviceOs::None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::ip::campus;

    fn tiny_sim() -> CampusSim {
        CampusSim::new(SimConfig {
            scale: 0.01, // 130 students
            ..Default::default()
        })
    }

    #[test]
    fn day_trace_is_deterministic() {
        let sim = tiny_sim();
        let a = sim.day_trace(Day(10));
        let b = sim.day_trace(Day(10));
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.dns, b.dns);
        assert_eq!(a.leases, b.leases);
        assert_eq!(a.ua, b.ua);
        assert!(!a.flows.is_empty());
    }

    #[test]
    fn stream_day_matches_trace_and_orders_per_device() {
        use std::collections::{HashMap, HashSet};
        let sim = tiny_sim();
        let day = Day(40);

        let mut streamed = DayTrace::default();
        let mut leased: HashSet<Ipv4Addr> = HashSet::new();
        let mut last_flow_ts: HashMap<Ipv4Addr, Timestamp> = HashMap::new();
        sim.stream_day(day, &mut |e: DayEvent| match e {
            DayEvent::Lease(l) => {
                leased.insert(l.ip);
                streamed.leases.push(l);
            }
            DayEvent::Dns(q) => streamed.dns.push(q),
            DayEvent::Flow(f) => {
                // The stream contract: a device's lease bracket precedes
                // its flows, and its flows arrive in timestamp order.
                assert!(leased.contains(&f.orig), "flow before its lease");
                if let Some(prev) = last_flow_ts.insert(f.orig, f.ts) {
                    assert!(f.ts >= prev, "per-device flow order violated");
                }
                streamed.flows.push(f);
            }
            DayEvent::Ua(u) => streamed.ua.push(u),
        });

        // Same events as the batch trace, just differently interleaved.
        streamed.flows.sort_by_key(|f| (f.ts, f.orig, f.orig_port));
        streamed.dns.sort_by_key(|q| (q.ts, q.device));
        streamed.leases.sort_by_key(|l| (l.ts, l.ip));
        streamed.ua.sort_by_key(|u| (u.ts, u.device));
        let batch = sim.day_trace(day);
        assert_eq!(streamed.flows, batch.flows);
        assert_eq!(streamed.dns, batch.dns);
        assert_eq!(streamed.leases, batch.leases);
        assert_eq!(streamed.ua, batch.ua);
    }

    #[test]
    fn stream_day_stats_count_every_emitted_event() {
        let sim = tiny_sim();
        let day = Day(40);
        let mut streamed = DayTrace::default();
        let stats = sim.stream_day(day, &mut streamed);
        assert_eq!(stats.flows, streamed.flows.len() as u64);
        assert_eq!(stats.dns_queries, streamed.dns.len() as u64);
        assert_eq!(stats.lease_events, streamed.leases.len() as u64);
        assert_eq!(stats.ua_sightings, streamed.ua.len() as u64);
        assert!(stats.devices_active > 0);
        assert!(stats.devices_present >= stats.devices_active);
        // Tallies accumulate across days.
        let mut total = stats;
        total += sim.stream_day(Day(41), &mut DayTrace::default());
        assert!(total.flows > stats.flows);
    }

    #[test]
    fn flows_are_sorted_and_in_day_bounds() {
        let sim = tiny_sim();
        let day = Day(40);
        let t = sim.day_trace(day);
        let mut prev = Timestamp::from_micros(i64::MIN);
        for f in &t.flows {
            assert!(f.ts >= prev);
            prev = f.ts;
            assert!(f.ts >= day.start(), "{:?}", f.ts);
            assert!(
                f.end() <= day.end(),
                "flow ends {:?} after day end",
                f.end()
            );
            assert!(campus::is_residential(f.orig));
            assert!(!campus::is_residential(f.resp));
            assert!(f.orig_bytes > 0 && f.resp_bytes > 0);
        }
    }

    #[test]
    fn device_ips_unique_per_day_and_rotate() {
        let sim = tiny_sim();
        let n = sim.population().devices.len() as u32;
        use std::collections::HashSet;
        let day0: HashSet<Ipv4Addr> = (0..n).map(|i| sim.device_ip(i, Day(0))).collect();
        assert_eq!(day0.len(), n as usize, "ip collision on day 0");
        // Rotation: device 0 moves between days.
        assert_ne!(sim.device_ip(0, Day(0)), sim.device_ip(0, Day(1)));
    }

    #[test]
    fn dns_queries_precede_first_flows() {
        let sim = tiny_sim();
        let t = sim.day_trace(Day(20));
        assert!(!t.dns.is_empty());
        // Every flow's remote must be resolvable from some query of the
        // same device at or before flow time (generator invariant).
        use std::collections::HashMap;
        let mut resolved: HashMap<(DeviceId, Ipv4Addr), Timestamp> = HashMap::new();
        for q in &t.dns {
            for ip in q.answers.iter() {
                let e = resolved.entry((q.device, *ip)).or_insert(q.ts);
                if q.ts < *e {
                    *e = q.ts;
                }
            }
        }
        // Spot check: a majority of flows (answers may be subsets).
        let mut hits = 0;
        for f in &t.flows {
            if resolved.keys().any(|(_, ip)| *ip == f.resp) {
                hits += 1;
            }
        }
        assert_eq!(hits, t.flows.len(), "all flows DNS-covered");
    }

    #[test]
    fn leases_cover_every_flow() {
        let sim = tiny_sim();
        let day = Day(30);
        let t = sim.day_trace(day);
        let idx = dhcplog::LeaseIndex::build(&t.leases, dhcplog::DEFAULT_MAX_LEASE_SECS);
        for f in &t.flows {
            assert!(
                idx.lookup(f.orig, f.ts).is_some(),
                "flow at {} from {} has no lease",
                f.ts,
                f.orig
            );
        }
    }

    #[test]
    fn post_shutdown_days_only_have_stayer_traffic() {
        let sim = tiny_sim();
        let t = sim.day_trace(Day(100));
        let idx = dhcplog::LeaseIndex::build(&t.leases, dhcplog::DEFAULT_MAX_LEASE_SECS);
        let stayer_macs: std::collections::HashSet<_> = sim
            .population()
            .devices
            .iter()
            .filter(|d| sim.population().owner_of(d).stays())
            .map(|d| d.mac)
            .collect();
        for f in &t.flows {
            let mac = idx.lookup(f.orig, f.ts).unwrap();
            assert!(stayer_macs.contains(&mac));
        }
    }

    #[test]
    fn zoom_traffic_appears_after_classes_go_online() {
        let sim = tiny_sim();
        let sigs = appsig::study_signatures();
        let zoom_bytes = |day: Day| -> u64 {
            sim.day_trace(day)
                .flows
                .iter()
                .filter(|f| sigs.classify_ip(f.resp) == Some(App::Zoom))
                .map(|f| f.total_bytes())
                .sum()
        };
        let feb = zoom_bytes(Day(11)); // Wednesday Feb 12
        let apr = zoom_bytes(Day(74)); // Wednesday Apr 15
        assert!(
            apr > feb * 5,
            "zoom should explode after 3/30: feb {feb} vs apr {apr}"
        );
    }

    #[test]
    fn ua_sightings_only_from_ua_visible_devices() {
        let sim = tiny_sim();
        let t = sim.day_trace(Day(15));
        let visible: std::collections::HashSet<_> = sim
            .population()
            .devices
            .iter()
            .filter(|d| d.ua_visible)
            .map(|d| d.id)
            .collect();
        assert!(!t.ua.is_empty());
        for s in &t.ua {
            assert!(visible.contains(&s.device));
        }
    }

    #[test]
    fn counterfactual_has_no_zoom_ramp_and_full_population() {
        let cfg = SimConfig {
            scale: 0.01,
            ..Default::default()
        };
        let sim = CampusSim::new(Scenario::counterfactual_of(&cfg));
        let t_apr = sim.day_trace(Day(74));
        let t_feb = sim.day_trace(Day(11));
        // Populations comparable (nobody left).
        let devs = |t: &DayTrace| {
            t.flows
                .iter()
                .map(|f| f.orig)
                .collect::<std::collections::HashSet<_>>()
                .len() as f64
        };
        let ratio = devs(&t_apr) / devs(&t_feb);
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }
}
