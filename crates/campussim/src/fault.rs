//! Deterministic fault injection for the packet path.
//!
//! A four-month unattended capture does not stay clean: pcap files get
//! truncated mid-record, NIC offloads garble headers, syslog drops and
//! mangles DHCP lines, resolvers time out mid-answer. A
//! [`FaultProfile`] reproduces that weather *deterministically*: every
//! corruption decision derives from (profile seed, day, record index)
//! through the same [`crate::rng`] streams the generator uses, so a
//! faulted run is exactly as reproducible as a clean one and a
//! quarantined day replays identically on retry.
//!
//! [`FaultingSink`] is a [`DaySink`] decorator that sits between the
//! generator and the pipeline. Corrupted records take the *real* codec
//! paths — flows are rendered into actual Ethernet/IPv4/TCP frames,
//! damaged, and re-parsed via [`nettrace::packet::parse_frame`] (or
//! round-tripped through a truncated [`nettrace::pcap`] stream); lease
//! events are serialized to their line format, garbled, and re-parsed —
//! so the injected faults exercise exactly the error surface a hostile
//! capture would.

use crate::generator::{DaySink, UaSighting};
use crate::rng::{self, SmallRng, Stream};
use dhcplog::LeaseEvent;
use dnslog::DnsQuery;
use nettrace::flow::{FlowRecord, Proto};
use nettrace::mac::MacAddr;
use nettrace::packet::{self, BuildSpec};
use nettrace::pcap;
use nettrace::tcp::Flags;
use nettrace::time::Day;

/// Seed used by [`FaultProfile::new`] when none is given.
pub const DEFAULT_FAULT_SEED: u64 = 0xfa01_7ed0;

/// A seeded, deterministic description of how to corrupt one run's
/// inputs. Chainable like every options struct in the workspace
/// (DESIGN.md §8):
///
/// ```
/// use campussim::FaultProfile;
///
/// let profile = FaultProfile::new()
///     .frame_corruption(0.01)
///     .lease_corruption(0.002)
///     .panic_on_day(47);
/// assert!(!profile.is_noop());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    seed: u64,
    frame_corrupt_rate: f64,
    lease_corrupt_rate: f64,
    dns_drop_rate: f64,
    dns_duplicate_rate: f64,
    panic_day: Option<u16>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: DEFAULT_FAULT_SEED,
            frame_corrupt_rate: 0.0,
            lease_corrupt_rate: 0.0,
            dns_drop_rate: 0.0,
            dns_duplicate_rate: 0.0,
            panic_day: None,
        }
    }
}

impl FaultProfile {
    /// A profile that injects nothing; chain rate setters onto it.
    pub fn new() -> Self {
        FaultProfile::default()
    }

    /// The standard acceptance profile: 1% frame corruption, 0.2%
    /// lease-line corruption, 1% dropped and 1% duplicated DNS
    /// answers, plus one injected worker panic on shutdown day 47
    /// (first attempt only, so the day succeeds when retried).
    pub fn default_profile() -> Self {
        FaultProfile::new()
            .frame_corruption(0.01)
            .lease_corruption(0.002)
            .dns_answer_drops(0.01)
            .dns_duplicates(0.01)
            .panic_on_day(47)
    }

    /// Look up a profile by CLI name: `"none"` (inject nothing) or
    /// `"default"` (see [`FaultProfile::default_profile`]).
    pub fn named(name: &str) -> Option<FaultProfile> {
        match name {
            "none" => Some(FaultProfile::new()),
            "default" => Some(FaultProfile::default_profile()),
            _ => None,
        }
    }

    /// Set the fault seed (independent of the simulation seed, so the
    /// same campus can be replayed under different weather).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fraction of flows whose capture is corrupted (truncated frame,
    /// garbled header bytes, or a pcap record cut short). Clamped to
    /// `[0, 1]`.
    pub fn frame_corruption(mut self, rate: f64) -> Self {
        self.frame_corrupt_rate = clamp_rate(rate);
        self
    }

    /// Fraction of DHCP lease log lines garbled before parsing.
    /// Clamped to `[0, 1]`.
    pub fn lease_corruption(mut self, rate: f64) -> Self {
        self.lease_corrupt_rate = clamp_rate(rate);
        self
    }

    /// Fraction of DNS queries whose answer section is lost (the
    /// record becomes unusable and is dropped). Clamped to `[0, 1]`.
    pub fn dns_answer_drops(mut self, rate: f64) -> Self {
        self.dns_drop_rate = clamp_rate(rate);
        self
    }

    /// Fraction of DNS queries delivered twice (resolver logs under
    /// retransmission). Clamped to `[0, 1]`.
    pub fn dns_duplicates(mut self, rate: f64) -> Self {
        self.dns_duplicate_rate = clamp_rate(rate);
        self
    }

    /// Panic the worker processing `day` — on the first attempt only,
    /// so the study runner's quarantine-and-retry path is exercised
    /// while the retried day still completes.
    pub fn panic_on_day(mut self, day: u16) -> Self {
        self.panic_day = Some(day);
        self
    }

    /// True when this profile injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.frame_corrupt_rate == 0.0
            && self.lease_corrupt_rate == 0.0
            && self.dns_drop_rate == 0.0
            && self.dns_duplicate_rate == 0.0
            && self.panic_day.is_none()
    }

    /// Should processing `day` on `attempt` (0 = first) panic?
    pub fn should_panic(&self, day: Day, attempt: u32) -> bool {
        attempt == 0 && self.panic_day == Some(day.0)
    }
}

fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// What a [`FaultingSink`] did to one day's stream. Plain counts (no
/// registry dependency); the study driver publishes them as
/// `pipeline.errors.*` / `assembler.malformed.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Flows whose corrupted capture failed to parse and were dropped.
    pub flows_dropped: u64,
    /// Flows whose corrupted capture still parsed; the flow passed on.
    pub flows_repaired: u64,
    /// Dropped flows lost to frame truncation.
    pub frames_truncated: u64,
    /// Dropped flows lost to garbled header bytes.
    pub frames_garbled: u64,
    /// Dropped flows whose garbled EtherType left the monitored
    /// universe (the tap skips them as foreign, not as errors).
    pub frames_skipped: u64,
    /// Dropped flows lost to a pcap stream cut mid-record.
    pub pcap_truncated: u64,
    /// Lease lines garbled beyond parsing and discarded.
    pub leases_dropped: u64,
    /// Lease lines garbled but still parseable; the event passed on.
    pub leases_repaired: u64,
    /// DNS queries whose answers were lost (query dropped).
    pub dns_answers_dropped: u64,
    /// DNS queries delivered twice.
    pub dns_duplicated: u64,
}

impl FaultStats {
    /// Total records this sink refused to forward.
    pub fn records_dropped(&self) -> u64 {
        self.flows_dropped + self.leases_dropped + self.dns_answers_dropped
    }
}

/// MAC used for synthesizing the corrupted capture of a flow. The frame
/// never reaches the pipeline (only the survive/drop verdict does), so
/// any stable value works.
const FAULT_DEVICE_MAC: MacAddr = MacAddr::new(0x02, 0xfa, 0x01, 0x7e, 0xd0, 0x01);
const FAULT_GATEWAY_MAC: MacAddr = MacAddr::new(0x02, 0x42, 0xc0, 0xa8, 0x00, 0x01);

enum CaptureLoss {
    Truncated,
    Garbled,
    Skipped,
    PcapCut,
}

/// A [`DaySink`] decorator applying a [`FaultProfile`] to one day's
/// stream before it reaches the wrapped sink.
pub struct FaultingSink<'a, S: DaySink> {
    inner: &'a mut S,
    profile: &'a FaultProfile,
    rng: SmallRng,
    stats: FaultStats,
}

impl<'a, S: DaySink> FaultingSink<'a, S> {
    /// Wrap `inner` for `day`. The RNG is keyed by (profile seed, day),
    /// so the same day corrupts identically on any worker and any
    /// attempt. Equivalent to [`for_shard`](Self::for_shard) with
    /// shard 0 (the monolithic / single-shard path).
    pub fn new(profile: &'a FaultProfile, day: Day, inner: &'a mut S) -> Self {
        Self::for_shard(profile, day, 0, inner)
    }

    /// Wrap `inner` for `day` of population shard `shard`. The RNG is
    /// keyed by (profile seed, day, shard): each shard gets its own
    /// deterministic fault weather, reproducible on any worker and any
    /// attempt. Shard 0 reproduces the pre-sharding [`new`](Self::new)
    /// stream exactly, so single-shard faulted runs stay bit-identical
    /// to historic output. Fault *positions* are positional within a
    /// shard's stream by design, so faulted figures are comparable
    /// across thread counts but not across different K.
    pub fn for_shard(profile: &'a FaultProfile, day: Day, shard: u32, inner: &'a mut S) -> Self {
        FaultingSink {
            inner,
            profile,
            rng: rng::rng_for(
                profile.seed,
                Stream::Faults,
                u64::from(day.0),
                u64::from(shard),
            ),
            stats: FaultStats::default(),
        }
    }

    /// What was injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Render `flow` as a captured frame, damage the capture, and
    /// re-parse it through the real codecs. `None` means the capture
    /// survived (the flow passes); `Some` says how it was lost.
    fn corrupt_flow_capture(&mut self, flow: &FlowRecord) -> Option<CaptureLoss> {
        let spec = BuildSpec {
            src_mac: FAULT_DEVICE_MAC,
            dst_mac: FAULT_GATEWAY_MAC,
            src_ip: flow.orig,
            dst_ip: flow.resp,
            src_port: flow.orig_port,
            dst_port: flow.resp_port,
            ident: flow.orig_port ^ flow.resp_port,
        };
        let payload = [0xabu8; 48];
        let frame = match flow.proto {
            Proto::Tcp => packet::build_tcp(spec, 1, 1, Flags::ACK, &payload),
            Proto::Udp | Proto::Other(_) => packet::build_udp(spec, &payload),
        };
        match self.rng.gen_range(0..3u8) {
            // Frame cut short: emulates a capture that stopped
            // mid-packet.
            0 => {
                let cut = self.rng.gen_range(0..frame.len());
                match packet::parse_frame(flow.ts, &frame[..cut]) {
                    Ok(Some(_)) => None,
                    Ok(None) => Some(CaptureLoss::Skipped),
                    Err(_) => Some(CaptureLoss::Truncated),
                }
            }
            // Garbled header bytes: emulates bit damage from a bad
            // NIC/offload path.
            1 => {
                let mut damaged = frame;
                for _ in 0..self.rng.gen_range(1..=4usize) {
                    let pos = self.rng.gen_range(0..damaged.len());
                    damaged[pos] ^= self.rng.gen_range(1..=255u8);
                }
                match packet::parse_frame(flow.ts, &damaged) {
                    Ok(Some(_)) => None,
                    Ok(None) => Some(CaptureLoss::Skipped),
                    Err(_) => Some(CaptureLoss::Garbled),
                }
            }
            // Pcap stream truncated mid-record: the frame goes through
            // the real writer/reader pair and the file is cut short.
            _ => {
                let Ok(mut w) = pcap::Writer::new(Vec::new()) else {
                    return Some(CaptureLoss::PcapCut);
                };
                if w.write(flow.ts, &frame).is_err() {
                    return Some(CaptureLoss::PcapCut);
                }
                let Ok(buf) = w.finish() else {
                    return Some(CaptureLoss::PcapCut);
                };
                // Cut inside the record (past the 24-byte global
                // header, before the final byte).
                let cut = self.rng.gen_range(24..buf.len());
                let mut reader = match pcap::Reader::new(&buf[..cut]) {
                    Ok(r) => r,
                    Err(_) => return Some(CaptureLoss::PcapCut),
                };
                match reader.next_record() {
                    Ok(Some(cap)) => match packet::parse_frame(cap.ts, &cap.frame) {
                        Ok(Some(_)) => None,
                        Ok(None) => Some(CaptureLoss::Skipped),
                        Err(_) => Some(CaptureLoss::Garbled),
                    },
                    Ok(None) | Err(_) => Some(CaptureLoss::PcapCut),
                }
            }
        }
    }

    /// Garble one serialized lease line and re-parse it. Mode 0 damages
    /// a character (usually fatal to the strict line codec); mode 1
    /// only mangles whitespace, which the codec tolerates — exercising
    /// the repaired path.
    fn corrupt_lease_line(&mut self, event: &LeaseEvent) -> Result<LeaseEvent, ()> {
        let line = event.to_string();
        let garbled = if self.rng.gen_range(0..4u8) == 0 {
            line.replace(' ', "   \t ")
        } else {
            let mut bytes = line.into_bytes();
            let pos = self.rng.gen_range(0..bytes.len());
            bytes[pos] = b'x';
            String::from_utf8(bytes).unwrap_or_default()
        };
        garbled.parse::<LeaseEvent>().map_err(|_| ())
    }
}

impl<S: DaySink> DaySink for FaultingSink<'_, S> {
    fn lease(&mut self, event: LeaseEvent) {
        if self.profile.lease_corrupt_rate > 0.0 && self.rng.f64() < self.profile.lease_corrupt_rate
        {
            match self.corrupt_lease_line(&event) {
                Ok(parsed) => {
                    self.stats.leases_repaired += 1;
                    self.inner.lease(parsed);
                }
                Err(()) => self.stats.leases_dropped += 1,
            }
            return;
        }
        self.inner.lease(event);
    }

    fn dns(&mut self, query: DnsQuery) {
        if self.profile.dns_duplicate_rate > 0.0 && self.rng.f64() < self.profile.dns_duplicate_rate
        {
            self.stats.dns_duplicated += 1;
            self.inner.dns(query.clone());
        }
        if self.profile.dns_drop_rate > 0.0 && self.rng.f64() < self.profile.dns_drop_rate {
            // The answer section is what the resolver map consumes; an
            // answerless record is unusable and the line codec rejects
            // it, so the query is lost entirely.
            self.stats.dns_answers_dropped += 1;
            return;
        }
        self.inner.dns(query);
    }

    fn flow(&mut self, flow: FlowRecord) {
        if self.profile.frame_corrupt_rate > 0.0 && self.rng.f64() < self.profile.frame_corrupt_rate
        {
            match self.corrupt_flow_capture(&flow) {
                None => {
                    self.stats.flows_repaired += 1;
                    self.inner.flow(flow);
                }
                Some(loss) => {
                    self.stats.flows_dropped += 1;
                    match loss {
                        CaptureLoss::Truncated => self.stats.frames_truncated += 1,
                        CaptureLoss::Garbled => self.stats.frames_garbled += 1,
                        CaptureLoss::Skipped => self.stats.frames_skipped += 1,
                        CaptureLoss::PcapCut => self.stats.pcap_truncated += 1,
                    }
                }
            }
            return;
        }
        self.inner.flow(flow);
    }

    fn ua(&mut self, sighting: UaSighting) {
        // UA sightings ride HTTP metadata the fault model leaves alone.
        self.inner.ua(sighting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DayEvent;
    use crate::{CampusSim, SimConfig};

    fn collect_day(profile: &FaultProfile, day: Day) -> (Vec<&'static str>, FaultStats) {
        let sim = CampusSim::new(SimConfig {
            scale: 0.01,
            ..Default::default()
        });
        let mut kinds = Vec::new();
        let mut tap = |e: DayEvent| {
            kinds.push(match e {
                DayEvent::Lease(_) => "lease",
                DayEvent::Dns(_) => "dns",
                DayEvent::Flow(_) => "flow",
                DayEvent::Ua(_) => "ua",
            });
        };
        let mut sink = FaultingSink::new(profile, day, &mut tap);
        sim.stream_day(day, &mut sink);
        let stats = sink.stats();
        (kinds, stats)
    }

    #[test]
    fn noop_profile_changes_nothing() {
        let profile = FaultProfile::new();
        assert!(profile.is_noop());
        let (kinds, stats) = collect_day(&profile, Day(10));
        assert_eq!(stats, FaultStats::default());
        assert!(kinds.contains(&"flow"));
    }

    #[test]
    fn corruption_is_deterministic_and_accounted() {
        let profile = FaultProfile::new()
            .frame_corruption(0.05)
            .lease_corruption(0.05)
            .dns_answer_drops(0.05)
            .dns_duplicates(0.05);
        let (kinds_a, stats_a) = collect_day(&profile, Day(10));
        let (kinds_b, stats_b) = collect_day(&profile, Day(10));
        assert_eq!(kinds_a, kinds_b, "fault injection must be deterministic");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.flows_dropped > 0, "{stats_a:?}");
        assert!(stats_a.dns_answers_dropped > 0, "{stats_a:?}");
        assert!(stats_a.dns_duplicated > 0, "{stats_a:?}");
        assert!(stats_a.records_dropped() >= stats_a.flows_dropped);
        // The loss taxonomy sums to the flow drop count.
        assert_eq!(
            stats_a.frames_truncated
                + stats_a.frames_garbled
                + stats_a.frames_skipped
                + stats_a.pcap_truncated,
            stats_a.flows_dropped
        );
    }

    #[test]
    fn different_seeds_corrupt_differently() {
        let a = FaultProfile::new().frame_corruption(0.05);
        let b = FaultProfile::new().seed(1).frame_corruption(0.05);
        let (_, stats_a) = collect_day(&a, Day(10));
        let (_, stats_b) = collect_day(&b, Day(10));
        assert_ne!(stats_a, stats_b);
    }

    #[test]
    fn panic_trigger_is_first_attempt_only() {
        let p = FaultProfile::new().panic_on_day(47);
        assert!(p.should_panic(Day(47), 0));
        assert!(!p.should_panic(Day(47), 1));
        assert!(!p.should_panic(Day(46), 0));
        assert!(!FaultProfile::new().should_panic(Day(47), 0));
    }

    #[test]
    fn named_profiles_resolve() {
        assert!(FaultProfile::named("none").unwrap().is_noop());
        let d = FaultProfile::named("default").unwrap();
        assert!(!d.is_noop());
        assert!(d.should_panic(Day(47), 0));
        assert_eq!(FaultProfile::named("chaos-monkey"), None);
    }

    #[test]
    fn rates_are_clamped() {
        let p = FaultProfile::new()
            .frame_corruption(7.0)
            .lease_corruption(-1.0)
            .dns_answer_drops(f64::NAN);
        // All flows corrupted, no lease or dns faults, no panics.
        assert!(!p.is_noop());
        let (_, stats) = collect_day(&p, Day(3));
        assert_eq!(stats.leases_dropped + stats.leases_repaired, 0);
        assert_eq!(stats.dns_answers_dropped, 0);
        assert!(stats.flows_dropped + stats.flows_repaired > 0);
    }
}
