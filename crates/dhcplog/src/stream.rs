//! Streaming DHCP normalization.
//!
//! [`LeaseTracker`] is the incremental twin of
//! [`LeaseIndex`](crate::LeaseIndex): instead of batch-building an
//! immutable interval index from a complete day of lease events, it
//! ingests events as they arrive and answers ownership queries against
//! the state built *so far*. [`NormalizeStage`] wraps it into a
//! [`BatchStage`] that re-keys a window of raw flows to anonymized
//! device identity.
//!
//! The two agree exactly whenever queries respect the stream contract:
//! a flow's lease events are pushed before the flow itself (per device —
//! the global stream may interleave devices). Under that contract every
//! interval a batch index would have built is either closed identically
//! here, or still open with the same `start`/`last_activity`, and the
//! lookup rules below reproduce [`LeaseIndex::lookup`](crate::LeaseIndex::lookup)
//! answer for answer.

use crate::lease::{LeaseAction, LeaseEvent};
use crate::normalize::NormalizeStats;
use nettrace::batch::{BatchStage, FlowBatch};
use nettrace::flow::DeviceFlow;
use nettrace::ip::Ipv4Cidr;
use nettrace::{DeviceId, FastMap, MacAddr, Timestamp};
use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;

#[derive(Debug, Clone, Copy)]
struct Closed {
    start: Timestamp,
    end: Timestamp, // exclusive
    mac: MacAddr,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    start: Timestamp,
    last_activity: Timestamp,
    mac: MacAddr,
}

/// One IP's closed intervals, start-ordered: the latest inline, and the
/// earlier ones spilled to a `Vec`. Most IPs close once a day (each
/// device-day ends with a release), so most never allocate.
#[derive(Debug)]
struct ClosedHistory {
    earlier: Vec<Closed>,
    latest: Closed,
}

impl ClosedHistory {
    fn push(&mut self, c: Closed) {
        self.earlier.push(std::mem::replace(&mut self.latest, c));
    }

    /// The interval with the largest start at or before `ts`.
    fn before(&self, ts: Timestamp) -> Option<&Closed> {
        if self.latest.start <= ts {
            return Some(&self.latest);
        }
        let idx = self.earlier.partition_point(|c| c.start <= ts);
        idx.checked_sub(1).map(|i| &self.earlier[i])
    }

    fn len(&self) -> usize {
        self.earlier.len() + 1
    }
}

/// Incrementally-built IP-at-time → MAC state.
///
/// Ownership rules match [`LeaseIndex::build`](crate::LeaseIndex::build):
/// `Assign` opens (same-MAC re-assign extends), `Renew` refreshes the
/// activity horizon, `Release` closes, and an open binding silently
/// lapses `max_lease_secs` after its last activity.
#[derive(Debug)]
pub struct LeaseTracker {
    open: FastMap<Ipv4Addr, Open>,
    closed: FastMap<Ipv4Addr, ClosedHistory>,
    max_lease_secs: i64,
}

impl LeaseTracker {
    /// Empty tracker with the given lease lifetime cap.
    pub fn new(max_lease_secs: i64) -> Self {
        LeaseTracker {
            open: FastMap::default(),
            closed: FastMap::default(),
            max_lease_secs,
        }
    }

    fn close(&mut self, ip: Ipv4Addr, o: Open, end: Timestamp) {
        let horizon = o.last_activity.add_secs(self.max_lease_secs);
        let end = end.min(horizon).max(o.start);
        let c = Closed {
            start: o.start,
            end,
            mac: o.mac,
        };
        match self.closed.entry(ip) {
            Entry::Occupied(mut history) => history.get_mut().push(c),
            Entry::Vacant(slot) => {
                slot.insert(ClosedHistory {
                    earlier: Vec::new(),
                    latest: c,
                });
            }
        }
    }

    /// Ingest one lease event.
    pub fn record(&mut self, e: &LeaseEvent) {
        match e.action {
            LeaseAction::Assign => {
                if let Some(o) = self.open.get_mut(&e.ip) {
                    if o.mac == e.mac {
                        // Re-assign to the same device: just extend.
                        o.last_activity = e.ts;
                        return;
                    }
                    let prev = *o;
                    self.open.remove(&e.ip);
                    self.close(e.ip, prev, e.ts);
                }
                self.open.insert(
                    e.ip,
                    Open {
                        start: e.ts,
                        last_activity: e.ts,
                        mac: e.mac,
                    },
                );
            }
            LeaseAction::Renew => {
                if let Some(o) = self.open.get_mut(&e.ip) {
                    if o.mac == e.mac {
                        o.last_activity = e.ts;
                    }
                    // Renew for a MAC we never saw assigned: dropped, as in
                    // the batch index — prefer to under-attribute.
                }
            }
            LeaseAction::Release => {
                match self.open.get(&e.ip) {
                    Some(o) if o.mac == e.mac => {
                        let o = *o;
                        self.open.remove(&e.ip);
                        self.close(e.ip, o, e.ts);
                    }
                    // Release from the wrong MAC (or none open): keep
                    // whatever binding exists.
                    _ => {}
                }
            }
        }
    }

    /// Who held `ip` at `ts`, given the events seen so far?
    pub fn lookup(&self, ip: Ipv4Addr, ts: Timestamp) -> Option<MacAddr> {
        self.lookup_interval(ip, ts).map(|(mac, _, _)| mac)
    }

    /// Like [`lookup`](Self::lookup), but also return the half-open
    /// ownership interval `[start, end)` that produced the answer.
    ///
    /// Every `ts'` in the returned interval is guaranteed to give the
    /// same `lookup(ip, ts')` answer **as long as the tracker is not
    /// mutated in between**: an open binding owns
    /// `[start, last_activity + max_lease)` and shadows closed history,
    /// and closed intervals for one IP are disjoint and end before any
    /// open binding starts. That makes the interval safe to memoize
    /// across a run of flows processed between lease events — the
    /// batched pipeline's hot-path cache.
    pub fn lookup_interval(
        &self,
        ip: Ipv4Addr,
        ts: Timestamp,
    ) -> Option<(MacAddr, Timestamp, Timestamp)> {
        if let Some(o) = self.open.get(&ip) {
            let horizon = o.last_activity.add_secs(self.max_lease_secs);
            if ts >= o.start && ts < horizon {
                return Some((o.mac, o.start, horizon));
            }
        }
        // Closed history is start-ordered per IP (events arrive in time
        // order per device, and an IP's owners are sequential).
        let cand = self.closed.get(&ip)?.before(ts)?;
        (ts < cand.end).then_some((cand.mac, cand.start, cand.end))
    }

    /// Intervals closed so far (diagnostics).
    pub fn closed_count(&self) -> usize {
        self.closed.values().map(ClosedHistory::len).sum()
    }

    /// Bindings currently open (diagnostics).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

/// Streaming flow normalizer: the batched twin of
/// [`Normalizer`](crate::Normalizer), attributing flows against a
/// [`LeaseTracker`] built incrementally from the same stream.
pub struct NormalizeStage {
    tracker: LeaseTracker,
    pool: Ipv4Cidr,
    anon_key: u64,
    stats: NormalizeStats,
    lease_events: u64,
}

impl NormalizeStage {
    /// `pool` is the monitored residential prefix; `anon_key` the secret
    /// anonymization key (§3: MACs are anonymized before analysis).
    pub fn new(pool: Ipv4Cidr, anon_key: u64, max_lease_secs: i64) -> Self {
        NormalizeStage {
            tracker: LeaseTracker::new(max_lease_secs),
            pool,
            anon_key,
            stats: NormalizeStats::default(),
            lease_events: 0,
        }
    }

    /// Ingest one lease event into the tracker state.
    pub fn record_lease(&mut self, e: &LeaseEvent) {
        self.lease_events += 1;
        self.tracker.record(e);
    }

    /// Lease events normalized into tracker state so far. Kept outside
    /// [`NormalizeStats`] so the flow-equivalence oracle (which never
    /// sees leases) still compares bitwise against the batch path.
    pub fn lease_events(&self) -> u64 {
        self.lease_events
    }

    /// The lease state built so far.
    pub fn tracker(&self) -> &LeaseTracker {
        &self.tracker
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NormalizeStats {
        self.stats
    }
}

impl BatchStage for NormalizeStage {
    /// Normalize the batch's raw window in place, appending attributed
    /// rows to the device half. The campus side is whichever endpoint
    /// lies in the residential pool; byte counters are re-oriented
    /// device-centric. Under the stream contract this is row-for-row
    /// what [`Normalizer`](crate::Normalizer) gives over a
    /// [`LeaseIndex`](crate::LeaseIndex) of the same lease events: same
    /// stats, same output order, same [`DeviceFlow`]s.
    ///
    /// Consecutive flows from the same device hit a one-entry lease
    /// memo instead of the tracker's hash maps. The memo caches the ownership interval from
    /// [`LeaseTracker::lookup_interval`] together with the anonymized
    /// device id; it is sound because the tracker is never mutated
    /// during a window (the driver applies lease events only between
    /// windows, via [`set_raw_limit`](FlowBatch::set_raw_limit)), and
    /// the generator's device-major stream makes same-device runs the
    /// common case.
    fn push_batch(&mut self, batch: &mut FlowBatch) {
        let w = batch.raw_window();
        // (local ip, anonymized device, interval start, interval end).
        let mut memo: Option<(Ipv4Addr, DeviceId, Timestamp, Timestamp)> = None;
        for i in w.clone() {
            let f = batch.raw_row(i);
            let (local_ip, remote, remote_port, tx, rx) = if self.pool.contains(f.orig) {
                (f.orig, f.resp, f.resp_port, f.orig_bytes, f.resp_bytes)
            } else if self.pool.contains(f.resp) {
                (f.resp, f.orig, f.orig_port, f.resp_bytes, f.orig_bytes)
            } else {
                self.stats.foreign += 1;
                continue;
            };
            let device = match memo {
                Some((ip, dev, start, end)) if ip == local_ip && f.ts >= start && f.ts < end => {
                    Some(dev)
                }
                _ => match self.tracker.lookup_interval(local_ip, f.ts) {
                    Some((mac, start, end)) => {
                        let dev = DeviceId::anonymize(mac, self.anon_key);
                        memo = Some((local_ip, dev, start, end));
                        Some(dev)
                    }
                    None => None,
                },
            };
            match device {
                Some(device) => {
                    self.stats.attributed += 1;
                    batch.push_dev(DeviceFlow {
                        device,
                        ts: f.ts,
                        duration_micros: f.duration_micros,
                        remote,
                        remote_port,
                        proto: f.proto,
                        tx_bytes: tx,
                        rx_bytes: rx,
                    });
                }
                None => self.stats.unattributed += 1,
            }
        }
        batch.advance_raw(w.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{LeaseIndex, Normalizer, DEFAULT_MAX_LEASE_SECS};
    use lockdown_testkit::check;
    use nettrace::flow::{FlowRecord, Proto};

    const IP: Ipv4Addr = Ipv4Addr::new(10, 40, 3, 7);
    const MAC_A: MacAddr = MacAddr::new(0, 0, 0, 0, 0, 0xa);
    const MAC_B: MacAddr = MacAddr::new(0, 0, 0, 0, 0, 0xb);

    fn ev(secs: i64, action: LeaseAction, ip: Ipv4Addr, mac: MacAddr) -> LeaseEvent {
        LeaseEvent {
            ts: Timestamp::from_secs(secs),
            action,
            ip,
            mac,
        }
    }

    #[test]
    fn tracker_agrees_with_batch_index() {
        let events = [
            ev(100, LeaseAction::Assign, IP, MAC_A),
            ev(3_000, LeaseAction::Renew, IP, MAC_A),
            ev(50_000, LeaseAction::Release, IP, MAC_A),
            ev(60_000, LeaseAction::Assign, IP, MAC_B),
            ev(61_000, LeaseAction::Release, IP, MAC_B),
        ];
        let idx = LeaseIndex::build(&events, DEFAULT_MAX_LEASE_SECS);
        let mut tracker = LeaseTracker::new(DEFAULT_MAX_LEASE_SECS);
        for e in &events {
            tracker.record(e);
        }
        for secs in [
            0, 99, 100, 2_999, 49_999, 50_000, 59_999, 60_000, 60_500, 61_000, 90_000,
        ] {
            let ts = Timestamp::from_secs(secs);
            assert_eq!(
                tracker.lookup(IP, ts),
                idx.lookup(IP, ts),
                "divergence at t={secs}"
            );
        }
    }

    #[test]
    fn open_lease_lapses_after_max_lease() {
        let mut t = LeaseTracker::new(3600);
        t.record(&ev(0, LeaseAction::Assign, IP, MAC_A));
        assert_eq!(t.lookup(IP, Timestamp::from_secs(3599)), Some(MAC_A));
        assert_eq!(t.lookup(IP, Timestamp::from_secs(3601)), None);
        t.record(&ev(3000, LeaseAction::Renew, IP, MAC_A));
        assert_eq!(t.lookup(IP, Timestamp::from_secs(5000)), Some(MAC_A));
    }

    #[test]
    fn reassignment_closes_previous_owner() {
        let mut t = LeaseTracker::new(DEFAULT_MAX_LEASE_SECS);
        t.record(&ev(100, LeaseAction::Assign, IP, MAC_A));
        t.record(&ev(500, LeaseAction::Assign, IP, MAC_B));
        assert_eq!(t.lookup(IP, Timestamp::from_secs(400)), Some(MAC_A));
        assert_eq!(t.lookup(IP, Timestamp::from_secs(500)), Some(MAC_B));
    }

    /// One IP handed through three or more owners, with renewals,
    /// releases (some from the wrong device), take-overs and lapses,
    /// beside a second IP's leases: fed the time-ordered stream, the
    /// tracker answers every probe as the batch index does, so the
    /// spilled earlier intervals answer like the inline latest one.
    #[test]
    fn tracker_matches_the_index_through_many_owners() {
        const MAX_LEASE: i64 = 3_600;
        let ips = [IP, Ipv4Addr::new(10, 40, 3, 8)];
        check("tracker_matches_the_index_through_many_owners", |g| {
            let mut events = Vec::new();
            for (i, &ip) in ips.iter().enumerate() {
                let owners = if i == 0 {
                    g.range(3..8usize)
                } else {
                    g.range(0..4usize)
                };
                let mut t = g.range(0i64..2_000);
                let mut last = 0u8;
                for _ in 0..owners {
                    // A step of 1–3 in 0..5 never repeats the last
                    // owner, so each owner opens a new interval.
                    last = (last + g.range(1u8..4)) % 5;
                    let mac = MacAddr::new(0, 0, 0, 0, 0, last);
                    events.push(ev(t, LeaseAction::Assign, ip, mac));
                    for _ in 0..g.range(0..3u32) {
                        t += g.range(1i64..3_000);
                        events.push(ev(t, LeaseAction::Renew, ip, mac));
                    }
                    // Past `MAX_LEASE` without a renewal, the lease lapses.
                    t += g.range(0i64..5_000);
                    if g.any() {
                        let releaser = if g.range(0..4u32) == 0 {
                            MacAddr::new(0, 0, 0, 0, 0, 9)
                        } else {
                            mac
                        };
                        events.push(ev(t, LeaseAction::Release, ip, releaser));
                        t += g.range(0i64..2_000);
                    }
                }
            }
            events.sort_by_key(|e| e.ts);
            let index = LeaseIndex::build(&events, MAX_LEASE);
            let mut tracker = LeaseTracker::new(MAX_LEASE);
            for e in &events {
                tracker.record(e);
            }
            let mut probes: Vec<i64> = events
                .iter()
                .flat_map(|e| {
                    let s = e.ts.secs();
                    [s - 1, s, s + 1, s + MAX_LEASE - 1, s + MAX_LEASE]
                })
                .collect();
            probes.extend(g.vec(0..20, |g| g.range(0i64..60_000)));
            for ip in ips {
                for &secs in &probes {
                    let ts = Timestamp::from_secs(secs);
                    assert_eq!(
                        tracker.lookup(ip, ts),
                        index.lookup(ip, ts),
                        "{ip} at t={secs} after {events:?}"
                    );
                }
            }
        });
    }

    /// The device rows `stage` appends for `flows`, pushed as one window.
    fn push_window(stage: &mut NormalizeStage, flows: &[FlowRecord]) -> Vec<DeviceFlow> {
        let mut batch = FlowBatch::default();
        for f in flows {
            batch.push_raw(f);
        }
        let attributed = stage.stats().attributed;
        stage.push_batch(&mut batch);
        assert_eq!(batch.raw_window(), flows.len()..flows.len());
        // Every appended row is one attributed flow.
        assert_eq!(
            stage.stats().attributed - attributed,
            batch.dev_len() as u64
        );
        (0..batch.dev_len()).map(|i| batch.dev_row(i)).collect()
    }

    #[test]
    fn stage_normalizes_like_batch_normalizer() {
        let mut stage = NormalizeStage::new(
            nettrace::ip::campus::residential_pool(),
            42,
            DEFAULT_MAX_LEASE_SECS,
        );
        stage.record_lease(&ev(0, LeaseAction::Assign, IP, MAC_A));
        let remote = Ipv4Addr::new(1, 2, 3, 4);
        let f = FlowRecord {
            ts: Timestamp::from_secs(100),
            duration_micros: 1_000_000,
            orig: IP,
            orig_port: 50_000,
            resp: remote,
            resp_port: 443,
            proto: Proto::Tcp,
            orig_bytes: 100,
            resp_bytes: 900,
            orig_pkts: 2,
            resp_pkts: 3,
        };
        // Neither endpoint of the second row is residential → foreign.
        let foreign = FlowRecord {
            orig: remote,
            resp: remote,
            ..f
        };
        let out = push_window(&mut stage, &[f, foreign]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].device, DeviceId::anonymize(MAC_A, 42));
        assert_eq!(out[0].tx_bytes, 100);
        assert_eq!(out[0].rx_bytes, 900);
        let s = stage.stats();
        assert_eq!(s.attributed, 1);
        assert_eq!(s.foreign, 1);
        assert_eq!(stage.lease_events(), 1);
    }

    #[test]
    fn lookup_interval_agrees_with_lookup() {
        let events = [
            ev(100, LeaseAction::Assign, IP, MAC_A),
            ev(5_000, LeaseAction::Release, IP, MAC_A),
            ev(6_000, LeaseAction::Assign, IP, MAC_B),
        ];
        let idx = LeaseIndex::build(&events, 3600);
        let mut t = LeaseTracker::new(3600);
        for e in &events {
            t.record(e);
        }
        for secs in [0, 99, 100, 4_999, 5_000, 5_999, 6_000, 9_599, 9_600] {
            let ts = Timestamp::from_secs(secs);
            let iv = t.lookup_interval(IP, ts);
            assert_eq!(iv.map(|(m, _, _)| m), idx.lookup(IP, ts), "t={secs}");
            // Every point of a returned interval answers identically.
            if let Some((mac, start, end)) = iv {
                assert_eq!(t.lookup(IP, start), Some(mac));
                assert_eq!(t.lookup(IP, end.add_micros(-1)), Some(mac));
                assert!(start <= ts && ts < end);
            }
        }
    }

    #[test]
    fn push_batch_matches_the_lease_index_normalizer() {
        let pool = nettrace::ip::campus::residential_pool();
        let other_ip = Ipv4Addr::new(10, 40, 3, 8);
        let leases = [
            ev(0, LeaseAction::Assign, IP, MAC_A),
            ev(0, LeaseAction::Assign, other_ip, MAC_B),
        ];
        let index = LeaseIndex::build(&leases, DEFAULT_MAX_LEASE_SECS);
        let mut reference = Normalizer::new(&index, pool, 42);
        let mut batched = NormalizeStage::new(pool, 42, DEFAULT_MAX_LEASE_SECS);
        for e in &leases {
            batched.record_lease(e);
        }
        let remote = Ipv4Addr::new(1, 2, 3, 4);
        let base = FlowRecord {
            ts: Timestamp::from_secs(100),
            duration_micros: 1_000_000,
            orig: IP,
            orig_port: 50_000,
            resp: remote,
            resp_port: 443,
            proto: Proto::Tcp,
            orig_bytes: 100,
            resp_bytes: 900,
            orig_pkts: 2,
            resp_pkts: 3,
        };
        // Same-IP run (memo hits), reoriented row, IP switch, foreign
        // row, unattributed (post-lapse) row.
        let flows = [
            base,
            FlowRecord {
                ts: Timestamp::from_secs(200),
                ..base
            },
            FlowRecord {
                orig: remote,
                orig_port: 443,
                resp: IP,
                resp_port: 50_000,
                ..base
            },
            FlowRecord {
                orig: other_ip,
                ..base
            },
            FlowRecord {
                orig: remote,
                resp: remote,
                ..base
            },
            FlowRecord {
                ts: Timestamp::from_secs(10_000_000),
                ..base
            },
        ];
        let expect: Vec<DeviceFlow> = flows
            .iter()
            .filter_map(|f| reference.normalize(f))
            .collect();
        assert_eq!(push_window(&mut batched, &flows), expect);
        assert_eq!(batched.stats(), reference.stats());
        let s = batched.stats();
        assert_eq!((s.attributed, s.foreign, s.unattributed), (4, 1, 1));
    }
}
