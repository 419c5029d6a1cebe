//! Dynamic-IP → device normalization.
//!
//! Devices get temporary addresses from DHCP; the same IP serves different
//! devices over the study and the same device roams across IPs. The
//! normalizer builds, per IP, a time-sorted sequence of ownership
//! intervals from the lease log, then answers "which device held this IP
//! at this instant?" in O(log n). Flows are then re-keyed from IP to
//! anonymized [`DeviceId`].

use crate::lease::{LeaseAction, LeaseEvent};
use nettrace::flow::{DeviceFlow, FlowRecord};
use nettrace::ip::Ipv4Cidr;
use nettrace::{DeviceId, MacAddr, Timestamp};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Default maximum lease lifetime: if a device neither renews nor
/// releases, its binding lapses after this long (matches a typical campus
/// 24-hour lease with generous slack).
pub const DEFAULT_MAX_LEASE_SECS: i64 = 24 * 3600;

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: Timestamp,
    end: Timestamp, // exclusive
    mac: MacAddr,
}

/// An immutable index answering IP-at-time → MAC queries.
#[derive(Debug, Default)]
pub struct LeaseIndex {
    by_ip: HashMap<Ipv4Addr, Vec<Interval>>,
}

impl LeaseIndex {
    /// Build the index from a lease log.
    ///
    /// Events may arrive slightly out of order (syslog does that); they are
    /// sorted internally. Ownership rules:
    ///
    /// * `Assign` opens an interval; an open interval on the same IP for a
    ///   *different* MAC is closed at the new assign time (the server moved
    ///   the address).
    /// * `Renew` extends the open interval's horizon.
    /// * `Release` closes the open interval.
    /// * An open interval with no activity for `max_lease_secs` closes at
    ///   `last_activity + max_lease_secs`.
    pub fn build(events: &[LeaseEvent], max_lease_secs: i64) -> LeaseIndex {
        let mut sorted: Vec<&LeaseEvent> = events.iter().collect();
        sorted.sort_by_key(|e| e.ts);

        struct Open {
            start: Timestamp,
            last_activity: Timestamp,
            mac: MacAddr,
        }
        let mut open: HashMap<Ipv4Addr, Open> = HashMap::new();
        let mut by_ip: HashMap<Ipv4Addr, Vec<Interval>> = HashMap::new();
        let close = |ip: Ipv4Addr,
                     o: Open,
                     end: Timestamp,
                     by_ip: &mut HashMap<Ipv4Addr, Vec<Interval>>| {
            let horizon = o.last_activity.add_secs(max_lease_secs);
            let end = end.min(horizon).max(o.start);
            by_ip.entry(ip).or_default().push(Interval {
                start: o.start,
                end,
                mac: o.mac,
            });
        };

        for e in sorted {
            match e.action {
                LeaseAction::Assign => {
                    if let Some(o) = open.remove(&e.ip) {
                        if o.mac == e.mac {
                            // Re-assign to the same device: just extend.
                            open.insert(
                                e.ip,
                                Open {
                                    start: o.start,
                                    last_activity: e.ts,
                                    mac: o.mac,
                                },
                            );
                            continue;
                        }
                        close(e.ip, o, e.ts, &mut by_ip);
                    }
                    open.insert(
                        e.ip,
                        Open {
                            start: e.ts,
                            last_activity: e.ts,
                            mac: e.mac,
                        },
                    );
                }
                LeaseAction::Renew => {
                    if let Some(o) = open.get_mut(&e.ip) {
                        if o.mac == e.mac {
                            o.last_activity = e.ts;
                        }
                        // A renew for a MAC we never saw assigned is dropped:
                        // the log is incomplete and we prefer to under-attribute.
                    }
                }
                LeaseAction::Release => {
                    if let Some(o) = open.remove(&e.ip) {
                        if o.mac == e.mac {
                            close(e.ip, o, e.ts, &mut by_ip);
                        } else {
                            // Release from the wrong MAC: keep the binding.
                            open.insert(e.ip, o);
                        }
                    }
                }
            }
        }
        // Close whatever is still open at its lease horizon.
        for (ip, o) in open {
            let end = o.last_activity.add_secs(max_lease_secs);
            by_ip.entry(ip).or_default().push(Interval {
                start: o.start,
                end,
                mac: o.mac,
            });
        }
        for v in by_ip.values_mut() {
            v.sort_by_key(|i| i.start);
        }
        LeaseIndex { by_ip }
    }

    /// Who held `ip` at `ts`?
    pub fn lookup(&self, ip: Ipv4Addr, ts: Timestamp) -> Option<MacAddr> {
        let intervals = self.by_ip.get(&ip)?;
        // Last interval starting at or before ts.
        let idx = intervals.partition_point(|i| i.start <= ts);
        if idx == 0 {
            return None;
        }
        let cand = &intervals[idx - 1];
        (ts < cand.end).then_some(cand.mac)
    }
}

/// Statistics from a normalization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Flows successfully attributed to a device.
    pub attributed: u64,
    /// Flows whose campus-side IP had no lease at the flow time.
    pub unattributed: u64,
    /// Flows with *neither* endpoint in the residential pool (should not
    /// reach the normalizer; counted for hygiene).
    pub foreign: u64,
}

impl NormalizeStats {
    /// Fold another pass's counters into this one.
    pub fn merge(&mut self, other: NormalizeStats) {
        *self += other;
    }
}

impl std::ops::AddAssign for NormalizeStats {
    fn add_assign(&mut self, other: NormalizeStats) {
        self.attributed += other.attributed;
        self.unattributed += other.unattributed;
        self.foreign += other.foreign;
    }
}

impl std::ops::Add for NormalizeStats {
    type Output = NormalizeStats;
    fn add(mut self, other: NormalizeStats) -> NormalizeStats {
        self += other;
        self
    }
}

/// Converts raw flows to device-attributed flows using a [`LeaseIndex`].
pub struct Normalizer<'a> {
    index: &'a LeaseIndex,
    pool: Ipv4Cidr,
    anon_key: u64,
    stats: NormalizeStats,
}

impl<'a> Normalizer<'a> {
    /// `pool` is the monitored residential prefix; `anon_key` the secret
    /// anonymization key (§3: MACs are anonymized before analysis).
    pub fn new(index: &'a LeaseIndex, pool: Ipv4Cidr, anon_key: u64) -> Self {
        Normalizer {
            index,
            pool,
            anon_key,
            stats: NormalizeStats::default(),
        }
    }

    /// Normalize one flow. The campus side is whichever endpoint lies in
    /// the residential pool; byte counters are re-oriented device-centric.
    pub fn normalize(&mut self, f: &FlowRecord) -> Option<DeviceFlow> {
        let (local_ip, remote, remote_port, tx, rx) = if self.pool.contains(f.orig) {
            (f.orig, f.resp, f.resp_port, f.orig_bytes, f.resp_bytes)
        } else if self.pool.contains(f.resp) {
            (f.resp, f.orig, f.orig_port, f.resp_bytes, f.orig_bytes)
        } else {
            self.stats.foreign += 1;
            return None;
        };
        match self.index.lookup(local_ip, f.ts) {
            Some(mac) => {
                self.stats.attributed += 1;
                Some(DeviceFlow {
                    device: DeviceId::anonymize(mac, self.anon_key),
                    ts: f.ts,
                    duration_micros: f.duration_micros,
                    remote,
                    remote_port,
                    proto: f.proto,
                    tx_bytes: tx,
                    rx_bytes: rx,
                })
            }
            None => {
                self.stats.unattributed += 1;
                None
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NormalizeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::Proto;

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
    fn assign_release_bounds_ownership() {
        let idx = LeaseIndex::build(
            &[
                ev(100, LeaseAction::Assign, IP, MAC_A),
                ev(200, LeaseAction::Release, IP, MAC_A),
            ],
            DEFAULT_MAX_LEASE_SECS,
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(99)), None);
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(100)), Some(MAC_A));
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(199)), Some(MAC_A));
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(200)), None);
    }

    #[test]
    fn reassignment_closes_previous_owner() {
        let idx = LeaseIndex::build(
            &[
                ev(100, LeaseAction::Assign, IP, MAC_A),
                ev(500, LeaseAction::Assign, IP, MAC_B),
            ],
            DEFAULT_MAX_LEASE_SECS,
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(400)), Some(MAC_A));
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(500)), Some(MAC_B));
    }

    #[test]
    fn lease_expires_without_renewal() {
        let idx = LeaseIndex::build(
            &[ev(0, LeaseAction::Assign, IP, MAC_A)],
            3600, // 1-hour max lease
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(3599)), Some(MAC_A));
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(3601)), None);
    }

    #[test]
    fn renew_extends_lease() {
        let idx = LeaseIndex::build(
            &[
                ev(0, LeaseAction::Assign, IP, MAC_A),
                ev(3000, LeaseAction::Renew, IP, MAC_A),
            ],
            3600,
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(5000)), Some(MAC_A));
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(6601)), None);
    }

    #[test]
    fn release_from_wrong_mac_is_ignored() {
        let idx = LeaseIndex::build(
            &[
                ev(0, LeaseAction::Assign, IP, MAC_A),
                ev(10, LeaseAction::Release, IP, MAC_B),
            ],
            3600,
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(100)), Some(MAC_A));
    }

    #[test]
    fn out_of_order_events_are_sorted() {
        let idx = LeaseIndex::build(
            &[
                ev(200, LeaseAction::Release, IP, MAC_A),
                ev(100, LeaseAction::Assign, IP, MAC_A),
            ],
            DEFAULT_MAX_LEASE_SECS,
        );
        assert_eq!(idx.lookup(IP, Timestamp::from_secs(150)), Some(MAC_A));
    }

    fn flow(ts_secs: i64, orig: Ipv4Addr, resp: Ipv4Addr) -> FlowRecord {
        FlowRecord {
            ts: Timestamp::from_secs(ts_secs),
            duration_micros: 1_000_000,
            orig,
            orig_port: 50_000,
            resp,
            resp_port: 443,
            proto: Proto::Tcp,
            orig_bytes: 100,
            resp_bytes: 900,
            orig_pkts: 2,
            resp_pkts: 3,
        }
    }

    #[test]
    fn normalizer_orients_and_attributes() {
        let idx = LeaseIndex::build(
            &[ev(0, LeaseAction::Assign, IP, MAC_A)],
            DEFAULT_MAX_LEASE_SECS,
        );
        let pool = nettrace::ip::campus::residential_pool();
        let mut n = Normalizer::new(&idx, pool, 42);
        let remote = Ipv4Addr::new(1, 2, 3, 4);

        // Outbound flow: device is originator.
        let df = n.normalize(&flow(100, IP, remote)).unwrap();
        assert_eq!(df.device, DeviceId::anonymize(MAC_A, 42));
        assert_eq!(df.tx_bytes, 100);
        assert_eq!(df.rx_bytes, 900);
        assert_eq!(df.remote, remote);

        // Inbound flow: device is responder; counters flip.
        let mut f = flow(100, remote, IP);
        f.resp_port = 443; // remote port seen from the device's side
        let df = n.normalize(&f).unwrap();
        assert_eq!(df.tx_bytes, 900);
        assert_eq!(df.rx_bytes, 100);

        // No lease at flow time.
        assert!(n.normalize(&flow(999_999, IP, remote)).is_none());
        // Neither endpoint residential.
        assert!(n.normalize(&flow(100, remote, remote)).is_none());

        let s = n.stats();
        assert_eq!(s.attributed, 2);
        assert_eq!(s.unattributed, 1);
        assert_eq!(s.foreign, 1);
    }
}
