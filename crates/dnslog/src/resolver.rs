//! The temporal remote-IP → domain map.
//!
//! "We use contemporaneous DNS logs to convert remote IP addresses (i.e.,
//! the servers communicating with the devices we study) to domain names
//! (hence, allowing us to distinguish between different services in use)."
//! (§3)
//!
//! A remote IP may serve different names over time (CDN rotation), so the
//! map is temporal: a flow to `ip` at time `t` is labeled with the domain
//! most recently resolved to `ip` at or before `t`, provided the
//! resolution is not older than a freshness horizon.

use crate::domain::DomainId;
use crate::query::DnsQuery;
use nettrace::flow::DeviceFlow;
use nettrace::{FastMap, Timestamp};
use std::net::Ipv4Addr;

/// Default freshness horizon: resolutions older than a week stop labeling
/// flows. Long enough to survive caching, short enough to track CDN moves.
pub const DEFAULT_FRESHNESS_SECS: i64 = 7 * 24 * 3600;

/// A device-attributed flow with its resolved service domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledFlow {
    /// The underlying flow.
    pub flow: DeviceFlow,
    /// The domain the remote IP resolved to, if any resolution was fresh.
    pub domain: Option<DomainId>,
}

/// One remote IP's resolutions.
///
/// While every entry names one domain, `entries` stays in arrival order
/// and a lookup needs only `earliest`: the newest resolution at or before
/// `ts` is no older than `earliest`, so it is fresh whenever `earliest`
/// is. The first record of a second domain stable-sorts `entries` by time
/// once, which leaves equal times in arrival order exactly as sorted
/// insertion would; from then on records insert sorted and lookups
/// binary-search.
#[derive(Debug)]
struct IpHistory {
    /// (resolution time, domain): in arrival order while `!many`, sorted
    /// by time (ties in arrival order) once `many`.
    entries: Vec<(Timestamp, DomainId)>,
    /// The earliest resolution time in `entries`.
    earliest: Timestamp,
    /// `entries` names more than one domain.
    many: bool,
}

impl IpHistory {
    fn new(ts: Timestamp) -> Self {
        IpHistory {
            entries: Vec::new(),
            earliest: ts,
            many: false,
        }
    }

    fn record(&mut self, ts: Timestamp, domain: DomainId) {
        self.earliest = self.earliest.min(ts);
        if !self.many {
            self.entries.push((ts, domain));
            if self.entries[0].1 != domain {
                self.many = true;
                self.entries.sort_by_key(|&(t, _)| t);
            }
            return;
        }
        match self.entries.last() {
            Some(&(last_ts, _)) if last_ts > ts => {
                let pos = self.entries.partition_point(|&(t, _)| t <= ts);
                self.entries.insert(pos, (ts, domain));
            }
            _ => self.entries.push((ts, domain)),
        }
    }

    fn lookup(&self, ts: Timestamp, freshness_secs: i64) -> Option<DomainId> {
        if ts < self.earliest {
            return None;
        }
        let (t, dom) = if self.many {
            // `earliest <= ts`, so at least one entry precedes the cut.
            self.entries[self.entries.partition_point(|&(t, _)| t <= ts) - 1]
        } else {
            let dom = self.entries[0].1;
            if ts.delta_secs(self.earliest) <= freshness_secs {
                return Some(dom);
            }
            // Past the horizon from `earliest`: only the newest entry at
            // or before `ts` can still be fresh.
            let newest = self
                .entries
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t <= ts)
                .max()?;
            (newest, dom)
        };
        (ts.delta_secs(t) <= freshness_secs).then_some(dom)
    }
}

/// Label-coverage counters for a [`ResolverMap`] used as a stage.
///
/// The paper's pipeline trusts its domain labels because coverage is
/// continuously high; a falling hit rate is the first sign the DNS tap
/// has gapped. Counted on the [`BatchStage`](nettrace::BatchStage) path
/// only (the immutable [`ResolverMap::label`] is left uninstrumented).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LabelStats {
    /// Flows labeled with a fresh resolution.
    pub labeled: u64,
    /// Flows passed through with `domain: None`.
    pub unlabeled: u64,
}

impl LabelStats {
    /// Fraction of flows that received a label (1.0 when no flows).
    pub fn coverage(&self) -> f64 {
        let total = self.labeled + self.unlabeled;
        if total == 0 {
            1.0
        } else {
            self.labeled as f64 / total as f64
        }
    }
}

/// The temporal reverse-resolution index.
#[derive(Debug, Default)]
pub struct ResolverMap {
    by_ip: FastMap<Ipv4Addr, IpHistory>,
    freshness_secs: i64,
    label_stats: LabelStats,
}

impl ResolverMap {
    /// Empty map with the default freshness horizon.
    pub fn new() -> Self {
        Self::with_freshness(DEFAULT_FRESHNESS_SECS)
    }

    /// Empty map with a custom freshness horizon in seconds.
    pub fn with_freshness(freshness_secs: i64) -> Self {
        ResolverMap {
            by_ip: FastMap::default(),
            freshness_secs,
            label_stats: LabelStats::default(),
        }
    }

    /// Label-coverage counters for flows pushed through the stage.
    pub fn label_stats(&self) -> LabelStats {
        self.label_stats
    }

    /// Record one DNS answer set. Queries may arrive in any time order:
    /// an IP that has resolved to one domain only appends, and the first
    /// answer naming a second domain sorts that IP's history once.
    pub fn record(&mut self, q: &DnsQuery) {
        for &ip in q.answers.iter() {
            self.by_ip
                .entry(ip)
                .or_insert_with(|| IpHistory::new(q.ts))
                .record(q.ts, q.qname);
        }
    }

    /// The domain `ip` most recently resolved to at or before `ts`,
    /// within the freshness horizon. Equal-time resolutions resolve to
    /// the one recorded last.
    pub fn lookup(&self, ip: Ipv4Addr, ts: Timestamp) -> Option<DomainId> {
        self.by_ip.get(&ip)?.lookup(ts, self.freshness_secs)
    }

    /// Label a flow with its service domain.
    pub fn label(&self, flow: DeviceFlow) -> LabeledFlow {
        LabeledFlow {
            domain: self.lookup(flow.remote, flow.ts),
            flow,
        }
    }

    /// Number of distinct remote IPs known.
    pub fn ip_count(&self) -> usize {
        self.by_ip.len()
    }

    /// Total number of recorded resolutions.
    pub fn resolution_count(&self) -> usize {
        self.by_ip.values().map(|h| h.entries.len()).sum()
    }
}

/// The resolver map is already incremental, so it *is* a stage: feed
/// [`DnsQuery`]s via [`ResolverMap::record`] as they arrive, and label
/// the batch's device window in place by filling the label column
/// ([`DomainId`] index, or [`NO_LABEL`](nettrace::NO_LABEL) when no
/// resolution is fresh). Every row gets exactly the domain
/// [`ResolverMap::label`] gives it (a flow with no fresh resolution is
/// left unlabeled, not dropped), and the coverage counters take one
/// state load and one accounting update per window instead of per flow.
///
/// A real `DomainId` cannot collide with the
/// [`NO_LABEL`](nettrace::NO_LABEL) sentinel in practice:
/// [`DomainTable`](crate::DomainTable) ids are sequential intern
/// indices, and a table would need 2³² − 1 distinct domains before
/// handing out `u32::MAX`.
impl nettrace::BatchStage for ResolverMap {
    fn push_batch(&mut self, batch: &mut nettrace::FlowBatch) {
        let w = batch.dev_window();
        for i in w.clone() {
            let d = batch.dev_row(i);
            match self.lookup(d.remote, d.ts) {
                Some(dom) => {
                    self.label_stats.labeled += 1;
                    batch.set_label(i, dom.0);
                }
                None => self.label_stats.unlabeled += 1,
            }
        }
        batch.advance_dev(w.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainTable;
    use nettrace::flow::Proto;
    use nettrace::DeviceId;

    const IP: Ipv4Addr = Ipv4Addr::new(151, 101, 1, 1);

    fn q(ts: i64, qname: DomainId, ip: Ipv4Addr) -> DnsQuery {
        DnsQuery {
            ts: Timestamp::from_secs(ts),
            device: DeviceId(1),
            qname,
            answers: vec![ip].into(),
        }
    }

    #[test]
    fn lookup_uses_most_recent_resolution() {
        let mut t = DomainTable::new();
        let a = t.intern_str("a.example.com").unwrap();
        let b = t.intern_str("b.example.com").unwrap();
        let mut m = ResolverMap::new();
        m.record(&q(100, a, IP));
        m.record(&q(200, b, IP));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(150)), Some(a));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(250)), Some(b));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(99)), None);
        assert_eq!(
            m.lookup(Ipv4Addr::new(9, 9, 9, 9), Timestamp::from_secs(150)),
            None
        );
    }

    #[test]
    fn stale_resolutions_do_not_label() {
        let mut t = DomainTable::new();
        let a = t.intern_str("old.example.com").unwrap();
        let mut m = ResolverMap::with_freshness(3600);
        m.record(&q(0, a, IP));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(3600)), Some(a));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(3601)), None);
    }

    #[test]
    fn out_of_order_records_are_inserted_sorted() {
        let mut t = DomainTable::new();
        let a = t.intern_str("a.example.com").unwrap();
        let b = t.intern_str("b.example.com").unwrap();
        let mut m = ResolverMap::new();
        m.record(&q(200, b, IP));
        m.record(&q(100, a, IP)); // arrives late
        assert_eq!(m.lookup(IP, Timestamp::from_secs(150)), Some(a));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(250)), Some(b));
        assert_eq!(m.resolution_count(), 2);
    }

    #[test]
    fn second_domain_keeps_equal_time_tie_order() {
        let mut t = DomainTable::new();
        let a = t.intern_str("a.example.com").unwrap();
        let b = t.intern_str("b.example.com").unwrap();
        let mut m = ResolverMap::new();
        // One domain, appended out of time order.
        m.record(&q(300, a, IP));
        m.record(&q(100, a, IP));
        // The first record of a second domain ties with a@100 and, as
        // sorted insertion would, ranks after it.
        m.record(&q(100, b, IP));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(99)), None);
        assert_eq!(m.lookup(IP, Timestamp::from_secs(100)), Some(b));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(299)), Some(b));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(300)), Some(a));
        // Later ties insert after the existing ones too.
        m.record(&q(100, a, IP));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(150)), Some(a));
        m.record(&q(300, b, IP));
        assert_eq!(m.lookup(IP, Timestamp::from_secs(300)), Some(b));
        assert_eq!(m.resolution_count(), 5);
    }

    #[test]
    fn single_domain_lookup_past_the_horizon_finds_the_newest_resolution() {
        let mut t = DomainTable::new();
        let a = t.intern_str("a.example.com").unwrap();
        let mut m = ResolverMap::with_freshness(3600);
        for ts in [10_000, 0, 5_000] {
            m.record(&q(ts, a, IP));
        }
        let at = |s| m.lookup(IP, Timestamp::from_secs(s));
        // Within the horizon of the earliest resolution.
        assert_eq!(at(3600), Some(a));
        // Past it: the newest resolution at or before the probe decides.
        assert_eq!(at(3601), None);
        assert_eq!(at(8_000), Some(a));
        assert_eq!(at(8_600), Some(a));
        assert_eq!(at(8_601), None);
        assert_eq!(at(9_999), None);
        assert_eq!(at(10_000), Some(a));
        assert_eq!(at(13_600), Some(a));
        assert_eq!(at(13_601), None);
    }

    #[test]
    fn label_attaches_domain() {
        let mut t = DomainTable::new();
        let a = t.intern_str("zoom.us").unwrap();
        let mut m = ResolverMap::new();
        m.record(&q(100, a, IP));
        let flow = DeviceFlow {
            device: DeviceId(7),
            ts: Timestamp::from_secs(120),
            duration_micros: 0,
            remote: IP,
            remote_port: 443,
            proto: Proto::Tcp,
            tx_bytes: 1,
            rx_bytes: 2,
        };
        let lf = m.label(flow);
        assert_eq!(lf.domain, Some(a));
        assert_eq!(lf.flow, flow);
    }

    #[test]
    fn push_batch_labels_like_label() {
        use nettrace::{BatchStage, FlowBatch, NO_LABEL};
        let mut t = DomainTable::new();
        let a = t.intern_str("zoom.us").unwrap();
        let mut m = ResolverMap::with_freshness(3600);
        m.record(&q(100, a, IP));
        let base = DeviceFlow {
            device: DeviceId(7),
            ts: Timestamp::from_secs(120),
            duration_micros: 0,
            remote: IP,
            remote_port: 443,
            proto: Proto::Tcp,
            tx_bytes: 1,
            rx_bytes: 2,
        };
        let flows = [
            base, // labeled
            DeviceFlow {
                remote: Ipv4Addr::new(203, 0, 113, 9),
                ..base
            }, // unknown ip
            DeviceFlow {
                ts: Timestamp::from_secs(90),
                ..base
            }, // before resolution
            DeviceFlow {
                ts: Timestamp::from_secs(100_000),
                ..base
            }, // stale
        ];
        let expect: Vec<LabeledFlow> = flows.iter().map(|f| m.label(*f)).collect();
        let mut batch = FlowBatch::default();
        for f in &flows {
            batch.push_dev(*f);
        }
        m.push_batch(&mut batch);
        // The whole device window is consumed, and labeled in place.
        assert_eq!(batch.dev_window(), 4..4);
        assert_eq!(batch.dev_len(), 4);
        let got: Vec<LabeledFlow> = (0..batch.dev_len())
            .map(|i| LabeledFlow {
                flow: batch.dev_row(i),
                domain: (batch.label(i) != NO_LABEL).then(|| DomainId(batch.label(i))),
            })
            .collect();
        assert_eq!(got, expect);
        // Coverage counters track the batched path: one of four labeled.
        let stats = m.label_stats();
        assert_eq!((stats.labeled, stats.unlabeled), (1, 3));
        assert!((stats.coverage() - 0.25).abs() < 1e-12);
        // The window is consumed; re-pushing is a no-op.
        m.push_batch(&mut batch);
        assert_eq!(batch.dev_window(), 4..4);
        assert_eq!(m.label_stats(), stats);
    }

    #[test]
    fn multi_answer_queries_index_every_ip() {
        let mut t = DomainTable::new();
        let a = t.intern_str("cdn.example.com").unwrap();
        let mut m = ResolverMap::new();
        let ips = vec![Ipv4Addr::new(1, 0, 0, 1), Ipv4Addr::new(1, 0, 0, 2)];
        m.record(&DnsQuery {
            ts: Timestamp::from_secs(5),
            device: DeviceId(1),
            qname: a,
            answers: ips.clone().into(),
        });
        for ip in ips {
            assert_eq!(m.lookup(ip, Timestamp::from_secs(10)), Some(a));
        }
        assert_eq!(m.ip_count(), 2);
    }
}
