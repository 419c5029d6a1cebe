//! Signature matching: domain suffixes first, IP ranges second.
//!
//! The paper builds per-application signatures by manually capturing
//! traffic from each app and recording the set of domains contacted
//! (§5.2), plus — for Zoom — the published server IP ranges including
//! ranges later removed from the support page (§5.1, via the Wayback
//! Machine). Matching therefore proceeds in two stages:
//!
//! 1. if the flow has a resolved domain, the most specific matching
//!    domain-suffix rule wins;
//! 2. otherwise, IP-range rules are consulted (longest prefix wins).
//!
//! Domain-rule lookups are memoized per interned [`DomainId`] so the
//! streaming hot path does one hash probe per flow.

use crate::app::App;
use dnslog::{DomainId, DomainTable, LabeledFlow};
use nettrace::ip::{Ipv4Cidr, PrefixSet};
use nettrace::FastMap;
use std::net::Ipv4Addr;

/// One domain-suffix rule.
#[derive(Debug, Clone)]
pub struct DomainRule {
    /// Suffix the rule matches (`zoom.us` matches itself and subdomains).
    pub suffix: &'static str,
    /// The application it labels.
    pub app: App,
}

/// A compiled signature set.
#[derive(Debug, Default)]
pub struct SignatureSet {
    domain_rules: Vec<DomainRule>,
    ip_prefixes: PrefixSet,
    ip_apps: FastMap<Ipv4Cidr, App>,
}

impl SignatureSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a domain-suffix rule.
    pub fn add_domain(&mut self, suffix: &'static str, app: App) {
        self.domain_rules.push(DomainRule { suffix, app });
    }

    /// Add an IP-range rule.
    pub fn add_ip_range(&mut self, prefix: Ipv4Cidr, app: App) {
        self.ip_prefixes.insert(prefix);
        self.ip_apps.insert(prefix, app);
    }

    /// Number of domain rules.
    pub fn domain_rule_count(&self) -> usize {
        self.domain_rules.len()
    }

    /// Number of IP-range rules.
    pub fn ip_rule_count(&self) -> usize {
        self.ip_apps.len()
    }

    /// Classify a domain name (without memoization).
    ///
    /// The most specific (longest) matching suffix wins, so
    /// `updates.nintendo.net` can carve `SwitchServices` out of a broader
    /// `nintendo.net` → `SwitchGameplay` rule.
    pub fn classify_domain(&self, name: &dnslog::DomainName) -> Option<App> {
        self.domain_rules
            .iter()
            .filter(|r| name.is_under(r.suffix))
            .max_by_key(|r| r.suffix.len())
            .map(|r| r.app)
    }

    /// Classify a bare remote address against the IP-range rules.
    pub fn classify_ip(&self, addr: Ipv4Addr) -> Option<App> {
        let p = self.ip_prefixes.longest_match(addr)?;
        self.ip_apps.get(&p).copied()
    }

    /// Classify a labeled flow: domain rules first, IP ranges second.
    pub fn classify_flow(
        &self,
        flow: &LabeledFlow,
        table: &DomainTable,
        cache: &mut MatchCache,
    ) -> Option<App> {
        if let Some(dom) = flow.domain {
            if let Some(hit) = cache.lookup(dom) {
                return hit.or_else(|| self.classify_ip_cached(flow.flow.remote, cache));
            }
            let hit = self.classify_domain(table.name(dom));
            cache.insert(dom, hit);
            if hit.is_some() {
                return hit;
            }
        }
        self.classify_ip_cached(flow.flow.remote, cache)
    }

    /// [`classify_ip`](Self::classify_ip) through the cache's per-address
    /// memo. Remote server addresses repeat across thousands of flows, so
    /// this turns the longest-prefix scan into one hash probe.
    fn classify_ip_cached(&self, addr: Ipv4Addr, cache: &mut MatchCache) -> Option<App> {
        if let Some(hit) = cache.by_ip.get(&addr) {
            return *hit;
        }
        let hit = self.classify_ip(addr);
        cache.by_ip.insert(addr, hit);
        hit
    }
}

/// Memo table for classification results.
///
/// Both memos assume the [`SignatureSet`] they were filled against; a
/// cache must not be reused across different signature sets. The
/// pipeline keeps one per collector, always paired with the immutable
/// study signatures; a study run streams every day into a fresh
/// collector, so each day's cache starts empty.
#[derive(Debug, Default)]
pub struct MatchCache {
    by_domain: FastMap<DomainId, Option<App>>,
    by_ip: FastMap<Ipv4Addr, Option<App>>,
}

impl MatchCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, dom: DomainId) -> Option<Option<App>> {
        self.by_domain.get(&dom).copied()
    }

    fn insert(&mut self, dom: DomainId, app: Option<App>) {
        self.by_domain.insert(dom, app);
    }

    /// Number of memoized domains.
    pub fn len(&self) -> usize {
        self.by_domain.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.by_domain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslog::DomainName;
    use nettrace::flow::{DeviceFlow, Proto};
    use nettrace::{DeviceId, Timestamp};

    fn set() -> SignatureSet {
        let mut s = SignatureSet::new();
        s.add_domain("zoom.us", App::Zoom);
        s.add_domain("nintendo.net", App::SwitchGameplay);
        s.add_domain("d4c.nintendo.net", App::SwitchServices);
        s.add_ip_range("203.0.113.0/24".parse().unwrap(), App::Zoom);
        s
    }

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn domain_suffix_matching() {
        let s = set();
        assert_eq!(s.classify_domain(&dn("us04web.zoom.us")), Some(App::Zoom));
        assert_eq!(s.classify_domain(&dn("zoom.us")), Some(App::Zoom));
        assert_eq!(s.classify_domain(&dn("notzoom.us")), None);
        assert_eq!(s.classify_domain(&dn("example.com")), None);
    }

    #[test]
    fn longest_suffix_wins() {
        let s = set();
        assert_eq!(
            s.classify_domain(&dn("conn.s.n.srv.nintendo.net")),
            Some(App::SwitchGameplay)
        );
        assert_eq!(
            s.classify_domain(&dn("atum.hac.lp1.d4c.nintendo.net")),
            Some(App::SwitchServices)
        );
    }

    #[test]
    fn ip_fallback_applies_only_without_domain_match() {
        let s = set();
        let mut table = DomainTable::new();
        let mut cache = MatchCache::new();
        let flow = |domain, remote| LabeledFlow {
            domain,
            flow: DeviceFlow {
                device: DeviceId(1),
                ts: Timestamp::from_secs(0),
                duration_micros: 0,
                remote,
                remote_port: 443,
                proto: Proto::Udp,
                tx_bytes: 1,
                rx_bytes: 1,
            },
        };
        // No domain, IP in Zoom range: matched by range.
        let f = flow(None, Ipv4Addr::new(203, 0, 113, 8));
        assert_eq!(s.classify_flow(&f, &table, &mut cache), Some(App::Zoom));
        // Unknown domain, IP in Zoom range: still matched by range.
        let other = table.intern_str("cdn77.example.net").unwrap();
        let f = flow(Some(other), Ipv4Addr::new(203, 0, 113, 8));
        assert_eq!(s.classify_flow(&f, &table, &mut cache), Some(App::Zoom));
        // Unknown domain, unknown IP: unmatched.
        let f = flow(Some(other), Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(s.classify_flow(&f, &table, &mut cache), None);
    }

    #[test]
    fn cache_is_consistent_with_uncached_path() {
        let s = set();
        let mut table = DomainTable::new();
        let zoom = table.intern_str("a.zoom.us").unwrap();
        let mut cache = MatchCache::new();
        let f = LabeledFlow {
            domain: Some(zoom),
            flow: DeviceFlow {
                device: DeviceId(1),
                ts: Timestamp::from_secs(0),
                duration_micros: 0,
                remote: Ipv4Addr::new(9, 9, 9, 9),
                remote_port: 443,
                proto: Proto::Tcp,
                tx_bytes: 0,
                rx_bytes: 0,
            },
        };
        let first = s.classify_flow(&f, &table, &mut cache);
        let second = s.classify_flow(&f, &table, &mut cache);
        assert_eq!(first, Some(App::Zoom));
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
    }
}
