//! Property tests for the temporal resolver and domain machinery.

use dnslog::{DnsQuery, DomainName, DomainTable, ResolverMap};
use lockdown_testkit::{check, LETTERS};
use nettrace::{DeviceId, Timestamp};
use std::net::Ipv4Addr;

/// The resolver always returns the most recent fresh resolution at or
/// before the query time, independent of record insertion order.
#[test]
fn lookup_matches_naive() {
    check("lookup_matches_naive", |g| {
        let records = g.vec(1..40, |g| (g.range(0i64..10_000), g.range(0u32..6)));
        let probe = g.range(0i64..12_000);
        let freshness = g.range(1i64..20_000);
        let mut table = DomainTable::new();
        let domains: Vec<_> = (0..6)
            .map(|i| table.intern_str(&format!("svc{i}.example.com")).unwrap())
            .collect();
        let ip = Ipv4Addr::new(203, 0, 113, 7);

        let mut m = ResolverMap::with_freshness(freshness);
        // Shuffle-ish: insert as given (arbitrary order).
        for &(ts, di) in &records {
            m.record(&DnsQuery {
                ts: Timestamp::from_secs(ts),
                device: DeviceId(1),
                qname: domains[di as usize],
                answers: vec![ip].into(),
            });
        }
        let got = m.lookup(ip, Timestamp::from_secs(probe));

        // Naive: latest record with ts <= probe; break ties by keeping the
        // later-inserted one (matching sorted-insert stability).
        let naive = records
            .iter()
            .enumerate()
            .filter(|(_, &(ts, _))| ts <= probe)
            .max_by_key(|(i, &(ts, _))| (ts, *i))
            .and_then(|(_, &(ts, di))| (probe - ts <= freshness).then(|| domains[di as usize]));
        assert_eq!(got, naive);
    });
}

/// Several IPs, each rotating among a few domains and recorded in any
/// time order, answer every lookup like the naive model after every
/// record: before an IP's earliest resolution, at a resolution time, at
/// the freshness boundary, and past a small horizon, where a
/// single-domain history must scan for its newest resolution.
#[test]
fn histories_match_naive_after_every_record() {
    check("histories_match_naive_after_every_record", |g| {
        let freshness = g.range(1i64..=5_000);
        let n_ips = g.range(1usize..=4);
        let pools: Vec<Vec<usize>> = (0..n_ips)
            .map(|_| g.vec(1..4, |g| g.range(0usize..6)))
            .collect();
        // Times on a 250 s grid, so equal-time resolutions are common.
        let records: Vec<(usize, i64, usize)> = g.vec(1..60, |g| {
            let ip = g.range(0..n_ips);
            let dom = pools[ip][g.range(0..pools[ip].len())];
            (ip, g.range(0i64..80) * 250, dom)
        });
        let mut table = DomainTable::new();
        let domains: Vec<_> = (0..6)
            .map(|i| table.intern_str(&format!("cdn{i}.example.net")).unwrap())
            .collect();
        let ips: Vec<Ipv4Addr> = (0..n_ips)
            .map(|i| Ipv4Addr::new(198, 51, 100, i as u8))
            .collect();

        let mut m = ResolverMap::with_freshness(freshness);
        for (n, &(ip, ts, dom)) in records.iter().enumerate() {
            m.record(&DnsQuery {
                ts: Timestamp::from_secs(ts),
                device: DeviceId(1),
                qname: domains[dom],
                answers: vec![ips[ip]].into(),
            });
            assert_eq!(m.resolution_count(), n + 1);
            let seen = &records[..=n];
            for (i, &addr) in ips.iter().enumerate() {
                // (arrival index, time, domain) of this IP's resolutions.
                let hist: Vec<(usize, i64, usize)> = seen
                    .iter()
                    .enumerate()
                    .filter(|&(_, r)| r.0 == i)
                    .map(|(k, r)| (k, r.1, r.2))
                    .collect();
                let naive = |probe: i64| {
                    hist.iter()
                        .filter(|r| r.1 <= probe)
                        .max_by_key(|r| (r.1, r.0))
                        .and_then(|r| (probe - r.1 <= freshness).then(|| domains[r.2]))
                };
                let mut probes = vec![g.range(0i64..30_000)];
                if let Some(earliest) = hist.iter().map(|r| r.1).min() {
                    let at = hist[g.range(0..hist.len())].1;
                    probes.extend([
                        earliest - g.range(1i64..=500),
                        at,
                        at + freshness,
                        at + freshness + 1,
                        earliest + freshness + g.range(1i64..=10_000),
                    ]);
                }
                for probe in probes {
                    assert_eq!(
                        m.lookup(addr, Timestamp::from_secs(probe)),
                        naive(probe),
                        "ip {i} probe {probe} after {} records",
                        n + 1
                    );
                }
            }
        }
    });
}

/// Domain parsing normalizes case and trailing dots without changing
/// identity, and registered domains are suffixes of the input.
#[test]
fn domain_normalization() {
    check("domain_normalization", |g| {
        let labels = g.vec(1..5, |g| g.label(LETTERS, 8));
        let name = labels.join(".");
        let a = DomainName::parse(&name).unwrap();
        let b = DomainName::parse(&format!("{}.", name.to_uppercase())).unwrap();
        assert_eq!(&a, &b);
        let reg = a.registered_domain().to_owned();
        assert!(a.as_str().ends_with(&reg));
        assert!(a.is_under(&reg));
    });
}
