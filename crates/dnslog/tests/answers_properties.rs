//! Property tests for the inline DNS answer set: whether it holds its
//! addresses inline or on the heap never shows to a reader.

use dnslog::query::{parse_log, write_log};
use dnslog::{Answers, DnsQuery, DomainTable, INLINE_ANSWERS};
use lockdown_testkit::{check, Gen, LOWER};
use nettrace::{DeviceId, Timestamp};
use std::net::Ipv4Addr;

fn ip(g: &mut Gen) -> Ipv4Addr {
    Ipv4Addr::from(g.any::<u32>())
}

/// A set built from a `Vec`, from a slice or from an iterator reads as
/// its input, equals the others, and prints like the `Vec`, inline or
/// spilled.
#[test]
fn answers_read_like_their_vec() {
    check("answers_read_like_their_vec", |g| {
        let ips = g.vec(1..33, ip);
        let from_vec = Answers::from(ips.clone());
        let from_slice = Answers::from(ips.as_slice());
        let collected: Answers = ips.iter().copied().collect();
        assert_eq!(&*from_vec, ips.as_slice());
        assert_eq!(&*from_slice, ips.as_slice());
        assert_eq!(from_vec, from_slice);
        assert_eq!(from_vec, collected);
        assert_eq!(from_vec.clone(), from_vec);
        assert_eq!(format!("{from_vec:?}"), format!("{ips:?}"));
        assert_eq!(format!("{from_slice:#?}"), format!("{ips:#?}"));
        // Content decides equality: a shorter or altered set differs.
        assert_ne!(Answers::from(&ips[1..]), from_vec);
        let mut altered = ips.clone();
        let k = g.range(0..altered.len());
        altered[k] = Ipv4Addr::from(u32::from(altered[k]).wrapping_add(1));
        assert_ne!(Answers::from(altered), from_vec);
    });
}

/// `write_log` then `parse_log` returns every query with all its
/// answers, including answer sets too long to store inline.
#[test]
fn log_roundtrip_keeps_long_answer_sets() {
    check("log_roundtrip_keeps_long_answer_sets", |g| {
        let mut table = DomainTable::new();
        let names: Vec<String> = (0..3)
            .map(|_| format!("{}.example.com", g.label(LOWER, 8)))
            .collect();
        let n = g.range(1usize..6);
        let queries: Vec<DnsQuery> = (0..n)
            .map(|i| {
                // The first query always spills past the inline capacity.
                let len = if i == 0 {
                    g.range(INLINE_ANSWERS + 1..=32)
                } else {
                    g.range(1..=32)
                };
                DnsQuery {
                    ts: Timestamp::from_secs_micros(
                        g.range(0i64..2_000_000_000),
                        g.range(0u32..1_000_000),
                    ),
                    device: DeviceId(g.any::<u64>()),
                    qname: table
                        .intern_str(&names[g.range(0..names.len())])
                        .expect("generated names are valid"),
                    answers: (0..len).map(|_| ip(g)).collect(),
                }
            })
            .collect();
        let text = write_log(&queries, &table);
        let mut parsed_table = DomainTable::new();
        let parsed = parse_log(&text, &mut parsed_table).expect("own log parses");
        assert_eq!(parsed.len(), queries.len());
        for (got, want) in parsed.iter().zip(&queries) {
            assert_eq!(got.ts, want.ts);
            assert_eq!(got.device, want.device);
            assert_eq!(
                parsed_table.name(got.qname).as_str(),
                table.name(want.qname).as_str()
            );
            assert_eq!(got.answers, want.answers);
        }
        assert!(parsed[0].answers.len() > INLINE_ANSWERS);
    });
}
