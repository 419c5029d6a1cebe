//! Zeek `conn.log` interoperability.
//!
//! The production pipeline's flow records come from Zeek (§3); this
//! module writes and reads our [`FlowRecord`]s in Zeek's classic
//! tab-separated `conn.log` format (header block plus one row per
//! connection), so traces can be exchanged with standard tooling and
//! real Zeek output can be fed straight into the analyses.
//!
//! Only the fields the study consumes are populated; the remaining
//! standard columns carry Zeek's unset marker (`-`).

use crate::error::{Error, Result};
use crate::flow::{FlowRecord, Proto};
use crate::time::Timestamp;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// The column set we emit, in order.
pub const FIELDS: &[&str] = &[
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "orig_pkts",
    "resp_pkts",
];

fn proto_name(p: Proto) -> String {
    match p {
        Proto::Tcp => "tcp".to_string(),
        Proto::Udp => "udp".to_string(),
        Proto::Other(n) => format!("ip-proto-{n}"),
    }
}

fn parse_proto(s: &str) -> Result<Proto> {
    match s {
        "tcp" => Ok(Proto::Tcp),
        "udp" => Ok(Proto::Udp),
        other => {
            let n = other
                .strip_prefix("ip-proto-")
                .and_then(|v| v.parse::<u8>().ok())
                .ok_or(Error::Malformed {
                    what: "conn.log proto",
                    detail: "expected tcp, udp or ip-proto-N",
                })?;
            Ok(Proto::from_number(n))
        }
    }
}

/// A deterministic Zeek-style connection UID (`C` + base-62ish digest).
/// Zeek's UIDs are random; ours are a stable function of the flow key and
/// start time so serialization is reproducible.
pub fn uid(f: &FlowRecord) -> String {
    let mut x = f.ts.micros() as u64;
    for part in [
        u64::from(u32::from(f.orig)),
        u64::from(f.orig_port),
        u64::from(u32::from(f.resp)),
        u64::from(f.resp_port),
        u64::from(f.proto.number()),
    ] {
        x ^= part;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
    }
    const ALPHABET: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    let mut out = String::from("C");
    for _ in 0..11 {
        out.push(ALPHABET[(x % 62) as usize] as char);
        x /= 62;
    }
    out
}

/// Serialize flows as a `conn.log` (header block + rows).
pub fn write_conn_log<'a, I: IntoIterator<Item = &'a FlowRecord>>(flows: I) -> String {
    let mut out = String::new();
    out.push_str("#separator \\x09\n");
    out.push_str("#set_separator\t,\n#empty_field\t(empty)\n#unset_field\t-\n");
    out.push_str("#path\tconn\n");
    out.push_str("#fields");
    for f in FIELDS {
        out.push('\t');
        out.push_str(f);
    }
    out.push('\n');
    for f in flows {
        let _ = writeln!(
            out,
            "{}.{:06}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6}\t{}\t{}\t{}\t{}",
            f.ts.secs(),
            f.ts.subsec_micros(),
            uid(f),
            f.orig,
            f.orig_port,
            f.resp,
            f.resp_port,
            proto_name(f.proto),
            f.duration_secs(),
            f.orig_bytes,
            f.resp_bytes,
            f.orig_pkts,
            f.resp_pkts
        );
    }
    out.push_str("#close\n");
    out
}

/// Parse a `ts` column: whole seconds, a dot, and exactly six digits of
/// microseconds (what [`write_conn_log`] and Zeek write), within the
/// range an `i64` of microseconds can hold.
fn parse_ts(s: &str) -> Option<Timestamp> {
    let (secs, micros) = s.split_once('.')?;
    if micros.len() != 6 || !micros.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Timestamp::checked_from_secs_micros(secs.parse().ok()?, micros.parse().ok()?)
}

/// Parse a `duration` column (fractional seconds) into microseconds:
/// finite, not negative, and within `i64` microseconds.
fn parse_duration(s: &str) -> Option<i64> {
    let secs: f64 = s.parse().ok()?;
    if !(secs.is_finite() && secs >= 0.0) {
        return None;
    }
    let micros = (secs * 1e6).round();
    // `i64::MAX as f64` rounds up to 2^63, which is itself out of range.
    (micros < i64::MAX as f64).then_some(micros as i64)
}

/// Parse a `conn.log` produced by [`write_conn_log`] (or by Zeek with at
/// least our field set, in our column order). Rows whose values do not
/// fit a [`FlowRecord`] (a timestamp outside `i64` microseconds, a
/// fraction that is not six digits, a duration that is not a finite,
/// non-negative `i64` of microseconds) are rejected, never wrapped.
pub fn parse_conn_log(text: &str) -> Result<Vec<FlowRecord>> {
    let bad = |detail| Error::Malformed {
        what: "conn.log",
        detail,
    };
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < FIELDS.len() {
            return Err(bad("row has too few columns"));
        }
        let ts = parse_ts(cols[0]).ok_or(bad("ts not s.uuuuuu in the i64 microsecond range"))?;
        let orig: Ipv4Addr = cols[2].parse().map_err(|_| bad("bad orig_h"))?;
        let orig_port: u16 = cols[3].parse().map_err(|_| bad("bad orig_p"))?;
        let resp: Ipv4Addr = cols[4].parse().map_err(|_| bad("bad resp_h"))?;
        let resp_port: u16 = cols[5].parse().map_err(|_| bad("bad resp_p"))?;
        let proto = parse_proto(cols[6])?;
        let duration_micros = parse_duration(cols[7]).ok_or(bad("bad duration"))?;
        let orig_bytes: u64 = cols[8].parse().map_err(|_| bad("bad orig_bytes"))?;
        let resp_bytes: u64 = cols[9].parse().map_err(|_| bad("bad resp_bytes"))?;
        let orig_pkts: u32 = cols[10].parse().map_err(|_| bad("bad orig_pkts"))?;
        let resp_pkts: u32 = cols[11].parse().map_err(|_| bad("bad resp_pkts"))?;
        out.push(FlowRecord {
            ts,
            duration_micros,
            orig,
            orig_port,
            resp,
            resp_port,
            proto,
            orig_bytes,
            resp_bytes,
            orig_pkts,
            resp_pkts,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(port: u16, proto: Proto) -> FlowRecord {
        FlowRecord {
            ts: Timestamp::from_secs_micros(1_580_515_200, 123_456),
            duration_micros: 2_718_281,
            orig: Ipv4Addr::new(10, 40, 1, 2),
            orig_port: port,
            resp: Ipv4Addr::new(34, 18, 0, 99),
            resp_port: 443,
            proto,
            orig_bytes: 1234,
            resp_bytes: 567_890,
            orig_pkts: 17,
            resp_pkts: 410,
        }
    }

    #[test]
    fn roundtrip() {
        let flows = vec![
            sample(50_000, Proto::Tcp),
            sample(50_001, Proto::Udp),
            sample(0, Proto::Other(47)),
        ];
        let text = write_conn_log(&flows);
        let parsed = parse_conn_log(&text).unwrap();
        assert_eq!(parsed, flows);
    }

    #[test]
    fn header_shape() {
        let text = write_conn_log(&[sample(1, Proto::Tcp)]);
        assert!(text.starts_with("#separator"));
        assert!(text.contains("#path\tconn"));
        assert!(text.contains("#fields\tts\tuid\tid.orig_h"));
        assert!(text.trim_end().ends_with("#close"));
        // Exactly one data row.
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 1);
    }

    #[test]
    fn uid_is_stable_and_distinct() {
        let a = uid(&sample(1, Proto::Tcp));
        let b = uid(&sample(1, Proto::Tcp));
        let c = uid(&sample(2, Proto::Tcp));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with('C'));
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_conn_log("1.0\tC\tbad").is_err());
        assert!(parse_conn_log("notts\tC\t1.2.3.4\t1\t5.6.7.8\t2\ttcp\t0.1\t1\t2\t3\t4").is_err());
        assert!(parse_conn_log("1.0\tC\t1.2.3.4\t1\t5.6.7.8\t2\tsctp\t0.1\t1\t2\t3\t4").is_err());
        // Hostile timestamps and durations are rejected, not wrapped,
        // saturated or misread.
        let row = |ts: &str, duration: &str| {
            format!("{ts}\tC\t1.2.3.4\t1\t5.6.7.8\t2\ttcp\t{duration}\t1\t2\t3\t4")
        };
        let ok = parse_conn_log(&row("-1.500000", "0.000001")).unwrap();
        assert_eq!(ok[0].ts, Timestamp::from_micros(-500_000));
        assert_eq!(ok[0].duration_micros, 1);
        // The largest representable instant is accepted.
        let last = parse_conn_log(&row("9223372036854.775807", "0.0")).unwrap();
        assert_eq!(last[0].ts, Timestamp::from_micros(i64::MAX));
        for (ts, duration) in [
            ("9223372036854775807.000000", "0.1"), // seconds overflow i64 µs
            ("-9223372036854775808.000000", "0.1"), // i64::MIN seconds
            ("-9223372036855.000000", "0.1"),      // and underflow it
            ("9223372036854.775808", "0.1"),       // fraction tips it over
            ("1580515200.5", "0.1"),               // not six digits
            ("1580515200.4294967295", "0.1"),
            ("1580515200.+12345", "0.1"),
            ("1580515200", "0.1"),
            ("1580515200.000000", "NaN"),
            ("1580515200.000000", "inf"),
            ("1580515200.000000", "1e300"),
            ("1580515200.000000", "9223372036854.775807"),
            ("1580515200.000000", "-5"),
        ] {
            assert!(
                parse_conn_log(&row(ts, duration)).is_err(),
                "accepted ts {ts} duration {duration}"
            );
        }
        // Comments-only is fine.
        assert_eq!(parse_conn_log("#close\n").unwrap().len(), 0);
    }

    #[test]
    fn ip_proto_names_roundtrip() {
        assert_eq!(parse_proto("tcp").unwrap(), Proto::Tcp);
        assert_eq!(parse_proto("udp").unwrap(), Proto::Udp);
        assert_eq!(parse_proto("ip-proto-47").unwrap(), Proto::Other(47));
        assert_eq!(proto_name(Proto::Other(47)), "ip-proto-47");
    }
}
