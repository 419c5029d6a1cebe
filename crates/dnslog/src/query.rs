//! DNS query-log records and codec.
//!
//! Each record is one successful A-record resolution observed at the
//! campus resolver: which device asked, when, for what name, and which
//! addresses came back. Only the fields the pipeline consumes are kept.

use crate::domain::{DomainId, DomainName, DomainTable};
use nettrace::{DeviceId, Error, Result, Timestamp};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;

/// One resolved query.
///
/// A query owns its answer set but, up to [`INLINE_ANSWERS`] addresses,
/// holds it in place: building, cloning and dropping such a query never
/// touches the heap, so a generator can hand one out per resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuery {
    /// When the answer was observed.
    pub ts: Timestamp,
    /// The (anonymized) requesting device.
    pub device: DeviceId,
    /// The interned query name.
    pub qname: DomainId,
    /// A-record answers.
    pub answers: Answers,
}

/// How many addresses an [`Answers`] set stores without a heap
/// allocation: at least the largest rrset the synthetic campus's service
/// directory hands out (six, its Zoom hosts). Only a parsed log line can
/// name more.
pub const INLINE_ANSWERS: usize = 6;

/// A query's A-record answer set: up to [`INLINE_ANSWERS`] addresses
/// stored inline, more on the heap.
///
/// The storage never shows. A set derefs to `[Ipv4Addr]`, compares by
/// its addresses and prints like a slice, and every constructor keeps a
/// set that fits inline there.
#[derive(Clone)]
pub struct Answers(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ips: [Ipv4Addr; INLINE_ANSWERS],
    },
    Heap(Vec<Ipv4Addr>),
}

impl Answers {
    fn new() -> Self {
        Answers(Repr::Inline {
            len: 0,
            ips: [Ipv4Addr::UNSPECIFIED; INLINE_ANSWERS],
        })
    }

    fn push(&mut self, ip: Ipv4Addr) {
        match &mut self.0 {
            Repr::Inline { len, ips } if usize::from(*len) < INLINE_ANSWERS => {
                ips[usize::from(*len)] = ip;
                *len += 1;
            }
            Repr::Inline { ips, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_ANSWERS);
                spilled.extend_from_slice(ips);
                spilled.push(ip);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(spilled) => spilled.push(ip),
        }
    }
}

impl Deref for Answers {
    type Target = [Ipv4Addr];

    fn deref(&self) -> &[Ipv4Addr] {
        match &self.0 {
            Repr::Inline { len, ips } => &ips[..usize::from(*len)],
            Repr::Heap(spilled) => spilled,
        }
    }
}

impl FromIterator<Ipv4Addr> for Answers {
    fn from_iter<I: IntoIterator<Item = Ipv4Addr>>(iter: I) -> Self {
        let mut set = Answers::new();
        for ip in iter {
            set.push(ip);
        }
        set
    }
}

impl From<&[Ipv4Addr]> for Answers {
    fn from(ips: &[Ipv4Addr]) -> Self {
        ips.iter().copied().collect()
    }
}

impl From<Vec<Ipv4Addr>> for Answers {
    fn from(ips: Vec<Ipv4Addr>) -> Self {
        if ips.len() > INLINE_ANSWERS {
            Answers(Repr::Heap(ips))
        } else {
            ips.as_slice().into()
        }
    }
}

impl PartialEq for Answers {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Answers {}

impl fmt::Debug for Answers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Serialize queries to a line format:
/// `secs.micros dev:<hex> <name> <ip>[,<ip>...]`.
pub fn write_log<'a, I>(queries: I, table: &DomainTable) -> String
where
    I: IntoIterator<Item = &'a DnsQuery>,
{
    let mut out = String::new();
    for q in queries {
        out.push_str(&format!(
            "{}.{:06} {} {} ",
            q.ts.secs(),
            q.ts.subsec_micros(),
            q.device,
            table.name(q.qname)
        ));
        for (i, ip) in q.answers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ip.to_string());
        }
        out.push('\n');
    }
    out
}

/// Parse a log produced by [`write_log`], interning names into `table`.
/// Blank lines and `#` comments are skipped.
pub fn parse_log(text: &str, table: &mut DomainTable) -> Result<Vec<DnsQuery>> {
    let bad = |detail| Error::Malformed {
        what: "dns query",
        detail,
    };
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let ts_str = parts.next().ok_or(bad("missing timestamp"))?;
        let (secs, micros) = ts_str.split_once('.').ok_or(bad("timestamp not s.us"))?;
        let secs: i64 = secs.parse().map_err(|_| bad("bad seconds"))?;
        let micros: u32 = micros.parse().map_err(|_| bad("bad microseconds"))?;
        if micros >= 1_000_000 {
            return Err(bad("microseconds out of range"));
        }
        let ts = Timestamp::checked_from_secs_micros(secs, micros)
            .ok_or(bad("timestamp out of range"))?;
        let dev_str = parts.next().ok_or(bad("missing device"))?;
        let dev_hex = dev_str
            .strip_prefix("dev:")
            .ok_or(bad("device token missing dev: prefix"))?;
        let device = DeviceId(u64::from_str_radix(dev_hex, 16).map_err(|_| bad("bad device hex"))?);
        let name = DomainName::parse(parts.next().ok_or(bad("missing qname"))?)?;
        let qname = table.intern(name);
        let answers_str = parts.next().ok_or(bad("missing answers"))?;
        let answers: Answers = answers_str
            .split(',')
            .map(|s| s.parse().map_err(|_| bad("bad answer ip")))
            .collect::<Result<_>>()?;
        if answers.is_empty() {
            return Err(bad("no answers"));
        }
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        out.push(DnsQuery {
            ts,
            device,
            qname,
            answers,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_roundtrip() {
        let mut table = DomainTable::new();
        let zoom = table.intern_str("us04web.zoom.us").unwrap();
        let fb = table.intern_str("edge-chat.facebook.com").unwrap();
        let queries = vec![
            DnsQuery {
                ts: Timestamp::from_secs_micros(1_580_515_200, 42),
                device: DeviceId(0xdead_beef),
                qname: zoom,
                answers: vec![Ipv4Addr::new(3, 235, 69, 1)].into(),
            },
            DnsQuery {
                ts: Timestamp::from_secs_micros(1_580_515_201, 0),
                device: DeviceId(1),
                qname: fb,
                answers: vec![Ipv4Addr::new(157, 240, 1, 1), Ipv4Addr::new(157, 240, 1, 2)].into(),
            },
        ];
        let text = write_log(&queries, &table);
        let mut table2 = DomainTable::new();
        let parsed = parse_log(&text, &mut table2).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].device, DeviceId(0xdead_beef));
        assert_eq!(table2.name(parsed[0].qname).as_str(), "us04web.zoom.us");
        assert_eq!(parsed[1].answers.len(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        let mut t = DomainTable::new();
        assert!(parse_log("1.0 nodev zoom.us 1.2.3.4", &mut t).is_err());
        assert!(parse_log("1.0 dev:zz zoom.us 1.2.3.4", &mut t).is_err());
        assert!(parse_log("1.0 dev:1 zoom.us 1.2.3.999", &mut t).is_err());
        assert!(parse_log("1.0 dev:1 zoom.us", &mut t).is_err());
        assert!(parse_log("nots dev:1 zoom.us 1.2.3.4", &mut t).is_err());
        // Seconds whose microseconds overflow an i64 are rejected, not
        // wrapped; the largest representable instant is accepted.
        for ts in [
            "9223372036854775807.0",
            "-9223372036854775808.0",
            "9223372036854.775808",
        ] {
            let line = format!("{ts} dev:1 zoom.us 1.2.3.4");
            assert!(parse_log(&line, &mut t).is_err(), "accepted {ts}");
        }
        let last = parse_log("9223372036854.775807 dev:1 zoom.us 1.2.3.4", &mut t).unwrap();
        assert_eq!(last[0].ts, Timestamp::from_micros(i64::MAX));
        // Comments and blanks are fine.
        assert_eq!(parse_log("# hi\n\n", &mut t).unwrap().len(), 0);
    }
}
