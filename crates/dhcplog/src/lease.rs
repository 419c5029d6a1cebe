//! DHCP lease events and the on-disk lease log.
//!
//! The campus pipeline "normalizes dynamic IP addresses to per-device MAC
//! addresses using contemporaneous DHCP logs" (§3). This module models the
//! log itself: a time-ordered stream of lease events, serializable to a
//! simple line-oriented text format so integration tests and examples can
//! write and re-read logs the way the production system consumes syslog.

use nettrace::{Error, MacAddr, Result, Timestamp};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// What happened to a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeaseAction {
    /// The server bound `ip` to `mac` (DHCPACK on a new or moved binding).
    Assign,
    /// The device renewed an existing binding.
    Renew,
    /// The device released the address (or the server expired the lease).
    Release,
}

impl LeaseAction {
    fn as_str(self) -> &'static str {
        match self {
            LeaseAction::Assign => "ASSIGN",
            LeaseAction::Renew => "RENEW",
            LeaseAction::Release => "RELEASE",
        }
    }
}

impl FromStr for LeaseAction {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "ASSIGN" => Ok(LeaseAction::Assign),
            "RENEW" => Ok(LeaseAction::Renew),
            "RELEASE" => Ok(LeaseAction::Release),
            _ => Err(Error::Malformed {
                what: "lease action",
                detail: "expected ASSIGN, RENEW or RELEASE",
            }),
        }
    }
}

/// One line of the DHCP log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseEvent {
    /// When the event happened.
    pub ts: Timestamp,
    /// The action.
    pub action: LeaseAction,
    /// The dynamic address.
    pub ip: Ipv4Addr,
    /// The hardware address of the client.
    pub mac: MacAddr,
}

impl fmt::Display for LeaseEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:06} {} {} {}",
            self.ts.secs(),
            self.ts.subsec_micros(),
            self.action.as_str(),
            self.ip,
            self.mac
        )
    }
}

impl FromStr for LeaseEvent {
    type Err = Error;

    fn from_str(line: &str) -> Result<Self> {
        let mut parts = line.split_whitespace();
        let bad = |detail| Error::Malformed {
            what: "lease event",
            detail,
        };
        let ts_str = parts.next().ok_or(bad("missing timestamp"))?;
        let (secs, micros) = ts_str.split_once('.').ok_or(bad("timestamp not s.us"))?;
        let secs: i64 = secs.parse().map_err(|_| bad("bad seconds"))?;
        let micros: u32 = micros.parse().map_err(|_| bad("bad microseconds"))?;
        if micros >= 1_000_000 {
            return Err(bad("microseconds out of range"));
        }
        let ts = Timestamp::checked_from_secs_micros(secs, micros)
            .ok_or(bad("timestamp out of range"))?;
        let action: LeaseAction = parts.next().ok_or(bad("missing action"))?.parse()?;
        let ip: Ipv4Addr = parts
            .next()
            .ok_or(bad("missing ip"))?
            .parse()
            .map_err(|_| bad("bad ip"))?;
        let mac: MacAddr = parts.next().ok_or(bad("missing mac"))?.parse()?;
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        Ok(LeaseEvent {
            ts,
            action,
            ip,
            mac,
        })
    }
}

/// Serialize events to the line format.
pub fn write_log<'a, I: IntoIterator<Item = &'a LeaseEvent>>(events: I) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Parse a full log; blank lines and `#` comments are skipped.
pub fn parse_log(text: &str) -> Result<Vec<LeaseEvent>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(LeaseEvent::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(secs: i64, action: LeaseAction) -> LeaseEvent {
        LeaseEvent {
            ts: Timestamp::from_secs_micros(secs, 123),
            action,
            ip: Ipv4Addr::new(10, 40, 1, 55),
            mac: MacAddr::new(0, 0x1a, 0x2b, 1, 2, 3),
        }
    }

    #[test]
    fn event_roundtrip() {
        for action in [
            LeaseAction::Assign,
            LeaseAction::Renew,
            LeaseAction::Release,
        ] {
            let e = ev(1_580_515_200, action);
            let s = e.to_string();
            assert_eq!(s.parse::<LeaseEvent>().unwrap(), e, "line: {s}");
        }
    }

    #[test]
    fn log_roundtrip_with_comments() {
        let events = vec![ev(1, LeaseAction::Assign), ev(2, LeaseAction::Release)];
        let mut text = String::from("# campus dhcp log\n\n");
        text.push_str(&write_log(&events));
        assert_eq!(parse_log(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<LeaseEvent>().is_err());
        assert!("123 ASSIGN 10.0.0.1 aa:bb:cc:dd:ee:ff"
            .parse::<LeaseEvent>()
            .is_err()); // timestamp missing micros
        assert!("1.0 GRANT 10.0.0.1 aa:bb:cc:dd:ee:ff"
            .parse::<LeaseEvent>()
            .is_err());
        assert!("1.0 ASSIGN 10.0.0.300 aa:bb:cc:dd:ee:ff"
            .parse::<LeaseEvent>()
            .is_err());
        assert!("1.0 ASSIGN 10.0.0.1 aa:bb:cc:dd:ee:ff extra"
            .parse::<LeaseEvent>()
            .is_err());
        assert!("1.9999999 ASSIGN 10.0.0.1 aa:bb:cc:dd:ee:ff"
            .parse::<LeaseEvent>()
            .is_err());
        // Seconds whose microseconds overflow an i64 are rejected, not
        // wrapped; the largest representable instant is accepted.
        for ts in [
            "9223372036854775807.0",
            "-9223372036854775808.0",
            "9223372036854.775808",
        ] {
            let line = format!("{ts} ASSIGN 10.40.0.1 00:11:22:33:44:55");
            assert!(line.parse::<LeaseEvent>().is_err(), "accepted {ts}");
        }
        let last: LeaseEvent = "9223372036854.775807 ASSIGN 10.40.0.1 00:11:22:33:44:55"
            .parse()
            .unwrap();
        assert_eq!(last.ts, Timestamp::from_micros(i64::MAX));
    }
}
