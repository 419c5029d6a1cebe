//! User-Agent string analysis.
//!
//! The campus pipeline inspects User-Agent strings observed in cleartext
//! HTTP metadata (§3). This parser extracts the operating-system family,
//! which maps directly onto the mobile/desktop split the study needs.

use crate::types::DeviceType;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The User-Agent strings seen from one device, in first-seen order; it
/// reads as a slice. Most devices show one string, which is held inline,
/// so a profile with one User-Agent owns no buffer of its own: a study
/// builds and merges a profile per device per day, and none of them
/// allocates or frees one.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct UserAgents(Repr);

#[derive(Clone, Default, PartialEq, Eq)]
enum Repr {
    #[default]
    None,
    One(Arc<str>),
    Many(Vec<Arc<str>>),
}

impl UserAgents {
    /// The strings, in first-seen order.
    pub fn as_slice(&self) -> &[Arc<str>] {
        match &self.0 {
            Repr::None => &[],
            Repr::One(ua) => std::slice::from_ref(ua),
            Repr::Many(uas) => uas,
        }
    }

    /// Append `ua` (callers skip strings already present).
    pub fn push(&mut self, ua: Arc<str>) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::None => Repr::One(ua),
            Repr::One(first) => Repr::Many(vec![first, ua]),
            Repr::Many(mut uas) => {
                uas.push(ua);
                Repr::Many(uas)
            }
        };
    }
}

impl Deref for UserAgents {
    type Target = [Arc<str>];

    fn deref(&self) -> &[Arc<str>] {
        self.as_slice()
    }
}

impl fmt::Debug for UserAgents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Operating-system families recognizable from a User-Agent string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsFamily {
    /// Apple iOS / iPadOS.
    Ios,
    /// Android.
    Android,
    /// Microsoft Windows.
    Windows,
    /// Apple macOS.
    MacOs,
    /// Desktop Linux / BSD.
    Linux,
    /// Smart-TV / streaming-stick / console firmware.
    Embedded,
}

impl OsFamily {
    /// The device type an OS family implies.
    pub fn implied_type(self) -> DeviceType {
        match self {
            OsFamily::Ios | OsFamily::Android => DeviceType::Mobile,
            OsFamily::Windows | OsFamily::MacOs | OsFamily::Linux => DeviceType::LaptopDesktop,
            OsFamily::Embedded => DeviceType::Iot,
        }
    }
}

/// Parse the OS family out of a User-Agent string, if recognizable.
///
/// Order matters: mobile markers are checked before desktop markers
/// because Android UAs contain "Linux" and iPad UAs may claim
/// "Macintosh" (desktop-site mode is deliberately *not* unmasked — the
/// production heuristic has the same blind spot, which feeds the paper's
/// error analysis).
pub fn parse_os(ua: &str) -> Option<OsFamily> {
    // Embedded/console firmware first: these UAs often embed "Linux" too.
    const EMBEDDED_MARKERS: &[&str] = &[
        "SMART-TV",
        "SmartTV",
        "Roku",
        "AppleTV",
        "CrKey", // Chromecast
        "PlayStation",
        "Xbox",
        "Nintendo",
        "BRAVIA",
        "AmazonWebAppPlatform", // Fire TV / Echo Show
        "Silk/",                // Amazon Silk
    ];
    for m in EMBEDDED_MARKERS {
        if ua.contains(m) {
            return Some(OsFamily::Embedded);
        }
    }
    if ua.contains("iPhone") || ua.contains("iPad") || ua.contains("iPod") {
        return Some(OsFamily::Ios);
    }
    if ua.contains("Android") {
        return Some(OsFamily::Android);
    }
    if ua.contains("Windows NT") || ua.contains("Windows; U") {
        return Some(OsFamily::Windows);
    }
    if ua.contains("Macintosh") || ua.contains("Mac OS X") {
        return Some(OsFamily::MacOs);
    }
    if ua.contains("X11;") || ua.contains("Linux x86_64") || ua.contains("CrOS") {
        return Some(OsFamily::Linux);
    }
    None
}

/// Combine several observed UAs into one verdict by majority vote over
/// the implied device types; ties and empty evidence abstain.
pub fn vote<S: AsRef<str>>(uas: &[S]) -> Option<DeviceType> {
    let mut counts: [(DeviceType, usize); 3] = [
        (DeviceType::Mobile, 0),
        (DeviceType::LaptopDesktop, 0),
        (DeviceType::Iot, 0),
    ];
    for ua in uas {
        if let Some(os) = parse_os(ua.as_ref()) {
            let t = os.implied_type();
            for slot in &mut counts {
                if slot.0 == t {
                    slot.1 += 1;
                }
            }
        }
    }
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let (best, best_n) = counts[0];
    let (_, second_n) = counts[1];
    (best_n > 0 && best_n > second_n).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    const IPHONE: &str = "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/13.0.5 Mobile/15E148 Safari/604.1";
    const ANDROID: &str = "Mozilla/5.0 (Linux; Android 10; Pixel 3) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/80.0.3987.99 Mobile Safari/537.36";
    const WINDOWS: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/80.0.3987.122 Safari/537.36";
    const MACOS: &str = "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_3) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/13.0.5 Safari/605.1.15";
    const LINUX: &str = "Mozilla/5.0 (X11; Linux x86_64; rv:73.0) Gecko/20100101 Firefox/73.0";
    const ROKU: &str = "Roku/DVP-9.10 (559.10E04111A)";
    const SWITCH: &str = "Mozilla/5.0 (Nintendo Switch; WebApplet) AppleWebKit/606.4 (KHTML, like Gecko) NF/6.0.1.15.4 NintendoBrowser/5.1.0.20393";

    #[test]
    fn os_families() {
        assert_eq!(parse_os(IPHONE), Some(OsFamily::Ios));
        assert_eq!(parse_os(ANDROID), Some(OsFamily::Android));
        assert_eq!(parse_os(WINDOWS), Some(OsFamily::Windows));
        assert_eq!(parse_os(MACOS), Some(OsFamily::MacOs));
        assert_eq!(parse_os(LINUX), Some(OsFamily::Linux));
        assert_eq!(parse_os(ROKU), Some(OsFamily::Embedded));
        assert_eq!(parse_os(SWITCH), Some(OsFamily::Embedded));
        assert_eq!(parse_os("curl/7.68.0"), None);
    }

    #[test]
    fn android_wins_over_its_linux_substring() {
        // Android UAs contain "Linux; Android ..." — must not parse Linux.
        assert_eq!(parse_os(ANDROID), Some(OsFamily::Android));
    }

    #[test]
    fn iphone_wins_over_its_macos_substring() {
        // iPhone UAs contain "like Mac OS X" — must not parse macOS.
        assert_eq!(parse_os(IPHONE), Some(OsFamily::Ios));
    }

    #[test]
    fn implied_types() {
        assert_eq!(OsFamily::Ios.implied_type(), DeviceType::Mobile);
        assert_eq!(OsFamily::Windows.implied_type(), DeviceType::LaptopDesktop);
        assert_eq!(OsFamily::Embedded.implied_type(), DeviceType::Iot);
    }

    #[test]
    fn vote_majority_and_ties() {
        let uas = vec![IPHONE.to_string(), IPHONE.to_string(), WINDOWS.to_string()];
        assert_eq!(vote(&uas), Some(DeviceType::Mobile));
        let tie = vec![IPHONE.to_string(), WINDOWS.to_string()];
        assert_eq!(vote(&tie), None);
        assert_eq!(vote::<String>(&[]), None);
        let unknown = vec!["curl/7.68.0".to_string()];
        assert_eq!(vote(&unknown), None);
    }

    #[test]
    fn user_agents_read_as_a_slice_in_first_seen_order() {
        let mut uas = UserAgents::default();
        assert!(uas.is_empty());
        uas.push(IPHONE.into());
        assert_eq!(uas.len(), 1);
        assert_eq!(vote(uas.as_slice()), Some(DeviceType::Mobile));
        uas.push(WINDOWS.into());
        uas.push("curl/7.68.0".into());
        let strs: Vec<&str> = uas.iter().map(|u| &**u).collect();
        assert_eq!(strs, [IPHONE, WINDOWS, "curl/7.68.0"]);
        assert!(uas.contains(&Arc::from(WINDOWS)));
        assert_eq!(format!("{uas:?}"), format!("{strs:?}"));
    }
}
