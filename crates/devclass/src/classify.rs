//! The combining classifier.
//!
//! §3: "we classify individual on-campus MAC devices as being desktop,
//! mobile or IoT devices using multiple heuristics, including analysis of
//! User-Agent strings and organizationally unique identifiers (OUIs)
//! extracted from traffic data," with Saidi-style IoT detection at
//! threshold 0.5. "Such heuristics are inherently imperfect" — the
//! classifier abstains (Unclassified) whenever evidence is missing or
//! conflicting, which the paper's audit found to be the dominant error
//! mode.
//!
//! Evidence is combined in fixed priority order:
//!
//! 1. **User-Agent vote** — strongest signal when present;
//! 2. **IoT backend-traffic fraction** (Saidi et al., threshold 0.5);
//! 3. **Console traffic fraction** (the §5.3.2 Nintendo rule, which this
//!    crate generalizes to consoles);
//! 4. **OUI vendor class** — skipped for randomized (locally
//!    administered) MACs and for vendors shipping multiple classes.

use crate::iot::{IotScore, SAIDI_THRESHOLD};
use crate::oui::OuiDb;
use crate::types::DeviceType;
use crate::useragent::{self, UserAgents};
use nettrace::Oui;
use std::sync::Arc;

/// Everything the pipeline observed about one device.
#[derive(Debug, Clone, Default)]
pub struct DeviceProfile {
    /// Vendor prefix of the hardware address, if one was seen.
    pub oui: Option<Oui>,
    /// True when the MAC had the locally-administered bit set (randomized
    /// address); the OUI heuristic is then meaningless.
    pub locally_administered: bool,
    /// Deduplicated User-Agent strings observed in HTTP metadata, in
    /// first-seen order. Shared: a campus has few distinct strings, so
    /// collectors hand out one allocation per string.
    pub user_agents: UserAgents,
    /// Saidi-style IoT backend traffic score.
    pub iot: IotScore,
    /// Bytes to console (Nintendo et al.) servers.
    pub console_bytes: u64,
    /// Total bytes observed.
    pub total_bytes: u64,
}

impl DeviceProfile {
    /// Fraction of traffic to console servers.
    pub fn console_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.console_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Merge another profile for the same device (parallel reduction).
    pub fn merge(&mut self, other: DeviceProfile) {
        self.oui = self.oui.or(other.oui);
        self.locally_administered |= other.locally_administered;
        for ua in other.user_agents.iter() {
            if !self.user_agents.contains(ua) {
                self.user_agents.push(Arc::clone(ua));
            }
        }
        self.iot.merge(other.iot);
        self.console_bytes += other.console_bytes;
        self.total_bytes += other.total_bytes;
    }
}

/// The classifier. Stateless apart from the vendor database.
pub struct Classifier {
    oui_db: OuiDb,
    iot_threshold: f64,
    console_threshold: f64,
}

impl Classifier {
    /// Classifier with the paper's thresholds.
    pub fn new() -> Self {
        Classifier {
            oui_db: OuiDb::builtin(),
            iot_threshold: SAIDI_THRESHOLD,
            console_threshold: crate::switch::SWITCH_THRESHOLD,
        }
    }

    /// Override the IoT threshold (ablation bench).
    pub fn with_iot_threshold(mut self, t: f64) -> Self {
        self.iot_threshold = t;
        self
    }

    /// Classify one device profile.
    pub fn classify(&self, p: &DeviceProfile) -> DeviceType {
        // 1. User-Agent evidence.
        if let Some(t) = useragent::vote(p.user_agents.as_slice()) {
            return t;
        }
        // 2. IoT backend fraction.
        if p.iot.is_iot(self.iot_threshold) {
            return DeviceType::Iot;
        }
        // 3. Console traffic fraction.
        if p.total_bytes > 0 && p.console_fraction() >= self.console_threshold {
            return DeviceType::Console;
        }
        // 4. OUI vendor class, unless the address is randomized.
        if !p.locally_administered {
            if let Some(v) = p.oui.and_then(|o| self.oui_db.lookup(o)) {
                if let Some(t) = v.class.implied_type() {
                    return t;
                }
            }
        }
        DeviceType::Unclassified
    }

    /// Access to the vendor database.
    pub fn oui_db(&self) -> &OuiDb {
        &self.oui_db
    }
}

impl Default for Classifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oui::VendorClass;

    const IPHONE_UA: &str =
        "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X) AppleWebKit/605.1.15";

    fn profile() -> DeviceProfile {
        DeviceProfile::default()
    }

    #[test]
    fn ua_beats_everything() {
        let c = Classifier::new();
        let mut p = profile();
        p.user_agents.push(IPHONE_UA.into());
        // Heavy IoT traffic too — UA still wins (a phone controlling
        // smart-home gear must not become an IoT device).
        p.iot.add(1000, true);
        p.total_bytes = 1000;
        assert_eq!(c.classify(&p), DeviceType::Mobile);
    }

    #[test]
    fn iot_fraction_classifies_without_ua() {
        let c = Classifier::new();
        let mut p = profile();
        p.iot.add(900, true);
        p.iot.add(100, false);
        p.total_bytes = 1000;
        assert_eq!(c.classify(&p), DeviceType::Iot);
    }

    #[test]
    fn console_fraction_classifies() {
        let c = Classifier::new();
        let mut p = profile();
        p.console_bytes = 800;
        p.total_bytes = 1000;
        assert_eq!(c.classify(&p), DeviceType::Console);
    }

    #[test]
    fn oui_fallback() {
        let c = Classifier::new();
        let dell = c.oui_db().ouis_of_class(VendorClass::Computer)[0];
        let mut p = profile();
        p.oui = Some(dell);
        assert_eq!(c.classify(&p), DeviceType::LaptopDesktop);
    }

    #[test]
    fn randomized_mac_suppresses_oui() {
        let c = Classifier::new();
        let samsung = c.oui_db().ouis_of_class(VendorClass::Mobile)[0];
        let mut p = profile();
        p.oui = Some(samsung);
        p.locally_administered = true;
        assert_eq!(c.classify(&p), DeviceType::Unclassified);
    }

    #[test]
    fn ambiguous_vendor_abstains() {
        let c = Classifier::new();
        let apple = c.oui_db().ouis_of_class(VendorClass::Ambiguous)[0];
        let mut p = profile();
        p.oui = Some(apple);
        assert_eq!(c.classify(&p), DeviceType::Unclassified);
    }

    #[test]
    fn empty_profile_is_unclassified() {
        let c = Classifier::new();
        assert_eq!(c.classify(&profile()), DeviceType::Unclassified);
    }

    #[test]
    fn profile_merge_accumulates() {
        let mut a = profile();
        let mut b = profile();
        a.user_agents.push(IPHONE_UA.into());
        b.user_agents.push(IPHONE_UA.into()); // duplicate dedupes
        b.iot.add(10, true);
        b.total_bytes = 10;
        b.console_bytes = 3;
        a.merge(b);
        assert_eq!(a.user_agents.len(), 1);
        assert_eq!(a.iot.backend_bytes, 10);
        assert_eq!(a.total_bytes, 10);
        assert_eq!(a.console_bytes, 3);
    }
}
