//! Nintendo Switch detection.
//!
//! §5.3.2: "we classify devices in our dataset as Switches if at least
//! 50% of their traffic is to the identified Nintendo servers." The
//! Nintendo domain inventory comes from the application-signature
//! catalogue (both the gameplay and the update/download domains count
//! toward detection; only gameplay counts in Figure 8).

use appsig::App;
use nettrace::{Day, DeviceId, DeviceMap, StudyCalendar, Timestamp};

/// The detection threshold (fraction of total bytes to Nintendo servers).
pub const SWITCH_THRESHOLD: f64 = 0.5;

/// Per-device accumulation for Switch detection.
#[derive(Debug, Clone, Copy, Default)]
struct SwitchScore {
    nintendo_bytes: u64,
    total_bytes: u64,
    first_seen: Option<Timestamp>,
    last_seen: Option<Timestamp>,
}

impl SwitchScore {
    fn merge(&mut self, s: SwitchScore) {
        self.nintendo_bytes += s.nintendo_bytes;
        self.total_bytes += s.total_bytes;
        self.first_seen = match (self.first_seen, s.first_seen) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_seen = match (self.last_seen, s.last_seen) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Streaming Switch detector over classified flows: one score per device
/// in dense slots.
#[derive(Debug, Default)]
pub struct SwitchDetector {
    scores: DeviceMap<SwitchScore>,
}

impl SwitchDetector {
    /// Empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a flow: `app` is the signature classification (or `None`),
    /// `bytes` the flow's total bytes.
    pub fn observe(&mut self, device: DeviceId, ts: Timestamp, app: Option<App>, bytes: u64) {
        let slot = self.slot(device);
        self.observe_at(slot, ts, app, bytes);
    }

    /// The device's slot for [`observe_at`](Self::observe_at), assigned on
    /// first sight; it stays valid as the detector grows and merges.
    pub fn slot(&mut self, device: DeviceId) -> usize {
        self.scores.slot(device)
    }

    /// [`observe`](Self::observe) for the device at `slot`.
    pub fn observe_at(&mut self, slot: usize, ts: Timestamp, app: Option<App>, bytes: u64) {
        let s = self.scores.at_mut(slot);
        s.total_bytes += bytes;
        if matches!(app, Some(App::SwitchGameplay | App::SwitchServices)) {
            s.nintendo_bytes += bytes;
        }
        s.first_seen = Some(s.first_seen.map_or(ts, |t| t.min(ts)));
        s.last_seen = Some(s.last_seen.map_or(ts, |t| t.max(ts)));
    }

    /// Is this device a Switch (at the default threshold)?
    pub fn is_switch(&self, device: DeviceId) -> bool {
        self.is_switch_at(device, SWITCH_THRESHOLD)
    }

    /// Threshold-parameterized variant for the ablation bench.
    pub fn is_switch_at(&self, device: DeviceId, threshold: f64) -> bool {
        self.scores.get(&device).is_some_and(|s| {
            s.total_bytes > 0 && s.nintendo_bytes as f64 / s.total_bytes as f64 >= threshold
        })
    }

    /// All detected Switch devices.
    pub fn switches(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self
            .scores
            .keys()
            .copied()
            .filter(|&d| self.is_switch(d))
            .collect();
        v.sort();
        v
    }

    /// The study day a Switch first appeared, if detected.
    pub fn first_seen_day(&self, device: DeviceId) -> Option<Day> {
        let s = self.scores.get(&device)?;
        StudyCalendar::day_of(s.first_seen?)
    }

    /// Switches that first appeared on or after `day` — the paper counts
    /// "40 new Switches that first appeared in April and May".
    pub fn new_switches_since(&self, day: Day) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self
            .switches()
            .into_iter()
            .filter(|&d| self.first_seen_day(d).is_some_and(|f| f >= day))
            .collect();
        v.sort();
        v
    }

    /// Merge another detector (parallel reduction).
    pub fn merge(&mut self, other: SwitchDetector) {
        self.scores.merge_with(other.scores, SwitchScore::merge);
    }

    /// Number of devices observed (Switch or not).
    pub fn observed_devices(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(day: u16) -> Timestamp {
        Day(day).start()
    }

    #[test]
    fn majority_nintendo_traffic_is_a_switch() {
        let mut d = SwitchDetector::new();
        let dev = DeviceId(1);
        d.observe(dev, ts(0), Some(App::SwitchGameplay), 600);
        d.observe(dev, ts(0), None, 400);
        assert!(d.is_switch(dev));
        assert_eq!(d.switches(), vec![dev]);
    }

    #[test]
    fn services_traffic_counts_toward_detection() {
        let mut d = SwitchDetector::new();
        let dev = DeviceId(2);
        d.observe(dev, ts(0), Some(App::SwitchServices), 600);
        d.observe(dev, ts(0), None, 400);
        assert!(d.is_switch(dev));
    }

    #[test]
    fn minority_nintendo_traffic_is_not_a_switch() {
        let mut d = SwitchDetector::new();
        let dev = DeviceId(3);
        // A laptop that also plays some Nintendo online service.
        d.observe(dev, ts(0), Some(App::SwitchGameplay), 400);
        d.observe(dev, ts(0), None, 600);
        assert!(!d.is_switch(dev));
        assert!(d.is_switch_at(dev, 0.3)); // but a looser threshold flips it
    }

    #[test]
    fn first_seen_day_tracks_minimum() {
        let mut d = SwitchDetector::new();
        let dev = DeviceId(4);
        d.observe(dev, ts(70), Some(App::SwitchGameplay), 100);
        d.observe(dev, ts(65), Some(App::SwitchGameplay), 100);
        assert_eq!(d.first_seen_day(dev), Some(Day(65)));
        // April starts on study day 60.
        assert_eq!(d.new_switches_since(Day(60)), vec![dev]);
        assert!(d.new_switches_since(Day(66)).is_empty());
    }

    #[test]
    fn merge_equals_sequential() {
        let dev = DeviceId(5);
        let mut a = SwitchDetector::new();
        let mut b = SwitchDetector::new();
        a.observe(dev, ts(10), Some(App::SwitchGameplay), 700);
        b.observe(dev, ts(5), None, 300);
        a.merge(b);
        assert!(a.is_switch(dev));
        assert_eq!(a.first_seen_day(dev), Some(Day(5)));
        assert_eq!(a.observed_devices(), 1);
    }
}
