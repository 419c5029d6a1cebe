//! Nintendo Switch detection.
//!
//! §5.3.2: "we classify devices in our dataset as Switches if at least
//! 50% of their traffic is to the identified Nintendo servers." The
//! Nintendo domain inventory comes from the application-signature
//! catalogue (both the gameplay and the update/download domains count
//! toward detection; only gameplay counts in Figure 8).

use appsig::App;
use nettrace::{Day, SlotValues, StudyCalendar, Timestamp};

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

    fn is_switch(&self) -> bool {
        self.total_bytes > 0
            && self.nintendo_bytes as f64 / self.total_bytes as f64 >= SWITCH_THRESHOLD
    }
}

/// Streaming Switch detector over classified flows: one score per
/// device slot that saw a flow, indexed by the collector's slots.
#[derive(Debug, Default)]
pub struct SwitchDetector {
    scores: SlotValues<SwitchScore>,
}

impl SwitchDetector {
    /// Empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a flow of the device at `slot`: `app` is the signature
    /// classification (or `None`), `bytes` the flow's total bytes.
    pub fn observe(&mut self, slot: usize, ts: Timestamp, app: Option<App>, bytes: u64) {
        let s = self.scores.entry(slot);
        s.total_bytes += bytes;
        if matches!(app, Some(App::SwitchGameplay | App::SwitchServices)) {
            s.nintendo_bytes += bytes;
        }
        s.first_seen = Some(s.first_seen.map_or(ts, |t| t.min(ts)));
        s.last_seen = Some(s.last_seen.map_or(ts, |t| t.max(ts)));
    }

    /// The slots of all detected Switches, in the order they were first
    /// seen.
    pub fn switches(&self) -> impl Iterator<Item = usize> + '_ {
        self.scores
            .iter()
            .filter(|(_, s)| s.is_switch())
            .map(|(slot, _)| slot)
    }

    /// The study day a Switch first appeared, if detected.
    pub fn first_seen_day(&self, slot: usize) -> Option<Day> {
        StudyCalendar::day_of(self.scores.get(slot)?.first_seen?)
    }

    /// Switches that first appeared on or after `day` — the paper counts
    /// "40 new Switches that first appeared in April and May".
    pub fn new_switches_since(&self, day: Day) -> impl Iterator<Item = usize> + '_ {
        self.switches()
            .filter(move |&s| self.first_seen_day(s).is_some_and(|f| f >= day))
    }

    /// One past the highest slot with a flow.
    pub fn slot_bound(&self) -> usize {
        self.scores.slot_bound()
    }

    /// Fold another detector in, its slot `i` being this detector's
    /// `slots[i]`.
    pub fn merge(&mut self, other: SwitchDetector, slots: &[usize]) {
        self.scores
            .merge_with(other.scores, slots, SwitchScore::merge);
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
        d.observe(1, ts(0), Some(App::SwitchGameplay), 600);
        d.observe(1, ts(0), None, 400);
        // Slot 0 saw no flow.
        assert_eq!(d.switches().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn services_traffic_counts_toward_detection() {
        let mut d = SwitchDetector::new();
        d.observe(0, ts(0), Some(App::SwitchServices), 600);
        d.observe(0, ts(0), None, 400);
        assert_eq!(d.switches().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn minority_nintendo_traffic_is_not_a_switch() {
        let mut d = SwitchDetector::new();
        // A laptop that also plays some Nintendo online service.
        d.observe(0, ts(0), Some(App::SwitchGameplay), 400);
        d.observe(0, ts(0), None, 600);
        assert_eq!(d.switches().count(), 0);
    }

    #[test]
    fn first_seen_day_tracks_minimum() {
        let mut d = SwitchDetector::new();
        d.observe(0, ts(70), Some(App::SwitchGameplay), 100);
        d.observe(0, ts(65), Some(App::SwitchGameplay), 100);
        assert_eq!(d.first_seen_day(0), Some(Day(65)));
        // April starts on study day 60.
        assert_eq!(d.new_switches_since(Day(60)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(d.new_switches_since(Day(66)).count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = SwitchDetector::new();
        let mut b = SwitchDetector::new();
        a.observe(0, ts(10), Some(App::SwitchGameplay), 700);
        b.observe(0, ts(5), None, 300);
        a.merge(b, &[0]);
        assert_eq!(a.switches().collect::<Vec<_>>(), vec![0]);
        assert_eq!(a.first_seen_day(0), Some(Day(5)));
    }
}
