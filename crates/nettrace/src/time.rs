//! The study clock and calendar.
//!
//! Every analysis in the paper is anchored to a four-month window —
//! February 1 through May 31, 2020 — punctuated by four events the figures
//! mark with vertical lines:
//!
//! * **3/4/20** — regional authorities issue a state of emergency
//! * **3/11/20** — the WHO declares COVID-19 a pandemic
//! * **3/19/20** — regional authorities issue a stay-at-home order
//! * **3/22/20 – 3/29/20** — academic break (classes resume *online* 3/30)
//!
//! The paper plots campus-local time; we therefore define the study clock
//! directly in local seconds and never convert time zones. [`Timestamp`] is
//! microsecond-resolution so packet captures round-trip losslessly, while
//! calendar arithmetic happens at second granularity.

use std::fmt;

/// Seconds per day.
pub const SECS_PER_DAY: i64 = 86_400;
/// Seconds per hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Hours in the figure-3 week (Thursday 00:00 through Wednesday 23:59).
pub const HOURS_PER_WEEK: usize = 168;

/// A point in campus-local time, stored as **microseconds** since the Unix
/// epoch. Microsecond resolution matches the classic pcap timestamp format
/// and is ample for flow timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: i64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Construct from seconds and additional microseconds.
    pub const fn from_secs_micros(secs: i64, micros: u32) -> Self {
        Timestamp(secs * 1_000_000 + micros as i64)
    }

    /// [`from_secs_micros`](Self::from_secs_micros) for untrusted input:
    /// `None` when the instant does not fit an `i64` of microseconds.
    pub const fn checked_from_secs_micros(secs: i64, micros: u32) -> Option<Self> {
        match secs.checked_mul(1_000_000) {
            Some(us) => match us.checked_add(micros as i64) {
                Some(us) => Some(Timestamp(us)),
                None => None,
            },
            None => None,
        }
    }

    /// Construct from raw microseconds since the epoch.
    pub const fn from_micros(micros: i64) -> Self {
        Timestamp(micros)
    }

    /// Whole seconds since the epoch (truncating).
    pub const fn secs(self) -> i64 {
        self.0.div_euclid(1_000_000)
    }

    /// Microseconds within the current second.
    pub const fn subsec_micros(self) -> u32 {
        self.0.rem_euclid(1_000_000) as u32
    }

    /// Raw microseconds since the epoch.
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// Time as fractional seconds (Zeek's `ts` representation).
    pub fn as_f64_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `self + seconds`.
    pub const fn add_secs(self, secs: i64) -> Self {
        Timestamp(self.0 + secs * 1_000_000)
    }

    /// `self + microseconds`.
    pub const fn add_micros(self, micros: i64) -> Self {
        Timestamp(self.0 + micros)
    }

    /// Signed difference `self - other` in seconds (fractional part
    /// truncated toward negative infinity).
    pub const fn delta_secs(self, other: Timestamp) -> i64 {
        (self.0 - other.0).div_euclid(1_000_000)
    }

    /// Signed difference `self - other` in microseconds.
    pub const fn delta_micros(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = civil_from_days(self.secs().div_euclid(SECS_PER_DAY));
        let tod = self.secs().rem_euclid(SECS_PER_DAY);
        write!(
            f,
            "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}",
            tod / 3600,
            (tod / 60) % 60,
            tod % 60
        )
    }
}

/// Convert days-since-epoch to a (year, month, day) civil date.
/// Algorithm from Howard Hinnant's `civil_from_days` (public domain).
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

/// Convert a (year, month, day) civil date to days-since-epoch.
/// Inverse of [`civil_from_days`]; also from Hinnant.
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = y as i64 - (m <= 2) as i64;
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let m = m as i64;
    let d = d as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Day of week. Matches the paper's figure-3 convention of plotting weeks
/// Thursday-first (the style of Feldmann et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    /// Weekday of the given days-since-epoch (1970-01-01 was a Thursday).
    pub fn from_epoch_day(day: i64) -> Weekday {
        match day.rem_euclid(7) {
            0 => Weekday::Thu,
            1 => Weekday::Fri,
            2 => Weekday::Sat,
            3 => Weekday::Sun,
            4 => Weekday::Mon,
            5 => Weekday::Tue,
            _ => Weekday::Wed,
        }
    }

    /// Saturday or Sunday?
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }

    /// Offset within the Thursday-first figure-3 week (Thu = 0 … Wed = 6).
    pub fn thursday_first_index(self) -> usize {
        match self {
            Weekday::Thu => 0,
            Weekday::Fri => 1,
            Weekday::Sat => 2,
            Weekday::Sun => 3,
            Weekday::Mon => 4,
            Weekday::Tue => 5,
            Weekday::Wed => 6,
        }
    }

    /// Short English name, as used on the figure-3 axis.
    pub fn name(self) -> &'static str {
        match self {
            Weekday::Mon => "Monday",
            Weekday::Tue => "Tuesday",
            Weekday::Wed => "Wednesday",
            Weekday::Thu => "Thursday",
            Weekday::Fri => "Friday",
            Weekday::Sat => "Saturday",
            Weekday::Sun => "Sunday",
        }
    }
}

/// A day within the 121-day study window, numbered 0 (Feb 1) through
/// 120 (May 31).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Day(pub u16);

impl Day {
    /// First second of this day as a [`Timestamp`].
    pub fn start(self) -> Timestamp {
        Timestamp::from_secs(StudyCalendar::STUDY_START_SECS + self.0 as i64 * SECS_PER_DAY)
    }

    /// One past the last second of this day.
    pub fn end(self) -> Timestamp {
        self.start().add_secs(SECS_PER_DAY)
    }

    /// Weekday of this study day.
    pub fn weekday(self) -> Weekday {
        Weekday::from_epoch_day(
            (StudyCalendar::STUDY_START_SECS + self.0 as i64 * SECS_PER_DAY) / SECS_PER_DAY,
        )
    }

    /// Calendar month this day belongs to.
    pub fn month(self) -> Month {
        // Feb has 29 days in 2020; Mar 31; Apr 30; May 31.
        match self.0 {
            0..=28 => Month::Feb,
            29..=59 => Month::Mar,
            60..=89 => Month::Apr,
            _ => Month::May,
        }
    }

    /// Civil date `(year, month, day)` of this study day.
    pub fn civil(self) -> (i32, u32, u32) {
        civil_from_days(
            (StudyCalendar::STUDY_START_SECS + self.0 as i64 * SECS_PER_DAY) / SECS_PER_DAY,
        )
    }

    /// ISO-ish label `YYYY-MM-DD` for plots and CSV output.
    pub fn label(self) -> String {
        let (y, m, d) = self.civil();
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// Calendar months covered by the study, used to bucket the monthly
/// box-and-whisker figures (Figures 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Month {
    /// February 2020 (pre-pandemic baseline).
    Feb,
    /// March 2020 (onset: emergency, pandemic declaration, lock-down, break).
    Mar,
    /// April 2020 (first full online month).
    Apr,
    /// May 2020 (late shutdown).
    May,
}

impl Month {
    /// All four study months in order.
    pub const ALL: [Month; 4] = [Month::Feb, Month::Mar, Month::Apr, Month::May];

    /// English name as printed on the paper's figure axes.
    pub fn name(self) -> &'static str {
        match self {
            Month::Feb => "February",
            Month::Mar => "March",
            Month::Apr => "April",
            Month::May => "May",
        }
    }

    /// Index 0..4 for array-backed per-month accumulators.
    pub fn index(self) -> usize {
        match self {
            Month::Feb => 0,
            Month::Mar => 1,
            Month::Apr => 2,
            Month::May => 3,
        }
    }

    /// First study day of the month.
    pub fn first_day(self) -> Day {
        match self {
            Month::Feb => Day(0),
            Month::Mar => Day(29),
            Month::Apr => Day(60),
            Month::May => Day(90),
        }
    }

    /// Number of days in the month (2020 is a leap year).
    pub fn num_days(self) -> u16 {
        match self {
            Month::Feb => 29,
            Month::Mar => 31,
            Month::Apr => 30,
            Month::May => 31,
        }
    }
}

/// The behavioural phases of the study window. The synthetic workload keys
/// its behaviour profiles on these; analyses key figure annotations on the
/// transition timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Normal in-person term: Feb 1 – Mar 3.
    PreEmergency,
    /// State of emergency declared, campus still in person: Mar 4 – Mar 10.
    Emergency,
    /// WHO pandemic declaration; students begin leaving: Mar 11 – Mar 18.
    PandemicDeclared,
    /// Regional stay-at-home order in force, term winding down: Mar 19 – Mar 21.
    StayAtHome,
    /// Academic break: Mar 22 – Mar 29.
    Break,
    /// Classes resume online; lock-down continues: Mar 30 – May 31.
    OnlineTerm,
}

impl Phase {
    /// All phases in chronological order.
    pub const ALL: [Phase; 6] = [
        Phase::PreEmergency,
        Phase::Emergency,
        Phase::PandemicDeclared,
        Phase::StayAtHome,
        Phase::Break,
        Phase::OnlineTerm,
    ];
}

/// The fixed calendar of the measurement window.
///
/// All constants are campus-local civil dates expressed as seconds since
/// the epoch (no time-zone conversion is ever performed; see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyCalendar;

impl StudyCalendar {
    /// 2020-02-01 00:00 — first instant of the study.
    pub const STUDY_START_SECS: i64 = 1_580_515_200;
    /// 2020-06-01 00:00 — one past the last instant of the study.
    pub const STUDY_END_SECS: i64 = 1_590_969_600;
    /// 2020-03-04 00:00 — regional state of emergency.
    pub const STATE_OF_EMERGENCY_SECS: i64 = 1_583_280_000;
    /// 2020-03-11 00:00 — WHO declares a pandemic.
    pub const WHO_PANDEMIC_SECS: i64 = 1_583_884_800;
    /// 2020-03-19 00:00 — regional stay-at-home order.
    pub const STAY_AT_HOME_SECS: i64 = 1_584_576_000;
    /// 2020-03-22 00:00 — academic break begins.
    pub const BREAK_START_SECS: i64 = 1_584_835_200;
    /// 2020-03-30 00:00 — break ends; classes resume online.
    pub const BREAK_END_SECS: i64 = 1_585_526_400;

    /// Number of days in the study window (Feb 1 – May 31, 2020).
    pub const NUM_DAYS: u16 = 121;

    /// The paper's "post-shutdown" epoch: devices present on campus after
    /// the start of the online term define the post-shutdown user set.
    /// We take the stay-at-home order as the shutdown boundary.
    pub const SHUTDOWN_SECS: i64 = Self::STAY_AT_HOME_SECS;

    /// First instant of the study.
    pub fn start() -> Timestamp {
        Timestamp::from_secs(Self::STUDY_START_SECS)
    }

    /// One past the last instant of the study.
    pub fn end() -> Timestamp {
        Timestamp::from_secs(Self::STUDY_END_SECS)
    }

    /// Is `ts` inside the study window?
    pub fn contains(ts: Timestamp) -> bool {
        (Self::STUDY_START_SECS..Self::STUDY_END_SECS).contains(&ts.secs())
    }

    /// Study [`Day`] containing `ts`, or `None` outside the window.
    pub fn day_of(ts: Timestamp) -> Option<Day> {
        if !Self::contains(ts) {
            return None;
        }
        Some(Day(
            ((ts.secs() - Self::STUDY_START_SECS) / SECS_PER_DAY) as u16
        ))
    }

    /// Behavioural [`Phase`] containing `ts` (clamped to the nearest phase
    /// outside the window, so the generator can warm up/cool down).
    pub fn phase_of(ts: Timestamp) -> Phase {
        let s = ts.secs();
        if s < Self::STATE_OF_EMERGENCY_SECS {
            Phase::PreEmergency
        } else if s < Self::WHO_PANDEMIC_SECS {
            Phase::Emergency
        } else if s < Self::STAY_AT_HOME_SECS {
            Phase::PandemicDeclared
        } else if s < Self::BREAK_START_SECS {
            Phase::StayAtHome
        } else if s < Self::BREAK_END_SECS {
            Phase::Break
        } else {
            Phase::OnlineTerm
        }
    }

    /// Calendar month of `ts`, or `None` outside the window.
    pub fn month_of(ts: Timestamp) -> Option<Month> {
        Self::day_of(ts).map(Day::month)
    }

    /// Hour-of-day (0–23) of `ts` in campus-local time.
    pub fn hour_of_day(ts: Timestamp) -> u32 {
        (ts.secs().rem_euclid(SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Hour within the Thursday-first week (0 = Thursday 00:00 … 167 =
    /// Wednesday 23:00), the x-coordinate of Figure 3.
    pub fn hour_of_week(ts: Timestamp) -> usize {
        let epoch_day = ts.secs().div_euclid(SECS_PER_DAY);
        let wd = Weekday::from_epoch_day(epoch_day).thursday_first_index();
        wd * 24 + Self::hour_of_day(ts) as usize
    }

    /// The four weeks Figure 3 plots, identified by the study [`Day`] of
    /// their Thursday. The paper uses the weeks of 2/20, 3/19, 4/9 and
    /// 5/14/2020 (substituting 5/14 for Feldmann et al.'s 6/18 to stay
    /// within the academic term).
    pub fn figure3_weeks() -> [(&'static str, Day); 4] {
        [
            ("Week of 2/20/20", Day(19)),
            ("Week of 3/19/20", Day(47)),
            ("Week of 4/9/20", Day(68)),
            ("Week of 5/14/20", Day(103)),
        ]
    }

    /// Event lines drawn on the daily figures, as (label, first study day).
    pub fn event_lines() -> [(&'static str, Day); 4] {
        [
            ("State of Emergency", Day(32)),
            ("WHO Declared Pandemic", Day(39)),
            ("Stay at Home Order", Day(47)),
            ("Academic Break", Day(50)),
        ]
    }

    /// Iterate all study days in order.
    pub fn days() -> impl Iterator<Item = Day> {
        (0..Self::NUM_DAYS).map(Day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_roundtrip() {
        let t = Timestamp::from_secs_micros(1_580_515_200, 250_000);
        assert_eq!(t.secs(), 1_580_515_200);
        assert_eq!(t.subsec_micros(), 250_000);
        assert!((t.as_f64_secs() - 1_580_515_200.25).abs() < 1e-6);
    }

    #[test]
    fn checked_from_secs_micros_rejects_overflow() {
        let max = i64::MAX / 1_000_000;
        assert_eq!(
            Timestamp::checked_from_secs_micros(max, 775_807),
            Some(Timestamp::from_micros(i64::MAX))
        );
        assert_eq!(Timestamp::checked_from_secs_micros(max, 775_808), None);
        assert_eq!(Timestamp::checked_from_secs_micros(i64::MAX, 0), None);
        assert_eq!(Timestamp::checked_from_secs_micros(i64::MIN, 0), None);
        assert_eq!(
            Timestamp::checked_from_secs_micros(-2, 500_000),
            Some(Timestamp::from_micros(-1_500_000))
        );
    }

    #[test]
    fn timestamp_negative_subsec() {
        // Microsecond representation must stay consistent below the epoch.
        let t = Timestamp::from_micros(-1);
        assert_eq!(t.secs(), -1);
        assert_eq!(t.subsec_micros(), 999_999);
    }

    #[test]
    fn civil_date_constants_agree() {
        assert_eq!(
            days_from_civil(2020, 2, 1) * SECS_PER_DAY,
            StudyCalendar::STUDY_START_SECS
        );
        assert_eq!(
            days_from_civil(2020, 3, 4) * SECS_PER_DAY,
            StudyCalendar::STATE_OF_EMERGENCY_SECS
        );
        assert_eq!(
            days_from_civil(2020, 3, 11) * SECS_PER_DAY,
            StudyCalendar::WHO_PANDEMIC_SECS
        );
        assert_eq!(
            days_from_civil(2020, 3, 19) * SECS_PER_DAY,
            StudyCalendar::STAY_AT_HOME_SECS
        );
        assert_eq!(
            days_from_civil(2020, 3, 22) * SECS_PER_DAY,
            StudyCalendar::BREAK_START_SECS
        );
        assert_eq!(
            days_from_civil(2020, 3, 30) * SECS_PER_DAY,
            StudyCalendar::BREAK_END_SECS
        );
        assert_eq!(
            days_from_civil(2020, 6, 1) * SECS_PER_DAY,
            StudyCalendar::STUDY_END_SECS
        );
    }

    #[test]
    fn civil_roundtrip_sample() {
        for day in [-1000i64, 0, 1, 18_293, 20_000, 100_000] {
            let (y, m, d) = civil_from_days(day);
            assert_eq!(days_from_civil(y, m, d), day, "day {day} -> {y}-{m}-{d}");
        }
    }

    #[test]
    fn feb_1_2020_was_saturday() {
        assert_eq!(Day(0).weekday(), Weekday::Sat);
        // March 4 was a Wednesday, March 11 a Wednesday, March 19 a Thursday.
        assert_eq!(Day(32).weekday(), Weekday::Wed);
        assert_eq!(Day(39).weekday(), Weekday::Wed);
        assert_eq!(Day(47).weekday(), Weekday::Thu);
    }

    #[test]
    fn study_has_121_days() {
        assert_eq!(
            (StudyCalendar::STUDY_END_SECS - StudyCalendar::STUDY_START_SECS) / SECS_PER_DAY,
            121
        );
        assert_eq!(StudyCalendar::days().count(), 121);
    }

    #[test]
    fn months_partition_days() {
        let mut counts = [0u16; 4];
        for d in StudyCalendar::days() {
            counts[d.month().index()] += 1;
        }
        assert_eq!(counts, [29, 31, 30, 31]);
        for m in Month::ALL {
            assert_eq!(m.first_day().month(), m);
            assert_eq!(m.num_days(), counts[m.index()]);
            // first_day is genuinely the first: the previous day is in
            // the previous month.
            if m.first_day().0 > 0 {
                assert_ne!(Day(m.first_day().0 - 1).month(), m);
            }
        }
        assert_eq!(Month::May.first_day(), Day(90));
        assert_eq!(Month::May.first_day().civil(), (2020, 5, 1));
    }

    #[test]
    fn phases_cover_window_in_order() {
        let mut prev = Phase::PreEmergency;
        for d in StudyCalendar::days() {
            let p = StudyCalendar::phase_of(d.start());
            assert!(p >= prev, "phase regressed on {}", d.label());
            prev = p;
        }
        assert_eq!(
            StudyCalendar::phase_of(Timestamp::from_secs(StudyCalendar::BREAK_START_SECS - 1)),
            Phase::StayAtHome
        );
        assert_eq!(
            StudyCalendar::phase_of(Timestamp::from_secs(StudyCalendar::BREAK_START_SECS)),
            Phase::Break
        );
    }

    #[test]
    fn figure3_weeks_start_on_thursdays() {
        for (label, day) in StudyCalendar::figure3_weeks() {
            assert_eq!(day.weekday(), Weekday::Thu, "{label}");
        }
        // Cross-check the civil dates the paper names.
        assert_eq!(StudyCalendar::figure3_weeks()[0].1.civil(), (2020, 2, 20));
        assert_eq!(StudyCalendar::figure3_weeks()[1].1.civil(), (2020, 3, 19));
        assert_eq!(StudyCalendar::figure3_weeks()[2].1.civil(), (2020, 4, 9));
        assert_eq!(StudyCalendar::figure3_weeks()[3].1.civil(), (2020, 5, 14));
    }

    #[test]
    fn hour_of_week_is_thursday_first() {
        let thu = Day(47).start(); // 2020-03-19 is a Thursday
        assert_eq!(StudyCalendar::hour_of_week(thu), 0);
        assert_eq!(StudyCalendar::hour_of_week(thu.add_secs(3600 * 5)), 5);
        let wed = Day(46).start(); // Wednesday
        assert_eq!(StudyCalendar::hour_of_week(wed), 6 * 24);
    }

    #[test]
    fn day_labels() {
        assert_eq!(Day(0).label(), "2020-02-01");
        assert_eq!(Day(120).label(), "2020-05-31");
        assert_eq!(Day(29).label(), "2020-03-01");
    }

    #[test]
    fn display_timestamp() {
        let t = Timestamp::from_secs(StudyCalendar::STUDY_START_SECS + 3661);
        assert_eq!(t.to_string(), "2020-02-01 01:01:01");
    }

    #[test]
    fn event_lines_match_dates() {
        let lines = StudyCalendar::event_lines();
        assert_eq!(lines[0].1.civil(), (2020, 3, 4));
        assert_eq!(lines[1].1.civil(), (2020, 3, 11));
        assert_eq!(lines[2].1.civil(), (2020, 3, 19));
        assert_eq!(lines[3].1.civil(), (2020, 3, 22));
    }
}
