//! Per-device byte accumulators, stored by day.
//!
//! The study's daily figures reduce to "bytes per device per day" under
//! various filters. Every accumulator here numbers its devices densely
//! ([`DeviceIndex`]) and sizes its counters to the days that saw bytes:
//! a collector fed one day holds that day's slot per device (and, in a
//! figure-3 week, that day's 24 hours), and merging it into a study-wide
//! accumulator adds that one day. Readers see the same answers whichever
//! way the days arrived — streamed into one accumulator, or collected one
//! per day and merged.

use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::{DeviceId, DeviceIndex, FastMap, Timestamp};

/// Days in the study.
const ND: usize = StudyCalendar::NUM_DAYS as usize;

/// Per-device daily byte counters.
///
/// While every byte recorded falls on one day, the matrix is one column
/// of that day (what a day collector holds); the first byte of a second
/// day spreads it into one study-wide row per device (what the study's
/// accumulator holds, and what the figures read).
#[derive(Debug, Default)]
pub struct VolumeMatrix {
    index: DeviceIndex,
    days: Days,
}

/// How a [`VolumeMatrix`] lays out its counters.
#[derive(Debug, Default)]
enum Days {
    /// No bytes yet.
    #[default]
    None,
    /// Every byte so far fell on this day: bytes by slot.
    One(Day, Vec<u64>),
    /// A study-wide row per slot. Boxed, so the table grows by moving
    /// pointers instead of copying every row through a reallocation.
    #[allow(clippy::vec_box)]
    All(Vec<Box<[u64; ND]>>),
}

impl VolumeMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add bytes for (device, day).
    pub fn add(&mut self, device: DeviceId, day: Day, bytes: u64) {
        let slot = self.slot(device);
        self.add_at(slot, day, bytes);
    }

    /// The device's slot for [`add_at`](Self::add_at), assigned on first
    /// sight; it stays valid as the matrix grows and merges.
    pub fn slot(&mut self, device: DeviceId) -> usize {
        self.index.intern(device)
    }

    /// [`add`](Self::add) for the device at `slot`.
    pub fn add_at(&mut self, slot: usize, day: Day, bytes: u64) {
        match &mut self.days {
            Days::One(d, col) if *d == day => {
                if col.len() <= slot {
                    col.resize(slot + 1, 0);
                }
                col[slot] += bytes;
            }
            Days::None => {
                let mut col = vec![0; slot + 1];
                col[slot] = bytes;
                self.days = Days::One(day, col);
            }
            Days::One(..) => {
                self.spread();
                self.add_at(slot, day, bytes);
            }
            Days::All(rows) => {
                if rows.len() <= slot {
                    rows.resize_with(slot + 1, || Box::new([0; ND]));
                }
                rows[slot][day.0 as usize] += bytes;
            }
        }
    }

    /// Turn the one-day column into study-wide rows.
    fn spread(&mut self) {
        if let Days::One(day, col) = std::mem::take(&mut self.days) {
            let rows = col
                .into_iter()
                .map(|b| {
                    let mut row = Box::new([0; ND]);
                    row[day.0 as usize] = b;
                    row
                })
                .collect();
            self.days = Days::All(rows);
        }
    }

    fn at(&self, slot: usize, day: usize) -> u64 {
        match &self.days {
            Days::None => 0,
            Days::One(d, col) => match col.get(slot) {
                Some(&b) if d.0 as usize == day => b,
                _ => 0,
            },
            Days::All(rows) => rows.get(slot).map_or(0, |r| r[day]),
        }
    }

    /// Bytes for (device, day).
    pub fn get(&self, device: DeviceId, day: Day) -> u64 {
        self.index
            .get(device)
            .map_or(0, |s| self.at(s, day.0 as usize))
    }

    /// The device's whole row, if any activity was recorded.
    pub fn row(&self, device: DeviceId) -> Option<[u64; ND]> {
        let s = self.index.get(device)?;
        Some(match &self.days {
            Days::All(rows) => rows.get(s).map_or([0; ND], |r| **r),
            _ => std::array::from_fn(|d| self.at(s, d)),
        })
    }

    /// Devices with any recorded activity.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.index.ids().iter().copied()
    }

    /// Number of devices with activity.
    pub fn device_count(&self) -> usize {
        self.index.len()
    }

    /// Was the device active (any bytes) on `day`?
    pub fn active_on(&self, device: DeviceId, day: Day) -> bool {
        self.get(device, day) > 0
    }

    /// First day with activity.
    pub fn first_active_day(&self, device: DeviceId) -> Option<Day> {
        let row = self.row(device)?;
        row.iter().position(|&b| b > 0).map(|i| Day(i as u16))
    }

    /// Last day with activity.
    pub fn last_active_day(&self, device: DeviceId) -> Option<Day> {
        let row = self.row(device)?;
        row.iter().rposition(|&b| b > 0).map(|i| Day(i as u16))
    }

    /// Number of distinct active days (the paper's ≥14-day visitor filter).
    pub fn active_day_count(&self, device: DeviceId) -> usize {
        self.row(device)
            .map_or(0, |r| r.iter().filter(|&&b| b > 0).count())
    }

    /// Total bytes for a device over a month.
    pub fn month_total(&self, device: DeviceId, month: Month) -> u64 {
        let Some(s) = self.index.get(device) else {
            return 0;
        };
        let start = month.first_day().0 as usize;
        (start..start + month.num_days() as usize)
            .map(|d| self.at(s, d))
            .sum()
    }

    /// Was the device active at any point on/after the given day?
    pub fn active_since(&self, device: DeviceId, day: Day) -> bool {
        self.last_active_day(device).is_some_and(|d| d >= day)
    }

    /// Merge another matrix (parallel reduction): one lookup per device
    /// of `other`, and one addition per (device, day) it holds — one per
    /// device when `other` holds a single day.
    pub fn merge(&mut self, other: VolumeMatrix) {
        if self.index.is_empty() {
            *self = other;
            return;
        }
        let slots = self.index.remap(&other.index);
        match other.days {
            Days::None => {}
            Days::One(day, col) => {
                for (&s, b) in slots.iter().zip(col) {
                    if b > 0 {
                        self.add_at(s, day, b);
                    }
                }
            }
            Days::All(rows) => {
                for (&s, row) in slots.iter().zip(rows) {
                    for (d, &b) in row.iter().enumerate() {
                        if b > 0 {
                            self.add_at(s, Day(d as u16), b);
                        }
                    }
                }
            }
        }
    }
}

/// Marks a figure-3 (week, weekday) cell without an hour row.
const NO_ROW: u32 = u32::MAX;

/// Per-device per-hour byte counters for the four Figure 3 weeks: one
/// 24-hour row per (device, week, weekday) that saw bytes.
#[derive(Debug, Default)]
pub struct HourWeekMatrix {
    index: DeviceIndex,
    /// Per slot, the `hours` row of each `week * 7 + weekday` cell, or
    /// [`NO_ROW`].
    cells: Vec<[u32; 28]>,
    hours: Vec<[u64; 24]>,
}

impl HourWeekMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Which figure-3 week (0..4) a day belongs to, if any.
    pub fn week_of(day: Day) -> Option<usize> {
        StudyCalendar::figure3_weeks()
            .iter()
            .position(|(_, thu)| day.0 >= thu.0 && day.0 < thu.0 + 7)
    }

    /// Record bytes at a timestamp (no-op outside the four weeks).
    pub fn add(&mut self, device: DeviceId, ts: Timestamp, bytes: u64) {
        if let Some(week) = StudyCalendar::day_of(ts).and_then(Self::week_of) {
            let slot = self.slot(device);
            self.add_at(slot, week, ts, bytes);
        }
    }

    /// The device's slot for [`add_at`](Self::add_at), assigned on first
    /// sight; it stays valid as the matrix grows and merges.
    pub fn slot(&mut self, device: DeviceId) -> usize {
        let s = self.index.intern(device);
        if s == self.cells.len() {
            self.cells.push([NO_ROW; 28]);
        }
        s
    }

    /// Add bytes for the device at `slot` in figure week `week`, at
    /// `ts`'s hour of the week. The streaming collector resolves the week
    /// once per day from the day it is processing, so a flow that starts
    /// outside that day still lands in that day's week.
    pub fn add_at(&mut self, slot: usize, week: usize, ts: Timestamp, bytes: u64) {
        let hour = StudyCalendar::hour_of_week(ts);
        let row = self.row_index(slot, week * 7 + hour / 24);
        self.hours[row][hour % 24] += bytes;
    }

    /// The hour row of (`slot`, `cell`), created on first use.
    fn row_index(&mut self, slot: usize, cell: usize) -> usize {
        let r = &mut self.cells[slot][cell];
        if *r == NO_ROW {
            *r = self.hours.len() as u32;
            self.hours.push([0; 24]);
        }
        *r as usize
    }

    /// Per-hour values of one device in one week (zeros for the hours of
    /// a week it was silent in), if it had bytes in any figure week.
    pub fn row(&self, device: DeviceId, week: usize) -> Option<[u64; 168]> {
        let cells = &self.cells[self.index.get(device)?][week * 7..week * 7 + 7];
        let mut row = [0; 168];
        for (day, &r) in row.chunks_exact_mut(24).zip(cells) {
            if r != NO_ROW {
                day.copy_from_slice(&self.hours[r as usize]);
            }
        }
        Some(row)
    }

    /// Devices with any activity in any figure week.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.index.ids().iter().copied()
    }

    /// Merge (parallel reduction): one lookup per device of `other`, one
    /// 24-hour addition per (device, week, weekday) row it holds.
    pub fn merge(&mut self, other: HourWeekMatrix) {
        let slots = self.index.remap(&other.index);
        self.cells.resize(self.index.len(), [NO_ROW; 28]);
        for (i, cells) in other.cells.iter().enumerate() {
            for (cell, &r) in cells.iter().enumerate() {
                if r == NO_ROW {
                    continue;
                }
                let mine = self.row_index(slots[i], cell);
                for (a, b) in self.hours[mine].iter_mut().zip(&other.hours[r as usize]) {
                    *a += b;
                }
            }
        }
    }
}

/// Sparse per-device daily counters (for low-population signals like
/// Switch gameplay bytes).
#[derive(Debug, Default)]
pub struct SparseDaily {
    index: DeviceIndex,
    /// Bytes per (slot, study day).
    cells: FastMap<(u32, u16), u64>,
}

impl SparseDaily {
    /// Empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add bytes.
    pub fn add(&mut self, device: DeviceId, day: Day, bytes: u64) {
        let slot = self.slot(device);
        self.add_at(slot, day, bytes);
    }

    /// The device's slot for [`add_at`](Self::add_at), assigned on first
    /// sight; it stays valid as the counters grow and merge.
    pub fn slot(&mut self, device: DeviceId) -> usize {
        self.index.intern(device)
    }

    /// [`add`](Self::add) for the device at `slot`.
    pub fn add_at(&mut self, slot: usize, day: Day, bytes: u64) {
        *self.cells.entry((slot as u32, day.0)).or_default() += bytes;
    }

    /// Bytes for (device, day).
    pub fn get(&self, device: DeviceId, day: Day) -> u64 {
        self.index
            .get(device)
            .and_then(|s| self.cells.get(&(s as u32, day.0)))
            .copied()
            .unwrap_or(0)
    }

    /// Devices present.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.index.ids().iter().copied()
    }

    /// Any bytes in the given month?
    pub fn active_in_month(&self, device: DeviceId, month: Month) -> bool {
        let Some(s) = self.index.get(device) else {
            return false;
        };
        let start = month.first_day().0;
        (start..start + month.num_days()).any(|d| self.cells.contains_key(&(s as u32, d)))
    }

    /// Merge.
    pub fn merge(&mut self, other: SparseDaily) {
        let slots = self.index.remap(&other.index);
        for ((i, d), b) in other.cells {
            *self.cells.entry((slots[i as usize] as u32, d)).or_default() += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: DeviceId = DeviceId(42);

    #[test]
    fn volume_matrix_roundtrip() {
        let mut m = VolumeMatrix::new();
        m.add(DEV, Day(3), 100);
        m.add(DEV, Day(3), 50);
        m.add(DEV, Day(90), 7);
        assert_eq!(m.get(DEV, Day(3)), 150);
        assert_eq!(m.get(DEV, Day(4)), 0);
        assert_eq!(m.get(DeviceId(1), Day(3)), 0);
        assert!(m.active_on(DEV, Day(3)));
        assert!(!m.active_on(DEV, Day(4)));
        assert_eq!(m.first_active_day(DEV), Some(Day(3)));
        assert_eq!(m.last_active_day(DEV), Some(Day(90)));
        assert_eq!(m.active_day_count(DEV), 2);
        assert_eq!(m.month_total(DEV, Month::Feb), 150);
        assert_eq!(m.month_total(DEV, Month::May), 7);
        assert_eq!(m.month_total(DEV, Month::Apr), 0);
        assert!(m.active_since(DEV, Day(47)));
        assert!(!m.active_since(DEV, Day(91)));
    }

    #[test]
    fn volume_matrix_merge() {
        let mut a = VolumeMatrix::new();
        let mut b = VolumeMatrix::new();
        a.add(DEV, Day(0), 10);
        b.add(DEV, Day(0), 5);
        b.add(DeviceId(7), Day(1), 3);
        a.merge(b);
        assert_eq!(a.get(DEV, Day(0)), 15);
        assert_eq!(a.get(DeviceId(7), Day(1)), 3);
        assert_eq!(a.device_count(), 2);
    }

    #[test]
    fn hour_week_indexing() {
        let mut m = HourWeekMatrix::new();
        // Week of 3/19 starts study day 47 (a Thursday).
        assert_eq!(HourWeekMatrix::week_of(Day(47)), Some(1));
        assert_eq!(HourWeekMatrix::week_of(Day(53)), Some(1));
        assert_eq!(HourWeekMatrix::week_of(Day(54)), None);
        let ts = Day(47).start().add_secs(5 * 3600);
        m.add(DEV, ts, 99);
        let row = m.row(DEV, 1).unwrap();
        assert_eq!(row[5], 99);
        assert_eq!(row.iter().sum::<u64>(), 99);
        assert!(m.row(DEV, 0).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn hour_week_merge() {
        let mut a = HourWeekMatrix::new();
        let mut b = HourWeekMatrix::new();
        let ts = Day(19).start(); // week 0 Thursday 00:00
        a.add(DEV, ts, 1);
        b.add(DEV, ts, 2);
        a.merge(b);
        assert_eq!(a.row(DEV, 0).unwrap()[0], 3);
    }

    #[test]
    fn sparse_daily() {
        let mut m = SparseDaily::new();
        m.add(DEV, Day(10), 5);
        m.add(DEV, Day(100), 7);
        assert_eq!(m.get(DEV, Day(10)), 5);
        assert!(m.active_in_month(DEV, Month::Feb));
        assert!(!m.active_in_month(DEV, Month::Mar));
        assert!(m.active_in_month(DEV, Month::May));
        let mut other = SparseDaily::new();
        other.add(DEV, Day(10), 5);
        m.merge(other);
        assert_eq!(m.get(DEV, Day(10)), 10);
    }
}
