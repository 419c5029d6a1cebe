//! Per-device byte accumulators, stored by day.
//!
//! The study's daily figures reduce to "bytes per device per day" under
//! various filters. Each accumulator here is a store indexed by the
//! collector's device slots ([`nettrace::DeviceIndex`]), with no numbering
//! of its own, and sizes its counters to the days that saw bytes: a
//! collector fed one day holds that day's bytes per device (and, in a
//! figure-3 week, that day's 24 hours), and folding it into a study-wide
//! accumulator adds that one day through the fold's slot map. A slot
//! without bytes in a store costs a few bytes of it at most, never a row.
//! Readers see the same answers whichever way the days arrived —
//! streamed into one accumulator, or collected one per day and folded.

use nettrace::time::{Day, Month, StudyCalendar};
use nettrace::{FastMap, SlotValues, Timestamp};

/// Days in the study.
const ND: usize = StudyCalendar::NUM_DAYS as usize;

/// Per-device daily byte counters.
///
/// While every byte recorded falls on one day, the matrix is one column
/// of that day (what a day collector holds); the first byte of a second
/// day spreads it into one study-wide row per device (what the study's
/// accumulator holds, and what the figures read). A slot has a row once
/// anything, even zero bytes, was added for it.
#[derive(Debug, Default)]
pub struct VolumeMatrix {
    days: Days,
}

/// How a [`VolumeMatrix`] lays out its counters.
#[derive(Debug, Default)]
enum Days {
    /// No bytes yet.
    #[default]
    None,
    /// Every byte so far fell on this day: bytes by slot.
    One(Day, SlotValues<u64>),
    /// A study-wide row per slot. Boxed, so the table grows by moving
    /// pointers instead of copying every row through a reallocation.
    All(SlotValues<Box<[u64; ND]>>),
}

impl VolumeMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add bytes for (slot, day).
    pub fn add(&mut self, slot: usize, day: Day, bytes: u64) {
        if let Days::None = self.days {
            self.days = Days::One(day, SlotValues::default());
        }
        match &mut self.days {
            Days::One(d, col) if *d == day => *col.entry(slot) += bytes,
            _ => {
                self.rows().get_or_insert_with(slot, || Box::new([0; ND]))[day.0 as usize] += bytes
            }
        }
    }

    /// The study-wide rows, spreading a one-day column into them first.
    fn rows(&mut self) -> &mut SlotValues<Box<[u64; ND]>> {
        if !matches!(self.days, Days::All(_)) {
            self.days = Days::All(match std::mem::take(&mut self.days) {
                Days::One(day, col) => col.map(|b| {
                    let mut row = Box::new([0; ND]);
                    row[day.0 as usize] = b;
                    row
                }),
                _ => SlotValues::default(),
            });
        }
        match &mut self.days {
            Days::All(rows) => rows,
            _ => unreachable!("spread above"),
        }
    }

    /// Bytes for (slot, day).
    pub fn get(&self, slot: usize, day: Day) -> u64 {
        match &self.days {
            Days::One(d, col) if *d == day => col.get(slot).copied().unwrap_or(0),
            Days::All(rows) => rows.get(slot).map_or(0, |r| r[day.0 as usize]),
            _ => 0,
        }
    }

    /// The slot's whole row, if anything was recorded for it.
    pub fn row(&self, slot: usize) -> Option<[u64; ND]> {
        match &self.days {
            Days::None => None,
            Days::One(day, col) => col.get(slot).map(|&b| {
                let mut row = [0; ND];
                row[day.0 as usize] = b;
                row
            }),
            Days::All(rows) => rows.get(slot).map(|r| **r),
        }
    }

    /// Number of slots with a row.
    pub fn device_count(&self) -> usize {
        match &self.days {
            Days::None => 0,
            Days::One(_, col) => col.len(),
            Days::All(rows) => rows.len(),
        }
    }

    /// One past the highest slot with a row.
    pub(crate) fn slot_bound(&self) -> usize {
        match &self.days {
            Days::None => 0,
            Days::One(_, col) => col.slot_bound(),
            Days::All(rows) => rows.slot_bound(),
        }
    }

    /// Was the slot active (any bytes) on `day`?
    pub fn active_on(&self, slot: usize, day: Day) -> bool {
        self.get(slot, day) > 0
    }

    /// First day with activity.
    pub fn first_active_day(&self, slot: usize) -> Option<Day> {
        let row = self.row(slot)?;
        row.iter().position(|&b| b > 0).map(|i| Day(i as u16))
    }

    /// Last day with activity.
    pub fn last_active_day(&self, slot: usize) -> Option<Day> {
        let row = self.row(slot)?;
        row.iter().rposition(|&b| b > 0).map(|i| Day(i as u16))
    }

    /// Number of distinct active days (the paper's ≥14-day visitor filter).
    pub fn active_day_count(&self, slot: usize) -> usize {
        self.row(slot)
            .map_or(0, |r| r.iter().filter(|&&b| b > 0).count())
    }

    /// Total bytes for a slot over a month.
    pub fn month_total(&self, slot: usize, month: Month) -> u64 {
        let start = month.first_day().0;
        (start..start + month.num_days())
            .map(|d| self.get(slot, Day(d)))
            .sum()
    }

    /// Was the slot active at any point on/after the given day?
    pub fn active_since(&self, slot: usize, day: Day) -> bool {
        self.last_active_day(slot).is_some_and(|d| d >= day)
    }

    /// Fold another matrix in, its slot `i` being this matrix's
    /// `slots[i]`: one addition per (slot, day) it holds — one per slot
    /// when `other` holds a single day.
    pub fn merge(&mut self, other: VolumeMatrix, slots: &[usize]) {
        match other.days {
            Days::None => {}
            Days::One(day, col) => {
                for (s, b) in col.into_pairs() {
                    self.add(slots[s], day, b);
                }
            }
            Days::All(theirs) => {
                let rows = self.rows();
                for (s, row) in theirs.into_pairs() {
                    let mine = rows.get_or_insert_with(slots[s], || Box::new([0; ND]));
                    for (a, b) in mine.iter_mut().zip(row.iter()) {
                        *a += b;
                    }
                }
            }
        }
    }
}

/// Marks a figure-3 (week, weekday) cell without an hour row.
const NO_ROW: u32 = u32::MAX;

/// Per-device per-hour byte counters for the four Figure 3 weeks: one
/// 24-hour row per (slot, week, weekday) that saw bytes.
#[derive(Debug, Default)]
pub struct HourWeekMatrix {
    /// Per slot with figure-week bytes, the `hours` row of each
    /// `week * 7 + weekday` cell, or [`NO_ROW`].
    cells: SlotValues<[u32; 28]>,
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

    /// Add bytes for the device at `slot` in figure week `week`, at
    /// `ts`'s hour of the week. The streaming collector resolves the week
    /// once per day from the day it is processing, so a flow that starts
    /// outside that day still lands in that day's week.
    pub fn add(&mut self, slot: usize, week: usize, ts: Timestamp, bytes: u64) {
        let hour = StudyCalendar::hour_of_week(ts);
        let row = self.row_index(slot, week * 7 + hour / 24);
        self.hours[row][hour % 24] += bytes;
    }

    /// The hour row of (`slot`, `cell`), created on first use.
    fn row_index(&mut self, slot: usize, cell: usize) -> usize {
        let r = &mut self.cells.get_or_insert_with(slot, || [NO_ROW; 28])[cell];
        if *r == NO_ROW {
            *r = self.hours.len() as u32;
            self.hours.push([0; 24]);
        }
        *r as usize
    }

    /// Per-hour values of one slot in one week (zeros for the hours of a
    /// week it was silent in), if it had bytes in any figure week.
    pub fn row(&self, slot: usize, week: usize) -> Option<[u64; 168]> {
        let cells = &self.cells.get(slot)?[week * 7..week * 7 + 7];
        let mut row = [0; 168];
        for (day, &r) in row.chunks_exact_mut(24).zip(cells) {
            if r != NO_ROW {
                day.copy_from_slice(&self.hours[r as usize]);
            }
        }
        Some(row)
    }

    /// One past the highest slot with figure-week bytes.
    pub(crate) fn slot_bound(&self) -> usize {
        self.cells.slot_bound()
    }

    /// Fold another matrix in, its slot `i` being this matrix's
    /// `slots[i]`: one 24-hour addition per (slot, week, weekday) row it
    /// holds.
    pub fn merge(&mut self, other: HourWeekMatrix, slots: &[usize]) {
        for (s, cells) in other.cells.iter() {
            for (cell, &r) in cells.iter().enumerate() {
                if r == NO_ROW {
                    continue;
                }
                let mine = self.row_index(slots[s], cell);
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
    /// Bytes per (slot, study day).
    cells: FastMap<(u32, u16), u64>,
}

impl SparseDaily {
    /// Empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add bytes for (slot, day).
    pub fn add(&mut self, slot: usize, day: Day, bytes: u64) {
        *self.cells.entry((slot as u32, day.0)).or_default() += bytes;
    }

    /// Bytes for (slot, day).
    pub fn get(&self, slot: usize, day: Day) -> u64 {
        self.cells.get(&(slot as u32, day.0)).copied().unwrap_or(0)
    }

    /// One past the highest slot with bytes.
    pub(crate) fn slot_bound(&self) -> usize {
        self.cells
            .keys()
            .map(|&(s, _)| s as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Fold another counter in, its slot `i` being this counter's
    /// `slots[i]`.
    pub fn merge(&mut self, other: SparseDaily, slots: &[usize]) {
        for ((s, d), b) in other.cells {
            *self.cells.entry((slots[s as usize] as u32, d)).or_default() += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot, as a collector's index hands them out.
    const SLOT: usize = 0;

    #[test]
    fn volume_matrix_roundtrip() {
        let mut m = VolumeMatrix::new();
        m.add(SLOT, Day(3), 100);
        m.add(SLOT, Day(3), 50);
        m.add(SLOT, Day(90), 7);
        assert_eq!(m.get(SLOT, Day(3)), 150);
        assert_eq!(m.get(SLOT, Day(4)), 0);
        assert_eq!(m.get(1, Day(3)), 0);
        assert_eq!(m.row(1), None);
        assert!(m.active_on(SLOT, Day(3)));
        assert!(!m.active_on(SLOT, Day(4)));
        assert_eq!(m.first_active_day(SLOT), Some(Day(3)));
        assert_eq!(m.last_active_day(SLOT), Some(Day(90)));
        assert_eq!(m.active_day_count(SLOT), 2);
        assert_eq!(m.month_total(SLOT, Month::Feb), 150);
        assert_eq!(m.month_total(SLOT, Month::May), 7);
        assert_eq!(m.month_total(SLOT, Month::Apr), 0);
        assert!(m.active_since(SLOT, Day(47)));
        assert!(!m.active_since(SLOT, Day(91)));
    }

    #[test]
    fn volume_matrix_merge() {
        let mut a = VolumeMatrix::new();
        let mut b = VolumeMatrix::new();
        a.add(SLOT, Day(0), 10);
        b.add(0, Day(0), 5);
        b.add(1, Day(1), 3);
        // b's slot 0 is a's slot 0; its slot 1 is a's new slot 2.
        a.merge(b, &[0, 2]);
        assert_eq!(a.get(SLOT, Day(0)), 15);
        assert_eq!(a.get(2, Day(1)), 3);
        assert_eq!(a.row(1), None, "a slot without bytes has no row");
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
        m.add(SLOT, 1, ts, 99);
        let row = m.row(SLOT, 1).unwrap();
        assert_eq!(row[5], 99);
        assert_eq!(row.iter().sum::<u64>(), 99);
        assert!(m.row(SLOT, 0).unwrap().iter().all(|&b| b == 0));
        assert_eq!(m.row(1, 1), None);
    }

    #[test]
    fn hour_week_merge() {
        let mut a = HourWeekMatrix::new();
        let mut b = HourWeekMatrix::new();
        let ts = Day(19).start(); // week 0 Thursday 00:00
        a.add(SLOT, 0, ts, 1);
        b.add(SLOT, 0, ts, 2);
        a.merge(b, &[SLOT]);
        assert_eq!(a.row(SLOT, 0).unwrap()[0], 3);
    }

    #[test]
    fn sparse_daily() {
        let mut m = SparseDaily::new();
        m.add(SLOT, Day(10), 5);
        m.add(SLOT, Day(100), 7);
        assert_eq!(m.get(SLOT, Day(10)), 5);
        assert_eq!(m.get(SLOT, Day(11)), 0);
        let mut other = SparseDaily::new();
        other.add(SLOT, Day(10), 5);
        m.merge(other, &[SLOT]);
        assert_eq!(m.get(SLOT, Day(10)), 10);
    }
}
