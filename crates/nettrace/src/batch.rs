//! Flow batches: the wide seam of the hot path.
//!
//! Pipeline stages keep incrementally-built state (lease tables,
//! resolver maps), but paying a stage round-trip per record puts a
//! floor under ns/flow: every call re-loads stage state, every
//! observability touch is per-record, and nothing amortizes. A
//! [`FlowBatch`] is a reusable buffer that carries a *run* of raw flow
//! records through the whole pipeline at once, so each [`BatchStage`]
//! loads its state once per run and instrumentation costs once per
//! batch.
//!
//! The batch has two halves, mirroring the pipeline's two flow shapes:
//!
//! * the **raw half** — [`FlowRecord`] rows, filled upstream (the
//!   generator's batcher, a capture reader);
//! * the **device half** — [`DeviceFlow`] rows plus a parallel `labels`
//!   column, appended by an attribution stage and consumed by labeling
//!   and collection.
//!
//! Both halves keep whole rows, because every consumer (attribution,
//! labeling, the collector) reads the complete record. The `labels`
//! column is an opaque `u32` with a [`NO_LABEL`] sentinel — this crate
//! sits below the DNS layer, so the meaning of a label id belongs to
//! the stage that wrote it.
//!
//! Each half carries a cursor, so a pipeline of [`BatchStage`]s can
//! share one buffer: an attribution stage consumes the raw window
//! ([`FlowBatch::raw_window`]) and appends device rows; a labeling
//! stage consumes the device window ([`FlowBatch::dev_window`]) and
//! fills the label column. A driver that must stop the raw scan early
//! (e.g. at a point where out-of-band state changes apply) restricts
//! the window with [`FlowBatch::set_raw_limit`] and calls the stage
//! again after applying them.
//!
//! [`clear`](FlowBatch::clear) resets length and cursors but keeps
//! every allocation, so one batch serves a whole day (or run) without
//! per-record or per-batch allocation.

use crate::flow::{DeviceFlow, FlowRecord};
use std::ops::Range;

/// Sentinel in the label column: no fresh resolution labeled this row.
pub const NO_LABEL: u32 = u32::MAX;

/// A reusable buffer carrying a run of flows through the pipeline.
/// See the [module docs](self) for the layout and cursor protocol.
///
/// ```
/// use nettrace::batch::{FlowBatch, NO_LABEL};
/// use nettrace::flow::{DeviceFlow, FlowRecord, Proto};
/// use nettrace::{DeviceId, Timestamp};
/// use std::net::Ipv4Addr;
///
/// let f = FlowRecord {
///     ts: Timestamp::from_secs(10),
///     duration_micros: 1_000,
///     orig: Ipv4Addr::new(10, 0, 0, 1),
///     orig_port: 50_000,
///     resp: Ipv4Addr::new(151, 101, 1, 1),
///     resp_port: 443,
///     proto: Proto::Tcp,
///     orig_bytes: 100,
///     resp_bytes: 900,
///     orig_pkts: 2,
///     resp_pkts: 3,
/// };
/// let mut b = FlowBatch::default();
/// b.push_raw(&f);
/// assert_eq!(b.raw_len(), 1);
/// assert_eq!(b.raw_row(0), f);
/// assert_eq!(b.raw_window(), 0..1);
/// ```
#[derive(Debug)]
pub struct FlowBatch {
    /// Raw (IP-keyed) flow records.
    raw: Vec<FlowRecord>,
    // Device-attributed rows plus their parallel label column.
    dev: Vec<DeviceFlow>,
    labels: Vec<u32>,
    /// First raw row not yet consumed by an attribution stage.
    raw_pos: usize,
    /// Exclusive end of the consumable raw window; `usize::MAX` means
    /// "everything pushed so far".
    raw_limit: usize,
    /// First device row not yet consumed by a labeling stage.
    dev_pos: usize,
}

impl Default for FlowBatch {
    fn default() -> Self {
        FlowBatch {
            raw: Vec::new(),
            dev: Vec::new(),
            labels: Vec::new(),
            raw_pos: 0,
            raw_limit: usize::MAX,
            dev_pos: 0,
        }
    }
}

impl FlowBatch {
    /// An empty batch with room for `rows` raw and device rows, so the
    /// steady state never reallocates.
    pub fn with_capacity(rows: usize) -> Self {
        let mut b = FlowBatch::default();
        b.reserve_rows(rows);
        b
    }

    /// Reserve capacity for `rows` additional raw and device rows.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.raw.reserve(rows);
        self.dev.reserve(rows);
        self.labels.reserve(rows);
    }

    /// Number of raw rows pushed.
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Number of device rows appended.
    pub fn dev_len(&self) -> usize {
        self.dev.len()
    }

    /// True when the batch holds no raw rows.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Append one raw flow record.
    pub fn push_raw(&mut self, f: &FlowRecord) {
        self.raw.push(*f);
    }

    /// Raw row `i`.
    ///
    /// # Panics
    /// If `i >= raw_len()`.
    pub fn raw_row(&self, i: usize) -> FlowRecord {
        self.raw[i]
    }

    /// The raw rows an attribution stage should consume now: everything
    /// pushed but not yet consumed, capped by
    /// [`set_raw_limit`](Self::set_raw_limit).
    pub fn raw_window(&self) -> Range<usize> {
        self.raw_pos..self.raw_limit.min(self.raw_len())
    }

    /// Cap the raw window at `hi` (exclusive). The driver uses this to
    /// stop a stage at a point where out-of-band state (lease tables,
    /// resolver maps) must change before later rows are valid.
    pub fn set_raw_limit(&mut self, hi: usize) {
        self.raw_limit = hi;
    }

    /// Mark raw rows up to `to` (exclusive) as consumed. Stages call
    /// this after processing their window.
    pub fn advance_raw(&mut self, to: usize) {
        debug_assert!(to >= self.raw_pos && to <= self.raw_len());
        self.raw_pos = to;
    }

    /// Append one device-attributed row; its label starts as
    /// [`NO_LABEL`].
    pub fn push_dev(&mut self, df: DeviceFlow) {
        self.dev.push(df);
        self.labels.push(NO_LABEL);
    }

    /// Device row `i`.
    ///
    /// # Panics
    /// If `i >= dev_len()`.
    pub fn dev_row(&self, i: usize) -> DeviceFlow {
        self.dev[i]
    }

    /// The device rows a labeling stage should consume now.
    pub fn dev_window(&self) -> Range<usize> {
        self.dev_pos..self.dev.len()
    }

    /// Mark device rows up to `to` (exclusive) as consumed.
    pub fn advance_dev(&mut self, to: usize) {
        debug_assert!(to >= self.dev_pos && to <= self.dev.len());
        self.dev_pos = to;
    }

    /// Label of device row `i` ([`NO_LABEL`] if nothing wrote one).
    ///
    /// # Panics
    /// If `i >= dev_len()`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Write the label of device row `i`.
    ///
    /// # Panics
    /// If `i >= dev_len()`.
    pub fn set_label(&mut self, i: usize, label: u32) {
        self.labels[i] = label;
    }

    /// Empty the batch for reuse, keeping every allocation.
    pub fn clear(&mut self) {
        self.raw.clear();
        self.dev.clear();
        self.labels.clear();
        self.raw_pos = 0;
        self.raw_limit = usize::MAX;
        self.dev_pos = 0;
    }
}

/// A pipeline stage that processes a [`FlowBatch`] window in place.
///
/// State builds incrementally, but the unit of work is a window of rows
/// instead of one record, so stage dispatch, state loads, and
/// instrumentation all amortize.
///
/// The contract mirrors the paper's tap: events arrive in timestamp
/// order *per device* (the global stream may interleave devices
/// arbitrarily), and a stage must produce identical cumulative results
/// under any device interleaving and any window boundaries, which is
/// what makes day-level parallelism, collector merging and every batch
/// size deterministic.
pub trait BatchStage {
    /// Consume this stage's input window of `batch` (raw or device
    /// rows, by stage kind), produce output rows or labels in place,
    /// and advance the matching cursor. A caller counts what a call
    /// consumed and produced from the batch itself: the input window
    /// before the call, and `dev_len()` before and after.
    fn push_batch(&mut self, batch: &mut FlowBatch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Proto;
    use crate::mac::DeviceId;
    use crate::time::Timestamp;
    use std::net::Ipv4Addr;

    fn raw(i: u32) -> FlowRecord {
        FlowRecord {
            ts: Timestamp::from_secs(i as i64),
            duration_micros: 5,
            orig: Ipv4Addr::new(10, 0, 0, 1),
            orig_port: 1000 + i as u16,
            resp: Ipv4Addr::new(1, 1, 1, 1),
            resp_port: 443,
            proto: Proto::Tcp,
            orig_bytes: u64::from(i),
            resp_bytes: 2 * u64::from(i),
            orig_pkts: i,
            resp_pkts: i + 1,
        }
    }

    #[test]
    fn rows_round_trip_and_clear_keeps_capacity() {
        let mut b = FlowBatch::with_capacity(8);
        for i in 0..4 {
            b.push_raw(&raw(i));
        }
        assert_eq!(b.raw_len(), 4);
        for i in 0..4 {
            assert_eq!(b.raw_row(i as usize), raw(i));
        }
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.raw_window(), 0..0);
    }

    #[test]
    fn raw_limit_caps_the_window_until_advanced() {
        let mut b = FlowBatch::default();
        for i in 0..6 {
            b.push_raw(&raw(i));
        }
        b.set_raw_limit(2);
        assert_eq!(b.raw_window(), 0..2);
        b.advance_raw(2);
        b.set_raw_limit(6);
        assert_eq!(b.raw_window(), 2..6);
    }

    #[test]
    fn dev_rows_start_unlabeled() {
        let mut b = FlowBatch::default();
        let df = DeviceFlow {
            device: DeviceId(7),
            ts: Timestamp::from_secs(1),
            duration_micros: 2,
            remote: Ipv4Addr::new(1, 1, 1, 1),
            remote_port: 443,
            proto: Proto::Udp,
            tx_bytes: 10,
            rx_bytes: 20,
        };
        b.push_dev(df);
        assert_eq!(b.dev_row(0), df);
        assert_eq!(b.label(0), NO_LABEL);
        assert_eq!(b.dev_window(), 0..1);
        b.set_label(0, 3);
        assert_eq!(b.label(0), 3);
        b.advance_dev(1);
        assert_eq!(b.dev_window(), 1..1);
    }
}
