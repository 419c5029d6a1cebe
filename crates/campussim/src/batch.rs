//! Batched day emission: [`Batcher`] groups the [`DaySink`] stream
//! into [`DayBatch`]es for the wide pipeline seam.
//!
//! [`stream_day`](crate::CampusSim::stream_day) emits one callback per
//! event; the batched pipeline wants runs of flows it can push through
//! [`BatchStage`](nettrace::BatchStage)s in bulk. [`Batcher`] is the
//! adapter between the two: it *is* a [`DaySink`], accumulating the day
//! stream into one reusable [`DayBatch`] — flows into the rows of a
//! [`FlowBatch`], lease/DNS events row-tagged with the flow position
//! they must precede — and hands the batch to a [`DayBatchSink`] every
//! `batch_rows` flows. One `DayBatch` (and its buffers) lives for the
//! whole day, and a DNS query carries its answer set inline
//! ([`dnslog::Answers`]), so once the buffers have grown the per-event
//! path allocates nothing, from the generator through the batch
//! (`tests/generate_allocs.rs` holds a streamed day under 0.01
//! allocations per flow).
//!
//! Ordering is preserved exactly: a consumer that walks flow rows in
//! order, applying each lease/DNS group when the walk reaches its row
//! tag and the UA sightings at the end of the batch, observes the same
//! per-device event sequence the raw stream delivered. (UA sightings
//! may move later relative to *other* devices' events, which no
//! pipeline state can observe: a device's UA sightings touch only that
//! device's profile, and a batch never splits one device's events —
//! batches are cut on flow boundaries and a device's stream is
//! contiguous.)

use crate::generator::{DaySink, UaSighting};
use dhcplog::LeaseEvent;
use dnslog::DnsQuery;
use nettrace::flow::FlowRecord;
use nettrace::FlowBatch;

/// One batch of day events: a run of flow rows plus the
/// out-of-band events interleaved with it, row-tagged.
///
/// A tag of `t` on a lease or DNS event means the event arrived after
/// flow row `t - 1` and before flow row `t`; tags are nondecreasing
/// within a batch. UA sightings carry no tag (see the
/// [module docs](self) for why batch-end application is exact).
#[derive(Debug, Default)]
pub struct DayBatch {
    /// The flow rows.
    pub flows: FlowBatch,
    /// Lease events, tagged with the flow row they precede.
    pub leases: Vec<(u32, LeaseEvent)>,
    /// DNS queries, tagged with the flow row they precede.
    pub dns: Vec<(u32, DnsQuery)>,
    /// User-Agent sightings, applied at batch end.
    pub ua: Vec<UaSighting>,
}

impl DayBatch {
    /// An empty batch with flow-column capacity for `rows` rows.
    pub fn with_capacity(rows: usize) -> Self {
        DayBatch {
            flows: FlowBatch::with_capacity(rows),
            ..DayBatch::default()
        }
    }

    /// True when the batch holds no events of any kind.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty() && self.leases.is_empty() && self.dns.is_empty() && self.ua.is_empty()
    }

    /// Empty the batch for reuse, keeping every allocation.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.leases.clear();
        self.dns.clear();
        self.ua.clear();
    }
}

/// A consumer of filled [`DayBatch`]es — the batched counterpart of
/// [`DaySink`].
pub trait DayBatchSink {
    /// Process one batch. The batch arrives with fresh cursors; the
    /// implementation may consume it in place ([`Batcher`] clears it
    /// after the call returns).
    fn day_batch(&mut self, batch: &mut DayBatch);
}

/// [`DaySink`] adapter that accumulates the day stream into
/// [`DayBatch`]es of `batch_rows` flows and forwards each to a
/// [`DayBatchSink`]. Call [`finish`](Batcher::finish) after the day
/// stream ends to deliver the final partial batch.
pub struct Batcher<'a, S: DayBatchSink> {
    sink: &'a mut S,
    batch: DayBatch,
    batch_rows: usize,
}

impl<'a, S: DayBatchSink> Batcher<'a, S> {
    /// Batch into `sink`, cutting every `batch_rows` flows
    /// (clamped to at least 1).
    pub fn new(sink: &'a mut S, batch_rows: usize) -> Self {
        let batch_rows = batch_rows.max(1);
        // Pre-size for the common case but don't pre-commit memory to a
        // huge (or effectively unbounded) cut size; Vec growth handles
        // the rest.
        Batcher {
            sink,
            batch: DayBatch::with_capacity(batch_rows.min(1 << 16)),
            batch_rows,
        }
    }

    fn deliver(&mut self) {
        if !self.batch.is_empty() {
            self.sink.day_batch(&mut self.batch);
            self.batch.clear();
        }
    }

    /// Deliver whatever remains of the final partial batch.
    pub fn finish(mut self) {
        self.deliver();
    }
}

impl<S: DayBatchSink> DaySink for Batcher<'_, S> {
    fn lease(&mut self, event: LeaseEvent) {
        let tag = self.batch.flows.raw_len() as u32;
        self.batch.leases.push((tag, event));
    }

    fn dns(&mut self, query: DnsQuery) {
        let tag = self.batch.flows.raw_len() as u32;
        self.batch.dns.push((tag, query));
    }

    fn flow(&mut self, flow: FlowRecord) {
        self.batch.flows.push_raw(&flow);
        if self.batch.flows.raw_len() >= self.batch_rows {
            self.deliver();
        }
    }

    fn ua(&mut self, sighting: UaSighting) {
        self.batch.ua.push(sighting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::DayEvent;
    use crate::{CampusSim, SimConfig};
    use nettrace::time::Day;

    fn tiny_sim() -> CampusSim {
        CampusSim::new(SimConfig {
            scale: 0.005,
            ..SimConfig::default()
        })
    }

    /// Replays batches back into a flat event list for comparison.
    #[derive(Default)]
    struct Replay {
        events: Vec<DayEvent>,
        batches: usize,
    }
    impl DayBatchSink for Replay {
        fn day_batch(&mut self, batch: &mut DayBatch) {
            let n = batch.flows.raw_len();
            let (mut li, mut di) = (0, 0);
            for row in 0..=n {
                while li < batch.leases.len() && batch.leases[li].0 as usize == row {
                    self.events.push(DayEvent::Lease(batch.leases[li].1));
                    li += 1;
                }
                while di < batch.dns.len() && batch.dns[di].0 as usize == row {
                    self.events.push(DayEvent::Dns(batch.dns[di].1.clone()));
                    di += 1;
                }
                if row < n {
                    self.events.push(DayEvent::Flow(batch.flows.raw_row(row)));
                }
            }
            for ua in &batch.ua {
                self.events.push(DayEvent::Ua(ua.clone()));
            }
            self.batches += 1;
        }
    }

    fn flat(e: &DayEvent) -> String {
        match e {
            DayEvent::Lease(l) => format!("L {} {:?} {} {}", l.ts, l.action, l.ip, l.mac),
            DayEvent::Dns(q) => format!("D {} {:?} {:?} {:?}", q.ts, q.device, q.qname, q.answers),
            DayEvent::Flow(f) => format!("F {} {} {} {}", f.ts, f.orig, f.orig_port, f.orig_bytes),
            DayEvent::Ua(u) => format!("U {} {:?} {}", u.ts, u.device, u.ua),
        }
    }

    #[test]
    fn batched_stream_replays_the_raw_stream_at_any_batch_size() {
        let sim = tiny_sim();
        let day = Day(40);
        let mut raw: Vec<DayEvent> = Vec::new();
        sim.stream_day(day, &mut |e: DayEvent| raw.push(e));
        assert!(!raw.is_empty(), "test day generated no events");
        // UA sightings may legally move to their batch's end; compare
        // as (non-UA sequence, per-device UA sequence).
        let raw_other: Vec<String> = raw
            .iter()
            .filter(|e| !matches!(e, DayEvent::Ua(_)))
            .map(flat)
            .collect();
        let mut raw_ua: Vec<String> = raw
            .iter()
            .filter(|e| matches!(e, DayEvent::Ua(_)))
            .map(flat)
            .collect();
        raw_ua.sort();
        for rows in [1usize, 7, 1000, usize::MAX] {
            let mut replay = Replay::default();
            let mut b = Batcher::new(&mut replay, rows);
            sim.stream_day(day, &mut b);
            b.finish();
            let got_other: Vec<String> = replay
                .events
                .iter()
                .filter(|e| !matches!(e, DayEvent::Ua(_)))
                .map(flat)
                .collect();
            let mut got_ua: Vec<String> = replay
                .events
                .iter()
                .filter(|e| matches!(e, DayEvent::Ua(_)))
                .map(flat)
                .collect();
            got_ua.sort();
            assert_eq!(
                got_other, raw_other,
                "non-UA order diverged at batch_rows={rows}"
            );
            assert_eq!(got_ua, raw_ua, "UA set diverged at batch_rows={rows}");
            if rows == 1 {
                assert!(replay.batches >= raw_other.len() / 2);
            }
        }
    }

    #[test]
    fn finish_flushes_a_flowless_remainder() {
        struct Count(usize, usize);
        impl DayBatchSink for Count {
            fn day_batch(&mut self, batch: &mut DayBatch) {
                self.0 += 1;
                self.1 += batch.leases.len();
            }
        }
        let mut sink = Count(0, 0);
        let mut b = Batcher::new(&mut sink, 8);
        b.lease(LeaseEvent {
            ts: nettrace::Timestamp::from_secs(0),
            action: dhcplog::LeaseAction::Assign,
            ip: std::net::Ipv4Addr::new(10, 40, 0, 1),
            mac: nettrace::MacAddr::new(0, 0, 0, 0, 0, 1),
        });
        b.finish();
        assert_eq!((sink.0, sink.1), (1, 1));
    }
}
