//! The live view of a run: a [`LivePublisher`] that the study's
//! workers feed with coarse day-boundary events and periodic metric
//! snapshots, so an in-flight run can be watched from outside (see
//! [`crate::serve`], `repro watch` and `repro run --progress`).
//!
//! The end-of-run merge story is untouched: each worker still owns
//! private per-day registries whose snapshots fold together after the
//! run. The publisher is a *second reader* of the same data. Workers
//! call four methods — [`LivePublisher::day_started`],
//! [`LivePublisher::day_tick`] every N records,
//! [`LivePublisher::day_finished`] with the day's final snapshot, and
//! [`LivePublisher::day_failed`] — and the publisher maintains:
//!
//! * a `base` snapshot — the merged metrics of every *completed* day;
//! * one `inflight` snapshot per worker — the latest mid-day snapshot,
//!   **replaced** (not merged) on each tick so `base + Σ inflight`
//!   stays monotonically nondecreasing while days run;
//! * run progress — days completed/total, per-worker current day,
//!   flows, elapsed wall clock, and an ETA from an EWMA of day
//!   durations (the same duration samples the study runner records
//!   into the `study.day_duration_ns` histogram).
//!
//! Every event is one transition under one lock, so a [`Progress`]
//! snapshot is always consistent with itself: `days_completed` is the
//! sum of the worker rows' `days_done`, and `flows` is the completed
//! days' flows plus the rows' `day_flows`. Publication is coarse —
//! once per day boundary and once per tick interval — so the hot path
//! never contends the publisher's mutex. Counters in the live view only
//! ever decrease in one case: a day that *fails* has its partial
//! inflight snapshot discarded, exactly mirroring the end-of-run
//! semantics where a failed day contributes no state.

use crate::json;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use nettrace::time::Day;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// EWMA weight of the newest day-duration sample.
const EWMA_ALPHA: f64 = 0.3;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct WorkerLive {
    current_day: Option<u16>,
    day_flows: u64,
    days_done: u64,
    inflight: MetricsSnapshot,
}

#[derive(Debug, Default)]
struct ShardLive {
    days_done: u64,
    flows: u64,
    wall_ns: u64,
}

/// Everything a day boundary changes, behind one lock so a reader
/// never sees a day counted in one place and not yet in another.
#[derive(Debug, Default)]
struct LiveTables {
    base: MetricsSnapshot,
    /// Flows from completed days.
    flows_done: u64,
    days_completed: u64,
    /// Failed day *attempts* observed (a recovered day counts once).
    degraded: u64,
    /// EWMA of day wall durations in ns; 0 = no sample yet.
    ewma_day_ns: u64,
    workers: BTreeMap<usize, WorkerLive>,
    /// Per-shard load tallies, fed by days finished with a shard id;
    /// empty on one-shard exact runs.
    shards: BTreeMap<u32, ShardLive>,
}

#[derive(Debug)]
struct LiveInner {
    started: Instant,
    days_total: AtomicU64,
    finished: AtomicBool,
    /// The served run has allocation tracking on; `/progress` and
    /// `/metrics` read the tracker's process-global live/peak bytes.
    mem_tracking: AtomicBool,
    /// Population shards in the served run (1 by default).
    shards: AtomicU64,
    tables: Mutex<LiveTables>,
}

/// Shared, cloneable live-telemetry state. Attach one to a run and hand
/// a clone to a [`TelemetryServer`](crate::serve::TelemetryServer) —
/// or poll [`LivePublisher::progress`] / [`LivePublisher::metrics`]
/// directly.
#[derive(Debug, Clone)]
pub struct LivePublisher {
    inner: Arc<LiveInner>,
}

impl Default for LivePublisher {
    fn default() -> Self {
        LivePublisher::new()
    }
}

/// One worker's row in a [`Progress`] view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProgress {
    /// Worker index.
    pub worker: usize,
    /// The day currently streaming on this worker, if any.
    pub day: Option<u16>,
    /// Flows collected so far in the current day (updated per tick).
    pub day_flows: u64,
    /// Days this worker has completed.
    pub days_done: u64,
}

/// One shard's accumulated load in a [`Progress`] view. Fed by the
/// sharded runner's per-(shard, day) completions; a shard's row
/// totals every resolved cell, across the factual and (when streamed)
/// counterfactual passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard id (shard-major grid order).
    pub shard: u32,
    /// (shard, day) cells resolved so far.
    pub days_done: u64,
    /// Flows attributed by this shard so far.
    pub flows: u64,
    /// Worker wall time spent on this shard's cells, nanoseconds.
    pub wall_ns: u64,
}

/// A point-in-time progress view of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// `"running"` or `"done"`.
    pub status: &'static str,
    /// Days the run will process in total (both passes when a
    /// counterfactual is configured).
    pub days_total: u64,
    /// Days completed so far.
    pub days_completed: u64,
    /// Days currently streaming (workers holding a day).
    pub days_inflight: u64,
    /// Failed day attempts observed so far.
    pub degraded_days: u64,
    /// Flows collected (completed days plus live per-worker progress).
    pub flows: u64,
    /// Wall clock since the publisher was created, nanoseconds.
    pub elapsed_ns: u64,
    /// Estimated remaining wall time from the day-duration EWMA,
    /// nanoseconds; `None` until the first day completes (or once
    /// finished).
    pub eta_ns: Option<u64>,
    /// Bytes currently live in the process per the tracking allocator;
    /// `None` when the run is not tracking memory.
    pub mem_live_bytes: Option<u64>,
    /// The tracking allocator's live-bytes high-water mark; `None`
    /// when the run is not tracking memory.
    pub mem_peak_bytes: Option<u64>,
    /// Population shards the run partitions devices into (1 by
    /// default).
    pub shards: u64,
    /// Per-worker rows, ordered by worker index.
    pub workers: Vec<WorkerProgress>,
    /// Per-shard load rows, ordered by shard id; empty on one-shard
    /// exact runs.
    pub shard_loads: Vec<ShardLoad>,
}

impl Progress {
    /// Render as a strict-parser-safe JSON object.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

crate::encode_fields!(Progress: status, days_total, days_completed, days_inflight, degraded_days,
    flows, elapsed_ns, eta_ns, mem_live_bytes, mem_peak_bytes, shards, workers, shard_loads);
crate::encode_fields!(WorkerProgress: worker, day, day_flows, days_done);
crate::encode_fields!(ShardLoad: shard, days_done, flows, wall_ns);

impl LivePublisher {
    /// A fresh publisher; the wall clock starts now.
    pub fn new() -> Self {
        LivePublisher {
            inner: Arc::new(LiveInner {
                started: Instant::now(),
                days_total: AtomicU64::new(0),
                finished: AtomicBool::new(false),
                mem_tracking: AtomicBool::new(false),
                shards: AtomicU64::new(1),
                tables: Mutex::new(LiveTables::default()),
            }),
        }
    }

    /// Declare how many days the run will process (drives the ETA and
    /// the `/progress` denominator).
    pub fn set_days_total(&self, n: u64) {
        self.inner.days_total.store(n, Ordering::Relaxed);
    }

    /// Declare whether the served run tracks memory. When on,
    /// [`LivePublisher::progress`] and
    /// [`LivePublisher::exposition_metrics`] read the process-global
    /// [`crate::alloc`] live/peak bytes into their views.
    pub fn set_mem_tracking(&self, on: bool) {
        self.inner.mem_tracking.store(on, Ordering::Relaxed);
    }

    /// Declare how many population shards the run partitions devices
    /// into (surfaced verbatim in `/progress`; 1 by default).
    pub fn set_shards(&self, k: u32) {
        self.inner
            .shards
            .store(u64::from(k.max(1)), Ordering::Relaxed);
    }

    /// Mark the run finished and replace the live view with the exact
    /// final merged snapshot, so post-run reads equal the run's own
    /// [`MetricsSnapshot`]. The final merge is a superset of everything
    /// published live, so the view stays monotone across the handoff.
    pub fn finish(&self, final_metrics: &MetricsSnapshot) {
        let mut t = lock(&self.inner.tables);
        t.base = final_metrics.clone();
        for w in t.workers.values_mut() {
            w.current_day = None;
            w.day_flows = 0;
            w.inflight = MetricsSnapshot::default();
        }
        drop(t);
        self.inner.finished.store(true, Ordering::Release);
    }

    /// True once [`LivePublisher::finish`] ran.
    pub fn is_finished(&self) -> bool {
        self.inner.finished.load(Ordering::Acquire)
    }

    /// The live metrics view: completed-day base plus every worker's
    /// latest inflight snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let t = lock(&self.inner.tables);
        let mut snap = t.base.clone();
        for w in t.workers.values() {
            snap.merge(&w.inflight);
        }
        snap
    }

    /// [`LivePublisher::metrics`] extended with the run-level
    /// `study.live.*` gauges (days completed/total, flows, elapsed,
    /// ETA, degraded count) so one `/metrics` scrape carries the whole
    /// picture.
    pub fn exposition_metrics(&self) -> MetricsSnapshot {
        let p = self.progress();
        let mut snap = self.metrics();
        let g = &mut snap.gauges;
        g.insert("study.live.days_completed".into(), p.days_completed);
        g.insert("study.live.days_inflight".into(), p.days_inflight);
        g.insert("study.live.days_total".into(), p.days_total);
        g.insert("study.live.degraded_days".into(), p.degraded_days);
        g.insert("study.live.elapsed_ns".into(), p.elapsed_ns);
        g.insert("study.live.eta_ns".into(), p.eta_ns.unwrap_or(0));
        g.insert("study.live.flows".into(), p.flows);
        if let (Some(live_b), Some(peak_b)) = (p.mem_live_bytes, p.mem_peak_bytes) {
            g.insert("mem.live_bytes".into(), live_b);
            g.insert("mem.peak_bytes".into(), peak_b);
        }
        snap
    }

    /// A point-in-time progress view.
    pub fn progress(&self) -> Progress {
        let finished = self.is_finished();
        let days_total = self.inner.days_total.load(Ordering::Relaxed);
        let t = lock(&self.inner.tables);
        let (days_completed, degraded_days, ewma) = (t.days_completed, t.degraded, t.ewma_day_ns);
        let mut flows = t.flows_done;
        let mut workers = Vec::with_capacity(t.workers.len());
        let mut days_inflight = 0;
        for (&worker, w) in &t.workers {
            if w.current_day.is_some() {
                days_inflight += 1;
            }
            flows += w.day_flows;
            workers.push(WorkerProgress {
                worker,
                day: w.current_day,
                day_flows: w.day_flows,
                days_done: w.days_done,
            });
        }
        let mut shard_loads = Vec::with_capacity(t.shards.len());
        for (&shard, s) in &t.shards {
            shard_loads.push(ShardLoad {
                shard,
                days_done: s.days_done,
                flows: s.flows,
                wall_ns: s.wall_ns,
            });
        }
        drop(t);
        let eta_ns = if finished {
            Some(0)
        } else if ewma == 0 || days_total <= days_completed {
            None
        } else {
            // Remaining days spread over however many workers have
            // reported in (at least one).
            let lanes = workers.len().max(1) as u64;
            Some((days_total - days_completed).saturating_mul(ewma) / lanes)
        };
        let mem = self
            .inner
            .mem_tracking
            .load(Ordering::Relaxed)
            .then(crate::alloc::stats);
        Progress {
            status: if finished { "done" } else { "running" },
            days_total,
            days_completed,
            days_inflight,
            degraded_days,
            flows,
            elapsed_ns: self.inner.started.elapsed().as_nanos() as u64,
            eta_ns,
            mem_live_bytes: mem.as_ref().map(|s| s.live_bytes),
            mem_peak_bytes: mem.as_ref().map(|s| s.peak_bytes),
            shards: self.inner.shards.load(Ordering::Relaxed),
            workers,
            shard_loads,
        }
    }

    /// Failed day attempts observed so far.
    pub fn degraded_days(&self) -> u64 {
        lock(&self.inner.tables).degraded
    }

    /// Wall clock since the publisher was created.
    pub fn elapsed(&self) -> std::time::Duration {
        self.inner.started.elapsed()
    }
}

/// The four events a study's workers report, each one locked
/// transition.
impl LivePublisher {
    /// `worker` pulled `day` and is about to stream it.
    pub fn day_started(&self, worker: usize, day: Day) {
        let mut t = lock(&self.inner.tables);
        let w = t.workers.entry(worker).or_default();
        w.current_day = Some(day.0);
        w.day_flows = 0;
        w.inflight = MetricsSnapshot::default();
    }

    /// Mid-day publication, every tick interval (`lockdown_core`'s
    /// `DEFAULT_LIVE_TICK` collected flows): the flows `worker` has
    /// collected so far this day and, when metrics are on, its
    /// day-scoped registry.
    pub fn day_tick(&self, worker: usize, flows: u64, registry: Option<&MetricsRegistry>) {
        let snap = registry.map(MetricsRegistry::snapshot);
        let mut t = lock(&self.inner.tables);
        let w = t.workers.entry(worker).or_default();
        w.day_flows = flows;
        if let Some(snap) = snap {
            // Replace, never merge: the day registry's counters are
            // cumulative for the day, so substitution keeps
            // base + inflight monotone.
            w.inflight = snap;
        }
    }

    /// `worker` completed its day: `flows` were attributed in
    /// `duration_ns` of wall time, and `metrics` is the day's final
    /// snapshot. `shard` names the population shard on a partitioned
    /// run, whose `/progress` carries per-shard load rows. The day
    /// moves from the worker's row into the run totals in one
    /// transition.
    pub fn day_finished(
        &self,
        worker: usize,
        shard: Option<u32>,
        flows: u64,
        duration_ns: u64,
        metrics: &MetricsSnapshot,
    ) {
        let mut t = lock(&self.inner.tables);
        t.base.merge(metrics);
        t.flows_done += flows;
        t.days_completed += 1;
        t.ewma_day_ns = if t.ewma_day_ns == 0 {
            duration_ns
        } else {
            (EWMA_ALPHA * duration_ns as f64 + (1.0 - EWMA_ALPHA) * t.ewma_day_ns as f64) as u64
        }
        .max(1);
        let w = t.workers.entry(worker).or_default();
        w.current_day = None;
        w.day_flows = 0;
        w.days_done += 1;
        w.inflight = MetricsSnapshot::default();
        if let Some(shard) = shard {
            let s = t.shards.entry(shard).or_default();
            s.days_done += 1;
            s.flows += flows;
            s.wall_ns += duration_ns;
        }
    }

    /// `worker`'s day attempt failed (panic or typed error). The study
    /// runner quarantines the day and retries it once; the attempt's
    /// partial state is discarded, exactly as the end-of-run merge
    /// discards it.
    pub fn day_failed(&self, worker: usize) {
        let mut t = lock(&self.inner.tables);
        t.degraded += 1;
        let w = t.workers.entry(worker).or_default();
        w.current_day = None;
        w.day_flows = 0;
        w.inflight = MetricsSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(flows: u64) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("pipeline.flows_collected").add(flows);
        reg
    }

    #[test]
    fn live_view_is_monotone_across_ticks_and_day_boundaries() {
        let live = LivePublisher::new();
        live.set_days_total(2);
        let last = std::cell::Cell::new(0);
        let probe = |live: &LivePublisher| {
            let v = live.metrics().counter("pipeline.flows_collected");
            assert!(
                v >= last.get(),
                "live counter regressed: {v} < {}",
                last.get()
            );
            last.set(v);
        };

        live.day_started(0, Day(0));
        probe(&live);
        let reg = registry_with(10);
        live.day_tick(0, 10, Some(&reg));
        probe(&live);
        reg.counter("pipeline.flows_collected").add(15);
        live.day_tick(0, 25, Some(&reg));
        probe(&live);
        // Day completes: final day snapshot >= last inflight.
        reg.counter("pipeline.flows_collected").add(5);
        live.day_finished(0, None, 30, 1_000_000, &reg.snapshot());
        probe(&live);
        assert_eq!(last.get(), 30);

        // Second day on another worker.
        live.day_started(1, Day(1));
        let reg2 = registry_with(7);
        live.day_tick(1, 7, Some(&reg2));
        probe(&live);
        assert_eq!(last.get(), 37);
        live.day_finished(1, None, 7, 3_000_000, &reg2.snapshot());
        probe(&live);

        let p = live.progress();
        assert_eq!(p.days_completed, 2);
        assert_eq!(p.days_inflight, 0);
        assert_eq!(p.flows, 37);
        assert_eq!(p.status, "running");
    }

    #[test]
    fn progress_tracks_workers_eta_and_finish() {
        let live = LivePublisher::new();
        live.set_days_total(10);
        assert_eq!(live.progress().eta_ns, None, "no ETA before first day");

        live.day_started(3, Day(5));
        let p = live.progress();
        assert_eq!(p.days_inflight, 1);
        assert_eq!(p.workers.len(), 1);
        assert_eq!(p.workers[0].worker, 3);
        assert_eq!(p.workers[0].day, Some(5));

        live.day_finished(3, None, 100, 1_000_000, &MetricsSnapshot::default());
        let p = live.progress();
        assert_eq!(p.days_completed, 1);
        // 9 days remain on 1 lane at ~1ms EWMA.
        let eta = p.eta_ns.expect("ETA after first day");
        assert!((8_000_000..=10_000_000).contains(&eta), "{eta}");

        // A second, slower day pulls the EWMA (and thus the ETA) up.
        live.day_started(3, Day(6));
        live.day_finished(3, None, 100, 5_000_000, &MetricsSnapshot::default());
        let eta2 = live.progress().eta_ns.expect("ETA");
        assert!(
            eta2 > eta,
            "EWMA must move toward slower days: {eta2} <= {eta}"
        );

        let mut fin = MetricsSnapshot::default();
        fin.counters.insert("pipeline.flows_collected".into(), 200);
        live.finish(&fin);
        let p = live.progress();
        assert_eq!(p.status, "done");
        assert_eq!(p.eta_ns, Some(0));
        assert_eq!(live.metrics().counter("pipeline.flows_collected"), 200);
    }

    #[test]
    fn failed_day_discards_inflight_and_counts_degraded() {
        let live = LivePublisher::new();
        live.day_started(0, Day(47));
        let reg = registry_with(50);
        live.day_tick(0, 50, Some(&reg));
        assert_eq!(live.metrics().counter("pipeline.flows_collected"), 50);
        live.day_failed(0);
        assert_eq!(live.metrics().counter("pipeline.flows_collected"), 0);
        assert_eq!(live.degraded_days(), 1);
        assert_eq!(live.progress().days_inflight, 0);
    }

    #[test]
    fn progress_json_is_strict_and_complete() {
        let live = LivePublisher::new();
        live.set_days_total(121);
        live.day_started(0, Day(3));
        live.day_tick(0, 42, None);
        let json = live.progress().to_json();
        let v = crate::json::parse(&json).expect("strict parse");
        assert_eq!(v.get("status").unwrap().as_str(), Some("running"));
        assert_eq!(v.get("days_total").unwrap().as_u64(), Some(121));
        assert!(v.get("eta_ns").unwrap().is_null());
        assert!(v.get("mem_live_bytes").unwrap().is_null());
        assert!(v.get("mem_peak_bytes").unwrap().is_null());
        assert_eq!(v.get("shards").unwrap().as_u64(), Some(1));
        let workers = v.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("day").unwrap().as_u64(), Some(3));
        assert_eq!(workers[0].get("day_flows").unwrap().as_u64(), Some(42));
        // Monolithic run: the key is always present, the array empty.
        assert_eq!(v.get("shard_loads").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn shard_loads_accumulate_and_round_trip() {
        let live = LivePublisher::new();
        live.set_shards(3);
        live.day_finished(0, Some(1), 10, 500, &MetricsSnapshot::default());
        live.day_finished(0, Some(0), 7, 300, &MetricsSnapshot::default());
        live.day_finished(0, Some(1), 5, 250, &MetricsSnapshot::default());
        let p = live.progress();
        assert_eq!(p.shard_loads.len(), 2);
        // Ordered by shard id, not arrival order.
        assert_eq!(p.shard_loads[0].shard, 0);
        assert_eq!(p.shard_loads[0].days_done, 1);
        assert_eq!(p.shard_loads[0].flows, 7);
        assert_eq!(p.shard_loads[0].wall_ns, 300);
        assert_eq!(p.shard_loads[1].shard, 1);
        assert_eq!(p.shard_loads[1].days_done, 2);
        assert_eq!(p.shard_loads[1].flows, 15);
        assert_eq!(p.shard_loads[1].wall_ns, 750);
        let v = crate::json::parse(&p.to_json()).expect("strict parse");
        let loads = v.get("shard_loads").unwrap().as_array().unwrap();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[1].get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(loads[1].get("days_done").unwrap().as_u64(), Some(2));
        assert_eq!(loads[1].get("flows").unwrap().as_u64(), Some(15));
        assert_eq!(loads[1].get("wall_ns").unwrap().as_u64(), Some(750));
    }

    #[test]
    fn mem_tracking_flag_surfaces_tracker_state_in_views() {
        let live = LivePublisher::new();
        // Off by default: no mem fields in progress, no mem gauges.
        let p = live.progress();
        assert_eq!(p.mem_live_bytes, None);
        assert_eq!(p.mem_peak_bytes, None);
        assert!(!live
            .exposition_metrics()
            .gauges
            .contains_key("mem.peak_bytes"));

        // On: the fields appear. This test binary has no tracking
        // allocator registered, so the values are the tracker's
        // resting zeros — presence, not magnitude, is the contract.
        live.set_mem_tracking(true);
        let p = live.progress();
        assert_eq!(p.mem_live_bytes, Some(crate::alloc::stats().live_bytes));
        assert!(p.mem_peak_bytes.is_some());
        let snap = live.exposition_metrics();
        assert!(snap.gauges.contains_key("mem.live_bytes"));
        assert!(snap.gauges.contains_key("mem.peak_bytes"));
        let json = live.progress().to_json();
        let v = crate::json::parse(&json).expect("strict parse");
        assert!(v.get("mem_live_bytes").unwrap().as_u64().is_some());
        assert!(v.get("mem_peak_bytes").unwrap().as_u64().is_some());
    }

    #[test]
    fn exposition_metrics_carry_live_gauges() {
        let live = LivePublisher::new();
        live.set_days_total(4);
        live.day_started(0, Day(0));
        live.day_finished(0, None, 9, 1_000, &MetricsSnapshot::default());
        let snap = live.exposition_metrics();
        assert_eq!(snap.gauge("study.live.days_completed"), 1);
        assert_eq!(snap.gauge("study.live.days_total"), 4);
        assert_eq!(snap.gauge("study.live.flows"), 9);
        assert!(snap.gauge("study.live.elapsed_ns") > 0);
    }
}
