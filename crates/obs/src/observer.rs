//! Run-level progress events.
//!
//! A [`RunObserver`] is shared by every worker of a study run and
//! receives coarse progress events — one per day, per worker, or per
//! tick interval (thousands of records), never per record, so even a
//! chatty observer cannot slow the pipeline down. [`NullObserver`] is
//! the zero-cost default; [`TextProgress`] streams human-readable lines
//! to stderr; [`CountingObserver`] tallies events; [`Fanout`] composes
//! two observers so a run can feed, say, a
//! [`crate::live::LivePublisher`] and a progress printer at once.
//!
//! Two events are *publication hooks* for live telemetry rather than
//! progress notifications: [`RunObserver::day_tick`] fires every N
//! records mid-day with the worker's day-scoped registry, and
//! [`RunObserver::day_metrics`] fires once per completed day with the
//! day's final snapshot and wall duration. Both default to no-ops.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use nettrace::time::Day;
use std::sync::atomic::{AtomicU64, Ordering};

/// Receives progress events from a study run. All methods default to
/// no-ops so observers implement only what they care about; the
/// observer is shared across workers, hence `Send + Sync`.
pub trait RunObserver: Send + Sync {
    /// A worker pulled `day` off the queue and is about to stream it.
    fn day_started(&self, worker: usize, day: Day) {
        let _ = (worker, day);
    }

    /// A worker finished streaming `day`; `flows` is the number of
    /// flow records attributed during that day.
    fn day_finished(&self, worker: usize, day: Day, flows: u64) {
        let _ = (worker, day, flows);
    }

    /// A sharded run resolved one (shard, day) grid cell: `flows` were
    /// attributed and the cell took `duration_ns` of worker wall time.
    /// Fires once per cell *in addition to* [`RunObserver::day_finished`]
    /// (which carries no shard identity); one-shard exact runs never
    /// emit it.
    fn shard_day_finished(&self, shard: u32, day: Day, flows: u64, duration_ns: u64) {
        let _ = (shard, day, flows, duration_ns);
    }

    /// Periodic mid-day publication hook: fires every tick interval
    /// (`lockdown_core`'s `DEFAULT_LIVE_TICK` collected flows) with the
    /// flows collected so far this day and, when metrics are on, the
    /// worker's day-scoped registry. An observer that wants a live
    /// snapshot takes it here; the default does nothing, so runs
    /// without live telemetry pay only the virtual call.
    fn day_tick(&self, worker: usize, day: Day, flows: u64, registry: Option<&MetricsRegistry>) {
        let _ = (worker, day, flows, registry);
    }

    /// A day completed: its final metrics snapshot and wall duration,
    /// published before the snapshot is merged into the worker's
    /// running totals.
    fn day_metrics(&self, worker: usize, day: Day, duration_ns: u64, metrics: &MetricsSnapshot) {
        let _ = (worker, day, duration_ns, metrics);
    }

    /// A worker's day processing failed (panic or typed error) on the
    /// given attempt (0 = first try). The study runner quarantines the
    /// day and retries it once; the observer just hears about it.
    fn day_failed(&self, worker: usize, day: Day, attempt: u32, error: &str) {
        let _ = (worker, day, attempt, error);
    }

    /// A worker found the day queue empty and is shutting down.
    fn worker_idle(&self, worker: usize) {
        let _ = worker;
    }
}

/// Forwarding impls so a caller can hand a run a shared (or owned)
/// handle and keep another for itself — e.g. an `Arc<CountingObserver>`
/// it inspects after the run.
macro_rules! forward_observer {
    ($ty:ty) => {
        impl<T: RunObserver + ?Sized> RunObserver for $ty {
            fn day_started(&self, worker: usize, day: Day) {
                (**self).day_started(worker, day)
            }

            fn day_finished(&self, worker: usize, day: Day, flows: u64) {
                (**self).day_finished(worker, day, flows)
            }

            fn shard_day_finished(&self, shard: u32, day: Day, flows: u64, duration_ns: u64) {
                (**self).shard_day_finished(shard, day, flows, duration_ns)
            }

            fn day_tick(
                &self,
                worker: usize,
                day: Day,
                flows: u64,
                registry: Option<&MetricsRegistry>,
            ) {
                (**self).day_tick(worker, day, flows, registry)
            }

            fn day_metrics(
                &self,
                worker: usize,
                day: Day,
                duration_ns: u64,
                metrics: &MetricsSnapshot,
            ) {
                (**self).day_metrics(worker, day, duration_ns, metrics)
            }

            fn day_failed(&self, worker: usize, day: Day, attempt: u32, error: &str) {
                (**self).day_failed(worker, day, attempt, error)
            }

            fn worker_idle(&self, worker: usize) {
                (**self).worker_idle(worker)
            }
        }
    };
}

forward_observer!(std::sync::Arc<T>);
forward_observer!(Box<T>);
forward_observer!(&T);

/// The do-nothing observer: every callback inlines to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// Forwards every event to two observers, `a` first. Nest fanouts to
/// compose more than two; the study runner uses this to attach a
/// [`crate::live::LivePublisher`] without displacing the caller's
/// observer.
#[derive(Debug)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: RunObserver, B: RunObserver> RunObserver for Fanout<A, B> {
    fn day_started(&self, worker: usize, day: Day) {
        self.0.day_started(worker, day);
        self.1.day_started(worker, day);
    }

    fn day_finished(&self, worker: usize, day: Day, flows: u64) {
        self.0.day_finished(worker, day, flows);
        self.1.day_finished(worker, day, flows);
    }

    fn shard_day_finished(&self, shard: u32, day: Day, flows: u64, duration_ns: u64) {
        self.0.shard_day_finished(shard, day, flows, duration_ns);
        self.1.shard_day_finished(shard, day, flows, duration_ns);
    }

    fn day_tick(&self, worker: usize, day: Day, flows: u64, registry: Option<&MetricsRegistry>) {
        self.0.day_tick(worker, day, flows, registry);
        self.1.day_tick(worker, day, flows, registry);
    }

    fn day_metrics(&self, worker: usize, day: Day, duration_ns: u64, metrics: &MetricsSnapshot) {
        self.0.day_metrics(worker, day, duration_ns, metrics);
        self.1.day_metrics(worker, day, duration_ns, metrics);
    }

    fn day_failed(&self, worker: usize, day: Day, attempt: u32, error: &str) {
        self.0.day_failed(worker, day, attempt, error);
        self.1.day_failed(worker, day, attempt, error);
    }

    fn worker_idle(&self, worker: usize) {
        self.0.worker_idle(worker);
        self.1.worker_idle(worker);
    }
}

/// Streams one human-readable line per event to stderr.
#[derive(Debug, Default)]
pub struct TextProgress {
    days_done: AtomicU64,
}

impl TextProgress {
    /// A fresh stderr progress printer.
    pub fn stderr() -> Self {
        TextProgress::default()
    }
}

impl RunObserver for TextProgress {
    fn day_finished(&self, worker: usize, day: Day, flows: u64) {
        let done = self.days_done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[obs] day {:>3} done on worker {worker} ({flows} flows, {done} days total)",
            day.0
        );
    }

    fn day_failed(&self, worker: usize, day: Day, attempt: u32, error: &str) {
        eprintln!(
            "[obs] day {:>3} FAILED on worker {worker} (attempt {attempt}): {error}",
            day.0
        );
    }

    fn worker_idle(&self, worker: usize) {
        eprintln!("[obs] worker {worker} idle: day queue drained");
    }
}

/// Tallies events without rendering them — handy in tests and as a
/// cheap liveness probe.
#[derive(Debug, Default)]
pub struct CountingObserver {
    days_started: AtomicU64,
    days_finished: AtomicU64,
    workers_idled: AtomicU64,
    days_failed: AtomicU64,
    flows: AtomicU64,
    ticks: AtomicU64,
    day_metrics_seen: AtomicU64,
    shard_days: AtomicU64,
}

impl CountingObserver {
    /// A fresh zeroed counter set.
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// Days started so far.
    pub fn days_started(&self) -> u64 {
        self.days_started.load(Ordering::Relaxed)
    }

    /// Days finished so far.
    pub fn days_finished(&self) -> u64 {
        self.days_finished.load(Ordering::Relaxed)
    }

    /// Workers that reported idle.
    pub fn workers_idled(&self) -> u64 {
        self.workers_idled.load(Ordering::Relaxed)
    }

    /// Day failures reported (every attempt counts).
    pub fn days_failed(&self) -> u64 {
        self.days_failed.load(Ordering::Relaxed)
    }

    /// Total flows reported through `day_finished`.
    pub fn flows(&self) -> u64 {
        self.flows.load(Ordering::Relaxed)
    }

    /// Mid-day publication ticks received.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// `day_metrics` publications received (one per completed day).
    pub fn day_metrics_seen(&self) -> u64 {
        self.day_metrics_seen.load(Ordering::Relaxed)
    }

    /// Sharded (shard, day) cells reported through `shard_day_finished`.
    pub fn shard_days_finished(&self) -> u64 {
        self.shard_days.load(Ordering::Relaxed)
    }
}

impl RunObserver for CountingObserver {
    fn day_started(&self, _worker: usize, _day: Day) {
        self.days_started.fetch_add(1, Ordering::Relaxed);
    }

    fn day_finished(&self, _worker: usize, _day: Day, flows: u64) {
        self.days_finished.fetch_add(1, Ordering::Relaxed);
        self.flows.fetch_add(flows, Ordering::Relaxed);
    }

    fn shard_day_finished(&self, _shard: u32, _day: Day, _flows: u64, _duration_ns: u64) {
        self.shard_days.fetch_add(1, Ordering::Relaxed);
    }

    fn day_tick(
        &self,
        _worker: usize,
        _day: Day,
        _flows: u64,
        _registry: Option<&MetricsRegistry>,
    ) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    fn day_metrics(
        &self,
        _worker: usize,
        _day: Day,
        _duration_ns: u64,
        _metrics: &MetricsSnapshot,
    ) {
        self.day_metrics_seen.fetch_add(1, Ordering::Relaxed);
    }

    fn day_failed(&self, _worker: usize, _day: Day, _attempt: u32, _error: &str) {
        self.days_failed.fetch_add(1, Ordering::Relaxed);
    }

    fn worker_idle(&self, _worker: usize) {
        self.workers_idled.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observer_tallies() {
        let obs = CountingObserver::new();
        obs.day_started(1, Day(0));
        obs.day_finished(1, Day(0), 10);
        obs.day_finished(2, Day(1), 5);
        obs.day_failed(0, Day(2), 0, "boom");
        obs.worker_idle(1);
        obs.day_tick(1, Day(0), 5, None);
        obs.day_metrics(1, Day(0), 123, &MetricsSnapshot::default());
        assert_eq!(obs.days_started(), 1);
        assert_eq!(obs.days_finished(), 2);
        assert_eq!(obs.flows(), 15);
        assert_eq!(obs.days_failed(), 1);
        assert_eq!(obs.workers_idled(), 1);
        assert_eq!(obs.ticks(), 1);
        assert_eq!(obs.day_metrics_seen(), 1);
    }

    #[test]
    fn fanout_forwards_every_event_to_both() {
        let a = CountingObserver::new();
        let b = CountingObserver::new();
        let fan = Fanout(&a, &b);
        fan.day_started(0, Day(0));
        fan.day_tick(0, Day(0), 3, None);
        fan.day_metrics(0, Day(0), 9, &MetricsSnapshot::default());
        fan.day_finished(0, Day(0), 3);
        fan.shard_day_finished(2, Day(0), 3, 77);
        fan.day_failed(1, Day(1), 0, "boom");
        fan.worker_idle(0);
        for obs in [&a, &b] {
            assert_eq!(obs.days_started(), 1);
            assert_eq!(obs.ticks(), 1);
            assert_eq!(obs.day_metrics_seen(), 1);
            assert_eq!(obs.days_finished(), 1);
            assert_eq!(obs.shard_days_finished(), 1);
            assert_eq!(obs.days_failed(), 1);
            assert_eq!(obs.workers_idled(), 1);
        }
    }

    #[test]
    fn null_observer_is_shareable_across_threads() {
        let obs = NullObserver;
        let r: &dyn RunObserver = &obs;
        std::thread::scope(|s| {
            s.spawn(|| r.day_started(0, Day(0)));
            s.spawn(|| r.worker_idle(1));
        });
    }
}
