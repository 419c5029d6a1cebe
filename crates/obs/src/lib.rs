//! # lockdown-obs — pipeline observability
//!
//! A lightweight, dependency-free metrics and tracing layer for the
//! measurement pipeline. Campus monitors earn trust in their numbers by
//! continuously watching their own counters — per-stage throughput,
//! flow-table occupancy, attribution rates — and this crate gives the
//! reproduction the same vantage point:
//!
//! * [`MetricsRegistry`] — named atomic counters, gauges and
//!   fixed-bucket histograms. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are acquired once per stage and are then pure
//!   `Relaxed` atomics on the hot path.
//! * [`live`] — the one live view of a run: a [`LivePublisher`] hears
//!   each worker's day boundaries (`day_started`, `day_tick`,
//!   `day_finished`, `day_failed`) and merges their coarse snapshots
//!   into a monotone read-side view with run progress ([`Progress`])
//!   and an EWMA-based ETA.
//! * [`prom`] — Prometheus text exposition (format 0.0.4) rendering of
//!   a [`MetricsSnapshot`], including histogram `_bucket`/`_sum`/
//!   `_count` series and p50/p95/p99 quantile companions, plus a strict
//!   parser used by tests and `repro probe`.
//! * [`serve`] — [`TelemetryServer`], a dependency-free blocking HTTP
//!   listener exposing `/metrics`, `/healthz`, and `/progress` from a
//!   [`LivePublisher`] while a run is in flight.
//! * [`trace`] — span-based timelines: a [`SpanRecorder`] collecting
//!   nested, attributed spans per worker lane, exported as Chrome
//!   trace-event JSON (Perfetto / `chrome://tracing`) or collapsed
//!   stacks for flamegraphs.
//! * [`manifest`] — [`RunManifest`], a provenance record (config hash,
//!   seed, crate versions, span totals, metrics snapshot) that makes an
//!   artifact directory self-describing.
//! * [`alloc`] — [`TrackingAlloc`], a counting `GlobalAlloc` wrapper
//!   (live/peak bytes, alloc/dealloc/realloc counts) with per-thread
//!   [`AllocScope`]s that attribute allocation deltas to the same
//!   day/stage seams the trace spans already instrument. Near-zero cost
//!   when tracking is off: one `Relaxed` load and a branch per
//!   allocator call.
//!
//! Instrumentation is zero-cost when off: every instrumented call site
//! takes an `Option` of a handle (for spans, the absence of an
//! installed lane), so the disabled path is a single predictable
//! branch.
//!
//! ```
//! use lockdown_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let flows = reg.counter("pipeline.flows_in");
//! flows.add(3);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("pipeline.flows_in"), 3);
//! ```

// `deny`, not `forbid`: the `alloc` module's `GlobalAlloc` impl is the
// one sanctioned unsafe block in the crate and opts out locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod live;
pub mod manifest;
pub mod metrics;
pub mod prom;
pub mod serve;
pub mod trace;

pub use alloc::{AllocScope, AllocStats, ScopeDelta, TrackingAlloc};
pub use live::{LivePublisher, Progress, ShardLoad, WorkerProgress};
pub use manifest::{
    AccuracySection, DegradedEntry, FigureContract, MemorySection, RunManifest, ShardingSection,
    StageMemory,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use serve::TelemetryServer;
pub use trace::{SpanRecorder, Trace};

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Publish a [`nettrace::assembler::AssemblerStats`] into a registry as
/// the conventional `assembler.*` gauges and counters. Lives here (and
/// not in `nettrace`) so the codec crate stays metrics-agnostic.
pub fn record_assembler_stats(reg: &MetricsRegistry, stats: &nettrace::assembler::AssemblerStats) {
    reg.counter("assembler.packets").add(stats.packets);
    reg.counter("assembler.completed.fin")
        .add(stats.completed_fin);
    reg.counter("assembler.completed.rst")
        .add(stats.completed_rst);
    reg.counter("assembler.completed.idle")
        .add(stats.completed_idle);
    reg.counter("assembler.completed.sweep")
        .add(stats.completed_sweep);
    reg.counter("assembler.flushed").add(stats.flushed);
    reg.counter("assembler.malformed.frames")
        .add(stats.malformed_frames);
    reg.gauge("assembler.peak_live_flows")
        .set_max(stats.peak_live_flows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembler_stats_export_lands_in_registry() {
        let reg = MetricsRegistry::new();
        let stats = nettrace::assembler::AssemblerStats {
            packets: 10,
            completed_fin: 2,
            completed_rst: 1,
            completed_idle: 3,
            completed_sweep: 1,
            flushed: 1,
            malformed_frames: 4,
            peak_live_flows: 7,
        };
        record_assembler_stats(&reg, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("assembler.packets"), 10);
        assert_eq!(snap.counter("assembler.completed.fin"), 2);
        assert_eq!(snap.counter("assembler.malformed.frames"), 4);
        assert_eq!(snap.gauge("assembler.peak_live_flows"), 7);
    }
}
