//! End-to-end memory observability: with the tracking allocator
//! registered and `track_memory(true)`, a run lands `mem.*` counters
//! and gauges whose accounting identities close at every layer
//! (run ≥ day ≥ summed stages) and a populated manifest `memory`
//! section. With tracking off — even while the global tracker is
//! enabled by a concurrent tracked run in the same process — the run
//! carries no `mem.*` keys and its results are identical to a tracked
//! run's, because tracking is observation-only.

use campussim::SimConfig;
use lockdown_obs::TrackingAlloc;
use locked_in_lockdown::prelude::*;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn tiny() -> SimConfig {
    SimConfig {
        scale: 0.02,
        ..Default::default()
    }
}

#[test]
fn tracked_run_closes_accounting_identities() {
    let run = Study::builder(tiny())
        .threads(2)
        .track_memory(true)
        .run()
        .expect("tracked run");
    let study = &run.study;
    let m = study.metrics();

    // Run-level: the peak is a high-water mark over live bytes, so it
    // bounds the live gauge sampled at finalize.
    let peak = m.gauge("mem.peak_bytes");
    let live = m.gauge("mem.live_bytes");
    assert!(peak > 0, "no peak recorded");
    assert!(peak >= live, "peak {peak} < live {live}");
    let allocs = m.counter("mem.allocs");
    let alloc_bytes = m.counter("mem.alloc_bytes");
    assert!(
        allocs > 0 && alloc_bytes > 0,
        "{allocs} allocs, {alloc_bytes} B"
    );

    // Day-level scopes only cover pipeline work, a subset of the run.
    let day_alloc_bytes = m.counter("mem.day.alloc_bytes");
    assert!(day_alloc_bytes > 0, "day scopes recorded nothing");
    assert!(day_alloc_bytes <= alloc_bytes);
    assert!(m.counter("mem.day.allocs") <= allocs);

    // Stage-level scopes nest inside day scopes, so their sums are
    // bounded by the day totals and every stage peak by the run peak.
    let stage = |s: &str, what: &str| format!("mem.stage.{s}.{what}");
    let stages = ["normalize", "resolver", "collect"];
    let stage_alloc_bytes: u64 = stages
        .iter()
        .map(|s| m.counter(&stage(s, "alloc_bytes")))
        .sum();
    let stage_allocs: u64 = stages.iter().map(|s| m.counter(&stage(s, "allocs"))).sum();
    assert!(stage_alloc_bytes > 0, "stage scopes recorded nothing");
    assert!(stage_alloc_bytes <= day_alloc_bytes);
    assert!(stage_allocs <= m.counter("mem.day.allocs"));
    for s in stages {
        assert!(
            m.gauge(&stage(s, "peak_net_bytes")) <= peak,
            "stage {s} peak exceeds the run peak"
        );
    }

    // The manifest carries the same numbers, and the text report
    // surfaces the headline line.
    let manifest = report::run_manifest(&report::RunView::exact(&run), 2, None);
    let mem = manifest.memory.expect("tracked manifest memory section");
    assert_eq!(mem.peak_bytes, peak);
    assert_eq!(mem.allocs, allocs);
    assert!(mem.allocs_per_flow > 0.0);
    assert_eq!(mem.per_stage.len(), stages.len());
    let manifest_stage_bytes: u64 = mem.per_stage.values().map(|s| s.alloc_bytes).sum();
    assert_eq!(manifest_stage_bytes, stage_alloc_bytes);
    assert!(report::metrics_report(study).contains("-- Memory: peak"));
}

#[test]
fn tracking_off_is_observationally_inert() {
    // A tracked run first: in this process the global tracker may now
    // be enabled, which is exactly the pollution the explicit
    // `track_memory` gate must shrug off.
    let tracked = Study::builder(tiny())
        .threads(1)
        .track_memory(true)
        .run()
        .expect("tracked run");
    let untracked = Study::builder(tiny()).threads(1).run().expect("untracked");

    // No mem.* keys leak into the untracked run's metrics or manifest.
    let m = untracked.study.metrics();
    assert!(
        m.counters.keys().all(|k| !k.starts_with("mem.")),
        "mem.* counters leaked into an untracked run"
    );
    assert!(
        m.gauges.keys().all(|k| !k.starts_with("mem.")),
        "mem.* gauges leaked into an untracked run"
    );
    let manifest = report::run_manifest(&report::RunView::exact(&untracked), 1, None);
    assert!(manifest.memory.is_none());
    assert!(!report::metrics_report(&untracked.study).contains("-- Memory:"));

    // Tracking is observation-only: results and provenance agree with
    // the tracked run at the same seed.
    let (a, b) = (&tracked.study, &untracked.study);
    assert_eq!(a.headline(), b.headline());
    assert_eq!(a.norm_stats, b.norm_stats);
    assert_eq!(
        a.metrics().counter("pipeline.flows_collected"),
        b.metrics().counter("pipeline.flows_collected")
    );
    let ma = report::run_manifest(&report::RunView::exact(&tracked), 1, None);
    assert_eq!(ma.config_hash_hex, manifest.config_hash_hex);
}
