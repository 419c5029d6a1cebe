//! Normalization allocates nothing per lease once a day's maps have
//! grown: the lease tracker keeps each IP's latest closed interval
//! inline, and every generated device-day ends with a release, so a
//! `Vec` per closed lease would cost one allocation per active
//! device-day. The count is exact for a given seed.

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use lockdown_core::{process_day_batched, PipelineOptions};
use lockdown_obs::{alloc, MetricsRegistry, TrackingAlloc};
use nettrace::time::Day;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Allocations the normalize stage may make per flow of a day.
const MAX_ALLOCS_PER_FLOW: f64 = 0.005;

#[test]
fn normalizing_a_day_allocates_almost_nothing_per_flow() {
    assert!(alloc::enable(), "tracking allocator not registered");
    let sim = CampusSim::new(SimConfig {
        scale: 0.02,
        seed: 7,
        ..Default::default()
    });
    let ctx = PipelineCtx::study();
    let registry = MetricsRegistry::new();
    // Thursday 2/20, a pre-shutdown weekday with the whole campus on.
    let opts = PipelineOptions::new(
        &ctx,
        sim.directory().table(),
        Day(19),
        sim.config().anon_key,
    )
    .metrics(&registry)
    .track_memory(true);
    process_day_batched(opts, &mut StudyCollector::new(), &sim);
    let m = registry.snapshot();
    let (allocs, flows) = (
        m.counter("mem.stage.normalize.allocs"),
        m.counter("pipeline.flows_in"),
    );
    let leases = m.counter("normalize.lease_events");
    assert!(flows > 10_000, "only {flows} flows on day 19");
    let per_flow = allocs as f64 / flows as f64;
    eprintln!(
        "day 19: normalize made {allocs} allocations for {flows} flows and {leases} lease events ({per_flow:.5} per flow)"
    );
    assert!(
        per_flow < MAX_ALLOCS_PER_FLOW,
        "normalizing day 19 made {allocs} allocations for {flows} flows ({per_flow:.4} per flow, bound {MAX_ALLOCS_PER_FLOW})"
    );
}
