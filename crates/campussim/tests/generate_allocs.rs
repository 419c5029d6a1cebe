//! Trace generation allocates nothing per event once a day's buffers
//! have grown: DNS queries carry their answer sets inline, the
//! generator borrows the directory's service lists, and one
//! used-services list serves every device of a day. A day streamed
//! through a `Batcher` therefore costs a handful of buffer growths, not
//! one allocation per DNS query. The count is exact for a given seed.

use campussim::{Batcher, CampusSim, DayBatch, DayBatchSink, SimConfig};
use lockdown_obs::alloc::{self, AllocScope};
use lockdown_obs::TrackingAlloc;
use nettrace::time::Day;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Allocations a streamed day may make per flow it emits.
const MAX_ALLOCS_PER_FLOW: f64 = 0.01;

/// Rows per batch, as the study pipeline cuts them.
const BATCH_ROWS: usize = 4096;

/// Drops every batch, so only the generator and the `Batcher` allocate.
struct Discard;

impl DayBatchSink for Discard {
    fn day_batch(&mut self, _batch: &mut DayBatch) {}
}

/// Stream `day` through a fresh `Batcher`; returns the flows emitted.
fn stream(sim: &CampusSim, day: Day) -> u64 {
    let mut sink = Discard;
    let mut batcher = Batcher::new(&mut sink, BATCH_ROWS);
    let flows = sim.stream_day(day, &mut batcher).flows;
    batcher.finish();
    flows
}

#[test]
fn streaming_a_day_allocates_almost_nothing_per_flow() {
    assert!(alloc::enable(), "tracking allocator not registered");
    let sim = CampusSim::new(SimConfig {
        scale: 0.02,
        seed: 7,
        ..Default::default()
    });
    // Warm-up: one-time set-up is not part of a day's cost.
    stream(&sim, Day(18));
    // Thursday 2/20, a pre-shutdown weekday with the whole campus on.
    let scope = AllocScope::begin();
    let flows = stream(&sim, Day(19));
    let allocs = scope.end().allocs;
    assert!(flows > 10_000, "only {flows} flows on day 19");
    let per_flow = allocs as f64 / flows as f64;
    eprintln!("day 19: {allocs} allocations for {flows} flows ({per_flow:.5} per flow)");
    assert!(
        per_flow < MAX_ALLOCS_PER_FLOW,
        "streaming day 19 made {allocs} allocations for {flows} flows ({per_flow:.4} per flow, bound {MAX_ALLOCS_PER_FLOW})"
    );
}
