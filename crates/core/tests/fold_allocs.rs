//! Folding a day collector into the run collector maps each of the
//! day's devices once: the collector's one device index builds one slot
//! map, and every store adds through it. Once the run collector holds
//! the day's devices, a fold allocates that slot map, the site counter's
//! site-id map, and nothing per store. The count is exact for a given
//! seed.

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use lockdown_core::{process_day_batched, PipelineOptions};
use lockdown_obs::{alloc, AllocScope, TrackingAlloc};
use nettrace::time::{Day, StudyCalendar};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Allocations one fold into a warm run collector may make: the slot
/// map, the site-id map and one spare.
const MAX_FOLD_ALLOCS: u64 = 3;

#[test]
fn a_warm_fold_maps_each_device_once() {
    assert!(alloc::enable(), "tracking allocator not registered");
    let sim = CampusSim::new(SimConfig {
        scale: 0.02,
        seed: 7,
        ..Default::default()
    });
    let ctx = PipelineCtx::study();
    let collect = |day: Day| {
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        let mut c = StudyCollector::new();
        process_day_batched(opts, &mut c, &sim);
        c
    };
    let mut run = StudyCollector::new();
    for d in 0..StudyCalendar::NUM_DAYS {
        run.merge(collect(Day(d)));
    }
    // Monday 5/11: the run collector already holds every device, row
    // and site bit this day brings.
    let again = collect(Day(100));
    let devices = again.devices().len();
    assert!(devices > 50, "only {devices} devices on day 100");
    let scope = AllocScope::begin();
    run.merge(again);
    let fold = scope.end();
    eprintln!(
        "re-folding day 100 ({devices} devices): {} allocations, {} B",
        fold.allocs, fold.alloc_bytes
    );
    assert!(
        fold.allocs <= MAX_FOLD_ALLOCS,
        "a warm fold made {} allocations (bound {MAX_FOLD_ALLOCS})",
        fold.allocs
    );
}
