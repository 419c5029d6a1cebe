//! A day collector holds one day: after `process_day_batched` the
//! collector retains at most [`MAX_BYTES_PER_DEVICE`] of heap per device
//! active that day, on a figure-3-week day (the widest day the study
//! has). A per-device row as wide as the study (121 days, or 672 hours
//! of the four figure weeks) costs more than that on its own, so this
//! fails whenever one comes back. The count is exact for a given seed.

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use lockdown_core::{process_day_batched, PipelineOptions};
use lockdown_obs::{alloc, TrackingAlloc};
use nettrace::time::Day;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Heap a day collector may keep per active device.
const MAX_BYTES_PER_DEVICE: u64 = 2048;

#[test]
fn day_collector_retains_one_day_per_device() {
    assert!(alloc::enable(), "tracking allocator not registered");
    let sim = CampusSim::new(SimConfig {
        scale: 0.02,
        seed: 7,
        ..Default::default()
    });
    let ctx = PipelineCtx::study();
    // Thursday 2/20: the first day of the first figure-3 week.
    let day = Day(19);
    let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
    let mut collector = StudyCollector::new();
    let before = alloc::stats().live_bytes;
    process_day_batched(opts, &mut collector, &sim);
    let retained = alloc::stats().live_bytes.saturating_sub(before);
    let devices = collector.volume.device_count() as u64;
    assert!(devices > 100, "only {devices} devices active on day 19");
    eprintln!(
        "day 19: {devices} devices, {retained} B retained ({} B per device)",
        retained / devices
    );
    assert!(
        retained <= MAX_BYTES_PER_DEVICE * devices,
        "day collector retains {retained} B for {devices} devices ({} B each, bound {MAX_BYTES_PER_DEVICE})",
        retained / devices
    );
}
