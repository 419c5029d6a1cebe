//! A `/progress` snapshot agrees with itself while a run is in flight.
//! Every day boundary moves the day from its worker's row into the run
//! totals in one transition, so a concurrent reader never sees a day
//! counted in one place and not yet in the other.

use lockdown_obs::{LivePublisher, MetricsSnapshot};
use nettrace::time::Day;
use std::sync::atomic::{AtomicBool, Ordering};

/// Days the writer completes on its one worker.
const DAYS: u64 = 200_000;
/// Flows each day attributes; half of them are published mid-day.
const FLOWS_PER_DAY: u64 = 10;

#[test]
fn progress_snapshots_agree_with_their_worker_rows_under_concurrent_reads() {
    let live = LivePublisher::new();
    live.set_days_total(DAYS);
    let done = AtomicBool::new(false);
    let empty = MetricsSnapshot::default();
    let (reads, days_broken, flows_broken) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut reads, mut days_broken, mut flows_broken) = (0u64, 0u64, 0u64);
            loop {
                let finished = done.load(Ordering::Acquire);
                let p = live.progress();
                let days_done: u64 = p.workers.iter().map(|w| w.days_done).sum();
                let day_flows: u64 = p.workers.iter().map(|w| w.day_flows).sum();
                reads += 1;
                days_broken += u64::from(p.days_completed != days_done);
                flows_broken += u64::from(p.flows != days_done * FLOWS_PER_DAY + day_flows);
                if finished {
                    return (reads, days_broken, flows_broken);
                }
            }
        });
        for d in 0..DAYS {
            live.day_started(0, Day((d % 121) as u16));
            live.day_tick(0, FLOWS_PER_DAY / 2, None);
            live.day_finished(0, None, FLOWS_PER_DAY, 1_000, &empty);
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader")
    });
    assert_eq!(
        days_broken, 0,
        "{days_broken} of {reads} snapshots: days_completed != Σ days_done"
    );
    assert_eq!(
        flows_broken, 0,
        "{flows_broken} of {reads} snapshots: flows != completed days' flows + Σ day_flows"
    );
    let p = live.progress();
    assert_eq!(p.days_completed, DAYS);
    assert_eq!(p.flows, DAYS * FLOWS_PER_DAY);
}
