//! Two-way pipeline equivalence: the materialized oracle vs. the
//! batched production driver.
//!
//! The repo keeps two drivers for the same record path:
//!
//! 1. **oracle** (`process_day`): materialize a `DayTrace`, batch-build
//!    the lease index and resolver map, collect from a
//!    `Vec<LabeledFlow>`. Kept precisely as the reference.
//! 2. **batched** (`process_day_batched`): the production hot path —
//!    the generator streams into `FlowBatch`es that run through the
//!    `BatchStage` seam, never materializing a day.
//!
//! Same campus, same days: both must be *identical*, down to the
//! bitwise-equal `f64`s in the headline statistics, at every batch size
//! (including 1, a size that straddles batch cuts mid-device, the
//! default, and one larger than any day) and under fault injection.
//! Parallel runs are held to the same standard — the ordered reduction
//! makes thread count and work-stealing schedule invisible, with no
//! float tolerance anywhere.

use analysis::collect::{PipelineCtx, StudyCollector};
use analysis::figures::{headline_stats, StudySummary};
use campussim::{CampusSim, FaultProfile, SimConfig};
use dhcplog::NormalizeStats;
use lockdown_core::{process_day, process_day_batched, PipelineOptions, Study, DEFAULT_BATCH_ROWS};
use nettrace::time::{Day, StudyCalendar};

fn cfg_1pct() -> SimConfig {
    SimConfig {
        scale: 0.01,
        ..Default::default()
    }
}

/// The oracle driver: sequential days, each fully materialized.
fn run_oracle(cfg: SimConfig) -> (CampusSim, StudyCollector, NormalizeStats) {
    let sim = CampusSim::new(cfg);
    let ctx = PipelineCtx::study();
    let mut collector = StudyCollector::new();
    let mut stats = NormalizeStats::default();
    let days: Vec<Day> = StudyCalendar::days().collect();
    for &day in &days {
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        stats += process_day(opts, &mut collector, &trace);
    }
    (sim, collector, stats)
}

/// The batched driver: sequential days, `rows`-row flow batches.
fn run_batched(cfg: SimConfig, rows: usize) -> (StudyCollector, NormalizeStats) {
    let sim = CampusSim::new(cfg);
    let ctx = PipelineCtx::study();
    let mut collector = StudyCollector::new();
    let mut stats = NormalizeStats::default();
    for day in StudyCalendar::days() {
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
            .batch_rows(rows);
        stats += process_day_batched(opts, &mut collector, &sim);
    }
    (collector, stats)
}

/// Full-study comparison of two collectors: every device's summary
/// (resident, classification, post-shutdown, sub-population), and
/// bit-exact headline statistics.
fn assert_equivalent(
    a: &StudyCollector,
    b: &StudyCollector,
    a_stats: &NormalizeStats,
    b_stats: &NormalizeStats,
    label: &str,
) {
    assert_eq!(a_stats, b_stats, "normalization stats diverge: {label}");
    let sa = StudySummary::finalize(a);
    let sb = StudySummary::finalize(b);
    assert_eq!(
        sa.by_device(a),
        sb.by_device(b),
        "device summaries diverge: {label}"
    );
    assert_eq!(
        headline_stats(a, &sa),
        headline_stats(b, &sb),
        "headline statistics diverge: {label}"
    );
}

#[test]
fn streaming_study_matches_batch_study() {
    // `Study` drives the batched path; holding it against the
    // oracle covers the production default end to end.
    let streamed = Study::builder(cfg_1pct()).run().unwrap().into_study();
    let (_sim, oracle_collector, oracle_stats) = run_oracle(cfg_1pct());

    assert_eq!(
        streamed.norm_stats, oracle_stats,
        "normalization statistics diverge between the study and the oracle"
    );

    let oracle_summary = StudySummary::finalize(&oracle_collector);
    assert_eq!(
        streamed.summary.by_device(&streamed.collector),
        oracle_summary.by_device(&oracle_collector)
    );

    let hs = streamed.headline();
    let ho = headline_stats(&oracle_collector, &oracle_summary);
    assert_eq!(hs, ho, "headline statistics diverge");
}

#[test]
fn parallel_streaming_matches_batch_study() {
    // The work-stealing scheduler assigns days to workers
    // nondeterministically; the result must not care — bit for bit,
    // floats included. The ordered reduction folds day collectors in
    // calendar order regardless of schedule, so no tolerance is needed.
    let streamed = Study::builder(cfg_1pct())
        .threads(4)
        .run()
        .unwrap()
        .into_study();
    let (_sim, oracle_collector, oracle_stats) = run_oracle(cfg_1pct());
    assert_eq!(streamed.norm_stats, oracle_stats);
    let oracle_summary = StudySummary::finalize(&oracle_collector);
    let hs = streamed.headline();
    let ho = headline_stats(&oracle_collector, &oracle_summary);
    assert_eq!(hs, ho, "headline statistics diverge across schedules");
}

#[test]
fn batched_matches_oracle_at_every_batch_size() {
    let (_sim, oracle, oracle_stats) = run_oracle(cfg_1pct());
    // Batch size 1 degenerates to per-record; 997 is odd and far from
    // any power of two, so cuts land mid-device-run; the default is the
    // production path; a huge size means one batch per day.
    for rows in [1usize, 997, DEFAULT_BATCH_ROWS, usize::MAX] {
        let (batched, batch_stats) = run_batched(cfg_1pct(), rows);
        assert_equivalent(
            &oracle,
            &batched,
            &oracle_stats,
            &batch_stats,
            &format!("oracle vs batched(rows={rows})"),
        );
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_thread_counts() {
    // The fault layer draws its RNG per record, keyed by (seed, day,
    // shard), so a corrupted stream is the *same* corrupted stream on
    // any worker and at any thread count. Batch-size invariance of the
    // faulted stream is pinned at the pipeline level.
    let profile = || {
        FaultProfile::new()
            .frame_corruption(0.05)
            .dns_answer_drops(0.05)
    };
    let base = Study::builder(cfg_1pct())
        .fault_profile(profile())
        .run()
        .unwrap()
        .into_study();
    for threads in [2usize, 4] {
        let other = Study::builder(cfg_1pct())
            .fault_profile(profile())
            .threads(threads)
            .run()
            .unwrap()
            .into_study();
        assert_eq!(
            base.norm_stats, other.norm_stats,
            "faulted stats diverge at threads={threads}"
        );
        assert_eq!(
            base.headline(),
            other.headline(),
            "faulted headline diverges at threads={threads}"
        );
        // The fault taxonomy itself is schedule-invariant.
        for name in [
            "pipeline.errors.flows_dropped",
            "pipeline.errors.leases_dropped",
            "pipeline.errors.dns_answers_dropped",
            "pipeline.errors.dns_duplicated",
        ] {
            assert_eq!(
                base.metrics().counter(name),
                other.metrics().counter(name),
                "fault counter {name} diverges at threads={threads}"
            );
        }
    }
}
