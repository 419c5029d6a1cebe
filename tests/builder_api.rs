//! The `StudyBuilder` API: run-to-run determinism across thread
//! counts, the run-level metrics it exposes, and the typed-error
//! surface of `run()`.
//!
//! The builder is the only entry point to a run. These tests hold
//! repeated invocations against each other (bitwise-identical
//! `HeadlineStats`) and sanity-check that the observability layer's
//! numbers agree with what the pipeline itself reports.

use campussim::SimConfig;
use lockdown_obs::{trace, SpanRecorder};
use locked_in_lockdown::prelude::*;

fn tiny() -> SimConfig {
    SimConfig {
        scale: 0.01,
        ..Default::default()
    }
}

#[test]
fn builder_runs_are_deterministic_across_thread_counts() {
    let a = Study::builder(tiny())
        .threads(4)
        .run()
        .unwrap()
        .into_study();
    let b = Study::builder(tiny())
        .threads(1)
        .run()
        .unwrap()
        .into_study();
    assert_eq!(a.norm_stats, b.norm_stats);
    assert_eq!(
        a.summary.by_device(&a.collector),
        b.summary.by_device(&b.collector)
    );
    // Bitwise: HeadlineStats derives PartialEq over its f64 fields.
    assert_eq!(a.headline(), b.headline());
    // A clean run records no degraded days.
    assert!(a.degraded().is_empty());
}

#[test]
fn counterfactual_growth_is_deterministic() {
    let run = Study::builder(tiny())
        .threads(2)
        .with_counterfactual()
        .run()
        .unwrap();
    let again = Study::builder(tiny())
        .threads(3)
        .with_counterfactual()
        .run()
        .unwrap();
    let cf = run.counterfactual.as_ref().expect("requested");
    let cf2 = again.counterfactual.as_ref().expect("requested");
    assert_eq!(cf.growth_vs_2019.to_bits(), cf2.growth_vs_2019.to_bits());
    assert_eq!(run.growth_vs_2019(), Some(cf.growth_vs_2019));
    assert_eq!(cf.study.headline(), cf2.study.headline());
    // StudyRun derefs to the main study.
    assert_eq!(run.norm_stats, run.study.norm_stats);
}

#[test]
fn invalid_config_errors_before_any_work() {
    let err = Study::builder(SimConfig {
        scale: f64::NAN,
        ..Default::default()
    })
    .run()
    .err()
    .expect("NaN scale must be rejected");
    assert!(matches!(err, StudyError::Config(_)), "{err}");
}

#[test]
fn metrics_agree_with_pipeline_totals() {
    let study = Study::builder(tiny())
        .threads(4)
        .run()
        .unwrap()
        .into_study();
    let m = study.metrics();

    // Flow accounting closes: every generated flow entered the
    // pipeline, every attributed flow reached the collector, and the
    // collector's own observed-flow total matches.
    assert_eq!(m.counter("gen.flows"), m.counter("pipeline.flows_in"));
    assert_eq!(
        m.counter("normalize.attributed"),
        study.norm_stats.attributed
    );
    assert_eq!(
        m.counter("normalize.unattributed"),
        study.norm_stats.unattributed
    );
    assert_eq!(m.counter("normalize.foreign"), study.norm_stats.foreign);
    assert_eq!(
        m.counter("pipeline.flows_in"),
        m.counter("normalize.attributed")
            + m.counter("normalize.unattributed")
            + m.counter("normalize.foreign")
    );
    assert_eq!(
        m.counter("pipeline.flows_collected"),
        m.counter("normalize.attributed")
    );
    // Every collected flow went through the labeling stage.
    assert_eq!(
        m.counter("resolver.labeled") + m.counter("resolver.unlabeled"),
        m.counter("pipeline.flows_collected")
    );
    // Non-zero per-stage activity: sessions generated, leases
    // normalized, labels resolved.
    assert!(m.counter("gen.devices_active") > 0);
    assert!(m.counter("normalize.lease_events") > 0);
    assert_eq!(
        m.counter("gen.lease_events"),
        m.counter("normalize.lease_events")
    );
    assert!(m.counter("resolver.labeled") > 0);
    assert!(m.gauge("resolver.ips_peak") > 0);
    assert!(m.gauge("normalize.tracker.open_peak") > 0);
}

#[test]
fn observer_event_stream_covers_the_run() {
    let live = LivePublisher::new();
    let run = Study::builder(tiny()).threads(3).live(&live).run().unwrap();
    let days = StudyCalendar::days().count() as u64;
    let p = live.progress();
    assert_eq!(p.status, "done");
    assert_eq!(p.days_completed, days);
    assert_eq!(p.degraded_days, 0);
    assert_eq!(p.flows, run.norm_stats.attributed);
    assert_eq!(p.workers.iter().map(|w| w.days_done).sum::<u64>(), days);
    assert!((1..=3).contains(&p.workers.len()), "{p:?}");
    assert!(
        p.workers
            .iter()
            .all(|w| w.day.is_none() && w.day_flows == 0),
        "{p:?}"
    );
}

#[test]
fn trace_covers_every_day_regardless_of_thread_count() {
    let days = StudyCalendar::days().count();
    for threads in [1usize, 3] {
        let recorder = SpanRecorder::new();
        Study::builder(tiny())
            .threads(threads)
            .trace(&recorder)
            .run()
            .unwrap();
        let trace = recorder.finish();
        assert!(!trace.is_empty());
        let counts = trace.counts_by_name();
        // One span per study day, however the days were sharded.
        assert_eq!(counts.get("day").copied(), Some(days as u64));
        assert_eq!(counts.get("stream_day").copied(), Some(days as u64));
        assert_eq!(counts.get("worker").copied(), Some(threads as u64));
        assert_eq!(counts.get("build_sim").copied(), Some(1));
        assert_eq!(counts.get("finalize").copied(), Some(1));
        // The pipeline stages show up as aggregate stage spans.
        let stages = trace.stage_totals_ns();
        for stage in ["generate", "normalize", "resolver", "collect"] {
            assert!(stages.contains_key(stage), "missing stage {stage}");
        }
        // Lanes: one per worker plus the builder's orchestrator lane.
        for w in 0..threads as u32 {
            assert!(trace.lane_name(w).is_some(), "missing worker lane {w}");
        }
        assert!(trace.lane_name(trace::MAIN_LANE).is_some());
    }
}

#[test]
fn worker_idle_histogram_reaches_metrics_and_report() {
    let threads = 3usize;
    let study = Study::builder(tiny())
        .threads(threads)
        .run()
        .unwrap()
        .into_study();
    let m = study.metrics();
    let idle = m
        .histogram("study.worker_idle_ns")
        .expect("idle histogram recorded");
    // One tail-idle sample per worker; the last-finishing worker
    // contributes a zero, so the minimum is 0.
    assert_eq!(idle.count(), threads as u64);
    let text = report::metrics_report(&study);
    assert!(
        text.contains("Worker tail idle"),
        "idle summary missing from report:\n{text}"
    );
}

#[test]
fn metrics_report_renders_the_counters() {
    let study = Study::builder(tiny()).run().unwrap().into_study();
    let text = report::metrics_report(&study);
    assert!(text.contains("Pipeline metrics"));
    assert!(text.contains("pipeline.flows_in"));
    let json = study.metrics().to_json();
    assert!(json.starts_with("{\"counters\":{"));
    assert!(json.contains("\"normalize.attributed\":"));
}
