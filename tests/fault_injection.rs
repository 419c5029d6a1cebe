//! End-to-end acceptance tests for the fault-injection harness and the
//! runner's graceful-degradation machinery: a seeded `FaultProfile`
//! corrupting ~1% of the record stream (plus one injected worker panic)
//! must leave the study complete, fully accounted, and within tolerance
//! of a clean run — and `strict` mode must turn the same faults into a
//! typed error.

use campussim::{FaultProfile, SimConfig};
use lockdown_core::{report, Study, StudyError};
use lockdown_obs::SpanRecorder;
use nettrace::time::StudyCalendar;

fn tiny() -> SimConfig {
    SimConfig {
        scale: 0.01,
        ..Default::default()
    }
}

/// Headline closeness: within 2% relative, with a small absolute floor
/// so tiny counts (e.g. new Switches at 1% scale) don't fail on ±1.
fn close(what: &str, a: f64, b: f64) {
    let tol = (0.02 * a.abs().max(b.abs())).max(2.0);
    assert!(
        (a - b).abs() <= tol,
        "{what}: faulted {a} vs clean {b} (tolerance {tol})"
    );
}

#[test]
fn default_fault_profile_degrades_gracefully() {
    let recorder = SpanRecorder::new();
    let run = Study::builder(tiny())
        .threads(4)
        .trace(&recorder)
        .fault_profile(FaultProfile::default_profile())
        .run()
        .expect("non-strict faulted run completes");
    let study = &run.study;

    // The injected panic on day 47 was quarantined and recovered on
    // retry; no day was dropped.
    let degraded = study.degraded();
    assert_eq!(degraded.recovered.len(), 1, "{degraded:?}");
    assert!(degraded.failed.is_empty(), "{degraded:?}");
    assert_eq!(degraded.recovered[0].day, 47);
    assert_eq!(degraded.recovered[0].attempt, 0);
    assert!(degraded.recovered[0].error.contains("injected"));

    // The timeline still shows every study day, plus exactly one retry.
    let days = StudyCalendar::days().count() as u64;
    let trace = recorder.finish();
    let counts = trace.counts_by_name();
    assert_eq!(counts.get("day").copied(), Some(days));
    assert_eq!(counts.get("day.retry").copied(), Some(1));

    // Error accounting is non-zero and closes: every generated flow
    // either entered the pipeline or was counted as dropped.
    let m = study.metrics();
    assert!(m.counter("pipeline.errors.flows_dropped") > 0);
    assert!(m.counter("pipeline.errors.dns_answers_dropped") > 0);
    assert!(m.counter("pipeline.errors.dns_duplicated") > 0);
    assert!(m.counter("pipeline.errors.leases_dropped") > 0);
    assert_eq!(
        m.counter("gen.flows"),
        m.counter("pipeline.flows_in") + m.counter("pipeline.errors.flows_dropped")
    );
    assert_eq!(
        m.counter("assembler.malformed.frames_truncated")
            + m.counter("assembler.malformed.frames_garbled")
            + m.counter("assembler.malformed.frames_skipped")
            + m.counter("assembler.malformed.pcap_truncated"),
        m.counter("pipeline.errors.flows_dropped")
    );

    // The degradation is visible in the human report…
    let text = report::metrics_report(study);
    assert!(text.contains("Degraded input"), "{text}");
    assert!(text.contains("Degraded days: 1 recovered"), "{text}");

    // …and in the machine-readable manifest.
    let manifest = report::run_manifest(&report::RunView::exact(&run), 4, None);
    let json = manifest.to_json();
    assert!(json.contains("\"degraded\":[{"), "degraded section missing");
    assert!(json.contains("\"day\":47"));
    assert!(json.contains("\"recovered\":true"));
    assert!(json.contains("pipeline.errors."));
    assert!(json.contains("assembler.malformed."));

    // All eight figure files still emerge.
    let dir = std::env::temp_dir().join("lockdown_fault_injection_test");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report::write_figure_files(study, &dir).unwrap(), 8);
    std::fs::remove_dir_all(&dir).ok();

    // Headline statistics survive ~1% record corruption to within 2%.
    let clean = Study::builder(tiny())
        .threads(4)
        .run()
        .unwrap()
        .into_study();
    let hf = study.headline();
    let hc = clean.headline();
    close("peak_active", hf.peak_active as f64, hc.peak_active as f64);
    close(
        "trough_active",
        hf.trough_active as f64,
        hc.trough_active as f64,
    );
    close(
        "post_shutdown_devices",
        hf.post_shutdown_devices as f64,
        hc.post_shutdown_devices as f64,
    );
    close(
        "intl_devices",
        hf.intl_devices as f64,
        hc.intl_devices as f64,
    );
    close(
        "identified_devices",
        hf.identified_devices as f64,
        hc.identified_devices as f64,
    );
    close(
        "traffic_growth",
        hf.traffic_growth_feb_to_aprmay,
        hc.traffic_growth_feb_to_aprmay,
    );
    close("sites_growth", hf.sites_growth, hc.sites_growth);
    close(
        "switches_pre",
        hf.switches_pre as f64,
        hc.switches_pre as f64,
    );
    close(
        "switches_post",
        hf.switches_post as f64,
        hc.switches_post as f64,
    );
}

#[test]
fn faulted_runs_are_deterministic() {
    let profile = FaultProfile::default_profile();
    let a = Study::builder(tiny())
        .threads(4)
        .fault_profile(profile.clone())
        .run()
        .unwrap()
        .into_study();
    let b = Study::builder(tiny())
        .threads(1)
        .fault_profile(profile)
        .run()
        .unwrap()
        .into_study();
    // Corruption is keyed by (profile seed, day), not by worker or
    // schedule, so faulted runs reproduce bit for bit too.
    assert_eq!(a.norm_stats, b.norm_stats);
    assert_eq!(a.headline(), b.headline());
    assert_eq!(a.metrics().counters, b.metrics().counters);
    assert_eq!(a.degraded(), b.degraded());
}

#[test]
fn strict_mode_turns_the_injected_panic_into_an_error() {
    let err = Study::builder(tiny())
        .threads(2)
        .fault_profile(FaultProfile::default_profile())
        .strict(true)
        .run()
        .err()
        .expect("strict faulted run must fail");
    match err {
        StudyError::DayFailed(f) => {
            assert_eq!(f.day, 47);
            assert_eq!(f.attempt, 0);
            assert_eq!(f.stage, "pipeline");
        }
        other => panic!("expected DayFailed, got {other}"),
    }
}
