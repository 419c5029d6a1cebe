//! Byte-exact pins of the two report documents `lockdown_bench::compare`
//! writes: `repro compare --json` and the convergence ladder artifact
//! (`results/BENCH_convergence.json`, read back by `compare --converge
//! --check` and CI's Python). Floats keep Rust's shortest round-trip
//! form, so the pins cover whole, fractional, tiny and huge values.

use analysis::accuracy::FigureFileDiff;
use lockdown_bench::compare::{CompareReport, ConvergencePoint, ConvergenceReport, HeadlineDrift};
use lockdown_obs::json;
use std::path::PathBuf;

/// Assert `actual` is exactly `expected` and parses under the strict
/// reader.
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected);
    json::parse(actual).expect("pinned JSON parses");
}

fn diff(file: &'static str, note: Option<&str>) -> FigureFileDiff {
    FigureFileDiff {
        file,
        tolerance: 2.0,
        compared: 968,
        mismatched: usize::from(note.is_none()),
        max_ratio: 1.0000000000000002,
        max_abs_delta: 0.125,
        note: note.map(str::to_string),
    }
}

fn report(figures: Vec<FigureFileDiff>) -> CompareReport {
    CompareReport {
        a: PathBuf::from("runs/digest \"K=7\""),
        b: PathBuf::from("runs/exact\té"),
        mode_a: "digest".into(),
        mode_b: "exact".into(),
        config_hash_matches: true,
        scenario_matches: true,
        seed_matches: false,
        scale_a: 0.02,
        scale_b: 1.0,
        crates_match: true,
        degraded_a: 0,
        degraded_b: 2,
        shards_a: 792,
        shards_b: 1,
        mem_peak_a: Some(1 << 23),
        mem_peak_b: None,
        headline: vec![
            HeadlineDrift {
                stat: "peak_active".into(),
                a: 5200.0,
                b: 5200.0,
                rel_delta: 0.0,
            },
            HeadlineDrift {
                stat: "sites \"growth\" π".into(),
                a: 0.1 + 0.2,
                b: 1e-12,
                rel_delta: 0.9999999999966667,
            },
        ],
        figures,
    }
}

#[test]
fn compare_report_is_pinned_with_and_without_a_note() {
    let r = report(vec![
        diff("fig1.csv", None),
        diff("fig6.json", Some("missing: b/fig6.json \"x\"")),
    ]);
    pin(&r.to_json(), COMPARE);
    pin(&report(Vec::new()).to_json(), COMPARE_NO_FIGURES);
}

#[test]
fn convergence_report_is_pinned() {
    let point = |scale, shards, traffic_growth| ConvergencePoint {
        scale,
        shards,
        traffic_growth,
        sites_growth: 0.34,
        intl_share: 0.18,
        post_share: 1.0 / 3.0,
        trough_peak_ratio: 1e-3,
    };
    let r = ConvergenceReport {
        seed: 7,
        mem_budget: 12_582_912,
        threads: 2,
        points: vec![point(0.02, 792, 0.595), point(0.06, 2_376, 0.6)],
    };
    pin(&r.to_json(), CONVERGENCE);
    let empty = ConvergenceReport {
        points: Vec::new(),
        ..r
    };
    pin(&empty.to_json(), CONVERGENCE_EMPTY);
}
const COMPARE: &str = r#"{"a":"runs/digest \"K=7\"","b":"runs/exact\t\u00e9","mode_a":"digest","mode_b":"exact","config_hash_matches":true,"scenario_matches":true,"seed_matches":false,"scale_a":0.02,"scale_b":1.0,"crates_match":true,"degraded_a":0,"degraded_b":2,"shards_a":792,"shards_b":1,"headline_max_rel_delta":0.9999999999966667,"headline":[{"stat":"peak_active","a":5200.0,"b":5200.0,"rel_delta":0.0},{"stat":"sites \"growth\" \u03c0","a":0.30000000000000004,"b":1e-12,"rel_delta":0.9999999999966667}],"figures":[{"file":"fig1.csv","tolerance":2.0,"compared":968,"mismatched":1,"max_ratio":1.0000000000000002,"max_abs_delta":0.125,"within":false,"note":null},{"file":"fig6.json","tolerance":2.0,"compared":968,"mismatched":0,"max_ratio":1.0000000000000002,"max_abs_delta":0.125,"within":false,"note":"missing: b/fig6.json \"x\""}],"within_tolerance":false}"#;
const COMPARE_NO_FIGURES: &str = r#"{"a":"runs/digest \"K=7\"","b":"runs/exact\t\u00e9","mode_a":"digest","mode_b":"exact","config_hash_matches":true,"scenario_matches":true,"seed_matches":false,"scale_a":0.02,"scale_b":1.0,"crates_match":true,"degraded_a":0,"degraded_b":2,"shards_a":792,"shards_b":1,"headline_max_rel_delta":0.9999999999966667,"headline":[{"stat":"peak_active","a":5200.0,"b":5200.0,"rel_delta":0.0},{"stat":"sites \"growth\" \u03c0","a":0.30000000000000004,"b":1e-12,"rel_delta":0.9999999999966667}],"figures":[],"within_tolerance":true}"#;
const CONVERGENCE: &str = r#"{"seed":7,"mem_budget":12582912,"threads":2,"points":[{"scale":0.02,"shards":792,"traffic_growth":0.595,"sites_growth":0.34,"intl_share":0.18,"post_share":0.3333333333333333,"trough_peak_ratio":0.001},{"scale":0.06,"shards":2376,"traffic_growth":0.6,"sites_growth":0.34,"intl_share":0.18,"post_share":0.3333333333333333,"trough_peak_ratio":0.001}],"drift":{"traffic_growth":0.008333333333333342,"sites_growth":0.0,"intl_share":0.0,"post_share":0.0,"trough_peak_ratio":0.0},"max_drift":0.008333333333333342}"#;
const CONVERGENCE_EMPTY: &str = r#"{"seed":7,"mem_budget":12582912,"threads":2,"points":[],"drift":{"traffic_growth":0.0,"sites_growth":0.0,"intl_share":0.0,"post_share":0.0,"trough_peak_ratio":0.0},"max_drift":0.0}"#;
