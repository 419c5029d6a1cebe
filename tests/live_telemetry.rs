//! Live telemetry end-to-end: a served run can be scraped mid-flight
//! with strictly parseable exposition whose `pipeline.flows*` counters
//! never regress, and serving is observation-only — figures, stats,
//! and the manifest config hash are bit-identical to an unserved run
//! at the same seed and thread count.

use analysis::{export, figures};
use campussim::SimConfig;
use lockdown_obs::{json, prom};
use locked_in_lockdown::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};

fn tiny() -> SimConfig {
    SimConfig {
        scale: 0.02,
        ..Default::default()
    }
}

/// One blocking GET against a local telemetry server; returns the body
/// after asserting a 200.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{path}: {raw}");
    raw.split_once("\r\n\r\n")
        .expect("headers end")
        .1
        .to_string()
}

#[test]
fn mid_run_scrapes_parse_and_flow_counters_are_monotone() {
    let live = LivePublisher::new();
    let server = TelemetryServer::bind("127.0.0.1:0", live.clone()).expect("bind");
    let addr = server.addr();

    // Scrape continuously from a second thread while the run streams.
    let poller_live = live.clone();
    let poller = std::thread::spawn(move || {
        let mut last: BTreeMap<String, f64> = BTreeMap::new();
        let mut scrapes = 0u32;
        while !poller_live.is_finished() {
            let body = http_get(addr, "/metrics");
            let exposition = prom::parse(&body).expect("mid-run exposition must parse");
            for family in &exposition.families {
                if family.kind != "counter" || !family.name.starts_with("pipeline_flows") {
                    continue;
                }
                for sample in &family.samples {
                    let prev = last
                        .insert(family.name.clone(), sample.value)
                        .unwrap_or(0.0);
                    assert!(
                        sample.value >= prev,
                        "{} regressed mid-run: {} < {prev}",
                        family.name,
                        sample.value,
                    );
                }
            }
            scrapes += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        (scrapes, last)
    });

    let run = Study::builder(tiny())
        .threads(2)
        .live(&live)
        .run()
        .expect("served run");
    let (scrapes, last) = poller.join().expect("poller");
    assert!(
        scrapes >= 2,
        "run too fast to observe mid-flight: {scrapes}"
    );

    // The final scrape state can never exceed the run's own totals, and
    // after finish() the live view equals them exactly.
    let flows = run.study.metrics().counter("pipeline.flows_collected");
    let final_live = live.metrics().counter("pipeline.flows_collected");
    assert_eq!(final_live, flows);
    for (name, value) in &last {
        assert!(*value <= flows as f64, "{name} overshot: {value} > {flows}");
    }

    // Post-run endpoints report the finished state.
    let health = http_get(addr, "/healthz");
    assert!(health.contains("\"status\":\"done\""), "{health}");
    let progress = json::parse(&http_get(addr, "/progress")).expect("strict progress JSON");
    let field = |key: &str| progress.get(key).expect(key).clone();
    assert_eq!(field("status").as_str(), Some("done"));
    assert_eq!(field("eta_ns").as_u64(), Some(0));
    assert_eq!(
        field("days_completed").as_u64(),
        field("days_total").as_u64()
    );

    // The exposition carries the run-level live gauges and quantile
    // companions for the day-duration histogram.
    let body = http_get(addr, "/metrics");
    let exposition = prom::parse(&body).expect("final exposition");
    assert!(exposition.value("study_live_days_completed").is_some());
    assert!(exposition.family("study_day_duration_ns").is_some());
    assert!(exposition
        .family("study_day_duration_ns_quantile")
        .is_some());
}

#[test]
fn concurrent_scrapes_see_strict_monotone_snapshots() {
    let live = LivePublisher::new();
    let server = TelemetryServer::bind("127.0.0.1:0", live.clone()).expect("bind");
    let addr = server.addr();

    // Several /metrics and /progress clients scrape in parallel while
    // the run streams; every response must parse strictly and every
    // client's view must be monotone on its own timeline, regardless of
    // how requests interleave at the server.
    let spawn_metrics = |live: LivePublisher| {
        std::thread::spawn(move || {
            let mut last: BTreeMap<String, f64> = BTreeMap::new();
            let mut scrapes = 0u32;
            while !live.is_finished() {
                let body = http_get(addr, "/metrics");
                let exposition = prom::parse(&body).expect("exposition parses under contention");
                for family in &exposition.families {
                    if family.kind != "counter" || !family.name.starts_with("pipeline_flows") {
                        continue;
                    }
                    for sample in &family.samples {
                        let prev = last
                            .insert(family.name.clone(), sample.value)
                            .unwrap_or(0.0);
                        assert!(
                            sample.value >= prev,
                            "{} regressed under concurrent scrapes: {} < {prev}",
                            family.name,
                            sample.value,
                        );
                    }
                }
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            scrapes
        })
    };
    let spawn_progress = |live: LivePublisher| {
        std::thread::spawn(move || {
            let (mut last_days, mut last_flows) = (0u64, 0u64);
            let mut scrapes = 0u32;
            while !live.is_finished() {
                let v = json::parse(&http_get(addr, "/progress"))
                    .expect("strict progress JSON under contention");
                let field = |key: &str| v.get(key).expect(key).as_u64().expect(key);
                let status = v.get("status").expect("status").as_str().expect("status");
                assert!(
                    matches!(status, "idle" | "running" | "done"),
                    "unknown status {status:?}"
                );
                let (days, total, flows) =
                    (field("days_completed"), field("days_total"), field("flows"));
                assert!(days <= total || total == 0, "{days} > {total}");
                assert!(days >= last_days, "days regressed: {days} < {last_days}");
                assert!(
                    flows >= last_flows,
                    "flows regressed: {flows} < {last_flows}"
                );
                (last_days, last_flows) = (days, flows);
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            scrapes
        })
    };
    let metrics_pollers: Vec<_> = (0..3).map(|_| spawn_metrics(live.clone())).collect();
    let progress_pollers: Vec<_> = (0..3).map(|_| spawn_progress(live.clone())).collect();

    let run = Study::builder(tiny())
        .threads(2)
        .live(&live)
        .run()
        .expect("served run");

    let mut scrapes = 0u32;
    for poller in metrics_pollers {
        scrapes += poller.join().expect("metrics poller");
    }
    for poller in progress_pollers {
        scrapes += poller.join().expect("progress poller");
    }
    assert!(scrapes >= 6, "pollers barely ran: {scrapes} scrapes");

    // After the run every client sees the same settled endpoint state.
    let progress = json::parse(&http_get(addr, "/progress")).expect("final progress JSON");
    assert_eq!(
        progress.get("status").and_then(|s| s.as_str()),
        Some("done")
    );
    assert_eq!(
        progress.get("days_completed").and_then(|d| d.as_u64()),
        progress.get("days_total").and_then(|d| d.as_u64()),
    );
    let flows = run.study.metrics().counter("pipeline.flows_collected");
    assert_eq!(live.metrics().counter("pipeline.flows_collected"), flows);
}

#[test]
fn serving_is_observation_only_bit_identical_outputs() {
    let unserved = Study::builder(tiny()).threads(2).run().expect("clean run");
    let live = LivePublisher::new();
    let _server = TelemetryServer::bind("127.0.0.1:0", live.clone()).expect("bind");
    let served = Study::builder(tiny())
        .threads(2)
        .live(&live)
        .run()
        .expect("served run");

    let (a, b) = (&unserved.study, &served.study);

    // Headline stats and normalization are bitwise equal.
    assert_eq!(a.headline(), b.headline());
    assert_eq!(a.norm_stats, b.norm_stats);

    // Every figure export byte-compares equal.
    let (ca, sa) = (&a.collector, &a.summary);
    let (cb, sb) = (&b.collector, &b.summary);
    assert_eq!(
        export::fig1_csv(&figures::figure1(ca, sa)),
        export::fig1_csv(&figures::figure1(cb, sb))
    );
    assert_eq!(
        export::fig4_csv(&figures::figure4(ca, sa)),
        export::fig4_csv(&figures::figure4(cb, sb))
    );
    assert_eq!(
        export::fig8_csv(&figures::figure8(ca, sa)),
        export::fig8_csv(&figures::figure8(cb, sb))
    );

    // Deterministic pipeline counters agree, and so does the manifest
    // config hash (the provenance fingerprint of the run's inputs).
    assert_eq!(
        a.metrics().counter("pipeline.flows_collected"),
        b.metrics().counter("pipeline.flows_collected")
    );
    let ma = report::run_manifest(&report::RunView::exact(&unserved), 2, None);
    let mb = report::run_manifest(&report::RunView::exact(&served), 2, None);
    assert_eq!(ma.config_hash_hex, mb.config_hash_hex);
    assert_eq!(ma.seed, mb.seed);
}
