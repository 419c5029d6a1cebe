//! Byte-exact pins of every JSON document `lockdown-obs` writes: the
//! run manifest, the metrics snapshot, `/progress`, `/healthz` and the
//! Chrome trace. Consumers (CI's Python, `repro probe`/`compare`/
//! `watch`, committed artifacts) read these bytes, so key order, number
//! formats and escaping are part of the contract. Each fixture carries
//! hostile strings (quotes, backslashes, control characters, non-ASCII
//! and astral text) wherever a name or message is free-form.

use lockdown_obs::json;
use lockdown_obs::manifest::{
    AccuracySection, DegradedEntry, FigureContract, MemorySection, RunManifest, ShardingSection,
    StageMemory,
};
use lockdown_obs::trace::{AttrValue, SpanEvent};
use lockdown_obs::{
    HistogramSnapshot, LivePublisher, MetricsSnapshot, Progress, ShardLoad, SpanRecorder,
    TelemetryServer, WorkerProgress,
};
use nettrace::time::Day;
use std::io::{Read, Write};

const HOSTILE: &str = "q\"b\\s\nc\u{1}\u{1f} é π \u{1F600}";

/// Assert `actual` is exactly `expected` and parses under the strict
/// reader.
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected);
    json::parse(actual).expect("pinned JSON parses");
}

/// A histogram with `counts` observations in buckets 0.. and `sum`.
fn hist(counts: &[u64], sum: u64) -> HistogramSnapshot {
    let mut buckets = vec![0; 65];
    buckets[..counts.len()].copy_from_slice(counts);
    HistogramSnapshot { buckets, sum }
}

fn metrics() -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.counters.insert("pipeline.flows_in".into(), 7);
    m.counters.insert(format!("odd.{HOSTILE}"), 3);
    m.gauges.insert("study.days_inflight".into(), 2);
    m.gauges.insert("mem.peak_bytes".into(), u64::MAX);
    m.histograms
        .insert("study.day_duration_ns".into(), hist(&[0, 0, 0, 4, 1], 29));
    m.histograms.insert(format!("h.{HOSTILE}"), hist(&[], 0));
    m
}

fn full_manifest() -> RunManifest {
    let mut m = RunManifest::new("repro");
    m.created_unix_ms = 1_700_000_000_123;
    m.config_hash_hex = "00ff00ff00ff00ff".into();
    m.scenario = Some(format!("paper-2020 {HOSTILE}"));
    m.scenario_hash_hex = Some("0123456789abcdef".into());
    m.seed = 7;
    m.scale = 0.05;
    m.threads = 2;
    m.crate_version("lockdown-obs", "0.1.0");
    m.crate_version(HOSTILE, "9.9.9-\"rc\"");
    m.wall_ns = 123_456_789;
    m.top_level_span_ns = 120_000_000;
    m.span_totals_ns.insert("day".into(), 90_000_000);
    m.span_totals_ns.insert(HOSTILE.into(), 1);
    m.span_counts.insert("day".into(), 121);
    m.stage_totals_ns.insert("normalize".into(), 40_000_000);
    m.stage_totals_ns.insert(format!("stage {HOSTILE}"), 5);
    m.metrics = Some(metrics());
    m.degraded.push(DegradedEntry {
        day: 47,
        stage: "stream_day".into(),
        error: format!("injected panic: {HOSTILE}"),
        attempt: 0,
        recovered: true,
    });
    m.degraded.push(DegradedEntry {
        day: 120,
        stage: HOSTILE.into(),
        error: String::new(),
        attempt: 1,
        recovered: false,
    });
    m.serve_addr = Some("127.0.0.1:9184".into());
    m.memory = Some(MemorySection {
        peak_bytes: 1 << 24,
        live_bytes: 1 << 20,
        alloc_bytes: 1 << 30,
        freed_bytes: (1 << 30) - (1 << 20),
        allocs: 5_000,
        deallocs: 4_900,
        reallocs: 100,
        allocs_per_flow: 0.1235,
        per_stage: [
            (
                "normalize".to_string(),
                StageMemory {
                    alloc_bytes: 1 << 16,
                    allocs: 320,
                    peak_net_bytes: 1 << 12,
                },
            ),
            (HOSTILE.to_string(), StageMemory::default()),
        ]
        .into_iter()
        .collect(),
    });
    m.sharding = Some(ShardingSection {
        shards: 4,
        mode: "digest".into(),
        merge_depth: 3,
        per_shard_peak_bytes: vec![1 << 20, 1 << 21, 0, u64::MAX],
        per_shard_flows: vec![10, 20, 30, 40],
        per_shard_bytes: vec![100],
        per_shard_wall_ns: Vec::new(),
    });
    m.accuracy = Some(AccuracySection {
        mode: "digest".into(),
        guaranteed_bound: 4.0,
        counterfactual: "cohort-exact".into(),
        headline: vec![
            ("peak_active".into(), 5200.0),
            ("traffic_growth_feb_to_aprmay".into(), 0.1 + 0.2),
            ("tiny".into(), 1e-12),
            ("huge".into(), 1e21),
            (HOSTILE.into(), -0.5),
        ],
        figures: vec![
            FigureContract {
                figure: "fig1".into(),
                kind: "exact".into(),
                bound: 1.0,
            },
            FigureContract {
                figure: format!("fig2.median {HOSTILE}"),
                kind: "approx".into(),
                bound: 2.0,
            },
        ],
    });
    m
}

#[test]
fn manifest_with_every_section_is_pinned() {
    pin(&full_manifest().to_json(), MANIFEST_FULL);
}

#[test]
fn manifest_with_no_optional_section_is_pinned() {
    let mut m = RunManifest::new("repro");
    m.created_unix_ms = 0;
    pin(&m.to_json(), MANIFEST_BARE);
}

#[test]
fn manifest_with_empty_sections_is_pinned() {
    let mut m = RunManifest::new(HOSTILE);
    m.created_unix_ms = 1;
    m.scale = 1.0;
    m.metrics = Some(MetricsSnapshot::default());
    m.memory = Some(MemorySection::default());
    m.sharding = Some(ShardingSection::default());
    m.accuracy = Some(AccuracySection::default());
    pin(&m.to_json(), MANIFEST_EMPTY_SECTIONS);
}

#[test]
fn metrics_snapshot_is_pinned() {
    pin(&metrics().to_json(), METRICS);
    pin(&MetricsSnapshot::default().to_json(), METRICS_EMPTY);
}

#[test]
fn progress_is_pinned_with_and_without_estimates() {
    let running = Progress {
        status: "running",
        days_total: 242,
        days_completed: 100,
        days_inflight: 2,
        degraded_days: 1,
        flows: 123_456,
        elapsed_ns: 9_876_543_210,
        eta_ns: Some(12_000_000_000),
        mem_live_bytes: Some(1 << 20),
        mem_peak_bytes: Some(1 << 24),
        shards: 3,
        workers: vec![
            WorkerProgress {
                worker: 0,
                day: Some(47),
                day_flows: 500,
                days_done: 50,
            },
            WorkerProgress {
                worker: 1,
                day: None,
                day_flows: 0,
                days_done: 50,
            },
        ],
        shard_loads: vec![
            ShardLoad {
                shard: 0,
                days_done: 60,
                flows: 70_000,
                wall_ns: 5_000_000_000,
            },
            ShardLoad {
                shard: 2,
                days_done: 40,
                flows: 53_456,
                wall_ns: 4_000_000_000,
            },
        ],
    };
    pin(&running.to_json(), PROGRESS_RUNNING);
    let bare = Progress {
        status: "done",
        days_total: 0,
        days_completed: 0,
        days_inflight: 0,
        degraded_days: 0,
        flows: 0,
        elapsed_ns: 0,
        eta_ns: None,
        mem_live_bytes: None,
        mem_peak_bytes: None,
        shards: 1,
        workers: Vec::new(),
        shard_loads: Vec::new(),
    };
    pin(&bare.to_json(), PROGRESS_BARE);
}

fn span(
    name: &'static str,
    cat: &'static str,
    lane: u32,
    start_ns: u64,
    dur_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
) -> SpanEvent {
    SpanEvent {
        name,
        cat,
        lane,
        depth: 0,
        start_ns,
        dur_ns,
        child_ns: 0,
        path: Vec::new(),
        attrs,
    }
}

#[test]
fn two_lane_chrome_trace_is_pinned() {
    const NAME: &str = "sp\"an\\ \u{7} é \u{1F600}";
    let rec = SpanRecorder::new();
    drop(rec.install(0, "worker 0"));
    drop(rec.install(u32::MAX, HOSTILE));
    let mut t = rec.finish();
    t.spans = vec![
        span(
            "day",
            "task",
            0,
            1_234_567,
            999,
            vec![
                ("day", AttrValue::U64(47)),
                ("mode", AttrValue::Str("exact")),
            ],
        ),
        span("normalize", "stage", 0, 1_235_000, 0, Vec::new()),
        span(
            NAME,
            NAME,
            u32::MAX,
            0,
            u64::MAX,
            vec![
                (NAME, AttrValue::Str(NAME)),
                ("n", AttrValue::U64(u64::MAX)),
            ],
        ),
    ];
    pin(&t.to_chrome_json(), TRACE);
}

#[test]
fn empty_chrome_trace_is_pinned() {
    pin(&SpanRecorder::new().finish().to_chrome_json(), TRACE_EMPTY);
}

/// GET `/healthz` and return its body with the `uptime_ns` digits
/// replaced by `N` (the only field that reads the wall clock).
fn healthz(server: &TelemetryServer) -> String {
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
    write!(conn, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    let body = raw.split_once("\r\n\r\n").expect("body").1;
    json::parse(body).expect("healthz parses");
    let (head, uptime) = body.split_once("\"uptime_ns\":").expect("uptime field");
    let digits = uptime.strip_suffix('}').expect("closing brace");
    assert!(
        !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()),
        "{body}"
    );
    format!("{head}\"uptime_ns\":N}}")
}

#[test]
fn healthz_is_pinned_in_each_status() {
    let live = LivePublisher::new();
    live.set_days_total(242);
    let server = TelemetryServer::bind("127.0.0.1:0", live.clone()).expect("bind");
    assert_eq!(
        healthz(&server),
        r#"{"status":"ok","degraded_days":0,"days_completed":0,"days_total":242,"uptime_ns":N}"#
    );
    live.day_started(0, Day(5));
    live.day_failed(0);
    assert_eq!(
        healthz(&server),
        r#"{"status":"degraded","degraded_days":1,"days_completed":0,"days_total":242,"uptime_ns":N}"#
    );
    live.day_started(0, Day(5));
    live.day_finished(0, None, 10, 1_000_000, &MetricsSnapshot::default());
    live.finish(&MetricsSnapshot::default());
    assert_eq!(
        healthz(&server),
        r#"{"status":"done","degraded_days":1,"days_completed":1,"days_total":242,"uptime_ns":N}"#
    );
    server.shutdown();
}

const MANIFEST_FULL: &str = r#"{"tool":"repro","created_unix_ms":1700000000123,"config_hash":"00ff00ff00ff00ff","scenario":"paper-2020 q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00","scenario_hash":"0123456789abcdef","seed":7,"scale":0.05,"threads":2,"crates":{"lockdown-obs":"0.1.0","q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":"9.9.9-\"rc\""},"wall_ns":123456789,"top_level_span_ns":120000000,"span_totals_ns":{"day":90000000,"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":1},"span_counts":{"day":121},"stage_totals_ns":{"normalize":40000000,"stage q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":5},"degraded":[{"day":47,"stage":"stream_day","error":"injected panic: q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00","attempt":0,"recovered":true},{"day":120,"stage":"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00","error":"","attempt":1,"recovered":false}],"serve_addr":"127.0.0.1:9184","memory":{"peak_bytes":16777216,"live_bytes":1048576,"alloc_bytes":1073741824,"freed_bytes":1072693248,"allocs":5000,"deallocs":4900,"reallocs":100,"allocs_per_flow":0.123,"per_stage":{"normalize":{"alloc_bytes":65536,"allocs":320,"peak_net_bytes":4096},"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":{"alloc_bytes":0,"allocs":0,"peak_net_bytes":0}}},"sharding":{"shards":4,"mode":"digest","merge_depth":3,"per_shard_peak_bytes":[1048576,2097152,0,18446744073709551615],"per_shard_flows":[10,20,30,40],"per_shard_bytes":[100],"per_shard_wall_ns":[]},"accuracy":{"mode":"digest","guaranteed_bound":4.0,"counterfactual":"cohort-exact","headline":{"peak_active":5200.0,"traffic_growth_feb_to_aprmay":0.30000000000000004,"tiny":1e-12,"huge":1e21,"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":-0.5},"figures":[{"figure":"fig1","kind":"exact","bound":1.0},{"figure":"fig2.median q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00","kind":"approx","bound":2.0}]},"quantiles":{"h.q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":{"count":0,"mean":0.0,"p50":0,"p95":0,"p99":0},"study.day_duration_ns":{"count":5,"mean":5.8,"p50":8,"p95":16,"p99":16}},"metrics":{"counters":{"odd.q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":3,"pipeline.flows_in":7},"gauges":{"mem.peak_bytes":18446744073709551615,"study.days_inflight":2},"histograms":{"h.q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":{"count":0,"sum":0,"p50":0,"p95":0,"p99":0},"study.day_duration_ns":{"count":5,"sum":29,"p50":8,"p95":16,"p99":16}}}}"#;
const MANIFEST_BARE: &str = r#"{"tool":"repro","created_unix_ms":0,"config_hash":"","scenario":null,"scenario_hash":null,"seed":0,"scale":0.0,"threads":0,"crates":{},"wall_ns":0,"top_level_span_ns":0,"span_totals_ns":{},"span_counts":{},"stage_totals_ns":{},"degraded":[],"serve_addr":null,"memory":null,"sharding":null,"accuracy":null,"quantiles":{},"metrics":null}"#;
const MANIFEST_EMPTY_SECTIONS: &str = r#"{"tool":"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00","created_unix_ms":1,"config_hash":"","scenario":null,"scenario_hash":null,"seed":0,"scale":1.0,"threads":0,"crates":{},"wall_ns":0,"top_level_span_ns":0,"span_totals_ns":{},"span_counts":{},"stage_totals_ns":{},"degraded":[],"serve_addr":null,"memory":{"peak_bytes":0,"live_bytes":0,"alloc_bytes":0,"freed_bytes":0,"allocs":0,"deallocs":0,"reallocs":0,"allocs_per_flow":0.000,"per_stage":{}},"sharding":{"shards":0,"mode":"","merge_depth":0,"per_shard_peak_bytes":[],"per_shard_flows":[],"per_shard_bytes":[],"per_shard_wall_ns":[]},"accuracy":{"mode":"","guaranteed_bound":0.0,"counterfactual":"","headline":{},"figures":[]},"quantiles":{},"metrics":{"counters":{},"gauges":{},"histograms":{}}}"#;
const METRICS: &str = r#"{"counters":{"odd.q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":3,"pipeline.flows_in":7},"gauges":{"mem.peak_bytes":18446744073709551615,"study.days_inflight":2},"histograms":{"h.q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00":{"count":0,"sum":0,"p50":0,"p95":0,"p99":0},"study.day_duration_ns":{"count":5,"sum":29,"p50":8,"p95":16,"p99":16}}}"#;
const METRICS_EMPTY: &str = r#"{"counters":{},"gauges":{},"histograms":{}}"#;
const PROGRESS_RUNNING: &str = r#"{"status":"running","days_total":242,"days_completed":100,"days_inflight":2,"degraded_days":1,"flows":123456,"elapsed_ns":9876543210,"eta_ns":12000000000,"mem_live_bytes":1048576,"mem_peak_bytes":16777216,"shards":3,"workers":[{"worker":0,"day":47,"day_flows":500,"days_done":50},{"worker":1,"day":null,"day_flows":0,"days_done":50}],"shard_loads":[{"shard":0,"days_done":60,"flows":70000,"wall_ns":5000000000},{"shard":2,"days_done":40,"flows":53456,"wall_ns":4000000000}]}"#;
const PROGRESS_BARE: &str = r#"{"status":"done","days_total":0,"days_completed":0,"days_inflight":0,"degraded_days":0,"flows":0,"elapsed_ns":0,"eta_ns":null,"mem_live_bytes":null,"mem_peak_bytes":null,"shards":1,"workers":[],"shard_loads":[]}"#;
const TRACE: &str = r#"{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},{"ph":"M","pid":1,"tid":4294967295,"name":"thread_name","args":{"name":"q\"b\\s\nc\u0001\u001f \u00e9 \u03c0 \ud83d\ude00"}},{"ph":"X","pid":1,"tid":0,"name":"day","cat":"task","ts":1234.567,"dur":0.999,"args":{"day":47,"mode":"exact"}},{"ph":"X","pid":1,"tid":0,"name":"normalize","cat":"stage","ts":1235.000,"dur":0.000,"args":{}},{"ph":"X","pid":1,"tid":4294967295,"name":"sp\"an\\ \u0007 \u00e9 \ud83d\ude00","cat":"sp\"an\\ \u0007 \u00e9 \ud83d\ude00","ts":0.000,"dur":18446744073709551.615,"args":{"sp\"an\\ \u0007 \u00e9 \ud83d\ude00":"sp\"an\\ \u0007 \u00e9 \ud83d\ude00","n":18446744073709551615}}]}"#;
const TRACE_EMPTY: &str = r#"{"displayTimeUnit":"ms","traceEvents":[]}"#;
