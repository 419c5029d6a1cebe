//! Measures what the pipeline's instrumentation and sharding cost;
//! writes `results/BENCH_overhead.json`.
//!
//! The in-process series run the production driver
//! (`process_day_batched`) over five busy study days with metrics on and
//! [`TrackingAlloc`] registered, as `repro` runs. `off_a` and `off_b`
//! (tracing off, tracker disabled) bracket `trace_on` (a `SpanRecorder`
//! lane and a `day` span open) and `mem_on` (tracker enabled plus
//! per-stage scopes, as `repro run --mem`); the spread within the off
//! pair is the noise band. An untraced batch-size sweep and one counted
//! pass under an enabled [`AllocScope`] (allocs/flow, net-bytes
//! high-water mark) follow.
//!
//! Whole studies then pin the scale-out behaviour: an exact K sweep (1,
//! 2, 4 shards) at scale 0.05, and a digest run at 0.05 and 0.5 under one
//! 16 MiB budget. Each runs in a child process (the binary re-execs
//! itself with the internal `--one MODE SCALE SHARDS`), so the tracker's
//! process-global high-water mark measures exactly one run.
//!
//! Exit status 1 when a gate fails: the off medians must agree within
//! one stability band, the larger of the noise band and 5 % of the
//! `off_a` median (the artifact's `off_within_noise` and the failure
//! message use the same band), and the digest peak may grow at most 2×
//! across the 10× pair. With `--check FILE`, untraced ns/flow,
//! allocs/flow and peak net bytes may also grow at most 15 % over the
//! committed artifact — a reintroduced per-record cost or allocation
//! shows up at 2×. `--reps` must be at least 2, since a one-value series
//! has no spread to measure; exit status 2 on a usage error.
//!
//! ```text
//! overhead [--reps N] [--out FILE] [--check FILE]
//! ```

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use lockdown_bench::timer::median;
use lockdown_bench::{bench_config, BENCH_SCALE};
use lockdown_core::{process_day_batched, PipelineOptions, Study, DEFAULT_BATCH_ROWS};
use lockdown_obs::alloc::{self, AllocScope, TrackingAlloc};
use lockdown_obs::json::{self, Value};
use lockdown_obs::{trace, MetricsRegistry, SpanRecorder};
use nettrace::time::Day;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Busy online-term weekdays: one pass processes each once.
const DAYS: [u16; 5] = [73, 74, 75, 76, 77];

/// Untraced batch-size sweep points.
const SWEEP_ROWS: [usize; 5] = [64, 512, DEFAULT_BATCH_ROWS, 16384, usize::MAX];

/// The scale-out pair, 10× apart and sized for a small CI box; the
/// claim is ratio-based, so it transfers to larger pairs unchanged.
const SCALE_LO: f64 = 0.05;
const SCALE_HI: f64 = 0.5;

/// Memory budget of the digest pair.
const BUDGET_BYTES: u64 = 16 << 20;

/// Largest growth over the committed artifact `--check` accepts.
const CHECK_RATIO: f64 = 1.15;

/// Largest digest peak growth across the 10× pair.
const MAX_PEAK_RATIO: f64 = 2.0;

/// One pass over the bench days: `(wall ns, flows)`.
fn pass(sim: &CampusSim, ctx: &PipelineCtx, rows: usize, traced: bool, mem: bool) -> (u64, u64) {
    let (table, key) = (sim.directory().table(), sim.config().anon_key);
    let mut flows = 0u64;
    let t0 = Instant::now();
    for d in DAYS {
        let registry = MetricsRegistry::new();
        let _day_span = traced.then(|| trace::span("day").attr("day", u64::from(d)));
        let opts = PipelineOptions::new(ctx, table, Day(d), key)
            .metrics(&registry)
            .batch_rows(rows)
            .track_memory(mem);
        let stats = process_day_batched(opts, &mut StudyCollector::new(), sim);
        flows += stats.attributed + stats.unattributed + stats.foreign;
    }
    (t0.elapsed().as_nanos() as u64, flows)
}

/// `reps` passes as ns/flow.
fn series(
    sim: &CampusSim,
    ctx: &PipelineCtx,
    reps: usize,
    rows: usize,
    traced: bool,
    mem: bool,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (ns, flows) = pass(sim, ctx, rows, traced, mem);
            ns as f64 / flows.max(1) as f64
        })
        .collect()
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Run one whole study in this process and return it as one JSON line.
/// `mode` is `exact` (fixed `shards`) or `digest` (shards derived from
/// [`BUDGET_BYTES`]).
fn run_one(mode: &str, scale: f64, shards: u32) -> Result<String, String> {
    let builder = Study::builder(SimConfig::at_scale(scale))
        .threads(threads())
        .track_memory(true);
    let t0 = Instant::now();
    let (sharding, flows) = match mode {
        "exact" => {
            let s = builder
                .shards(shards)
                .run()
                .map_err(|e| e.to_string())?
                .into_study();
            (s.sharding().clone(), s.norm_stats.attributed)
        }
        "digest" => {
            let d = builder
                .mem_budget(BUDGET_BYTES)
                .run_digest()
                .map_err(|e| e.to_string())?;
            (d.sharding().clone(), d.norm_stats.attributed)
        }
        other => return Err(format!("unknown --one mode {other:?}")),
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    // Largest per-shard within-day net growth (0 when day scopes
    // recorded nothing).
    let peak_shard = sharding
        .per_shard_peak_bytes
        .iter()
        .max()
        .copied()
        .unwrap_or(0);
    Ok(json::object(|o| {
        o.field("label", format!("{mode}@{scale}"))
            .field("mode", mode)
            .num("scale", scale)
            .field("shards", sharding.shards)
            .field("wall_ns", wall_ns)
            .field("flows", flows)
            .num(
                "ns_per_flow",
                format_args!("{:.1}", wall_ns as f64 / flows.max(1) as f64),
            )
            .field("peak_bytes", alloc::stats().peak_bytes)
            .field("peak_shard_bytes", peak_shard);
    }))
}

/// Re-exec this binary in `--one` mode: the child's JSON line, parsed.
fn spawn_one(mode: &str, scale: f64, shards: u32) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--one", mode, &scale.to_string(), &shards.to_string()])
        .output()
        .map_err(|e| format!("spawning child failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = match stdout.lines().find(|l| l.starts_with('{')) {
        Some(line) if out.status.success() => line.to_string(),
        _ => {
            let err = String::from_utf8_lossy(&out.stderr);
            return Err(format!("child {mode}@{scale} failed: {err}"));
        }
    };
    let v = json::parse(&line).map_err(|e| format!("child JSON invalid: {e}"))?;
    eprintln!("{line}");
    Ok((line, v))
}

/// The `--check` gate: every `(field, measured)` may grow at most
/// [`CHECK_RATIO`] over the committed artifact. One message per failure.
fn check(committed: &Value, measured: &[(&str, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(field, value) in measured {
        match committed.get(field).and_then(Value::as_f64) {
            Some(base) if base > 0.0 => {
                let pct = (value / base - 1.0) * 100.0;
                eprintln!("check {field}: committed {base:.3}, measured {value:.3} ({pct:+.1} %)");
                if value / base > CHECK_RATIO {
                    failures.push(format!(
                        "{field} regressed {pct:.1} % over the committed artifact (>15 % budget)"
                    ));
                }
            }
            _ => failures.push(format!("committed artifact has no positive {field} field")),
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let ["--one", mode, scale, shards] = args.iter().map(String::as_str).collect::<Vec<_>>()[..]
    {
        let line = match (scale.parse(), shards.parse()) {
            (Ok(scale), Ok(shards)) => run_one(mode, scale, shards),
            _ => Err("--one needs MODE SCALE SHARDS".to_string()),
        };
        if let Ok(line) = &line {
            println!("{line}");
        }
        return exit_status(line.map(|_| Vec::new()));
    }
    let (mut reps, mut out, mut check_path) = (7, "results/BENCH_overhead.json".to_string(), None);
    let usage = |a: &str| {
        eprintln!(
            "overhead: bad argument {a}; usage: overhead [--reps N] [--out FILE] [--check FILE]"
        );
        ExitCode::from(2)
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--reps", Some(v)) => match v.parse() {
                Ok(n) if n > 1 => reps = n,
                _ => {
                    return usage(&format!(
                        "--reps {v} (at least 2: a one-value series has no spread)"
                    ))
                }
            },
            ("--out", Some(v)) => out = v,
            ("--check", Some(v)) => check_path = Some(v),
            _ => return usage(&a),
        }
    }
    exit_status(run(reps, &out, check_path.as_deref()))
}

/// Print every failure; any failure is exit status 1.
fn exit_status(outcome: Result<Vec<String>, String>) -> ExitCode {
    let failures = outcome.unwrap_or_else(|msg| vec![msg]);
    failures.iter().for_each(|msg| eprintln!("overhead: {msg}"));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure everything, write the artifact to `out`, and return the
/// failed gates.
fn run(reps: usize, out: &str, check_path: Option<&str>) -> Result<Vec<String>, String> {
    let committed = check_path
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
        })
        .transpose()?;
    let sim = CampusSim::new(bench_config());
    let ctx = PipelineCtx::study();
    let rows = DEFAULT_BATCH_ROWS;
    alloc::disable();
    // Warm up caches and the page allocator before anything is timed.
    let (_, flows_per_pass) = pass(&sim, &ctx, rows, false, false);
    eprintln!(
        "{flows_per_pass} flows per pass over {} days, {reps} reps per series",
        DAYS.len()
    );

    // The off pair brackets both instrumented series, so drift shows
    // up as an off_a/off_b spread.
    let off_a = series(&sim, &ctx, reps, rows, false, false);
    let recorder = SpanRecorder::new();
    let lane = recorder.install(0, "bench");
    let trace_on = series(&sim, &ctx, reps, rows, true, false);
    drop(lane);
    let spans = recorder.finish().spans.len();
    if !alloc::enable() {
        return Err("enable probe failed with TrackingAlloc registered".into());
    }
    let mem_on = series(&sim, &ctx, reps, rows, false, true);
    alloc::disable();
    let off_b = series(&sim, &ctx, reps, rows, false, false);
    let sweep: Vec<(usize, f64)> = SWEEP_ROWS
        .iter()
        .map(|&rows| (rows, median(&series(&sim, &ctx, reps, rows, false, false))))
        .collect();

    // Deterministic allocation shape, one counted pass.
    alloc::enable();
    let scope = AllocScope::begin();
    let (_, flows) = pass(&sim, &ctx, rows, false, true);
    let counted = scope.end();
    alloc::disable();
    let allocs_per_flow = counted.allocs as f64 / flows.max(1) as f64;
    eprintln!(
        "{} allocs ({allocs_per_flow:.3}/flow), peak net {} B",
        counted.allocs, counted.peak_net_bytes
    );

    let threads = threads();
    eprintln!("scale pair {SCALE_LO} -> {SCALE_HI}, budget {BUDGET_BYTES} B, {threads} threads");
    let mut runs = Vec::new();
    for (mode, scale, shards) in [
        ("exact", SCALE_LO, 1),
        ("exact", SCALE_LO, 2),
        ("exact", SCALE_LO, 4),
        ("digest", SCALE_LO, 0),
        ("digest", SCALE_HI, 0),
    ] {
        runs.push(spawn_one(mode, scale, shards)?);
    }
    let num = |i: usize, field| runs[i].1.get(field).and_then(Value::as_f64).unwrap_or(0.0);
    let ratio = |a, b, field| num(b, field) / num(a, field).max(1.0);
    let k4_pct = 100.0 * (ratio(0, 2, "ns_per_flow") - 1.0);
    let peak_ratio = ratio(3, 4, "peak_bytes");

    let (ma, mb) = (median(&off_a), median(&off_b));
    let (m_trace, m_mem) = (median(&trace_on), median(&mem_on));
    let spread = |xs: &[f64]| {
        xs.iter().copied().fold(f64::MIN, f64::max) - xs.iter().copied().fold(f64::MAX, f64::min)
    };
    let noise_ns = spread(&off_a).max(spread(&off_b));
    // The run-to-run stability band of the untraced, untracked path:
    // the off series' own spread, never tighter than 5 % of the median.
    let band_ns = noise_ns.max(ma * 0.05);
    let off_delta_ns = (ma - mb).abs();
    let (trace_pct, mem_pct) = (100.0 * (m_trace / ma - 1.0), 100.0 * (m_mem / ma - 1.0));
    // ns/flow series with one decimal per value.
    let ns_series = |a: &mut json::Array<'_>, xs: &[f64]| {
        for x in xs {
            a.num(format_args!("{x:.1}"));
        }
    };
    let json = json::object(|o| {
        o.field("bench", "overhead")
            .num("scale", BENCH_SCALE)
            .field("days_per_pass", DAYS.len())
            .field("flows_per_pass", flows_per_pass)
            .field("reps", reps)
            .field("batch_rows_default", rows)
            .field("spans_recorded", spans)
            .array("off_a_ns_per_flow", |a| ns_series(a, &off_a))
            .array("off_b_ns_per_flow", |a| ns_series(a, &off_b))
            .array("trace_on_ns_per_flow", |a| ns_series(a, &trace_on))
            .array("mem_on_ns_per_flow", |a| ns_series(a, &mem_on))
            .num("median_off_a", format_args!("{ma:.1}"))
            .num("median_off_b", format_args!("{mb:.1}"))
            .num("median_trace_on", format_args!("{m_trace:.1}"))
            .num("median_mem_on", format_args!("{m_mem:.1}"))
            .num("noise_band_ns", format_args!("{noise_ns:.1}"))
            .num("off_delta_ns", format_args!("{off_delta_ns:.1}"))
            .field("off_within_noise", off_delta_ns <= band_ns)
            .num("trace_on_overhead_pct", format_args!("{trace_pct:.2}"))
            .num("mem_on_overhead_pct", format_args!("{mem_pct:.2}"))
            .array("sweep", |a| {
                for &(rows, ns) in &sweep {
                    a.object(|o| {
                        o.field("batch_rows", rows)
                            .num("ns_per_flow", format_args!("{ns:.1}"));
                    });
                }
            })
            .field("allocs", counted.allocs)
            .field("alloc_bytes", counted.alloc_bytes)
            .field("freed_bytes", counted.freed_bytes)
            .num("allocs_per_flow", format_args!("{allocs_per_flow:.3}"))
            .field("peak_net_bytes", counted.peak_net_bytes)
            .num("scale_lo", SCALE_LO)
            .num("scale_hi", SCALE_HI)
            .num("scale_ratio", format_args!("{:.1}", SCALE_HI / SCALE_LO))
            .field("budget_bytes", BUDGET_BYTES)
            .field("threads", threads)
            .num("exact_overhead_k4_pct", format_args!("{k4_pct:.2}"))
            .num(
                "digest_flows_ratio",
                format_args!("{:.2}", ratio(3, 4, "flows")),
            )
            .num("digest_peak_ratio_10x", format_args!("{peak_ratio:.3}"))
            .field("peak_within_2x", peak_ratio <= MAX_PEAK_RATIO)
            .array("runs", |a| {
                for (line, _) in &runs {
                    a.item(json::Raw(line));
                }
            });
    });
    if let Some(parent) = std::path::Path::new(out)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {} failed: {e}", parent.display()))?;
    }
    std::fs::write(out, &json).map_err(|e| format!("writing {out} failed: {e}"))?;
    println!("{json}");
    eprintln!("written to {out}");

    let measured = [
        ("median_off_a", ma),
        ("allocs_per_flow", allocs_per_flow),
        ("peak_net_bytes", counted.peak_net_bytes as f64),
    ];
    let mut failures = committed.map_or_else(Vec::new, |c| check(&c, &measured));
    if off_delta_ns > band_ns {
        failures.push(format!(
            "off medians differ by {off_delta_ns:.1} ns/flow, outside the {band_ns:.1} ns band \
             (the larger of the {noise_ns:.1} ns noise band and 5 % of {ma:.1})"
        ));
    }
    // The scale-out law: population grew 10x, peak allocation must
    // stay within 2x.
    if peak_ratio > MAX_PEAK_RATIO {
        failures.push(format!(
            "digest peak grew {peak_ratio:.2}x across the 10x scale pair (>2x budget)"
        ));
    }
    Ok(failures)
}
