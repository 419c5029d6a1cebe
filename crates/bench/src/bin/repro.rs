//! The reproduction harness: regenerates every figure and headline
//! statistic of *Locked-In during Lock-Down* (IMC '21).
//!
//! ```text
//! repro run [--scale S] [--threads N] [--seed X]
//!           [--scenario NAME | --scenario-file PATH] [--out DIR]
//!           [--trace FILE] [--flame FILE] [--progress] [--mem]
//!           [--serve ADDR] [--fault-profile NAME] [--strict]
//!           [all|fig1..fig8|stats]
//! repro metrics [run options]
//! repro matrix [--scale S] [--threads N] [--seed X]
//!              [--strict] --out DIR [NAME...]
//! repro scenarios list
//! repro scenarios show NAME [--toml|--hash]
//! repro watch ADDR [--interval MS]
//! repro probe ADDR|DIR
//! repro compare A B [--report FILE] [--json]
//! repro compare --converge [--scales LIST] [--check FILE]
//!               [--report FILE] [--json]
//! ```
//!
//! `run all` (the default) runs the full study plus its no-event
//! counterfactual and prints the complete report; `run figN`/`run
//! stats` print just that piece; `metrics` dumps the run's per-stage
//! counters as JSON. `--scenario NAME` selects a built-in scenario
//! (see `repro scenarios list`); `--scenario-file PATH` loads one from
//! a scenario TOML file (`docs/SCENARIOS.md` documents the format).
//! `--out DIR` additionally writes the machine-readable figure files;
//! `--progress` draws the run's live view to stderr, the frame `repro
//! watch` draws, every 500 ms and once more when the study returns.
//!
//! `matrix` runs one full study per scenario — every built-in when no
//! NAMEs are given — writing one figure directory plus `manifest.json`
//! per cell under `--out DIR` and a cross-scenario `comparison.txt`
//! (also printed to stdout). Each cell's manifest records the scenario
//! name and content hash.
//!
//! `--mem` tracks allocation through the study: `repro` registers the
//! [`lockdown_obs::TrackingAlloc`] wrapper as its global allocator, so
//! the run records day- and stage-attributed `mem.*` counters, a
//! run-wide peak, and a `memory` section in `manifest.json`. Tracking
//! is observation-only — figures and non-`mem.*` metrics are
//! byte-identical with it on or off.
//!
//! `--serve ADDR` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
//! one) exposes the run live over HTTP — `/metrics` in Prometheus text
//! exposition, `/healthz`, and `/progress` — and logs the bound address
//! to stderr before the run starts. Serving is observation-only:
//! results are bit-identical to an unserved run at the same seed and
//! thread count. `repro watch ADDR` follows a served run from another
//! terminal with a one-line-per-worker live view (polling every 500 ms
//! unless `--interval MS` says otherwise, and showing live/peak memory
//! when the served run has `--mem` on), and `repro probe ADDR` hits
//! all three endpoints once, strictly validating the exposition and
//! JSON — including the per-shard `shard_loads` rows in `/progress`
//! (the CI smoke check). `repro probe DIR` instead validates a run
//! directory's `manifest.json`: the `accuracy` section's figure
//! contracts and the `sharding` section's per-shard telemetry arrays.
//! See `docs/OBSERVABILITY.md`.
//!
//! `--trace FILE` records a span timeline of the whole run (workers,
//! days, pipeline stages, report emission) and writes it as Chrome
//! trace-event JSON — load it in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. `--flame FILE` writes the same timeline as
//! collapsed stacks for flamegraph tooling. Either flag also writes a
//! `manifest.json` provenance record (as does `--out`); see
//! `docs/TRACING.md`.
//!
//! `--shards K` partitions the synthetic population into K
//! deterministic shards that are generated, streamed, and dropped one
//! at a time — the exact path: figures and config hash are
//! byte-identical to an unsharded run at any K and thread count, while
//! peak memory tracks the largest shard instead of the whole campus.
//! `--shards auto` goes further for million-device scales: the shard
//! count is derived from `--mem-budget BYTES` (default 512 MiB) and
//! the run streams per-shard *digests* instead of full collectors —
//! headline statistics and growth vs 2019 stay exact (each 2019 twin
//! shard is joined with its study shard's post-shutdown cohort),
//! distribution figures carry a ≤2× quantile approximation, and only
//! the classification audit is skipped (no run-level device table
//! exists). Both modes record `sharding` and `accuracy` sections in
//! `manifest.json` and surface per-shard load rows in `/progress`. See
//! `DESIGN.md` and `README.md` for the scale recipe.
//!
//! `compare A B` diffs two `--out` run directories — manifest identity
//! (config hash, scenario, seed, versions, degraded/sharding/memory),
//! headline drift from the manifests' `accuracy` sections, and a
//! value-by-value figure-file diff (`analysis::accuracy`, the engine
//! the accuracy tests use): exact-vs-exact demands equality, and
//! against a digest run each value is held to its column's class in
//! the digest contract (fig2's means exact, its medians ≤2×). Exit 1
//! when any figure file has a value outside its class.
//! `compare --converge` instead runs an in-process digest scale ladder
//! (`--scales`, default `0.02,0.06,0.2`) and reports how the
//! scale-invariant headline ratios drift across rungs — `--report
//! FILE` writes the `BENCH_convergence.json` artifact and `--check
//! FILE` gates the measured drift against a committed baseline (the CI
//! convergence smoke).
//!
//! `--fault-profile NAME` injects seeded, deterministic input
//! corruption (`none` or `default`; see `docs/ROBUSTNESS.md`): the run
//! completes gracefully, counts every dropped and repaired record
//! under `pipeline.errors.*` / `assembler.malformed.*`, and reports
//! quarantined days in the manifest's `degraded` section. `--strict`
//! turns the first day failure into a non-zero exit instead — the CI
//! posture.
//!
//! Exit codes: 0 success, 1 runtime failure (including strict-mode day
//! failures and scenario-file errors), 2 usage error (including an
//! unknown built-in scenario name).

use analysis::export::FIGURE_FILES;
use analysis::DigestFigures;
use campussim::{FaultProfile, Scenario, SimConfig};
use lockdown_bench::http;
use lockdown_core::report::{self, RunView};
use lockdown_core::{DegradedReport, Study, StudyError};
use lockdown_obs::{json, trace, LivePublisher, SpanRecorder, TelemetryServer, TrackingAlloc};
use std::io::{IsTerminal, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// The tracking wrapper is always registered; until `--mem` enables it
/// the cost is one relaxed load and a branch per allocator call.
#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// What the invocation asked for, after alias resolution.
enum Command {
    /// `repro run [TARGET]` — TARGET is `all`, `fig1`..`fig8`, `stats`.
    Run { target: String },
    /// `repro metrics` — run the study, dump per-stage counters as JSON.
    Metrics,
    /// `repro matrix [NAME...]` — one study per scenario.
    Matrix { names: Vec<String> },
    /// `repro scenarios list`.
    ScenariosList,
    /// `repro scenarios show NAME`.
    ScenariosShow { name: String },
    /// `repro watch ADDR`.
    Watch { addr: String },
    /// `repro probe ADDR|DIR`.
    Probe { addr: String },
    /// `repro compare [A B]` — cross-run diff, or the convergence
    /// ladder when `--converge` is set (then A/B stay empty).
    Compare {
        /// First run directory (required unless `--converge`).
        a: Option<String>,
        /// Second run directory (required unless `--converge`).
        b: Option<String>,
    },
}

/// The `--shards` flag, parsed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ShardsArg {
    /// No flag: one shard unless `--mem-budget` derives a partition.
    Off,
    /// `--shards K`: exact sharded run with a fixed shard count.
    Fixed(u32),
    /// `--shards auto`: digest mode, shard count from the memory budget.
    Auto,
}

/// Default `--mem-budget` when `--shards auto` is used without one.
const DEFAULT_MEM_BUDGET: u64 = 512 << 20;

struct Args {
    scale: f64,
    threads: usize,
    seed: u64,
    shards: ShardsArg,
    mem_budget: Option<u64>,
    scenario: Option<String>,
    scenario_file: Option<PathBuf>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    flame: Option<PathBuf>,
    progress: bool,
    mem: bool,
    serve: Option<String>,
    fault: Option<FaultProfile>,
    strict: bool,
    /// `repro watch` poll interval, milliseconds.
    interval_ms: u64,
    /// `scenarios show` output selectors.
    show_toml: bool,
    show_hash: bool,
    /// `compare --converge`: run the digest scale ladder.
    converge: bool,
    /// `--scales LIST`: the ladder's population scales.
    scales: Option<Vec<f64>>,
    /// `--check FILE`: gate the ladder against a committed baseline.
    check: Option<PathBuf>,
    /// `--report FILE`: write the comparison/ladder JSON artifact.
    report: Option<PathBuf>,
    /// `--json`: print JSON instead of the text report.
    json: bool,
    command: Command,
}

/// How often `repro watch` polls (unless `--interval` says otherwise)
/// and `--progress` redraws, milliseconds.
const WATCH_INTERVAL_MS: u64 = 500;

const USAGE: &str = "usage: repro run [--scale S] [--threads N] [--seed X] [--shards K|auto] [--mem-budget BYTES] [--scenario NAME | --scenario-file PATH] [--out DIR] [--trace FILE] [--flame FILE] [--progress] [--mem] [--serve ADDR] [--fault-profile none|default] [--strict] [all|fig1..fig8|stats]\n       repro metrics [run options]          dump per-stage counters as JSON\n       repro matrix [run options] --out DIR [NAME...]   one study per scenario (default: all built-ins)\n       repro scenarios list                 list built-in scenarios\n       repro scenarios show NAME [--toml|--hash]   print a scenario (canonical TOML by default)\n       repro watch ADDR [--interval MS]   follow a served run live (poll every MS ms, default 500)\n       repro probe ADDR|DIR   validate a served run's endpoints, or a run directory's manifest accuracy/sharding sections\n       repro compare A B [--report FILE] [--json]   diff two run directories (manifest, headline drift, figure files)\n       repro compare --converge [--scales LIST] [--check FILE] [--report FILE] [--json]   digest scale ladder (default scales 0.02,0.06,0.2)";

/// Valid `repro run` targets.
fn is_run_target(s: &str) -> bool {
    matches!(
        s,
        "all" | "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "stats"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.05,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        seed: 0x5eed_2020,
        shards: ShardsArg::Off,
        mem_budget: None,
        scenario: None,
        scenario_file: None,
        out: None,
        trace: None,
        flame: None,
        progress: false,
        mem: false,
        serve: None,
        fault: None,
        strict: false,
        interval_ms: WATCH_INTERVAL_MS,
        show_toml: false,
        show_hash: false,
        converge: false,
        scales: None,
        check: None,
        report: None,
        json: false,
        command: Command::Run {
            target: "all".to_string(),
        },
    };
    fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number_of<T: std::str::FromStr>(
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        value_of(it, flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }
    let mut positionals: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = number_of(&mut it, "--scale")?,
            "--threads" => args.threads = number_of(&mut it, "--threads")?,
            "--seed" => args.seed = number_of(&mut it, "--seed")?,
            "--shards" => {
                let v = value_of(&mut it, "--shards")?;
                args.shards = if v == "auto" {
                    ShardsArg::Auto
                } else {
                    let k: u32 = v.parse().map_err(|_| {
                        format!("--shards needs a positive count or `auto`, got {v:?}")
                    })?;
                    if k == 0 {
                        return Err("--shards must be at least 1 (or `auto`)".to_string());
                    }
                    ShardsArg::Fixed(k)
                };
            }
            "--mem-budget" => {
                let b: u64 = number_of(&mut it, "--mem-budget")?;
                if b == 0 {
                    return Err("--mem-budget must be positive (bytes)".to_string());
                }
                args.mem_budget = Some(b);
            }
            "--scenario" => args.scenario = Some(value_of(&mut it, "--scenario")?),
            "--scenario-file" => {
                args.scenario_file = Some(PathBuf::from(value_of(&mut it, "--scenario-file")?))
            }
            "--out" => args.out = Some(PathBuf::from(value_of(&mut it, "--out")?)),
            "--trace" => args.trace = Some(PathBuf::from(value_of(&mut it, "--trace")?)),
            "--flame" => args.flame = Some(PathBuf::from(value_of(&mut it, "--flame")?)),
            "--progress" => args.progress = true,
            "--mem" => args.mem = true,
            "--interval" => {
                let ms: u64 = number_of(&mut it, "--interval")?;
                if !(1..=60_000).contains(&ms) {
                    return Err(format!(
                        "--interval must be between 1 and 60000 milliseconds, got {ms}"
                    ));
                }
                args.interval_ms = ms;
            }
            "--serve" => args.serve = Some(value_of(&mut it, "--serve")?),
            "--fault-profile" => {
                let name = value_of(&mut it, "--fault-profile")?;
                args.fault = Some(FaultProfile::named(&name).ok_or_else(|| {
                    format!("unknown fault profile {name:?} (try none, default)")
                })?);
            }
            "--strict" => args.strict = true,
            "--toml" => args.show_toml = true,
            "--hash" => args.show_hash = true,
            "--converge" => args.converge = true,
            "--json" => args.json = true,
            "--check" => args.check = Some(PathBuf::from(value_of(&mut it, "--check")?)),
            "--report" => args.report = Some(PathBuf::from(value_of(&mut it, "--report")?)),
            "--scales" => {
                let list = value_of(&mut it, "--scales")?;
                let mut scales = Vec::new();
                for part in list.split(',') {
                    let s: f64 = part.trim().parse().map_err(|_| {
                        format!("--scales needs comma-separated numbers, got {part:?}")
                    })?;
                    if s <= 0.0 || s.is_nan() {
                        return Err(format!("--scales entries must be positive, got {s}"));
                    }
                    scales.push(s);
                }
                if scales.len() < 2 {
                    return Err("--scales needs at least two scales for a ladder".to_string());
                }
                args.scales = Some(scales);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}; {USAGE}"));
            }
            _ => positionals.push(a),
        }
    }
    if args.scenario.is_some() && args.scenario_file.is_some() {
        return Err("--scenario and --scenario-file are mutually exclusive".to_string());
    }
    if let Some(name) = &args.scenario {
        if Scenario::builtin(name).is_err() {
            return Err(format!(
                "unknown scenario {name:?}; built-ins: {}",
                Scenario::builtin_names().join(", ")
            ));
        }
    }
    args.command = parse_command(&positionals)?;
    Ok(args)
}

/// Map the positional arguments to a [`Command`].
fn parse_command(positionals: &[String]) -> Result<Command, String> {
    let mut rest = positionals.iter().map(String::as_str);
    let too_many = |cmd: &str| format!("unexpected extra argument after `{cmd}`; {USAGE}");
    let head = match rest.next() {
        None => {
            return Ok(Command::Run {
                target: "all".to_string(),
            })
        }
        Some(h) => h,
    };
    let cmd = match head {
        "run" => {
            let target = rest.next().unwrap_or("all").to_string();
            if !is_run_target(&target) {
                return Err(format!(
                    "unknown run target {target:?} (all, fig1..fig8, stats); {USAGE}"
                ));
            }
            Command::Run { target }
        }
        "metrics" => Command::Metrics,
        "matrix" => {
            return Ok(Command::Matrix {
                names: rest.map(str::to_string).collect(),
            })
        }
        "scenarios" => match rest.next() {
            Some("list") => Command::ScenariosList,
            Some("show") => {
                let name = rest
                    .next()
                    .ok_or_else(|| format!("scenarios show needs a scenario name; {USAGE}"))?;
                Command::ScenariosShow {
                    name: name.to_string(),
                }
            }
            Some(other) => {
                return Err(format!(
                    "unknown scenarios subcommand {other:?} (list, show); {USAGE}"
                ))
            }
            None => {
                return Err(format!(
                    "scenarios needs a subcommand (list, show); {USAGE}"
                ))
            }
        },
        "compare" => Command::Compare {
            a: rest.next().map(str::to_string),
            b: rest.next().map(str::to_string),
        },
        "watch" | "probe" => {
            let addr = rest.next().ok_or_else(|| {
                format!("{head} needs a server address, e.g. `repro {head} 127.0.0.1:9184`")
            })?;
            if head == "watch" {
                Command::Watch {
                    addr: addr.to_string(),
                }
            } else {
                Command::Probe {
                    addr: addr.to_string(),
                }
            }
        }
        other => {
            return Err(format!("unknown command {other:?}; {USAGE}"));
        }
    };
    if rest.next().is_some() {
        return Err(too_many(head));
    }
    Ok(cmd)
}

fn write_text(path: &std::path::Path, content: &str, what: &str) -> Result<(), StudyError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|source| StudyError::Io {
                path: parent.to_path_buf(),
                source,
            })?;
        }
    }
    std::fs::write(path, content).map_err(|source| StudyError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    eprintln!("{what} written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("repro: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.command {
        Command::Watch { addr } => return exit_of(watch(addr, args.interval_ms)),
        Command::Probe { addr } => return exit_of(probe(addr)),
        Command::Compare { a, b } => {
            let (a, b) = (a.clone(), b.clone());
            return exit_of(compare_cmd(&args, a.as_deref(), b.as_deref()));
        }
        Command::ScenariosList => return exit_of(scenarios_list()),
        Command::ScenariosShow { name } => {
            let name = name.clone();
            return exit_of(scenarios_show(&name, args.show_toml, args.show_hash));
        }
        Command::Matrix { names } => {
            let names = names.clone();
            run_matrix(&args, &names)
        }
        Command::Run { .. } | Command::Metrics => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn exit_of(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `repro scenarios list`: one line per built-in.
fn scenarios_list() -> Result<(), String> {
    for s in Scenario::builtins() {
        println!(
            "{:<24} {}  {:>2} phases  {}",
            s.name,
            s.content_hash_hex(),
            s.phases.len(),
            s.description
        );
    }
    Ok(())
}

/// `repro scenarios show NAME`: canonical TOML by default, `--hash`
/// prints just the 16-hex-digit content hash (for scripting/CI).
fn scenarios_show(name: &str, _toml: bool, hash: bool) -> Result<(), String> {
    let s = Scenario::builtin(name).map_err(|_| {
        format!(
            "unknown scenario {name:?}; built-ins: {}",
            Scenario::builtin_names().join(", ")
        )
    })?;
    if hash {
        println!("{}", s.content_hash_hex());
    } else {
        print!("{}", s.to_toml());
    }
    Ok(())
}

/// Resolve the `--scenario`/`--scenario-file` flags to a scenario, or
/// `None` to run the config's default (`paper-2020`).
fn load_scenario(args: &Args) -> Result<Option<Scenario>, StudyError> {
    if let Some(name) = &args.scenario {
        // Name validity was checked at parse time (usage errors exit 2).
        return Ok(Scenario::builtin(name).ok());
    }
    let Some(path) = &args.scenario_file else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|source| StudyError::Io {
        path: path.clone(),
        source,
    })?;
    let scenario = Scenario::parse(&text)
        .map_err(|e| StudyError::Config(campussim::ConfigError::Scenario(e)))?;
    Ok(Some(scenario))
}

/// `repro matrix`: one full study per scenario, figure files and a
/// scenario-stamped manifest per cell, plus the comparison report.
fn run_matrix(args: &Args, names: &[String]) -> Result<(), StudyError> {
    let Some(dir) = &args.out else {
        eprintln!("repro: matrix needs --out DIR for its per-cell artifacts");
        std::process::exit(2);
    };
    let scenarios: Vec<Scenario> = if names.is_empty() {
        Scenario::builtins().to_vec()
    } else {
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            match Scenario::builtin(name) {
                Ok(s) => out.push(s),
                Err(_) => {
                    eprintln!(
                        "repro: unknown scenario {name:?}; built-ins: {}",
                        Scenario::builtin_names().join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };
    let cfg = SimConfig {
        scale: args.scale,
        seed: args.seed,
        ..Default::default()
    };
    eprintln!(
        "running {} scenario cells at scale {} on {} threads…",
        scenarios.len(),
        args.scale,
        args.threads
    );
    let t0 = std::time::Instant::now();
    if args.shards == ShardsArg::Auto {
        eprintln!(
            "repro: matrix does not support --shards auto (digest mode); use a fixed --shards K"
        );
        std::process::exit(2);
    }
    let mut b = Study::builder(cfg)
        .threads(args.threads)
        .strict(args.strict)
        .track_memory(args.mem);
    if let ShardsArg::Fixed(k) = args.shards {
        b = b.shards(k);
    }
    if let Some(budget) = args.mem_budget {
        b = b.mem_budget(budget);
    }
    let matrix = b.run_matrix(&scenarios)?;
    eprintln!(
        "{} cells done in {:.1}s",
        matrix.cells.len(),
        t0.elapsed().as_secs_f64()
    );
    let written = report::write_matrix_files(&matrix, dir, args.threads)?;
    eprintln!("{written} matrix files written to {}", dir.display());
    print!("{}", report::matrix_report(&matrix));
    Ok(())
}

/// Dispatch the telemetry client commands (`watch`, `probe`), which
/// talk to a `--serve` endpoint instead of running a study.
/// GET a telemetry endpoint, treating any non-2xx status as an error.
fn http_ok(addr: &str, path: &str) -> Result<http::Response, String> {
    let resp =
        http::get(addr, path).map_err(|e| format!("cannot reach http://{addr}{path}: {e}"))?;
    if !resp.is_ok() {
        return Err(format!("http://{addr}{path} returned HTTP {}", resp.status));
    }
    Ok(resp)
}

/// `repro watch ADDR`: poll `/progress` every `interval_ms` (default
/// 500 ms, `--interval`) and keep a live multi-line view on the
/// terminal (redrawn in place when stdout is a TTY) until the served
/// run reports `done` or the server goes away.
fn watch(addr: &str, interval_ms: u64) -> Result<(), String> {
    let redraw = std::io::stdout().is_terminal();
    let mut reached_once = false;
    let mut printed = 0usize;
    loop {
        let resp = match http::get(addr, "/progress") {
            Ok(r) if r.is_ok() => r,
            Ok(r) => return Err(format!("http://{addr}/progress returned HTTP {}", r.status)),
            // Once we have seen the run, the server vanishing just
            // means the repro process exited; that is a clean end.
            Err(_) if reached_once => {
                println!("server at {addr} gone — run finished or was stopped");
                return Ok(());
            }
            Err(e) => return Err(format!("cannot reach http://{addr}/progress: {e}")),
        };
        reached_once = true;
        let v =
            json::parse(&resp.body).map_err(|e| format!("/progress returned invalid JSON: {e}"))?;
        printed = draw_frame(&mut std::io::stdout().lock(), redraw, printed, &v);
        if v.get("status").and_then(json::Value::as_str) == Some("done") {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Write the `watch` frame of one `/progress` snapshot to `out` and
/// return its line count. With `redraw` (a terminal) it first moves
/// the cursor back over the `printed` lines of the previous frame and
/// clears them.
fn draw_frame(out: &mut impl Write, redraw: bool, printed: usize, v: &json::Value) -> usize {
    let lines = render_progress(v);
    let clear = match printed {
        n if redraw && n > 0 => format!("\x1b[{n}A\x1b[J"),
        _ => String::new(),
    };
    // The frame is a view; a closed stream only loses the view.
    let _ = writeln!(out, "{clear}{}", lines.join("\n"));
    lines.len()
}

/// Run `study`. With `live` (`--progress`), draw the run's `repro
/// watch` frame to stderr meanwhile, every [`WATCH_INTERVAL_MS`], and
/// once more when the study returns, also when it returns an error:
/// its return drops the sender the printer waits on, and the scope
/// joins the printer. Stdout stays the study's own.
fn watched<T>(live: Option<&LivePublisher>, study: impl FnOnce() -> T) -> T {
    let Some(live) = live else {
        return study();
    };
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let redraw = std::io::stderr().is_terminal();
            let interval = Duration::from_millis(WATCH_INTERVAL_MS);
            let mut printed = 0;
            loop {
                // Nothing is ever sent; only the sender's drop ends the
                // wait early.
                let last = matches!(
                    stopped.recv_timeout(interval),
                    Err(mpsc::RecvTimeoutError::Disconnected)
                );
                // `Progress::to_json` always parses (the JSON emitter
                // tests pin its bytes); the round trip makes this the
                // frame `repro watch` draws from `/progress`.
                if let Ok(v) = json::parse(&live.progress().to_json()) {
                    printed = draw_frame(&mut std::io::stderr().lock(), redraw, printed, &v);
                }
                if last {
                    return;
                }
            }
        });
        let out = study();
        drop(stop);
        out
    })
}

/// Format one `/progress` snapshot as the `watch` frame: a run summary
/// line followed by one row per worker.
fn render_progress(v: &json::Value) -> Vec<String> {
    let num = |v: &json::Value, key: &str| v.get(key).and_then(json::Value::as_u64).unwrap_or(0);
    let secs = |ns: u64| ns as f64 / 1e9;
    let eta = match v.get("eta_ns").and_then(json::Value::as_u64) {
        Some(ns) => format!("{:.1}s", secs(ns)),
        None => "?".to_string(),
    };
    let status = v
        .get("status")
        .and_then(json::Value::as_str)
        .unwrap_or("unknown");
    // Memory appears only when the served run tracks it (`--mem`).
    let mem = match (
        v.get("mem_live_bytes").and_then(json::Value::as_u64),
        v.get("mem_peak_bytes").and_then(json::Value::as_u64),
    ) {
        (Some(live), Some(peak)) => format!(
            " · mem {:.1} MiB (peak {:.1})",
            live as f64 / (1 << 20) as f64,
            peak as f64 / (1 << 20) as f64,
        ),
        _ => String::new(),
    };
    let mut lines = vec![format!(
        "[{status}] {}/{} days · {} in flight · {} degraded · {} flows · elapsed {:.1}s · eta {eta}{mem}",
        num(v, "days_completed"),
        num(v, "days_total"),
        num(v, "days_inflight"),
        num(v, "degraded_days"),
        num(v, "flows"),
        secs(num(v, "elapsed_ns")),
    )];
    if let Some(workers) = v.get("workers").and_then(json::Value::as_array) {
        for w in workers {
            let day = match w.get("day").and_then(json::Value::as_u64) {
                Some(d) => format!("day {d:>3}"),
                None => "idle   ".to_string(),
            };
            lines.push(format!(
                "  worker {:>2}: {day} · {:>8} flows in day · {:>3} days done",
                num(w, "worker"),
                num(w, "day_flows"),
                num(w, "days_done"),
            ));
        }
    }
    lines
}

/// `repro probe ADDR|DIR`: against a server, hit all three endpoints
/// once and validate them strictly — `/metrics` through the exposition
/// parser, the JSON endpoints through a strict JSON parser, and the
/// per-shard `shard_loads` rows in `/progress` structurally. Against a
/// run directory, validate the manifest's `accuracy` and `sharding`
/// sections instead. Exit 0 means a scraper (or `repro compare`) would
/// be happy; this is the CI smoke check.
fn probe(addr: &str) -> Result<(), String> {
    if std::path::Path::new(addr).is_dir() {
        return probe_dir(std::path::Path::new(addr));
    }
    let metrics = http_ok(addr, "/metrics")?;
    let exposition = lockdown_obs::prom::parse(&metrics.body)
        .map_err(|e| format!("/metrics is not valid Prometheus exposition: {e}"))?;
    let health = http_ok(addr, "/healthz")?;
    let health =
        json::parse(&health.body).map_err(|e| format!("/healthz returned invalid JSON: {e}"))?;
    let progress = http_ok(addr, "/progress")?;
    let progress =
        json::parse(&progress.body).map_err(|e| format!("/progress returned invalid JSON: {e}"))?;
    let status = health
        .get("status")
        .and_then(json::Value::as_str)
        .ok_or("/healthz has no status field")?;
    // Per-shard load telemetry: the key must exist (empty on a
    // one-shard exact run) and every row must be structurally complete.
    let shard_loads = progress
        .get("shard_loads")
        .and_then(json::Value::as_array)
        .ok_or("/progress has no shard_loads array — server predates per-shard load telemetry")?;
    for row in shard_loads {
        for key in ["shard", "days_done", "flows", "wall_ns"] {
            if row.get(key).and_then(json::Value::as_u64).is_none() {
                return Err(format!(
                    "/progress shard_loads row is missing {key}: {row:?}"
                ));
            }
        }
    }
    let u = |key: &str| progress.get(key).and_then(json::Value::as_u64).unwrap_or(0);
    println!(
        "probe {addr}: {} metric families · health {status} · {}/{} days · {} flows · {} shard load rows",
        exposition.families.len(),
        u("days_completed"),
        u("days_total"),
        u("flows"),
        shard_loads.len(),
    );
    Ok(())
}

/// `repro probe DIR`: validate a run directory's `manifest.json` — the
/// `accuracy` section (mode, bound, headline values, per-figure
/// contracts) and, when the run was sharded, the per-shard telemetry
/// arrays in the `sharding` section. Gives a clear error for artifacts
/// that predate the accuracy instrumentation.
fn probe_dir(dir: &std::path::Path) -> Result<(), String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let m = json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let accuracy = match m.get("accuracy") {
        Some(a) if !a.is_null() => a,
        _ => {
            return Err(format!(
                "{} has no accuracy section — this run predates the accuracy \
                 instrumentation; regenerate the artifacts with a current `repro run --out`",
                path.display()
            ))
        }
    };
    let mode = accuracy
        .get("mode")
        .and_then(json::Value::as_str)
        .ok_or("accuracy section has no mode")?;
    let bound = accuracy
        .get("guaranteed_bound")
        .and_then(json::Value::as_f64)
        .ok_or("accuracy section has no guaranteed_bound")?;
    let headline = accuracy
        .get("headline")
        .and_then(json::Value::as_object)
        .ok_or("accuracy section has no headline object")?;
    let figures = accuracy
        .get("figures")
        .and_then(json::Value::as_array)
        .ok_or("accuracy section has no figures array")?;
    for f in figures {
        for key in ["figure", "kind", "bound"] {
            if f.get(key).is_none() {
                return Err(format!("accuracy figure contract is missing {key}: {f:?}"));
            }
        }
    }
    let mut shard_note = String::new();
    if let Some(sh) = m.get("sharding").filter(|s| !s.is_null()) {
        let shards = sh
            .get("shards")
            .and_then(json::Value::as_u64)
            .ok_or("sharding section has no shard count")?;
        for key in ["per_shard_flows", "per_shard_bytes", "per_shard_wall_ns"] {
            let len = sh
                .get(key)
                .and_then(json::Value::as_array)
                .ok_or_else(|| {
                    format!(
                        "sharding section has no {key} array — this run predates \
                         per-shard load telemetry; regenerate with a current `repro run --out`"
                    )
                })?
                .len();
            if len as u64 != shards {
                return Err(format!(
                    "sharding.{key} has {len} entries for {shards} shards"
                ));
            }
        }
        shard_note = format!(" · {shards} shards with load telemetry");
    }
    println!(
        "probe {}: accuracy mode {mode} (bound ≤{bound}×) · {} headline stats · {} figure contracts{shard_note}",
        dir.display(),
        headline.len(),
        figures.len(),
    );
    Ok(())
}

/// `repro compare`: cross-run diff of two artifact directories, or the
/// digest convergence ladder under `--converge`. Exit 1 when the diff
/// exceeds tolerance or the ladder fails its `--check` gate.
fn compare_cmd(args: &Args, a: Option<&str>, b: Option<&str>) -> Result<(), String> {
    use lockdown_bench::compare;
    if args.converge {
        if a.is_some() || b.is_some() {
            return Err(format!(
                "compare --converge runs its own ladder and takes no run directories; {USAGE}"
            ));
        }
        let default_scales = [0.02, 0.06, 0.2];
        let scales: &[f64] = args.scales.as_deref().unwrap_or(&default_scales);
        let budget = args.mem_budget.unwrap_or(DEFAULT_MEM_BUDGET);
        eprintln!(
            "convergence ladder: {} digest runs at scales {:?}, seed {:#x}…",
            scales.len(),
            scales,
            args.seed
        );
        let report = compare::converge(scales, args.seed, args.threads, budget)
            .map_err(|e| format!("ladder run failed: {e}"))?;
        if args.json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.to_text());
        }
        if let Some(path) = &args.report {
            write_text(path, &report.to_json(), "convergence artifact")
                .map_err(|e| e.to_string())?;
        }
        if let Some(path) = &args.check {
            let committed = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let verdict = compare::check_convergence(&report, &committed)?;
            println!("{verdict}");
        }
        return Ok(());
    }
    let (Some(a), Some(b)) = (a, b) else {
        return Err(format!(
            "compare needs two run directories (or --converge); {USAGE}"
        ));
    };
    let report = compare::compare_dirs(std::path::Path::new(a), std::path::Path::new(b))?;
    if args.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if let Some(path) = &args.report {
        write_text(path, &report.to_json(), "comparison artifact").map_err(|e| e.to_string())?;
    }
    if !report.within_tolerance() {
        return Err("figure values outside their accuracy class (see report above)".to_string());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), StudyError> {
    let mut cfg = SimConfig {
        scale: args.scale,
        seed: args.seed,
        ..Default::default()
    };
    if let Some(scenario) = load_scenario(args)? {
        cfg.scenario = scenario;
    }
    eprintln!(
        "running study at scale {} ({} students, scenario {}) on {} threads…",
        args.scale,
        cfg.num_students(),
        cfg.scenario.name,
        args.threads
    );
    if args.mem {
        eprintln!("memory tracking: on (mem.* metrics, manifest memory section)");
    }
    // The run's one live view: `--serve` publishes it over HTTP and
    // `--progress` draws it to stderr.
    let live = (args.serve.is_some() || args.progress).then(LivePublisher::new);
    // Bind the telemetry server before the run starts so the bound
    // address (important with port 0) is known — and printed — while
    // there is still time to attach `repro watch` or a scraper.
    let server = match (&args.serve, &live) {
        (Some(addr), Some(live)) => {
            let server =
                TelemetryServer::bind(addr, live.clone()).map_err(|source| StudyError::Serve {
                    addr: addr.clone(),
                    source,
                })?;
            eprintln!("telemetry: listening on http://{}/", server.addr());
            Some(server)
        }
        _ => None,
    };
    let recorder = (args.trace.is_some() || args.flame.is_some()).then(SpanRecorder::new);
    // The CLI itself records on the main lane: argument handling, the
    // report, and figure emission all land on one timeline row beside
    // the workers.
    let main_lane = recorder
        .as_ref()
        .map(|rec| rec.install(trace::MAIN_LANE, "main"));
    let t0 = std::time::Instant::now();

    let target = match &args.command {
        Command::Metrics => "metrics",
        Command::Run { target } => target.as_str(),
        // main() routes every other command elsewhere.
        _ => "all",
    };

    let mut b = Study::builder(cfg)
        .threads(args.threads)
        .strict(args.strict)
        .track_memory(args.mem);
    if let ShardsArg::Fixed(k) = args.shards {
        b = b.shards(k);
    }
    if let Some(budget) = args.mem_budget {
        b = b.mem_budget(budget);
    }
    if let Some(rec) = &recorder {
        b = b.trace(rec);
    }
    if let Some(live) = &live {
        b = b.live(live);
    }
    if let Some(fault) = &args.fault {
        b = b.fault_profile(fault.clone());
    }
    // The full report (`all`) also runs the 2019 counterfactual and
    // compares the same post-shutdown cohort across both runs.
    if target == "all" {
        b = b.with_counterfactual();
    }

    // The modes differ in their runner, their `all` report, and the
    // classification audit `stats` adds in exact mode (digest mode
    // keeps no device table to audit); everything after reads one view.
    let progress = live.as_ref().filter(|_| args.progress);
    let (exact, digest);
    let (run, text, audit) = if args.shards == ShardsArg::Auto {
        // Digest mode: shard count derives from the memory budget and
        // the pipeline streams per-shard digests.
        let budget = args.mem_budget.unwrap_or(DEFAULT_MEM_BUDGET);
        eprintln!(
            "sharded digest mode: memory budget {:.0} MiB",
            budget as f64 / (1 << 20) as f64
        );
        digest = watched(progress, || b.mem_budget(budget).run_digest())?;
        eprintln!(
            "digest study done in {:.1}s ({} shards, merge depth {})",
            t0.elapsed().as_secs_f64(),
            digest.sharding().shards,
            digest.sharding().merge_depth,
        );
        let text = (target == "all").then(|| report::digest_text_report(&digest));
        (RunView::digest(&digest), text, None)
    } else {
        exact = watched(progress, || b.run())?;
        eprintln!(
            "{} done in {:.1}s",
            if exact.counterfactual.is_some() {
                "study + counterfactual"
            } else {
                "study"
            },
            t0.elapsed().as_secs_f64()
        );
        let text =
            (target == "all").then(|| report::text_report(&exact.study, exact.growth_vs_2019()));
        let audit = (target == "stats").then(|| exact.classification_audit(100));
        (RunView::exact(&exact), text, audit)
    };
    report_degradation(run.degraded);
    match (target, text) {
        (_, Some(text)) => println!("{text}"),
        ("metrics", None) => println!("{}", run.metrics.to_json()),
        ("stats", None) => {
            println!("{:#?}", run.figures.headline);
            if let Some(audit) = audit {
                println!("{audit:#?}");
            }
        }
        (cmd, None) => print_one(run.figures, cmd)?,
    }

    if let Some(dir) = &args.out {
        let written = report::write_figures(run.figures, dir)?;
        eprintln!("{written} figure files written to {}", dir.display());
    }

    // Close the main lane so the recorder sees every buffer, then
    // export the timeline and the provenance manifest.
    drop(main_lane);
    let trace_data = recorder.map(|rec| rec.finish());
    if let Some(t) = &trace_data {
        if let Some(path) = &args.trace {
            write_text(path, &t.to_chrome_json(), "chrome trace")?;
        }
        if let Some(path) = &args.flame {
            write_text(path, &t.to_collapsed(), "collapsed stacks")?;
        }
    }
    if args.out.is_some() || args.trace.is_some() || args.flame.is_some() {
        let mut manifest = report::run_manifest(&run, args.threads, trace_data.as_ref());
        if manifest.wall_ns == 0 {
            manifest.wall_ns = t0.elapsed().as_nanos() as u64;
        }
        manifest.serve_addr = server.as_ref().map(|s| s.addr().to_string());
        for path in manifest_targets(args) {
            manifest.write(&path).map_err(|source| StudyError::Io {
                path: path.clone(),
                source,
            })?;
            eprintln!("manifest written to {}", path.display());
        }
    }
    Ok(())
}

/// Every directory that should receive a `manifest.json` (deduped):
/// `--out`, plus the parents of `--trace`/`--flame`.
fn manifest_targets(args: &Args) -> Vec<PathBuf> {
    let mut targets: Vec<PathBuf> = Vec::new();
    for dir in args.out.iter().cloned().chain(
        args.trace
            .iter()
            .chain(args.flame.iter())
            .filter_map(|p| p.parent().map(|d| d.to_path_buf())),
    ) {
        let path = dir.join("manifest.json");
        if !targets.contains(&path) {
            targets.push(path);
        }
    }
    targets
}

/// One stderr line summarizing how the run degraded, if it did, and
/// one per affected day.
fn report_degradation(d: &DegradedReport) {
    if !d.is_empty() {
        eprintln!(
            "degraded run: {} day(s) recovered on retry, {} day(s) dropped",
            d.recovered.len(),
            d.failed.len()
        );
        for f in d.recovered.iter().chain(d.failed.iter()) {
            eprintln!("  {f}");
        }
    }
}

/// Print the figure file `cmd` names (`fig3` prints `fig3.csv`), byte
/// for byte what `--out` writes.
fn print_one(figures: &DigestFigures, cmd: &str) -> Result<(), StudyError> {
    let Some((_, export)) = FIGURE_FILES
        .iter()
        .find(|(file, _)| file.split('.').next() == Some(cmd))
    else {
        eprintln!("unknown subcommand {cmd}; see --help");
        std::process::exit(2);
    };
    print!("{}", export(figures)?);
    Ok(())
}
