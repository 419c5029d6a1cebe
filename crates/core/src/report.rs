//! Human-readable study reports, figure-file output, and the run
//! provenance manifest.
//!
//! Exact and digest runs render their figures into one
//! [`DigestFigures`] (an exact [`Study`] through [`Study::figures`]),
//! so every job after the run — figure files, `repro run figN`, the
//! manifest — has one body for both modes, reading a [`RunView`]. Only
//! the text reports differ by mode, around a shared figure body.

use crate::error::{DegradedReport, StudyError};
use crate::study::{DigestStudy, MatrixRun, ShardingReport, Study, StudyRun};
use analysis::ascii;
use analysis::collect::SOCIAL_APPS;
use analysis::export::FIGURE_FILES;
use analysis::figures::Fig4Series;
use analysis::figures::HeadlineStats;
use analysis::{BoxStats, DigestFigures};
use campussim::SimConfig;
use devclass::FigureBucket;
use geoloc::SubPop;
use lockdown_obs::manifest::{
    fnv1a_64, AccuracySection, DegradedEntry, FigureContract, MemorySection, RunManifest,
    ShardingSection, StageMemory,
};
use lockdown_obs::{trace, MetricsSnapshot, Trace};
use nettrace::time::Month;
use std::fmt::Write as _;
use std::path::Path;

/// What the jobs after a run read of it, whichever mode produced it.
pub struct RunView<'a> {
    /// The configuration the run executed.
    pub cfg: &'a SimConfig,
    /// The rendered figures and headline statistics.
    pub figures: &'a DigestFigures,
    /// Run-level merged metrics.
    pub metrics: &'a MetricsSnapshot,
    /// Days that failed and were retried or dropped.
    pub degraded: &'a DegradedReport,
    /// Shard partition and merge summary; its `mode` names the run's
    /// mode.
    pub sharding: &'a ShardingReport,
    /// Whether the 2019 counterfactual ran beside the study.
    pub counterfactual: bool,
}

impl<'a> RunView<'a> {
    /// An exact run, its figures rendered on first use.
    pub fn exact(run: &'a StudyRun) -> Self {
        RunView {
            cfg: &run.cfg,
            figures: run.figures(),
            metrics: run.metrics(),
            degraded: run.degraded(),
            sharding: run.sharding(),
            counterfactual: run.counterfactual.is_some(),
        }
    }

    /// A digest run.
    pub fn digest(d: &'a DigestStudy) -> Self {
        RunView {
            cfg: &d.cfg,
            figures: &d.figures,
            metrics: d.metrics(),
            degraded: d.degraded(),
            sharding: d.sharding(),
            counterfactual: d.growth_vs_2019().is_some(),
        }
    }
}

/// Render the full text report: every figure as terminal graphics plus
/// the headline statistics, with the paper's values alongside.
pub fn text_report(study: &Study, growth_vs_2019: Option<f64>) -> String {
    let _span = trace::span("report.text");
    let mut out = figures_text(study.figures(), study.cfg.scale, growth_vs_2019);
    let audit = study.classification_audit(100);
    let _ = writeln!(
        out,
        "classification audit: {}/{} correct, {} affirmative errors, {} conservative unknowns (paper: 84/100, 2, 14)",
        audit.correct, audit.sampled, audit.affirmative_errors, audit.conservative_unknown
    );
    out
}

/// Render a digest run's report: the same figure graphics and headline
/// table as [`text_report`], from merged shard digests instead of a
/// run-level collector. Headline statistics and growth vs 2019 are
/// exact; distribution figures carry the digest's ≤2× quantile
/// approximation. There is no classification-audit line — digest mode
/// keeps no device table to audit against.
pub fn digest_text_report(d: &DigestStudy) -> String {
    let _span = trace::span("report.text");
    let sh = d.sharding();
    let mut out = format!(
        "== digest mode: {} shards, merge depth {}, headline exact, distribution figures ≤{:.0}× ==\n\n",
        sh.shards, sh.merge_depth, analysis::QUANTILE_BOUND
    );
    out.push_str(&figures_text(&d.figures, d.cfg.scale, d.growth_vs_2019()));
    out
}

/// One [`ascii::box_row`] line per (sub-population, month) box of
/// `table` (Figures 6 and 7), values printed by `fmt`.
fn subpop_month_rows(out: &mut String, table: &[[Option<BoxStats>; 4]; 2], fmt: fn(f64) -> String) {
    for (sp, months) in SubPop::ALL.iter().zip(table) {
        for (m, b) in Month::ALL.iter().zip(months) {
            let label = format!("{} ({})", m.name(), sp.label());
            let _ = writeln!(out, "  {}", ascii::box_row(&label, b.as_ref(), fmt));
        }
    }
}

/// The figure/headline body shared by the exact and digest reports.
fn figures_text(figs: &DigestFigures, scale: f64, growth_vs_2019: Option<f64>) -> String {
    let mut out = String::new();
    let rescale = 1.0 / scale;
    let (f1, f2, f3, f4) = (&figs.fig1, &figs.fig2, &figs.fig3, &figs.fig4);
    let (f5, f6, f7, f8) = (&figs.fig5, &figs.fig6, &figs.fig7, &figs.fig8);
    let h = &figs.headline;

    let _ = writeln!(
        out,
        "== Locked-In during Lock-Down: reproduction report (scale {scale}, ×{rescale:.0} to paper population) =="
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "-- Figure 1: active devices per day by type --");
    for b in FigureBucket::ALL {
        let vals: Vec<f64> = f1.per_bucket[b.index()].iter().map(|&x| x as f64).collect();
        let _ = writeln!(out, "{}", ascii::daily_series(b.name(), &vals));
    }
    let total: Vec<f64> = f1.total.iter().map(|&x| x as f64).collect();
    let _ = writeln!(out, "{}", ascii::daily_series("Total", &total));
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Figure 2: mean vs median bytes per active device per day --"
    );
    for b in FigureBucket::ALL {
        let _ = writeln!(
            out,
            "{}",
            ascii::daily_series(&format!("mean   {}", b.name()), &f2.mean[b.index()])
        );
        let _ = writeln!(
            out,
            "{}",
            ascii::daily_series(&format!("median {}", b.name()), &f2.median[b.index()])
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Figure 3: normalized median traffic per device per hour of week (Thu-first) --"
    );
    for (w, label) in f3.labels.iter().enumerate() {
        let _ = writeln!(out, "{}", ascii::hour_of_week(label, &f3.weeks[w]));
    }
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Figure 4: median daily non-Zoom bytes per post-shutdown device --"
    );
    for (i, series) in Fig4Series::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "{}",
            ascii::daily_series(series.label(), &f4.series[i])
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- Figure 5: daily aggregate Zoom traffic --");
    let _ = writeln!(out, "{}", ascii::daily_series("Zoom bytes/day", &f5.daily));
    let peak = f5.daily.iter().cloned().fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "   peak day: {} (×{rescale:.0} ≈ {} at paper scale)",
        ascii::fmt_bytes(peak),
        ascii::fmt_bytes(peak * rescale),
    );
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Figure 6: monthly social session duration per mobile device (hours) --"
    );
    for (app, table) in SOCIAL_APPS.iter().zip(&f6.boxes) {
        let _ = writeln!(out, " {}:", app.name());
        subpop_month_rows(&mut out, table, |v| format!("{v:.3}h"));
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- Figure 7: monthly Steam usage per device --");
    let _ = writeln!(out, " bytes:");
    subpop_month_rows(&mut out, &f7.bytes, ascii::fmt_bytes);
    let _ = writeln!(out, " connections:");
    subpop_month_rows(&mut out, &f7.conns, |v| format!("{v:.0}"));
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Figure 8: Switch gameplay traffic, 3-day moving average (n={} Switches) --",
        f8.n_switches
    );
    let _ = writeln!(
        out,
        "{}",
        ascii::daily_series("gameplay bytes", &f8.daily_ma)
    );
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "-- Headline statistics (measured | rescaled | paper) --"
    );
    let row = |label: &str, measured: f64, paper: &str| {
        format!(
            "{label:<46} {measured:>12.0} | {:>12.0} | {paper}",
            measured * rescale
        )
    };
    let _ = writeln!(
        out,
        "{}",
        row("peak active devices", h.peak_active as f64, "32,019")
    );
    let _ = writeln!(
        out,
        "{}",
        row(
            "trough active devices (shutdown)",
            h.trough_active as f64,
            "4,973"
        )
    );
    let _ = writeln!(
        out,
        "{}",
        row(
            "post-shutdown devices",
            h.post_shutdown_devices as f64,
            "6,522"
        )
    );
    let _ = writeln!(
        out,
        "{}",
        row("international devices", h.intl_devices as f64, "1,022")
    );
    let _ = writeln!(
        out,
        "{:<46} {:>11.1}%                | 18%",
        "international share of identified",
        100.0 * h.intl_devices as f64 / h.identified_devices.max(1) as f64
    );
    let _ = writeln!(
        out,
        "{:<46} {:>11.1}%                | +58%",
        "traffic growth Feb -> Apr/May",
        100.0 * h.traffic_growth_feb_to_aprmay
    );
    if let Some(g) = growth_vs_2019 {
        let _ = writeln!(
            out,
            "{:<46} {:>11.1}%                | +53%",
            "traffic vs 2019 counterfactual (Apr/May)",
            100.0 * g
        );
    }
    let _ = writeln!(
        out,
        "{:<46} {:>11.1}%                | +34%",
        "distinct sites growth Feb -> Apr/May",
        100.0 * h.sites_growth
    );
    let _ = writeln!(
        out,
        "{}",
        row("Switches pre-shutdown", h.switches_pre as f64, "1,097")
    );
    let _ = writeln!(
        out,
        "{}",
        row("Switches post-shutdown", h.switches_post as f64, "267")
    );
    let _ = writeln!(
        out,
        "{}",
        row("new Switches in Apr/May", h.switches_new as f64, "40")
    );

    out
}

/// Write the figure files of [`FIGURE_FILES`] into `dir`, creating the
/// directory if it does not exist. Returns the number of files written;
/// every failure mode (serialization, directory creation, file write)
/// surfaces as a typed [`StudyError`] naming the path involved.
pub fn write_figures(figures: &DigestFigures, dir: &Path) -> Result<usize, StudyError> {
    let span = trace::span("report.figures");
    std::fs::create_dir_all(dir).map_err(|source| StudyError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for (name, export) in FIGURE_FILES {
        let path = dir.join(name);
        std::fs::write(&path, export(figures)?)
            .map_err(|source| StudyError::Io { path, source })?;
    }
    span.set_attr("files", FIGURE_FILES.len() as u64);
    Ok(FIGURE_FILES.len())
}

/// [`write_figures`] for an exact study.
pub fn write_figure_files(study: &Study, dir: &Path) -> Result<usize, StudyError> {
    write_figures(study.figures(), dir)
}

/// [`write_figures`] for a digest run.
pub fn write_digest_figure_files(d: &DigestStudy, dir: &Path) -> Result<usize, StudyError> {
    write_figures(&d.figures, dir)
}

/// Render the run's per-stage counters as an aligned text block, with a
/// one-line attribution/labeling summary on top. Empty-run safe.
pub fn metrics_report(study: &Study) -> String {
    let (m, degraded, sharding) = (study.metrics(), study.degraded(), study.sharding());
    let flows = m.counter("pipeline.flows_in");
    let attributed = m.counter("normalize.attributed");
    let labeled = m.counter("resolver.labeled");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- Pipeline metrics: {flows} flows in, {attributed} attributed, {labeled} labeled --"
    );
    // Day-duration quantiles come from the same `study.day_duration_ns`
    // samples that drive the live `/progress` ETA, so the post-run
    // report and the in-run view can never disagree about pacing.
    if let Some(days) = m.histogram("study.day_duration_ns") {
        let _ = writeln!(
            out,
            "-- Day durations: {} days, mean {:.1} ms, p50 ≤ {:.1} ms, p95 ≤ {:.1} ms, p99 ≤ {:.1} ms --",
            days.count(),
            days.mean() / 1e6,
            days.quantile(0.5) as f64 / 1e6,
            days.quantile(0.95) as f64 / 1e6,
            days.quantile(0.99) as f64 / 1e6,
        );
    }
    if let Some(idle) = m.histogram("study.worker_idle_ns") {
        let _ = writeln!(
            out,
            "-- Worker tail idle: {} workers, mean {:.1} ms, p99 ≤ {:.1} ms --",
            idle.count(),
            idle.mean() / 1e6,
            idle.quantile(0.99) as f64 / 1e6,
        );
    }
    // Degraded-input accounting: what the fault layer (or a genuinely
    // corrupt capture) cost the run, and how the run coped.
    let dropped = m.counter("pipeline.errors.flows_dropped")
        + m.counter("pipeline.errors.leases_dropped")
        + m.counter("pipeline.errors.dns_answers_dropped");
    let repaired =
        m.counter("pipeline.errors.flows_repaired") + m.counter("pipeline.errors.leases_repaired");
    if dropped + repaired > 0 {
        let _ = writeln!(
            out,
            "-- Degraded input: {dropped} records dropped, {repaired} repaired (see pipeline.errors.* / assembler.malformed.*) --"
        );
    }
    if !degraded.is_empty() {
        let _ = writeln!(
            out,
            "-- Degraded days: {} recovered on retry, {} dropped --",
            degraded.recovered.len(),
            degraded.failed.len()
        );
    }
    if sharding.is_partitioned() {
        let _ = writeln!(out, "{}", sharding_line(sharding));
        let _ = writeln!(out, "{}", accuracy_line(sharding));
        // Per-shard load table: how evenly the (shard × day) grid spread.
        for (i, &flows) in sharding.per_shard_flows.iter().enumerate() {
            let bytes = sharding.per_shard_bytes.get(i).copied().unwrap_or(0);
            let wall = sharding.per_shard_wall_ns.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "   shard {i}: {flows} flows, {:.1} MiB collected, {:.1} ms busy",
                bytes as f64 / (1 << 20) as f64,
                wall as f64 / 1e6,
            );
        }
    }
    // Memory headline, present only when the run tracked allocation.
    if m.gauges.contains_key("mem.peak_bytes") {
        let allocs = m.counter("mem.allocs");
        let per_flow = if flows > 0 {
            allocs as f64 / flows as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "-- Memory: peak {:.1} MiB, live {:.1} MiB at finalize, {allocs} allocs ({per_flow:.3}/flow) --",
            m.gauge("mem.peak_bytes") as f64 / (1 << 20) as f64,
            m.gauge("mem.live_bytes") as f64 / (1 << 20) as f64,
        );
    }
    out.push_str(&m.to_text());
    out
}

/// Build the provenance manifest for a completed run of either mode:
/// config hash, seed/scale/threads, the version of every pipeline
/// crate, degraded days, the metrics snapshot and its memory section,
/// the shard layout, the accuracy contract with the headline values,
/// and — when the run was traced — wall time and span totals from
/// `trace`. Written alongside figures so the artifact directory is
/// self-describing.
pub fn run_manifest(run: &RunView<'_>, threads: usize, trace: Option<&Trace>) -> RunManifest {
    let cfg = run.cfg;
    let mut m = RunManifest::new("repro");
    // The full config Debug rendering covers every knob, so any config
    // change yields a different fingerprint.
    m.config_hash_hex = format!("{:016x}", fnv1a_64(format!("{cfg:?}").as_bytes()));
    m.scenario = Some(cfg.scenario.name.clone());
    m.scenario_hash_hex = Some(cfg.scenario.content_hash_hex());
    m.seed = cfg.seed;
    m.scale = cfg.scale;
    m.threads = threads;
    for (name, version) in [
        ("lockdown-core", crate::VERSION),
        ("lockdown-obs", lockdown_obs::VERSION),
        ("nettrace", nettrace::VERSION),
        ("campussim", campussim::VERSION),
        ("analysis", analysis::VERSION),
        ("dhcplog", dhcplog::VERSION),
        ("dnslog", dnslog::VERSION),
        ("devclass", devclass::VERSION),
        ("geoloc", geoloc::VERSION),
        ("appsig", appsig::VERSION),
    ] {
        m.crate_version(name, version);
    }
    if let Some(t) = trace {
        m.record_trace(t);
    }
    let degraded = run.degraded;
    for (list, recovered) in [(&degraded.recovered, true), (&degraded.failed, false)] {
        for f in list.iter() {
            m.degraded.push(DegradedEntry {
                day: f.day,
                stage: f.stage.clone(),
                error: f.error.clone(),
                attempt: f.attempt,
                recovered,
            });
        }
    }
    let metrics = run.metrics;
    if !(metrics.counters.is_empty() && metrics.gauges.is_empty() && metrics.histograms.is_empty())
    {
        m.metrics = Some(metrics.clone());
    }
    m.memory = memory_section(metrics);
    m.sharding = sharding_section(run.sharding);
    m.accuracy = Some(accuracy_section(
        run.sharding.mode,
        run.counterfactual,
        &run.figures.headline,
    ));
    m
}

/// Build the manifest `accuracy` section: the producing mode's error
/// contract per figure, whether the counterfactual ran (both modes
/// compare the same cohort exactly), and the run's (always exact)
/// headline values, so two manifests alone suffice for a cross-run
/// drift check.
fn accuracy_section(mode: &str, counterfactual: bool, h: &HeadlineStats) -> AccuracySection {
    let exact = mode == "exact";
    let counterfactual = if counterfactual {
        "cohort-exact"
    } else {
        "not-requested"
    };
    let figures: Vec<FigureContract> = analysis::accuracy::FIGURE_CLASSES
        .iter()
        .map(|c| FigureContract {
            figure: c.figure.to_string(),
            kind: if exact || c.exact { "exact" } else { "approx" }.to_string(),
            bound: if exact || c.exact { 1.0 } else { c.bound },
        })
        .collect();
    let guaranteed_bound = figures.iter().map(|f| f.bound).fold(1.0, f64::max);
    AccuracySection {
        mode: mode.to_string(),
        guaranteed_bound,
        counterfactual: counterfactual.to_string(),
        headline: analysis::accuracy::headline_fields(h)
            .iter()
            .map(|&(name, value)| (name.to_string(), value))
            .collect(),
        figures,
    }
}

/// The approximate classes of the digest contract
/// ([`FIGURE_CLASSES`](analysis::accuracy::FIGURE_CLASSES)) held to a
/// bound other than the shared [`QUANTILE_BOUND`](analysis::QUANTILE_BOUND),
/// each with its bound: `" (fig3 ≤4×)"`, empty when there are none.
fn distribution_bounds() -> String {
    let others: Vec<String> = analysis::accuracy::FIGURE_CLASSES
        .iter()
        .filter(|c| !c.exact && c.bound != analysis::QUANTILE_BOUND)
        .map(|c| format!("{} ≤{:.0}×", c.figure, c.bound))
        .collect();
    if others.is_empty() {
        String::new()
    } else {
        format!(" ({})", others.join(", "))
    }
}

/// One-line accuracy contract of a partitioned run, for the text
/// report.
fn accuracy_line(sh: &ShardingReport) -> String {
    if sh.mode == "digest" {
        format!(
            "-- Accuracy: digest mode — headline exact, distribution figures ≤{:.0}×{} --",
            analysis::QUANTILE_BOUND,
            distribution_bounds(),
        )
    } else {
        "-- Accuracy: exact mode — figures byte-identical to the one-shard reduction --".to_string()
    }
}

/// A partitioned run's sharding summary, for the text report.
fn sharding_line(sh: &ShardingReport) -> String {
    let peak = peak_list(sh).into_iter().max().unwrap_or(0);
    format!(
        "-- Sharding: {} shards ({}), merge depth {}, peak shard ≤ {:.1} MiB --",
        sh.shards,
        sh.mode,
        sh.merge_depth,
        peak as f64 / (1 << 20) as f64,
    )
}

/// Manifest `sharding` section from a run's report; `None` unless the
/// run is partitioned, so one-shard exact manifests stay unsharded (a
/// digest run always is).
fn sharding_section(sh: &ShardingReport) -> Option<ShardingSection> {
    if !sh.is_partitioned() {
        return None;
    }
    Some(ShardingSection {
        shards: sh.shards,
        mode: sh.mode.to_string(),
        merge_depth: sh.merge_depth,
        per_shard_peak_bytes: peak_list(sh),
        per_shard_flows: sh.per_shard_flows.clone(),
        per_shard_bytes: sh.per_shard_bytes.clone(),
        per_shard_wall_ns: sh.per_shard_wall_ns.clone(),
    })
}

/// Per-shard peak bytes, dropping the all-zero vector an untracked run
/// records (the gauge never fired) so manifests don't carry noise.
fn peak_list(sh: &ShardingReport) -> Vec<u64> {
    if sh.per_shard_peak_bytes.iter().all(|&b| b == 0) {
        Vec::new()
    } else {
        sh.per_shard_peak_bytes.clone()
    }
}

/// Harvest the manifest `memory` section from a run's `mem.*` metrics;
/// `None` when the run did not track allocation.
fn memory_section(m: &MetricsSnapshot) -> Option<MemorySection> {
    if !m.gauges.contains_key("mem.peak_bytes") {
        return None;
    }
    let flows = m.counter("pipeline.flows_in");
    let allocs = m.counter("mem.allocs");
    let per_stage = ["normalize", "resolver", "collect"]
        .into_iter()
        .map(|stage| {
            (
                stage.to_string(),
                StageMemory {
                    alloc_bytes: m.counter(&format!("mem.stage.{stage}.alloc_bytes")),
                    allocs: m.counter(&format!("mem.stage.{stage}.allocs")),
                    peak_net_bytes: m.gauge(&format!("mem.stage.{stage}.peak_net_bytes")),
                },
            )
        })
        .collect();
    Some(MemorySection {
        peak_bytes: m.gauge("mem.peak_bytes"),
        live_bytes: m.gauge("mem.live_bytes"),
        alloc_bytes: m.counter("mem.alloc_bytes"),
        freed_bytes: m.counter("mem.freed_bytes"),
        allocs,
        deallocs: m.counter("mem.deallocs"),
        reallocs: m.counter("mem.reallocs"),
        allocs_per_flow: if flows > 0 {
            allocs as f64 / flows as f64
        } else {
            0.0
        },
        per_stage,
    })
}

/// Render a cross-scenario comparison: one row of headline statistics
/// per matrix cell, so phase-aligned behaviour shifts (a reopening
/// bump, a second-wave trough) are visible side by side.
pub fn matrix_report(matrix: &MatrixRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Scenario matrix: {} cells ==", matrix.cells.len());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>16} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "scenario", "hash", "peak", "trough", "post-dev", "intl", "growth", "switches"
    );
    for cell in &matrix.cells {
        let h = cell.run.headline();
        let _ = writeln!(
            out,
            "{:<24} {:>16} {:>10} {:>10} {:>10} {:>10} {:>11.1}% {:>10}",
            cell.scenario_name,
            cell.scenario_hash_hex,
            h.peak_active,
            h.trough_active,
            h.post_shutdown_devices,
            h.intl_devices,
            100.0 * h.traffic_growth_feb_to_aprmay,
            h.switches_pre,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(growth = Feb -> Apr/May traffic; all counts at the run's scale)"
    );
    out
}

/// Write a full scenario-matrix artifact tree under `dir`: one
/// subdirectory per cell (named after the scenario) containing the
/// cell's figure files and a `manifest.json` recording the scenario
/// name and content hash, plus a top-level `comparison.txt` with the
/// cross-scenario report. Returns the total number of files written.
pub fn write_matrix_files(
    matrix: &MatrixRun,
    dir: &Path,
    threads: usize,
) -> Result<usize, StudyError> {
    let span = trace::span("report.matrix");
    let mut written = 0;
    for cell in &matrix.cells {
        let cell_dir = dir.join(&cell.scenario_name);
        let run = RunView::exact(&cell.run);
        written += write_figures(run.figures, &cell_dir)?;
        let manifest = run_manifest(&run, threads, None);
        let path = cell_dir.join("manifest.json");
        manifest
            .write(&path)
            .map_err(|source| StudyError::Io { path, source })?;
        written += 1;
    }
    let path = dir.join("comparison.txt");
    std::fs::write(&path, matrix_report(matrix))
        .map_err(|source| StudyError::Io { path, source })?;
    written += 1;
    span.set_attr("files", written as u64);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_files_write() {
        let study = Study::builder(SimConfig {
            scale: 0.01,
            ..Default::default()
        })
        .threads(4)
        .run()
        .unwrap()
        .into_study();
        let text = text_report(&study, Some(0.5));
        assert!(text.contains("Figure 1"));
        assert!(text.contains("Figure 8"));
        assert!(text.contains("classification audit"));
        assert!(text.contains("paper"));

        let metrics = metrics_report(&study);
        assert!(metrics.contains("Pipeline metrics"));
        assert!(metrics.contains("normalize.attributed"));
        assert!(metrics.contains("Day durations:"), "{metrics}");
        assert!(metrics.contains("p95"), "{metrics}");

        let base = std::env::temp_dir().join("lockdown_report_test");
        // The directory is created on demand, even nested.
        std::fs::remove_dir_all(&base).ok();
        let dir = base.join("nested");
        let written = write_figure_files(&study, &dir).unwrap();
        assert_eq!(written, 8);
        for (f, _) in FIGURE_FILES {
            assert!(dir.join(f).exists(), "{f}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn distribution_bounds_name_every_class_off_the_shared_bound() {
        let others = distribution_bounds();
        for c in analysis::accuracy::FIGURE_CLASSES.iter() {
            let entry = format!("{} ≤{:.0}×", c.figure, c.bound);
            let off = !c.exact && c.bound != analysis::QUANTILE_BOUND;
            assert_eq!(others.contains(&entry), off, "{entry} in {others:?}");
        }
        let digest = ShardingReport {
            shards: 3,
            mode: "digest",
            merge_depth: 3,
            per_shard_peak_bytes: Vec::new(),
            per_shard_flows: Vec::new(),
            per_shard_bytes: Vec::new(),
            per_shard_wall_ns: Vec::new(),
        };
        assert_eq!(
            accuracy_line(&digest),
            "-- Accuracy: digest mode — headline exact, distribution figures ≤2× (fig3 ≤4×) --"
        );
    }

    #[test]
    fn manifest_names_the_counterfactual_the_run_ran() {
        let cfg = SimConfig {
            scale: 0.01,
            ..Default::default()
        };
        let label = |m: RunManifest| m.accuracy.expect("accuracy section").counterfactual;
        let exact = Study::builder(cfg.clone())
            .threads(2)
            .with_counterfactual()
            .run()
            .unwrap();
        let manifest = run_manifest(&RunView::exact(&exact), 2, None);
        assert_eq!(label(manifest), "cohort-exact");
        let digest = Study::builder(cfg.clone())
            .threads(2)
            .shards(2)
            .with_counterfactual()
            .run_digest()
            .unwrap();
        let manifest = run_manifest(&RunView::digest(&digest), 2, None);
        assert_eq!(label(manifest), "cohort-exact");
        let digest = Study::builder(cfg)
            .threads(2)
            .shards(2)
            .run_digest()
            .unwrap();
        let manifest = run_manifest(&RunView::digest(&digest), 2, None);
        assert_eq!(label(manifest), "not-requested");
    }
}
