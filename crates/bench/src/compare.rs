//! Cross-run comparison engine: typed diffs of two run artifact
//! directories, and the digest convergence ladder.
//!
//! [`compare_dirs`] reads the `manifest.json` and figure files of two
//! `repro --out` directories and reports three layers of drift:
//!
//! 1. **Manifest identity** — config hash, scenario, seed, scale,
//!    crate versions, degraded days, sharding and memory sections.
//! 2. **Headline drift** — the `accuracy` section's headline values
//!    (exact under every mode) compared as relative deltas.
//! 3. **Figure-file numeric diff** — every figure file compared value
//!    by value through [`analysis::accuracy::diff_figure_file`], the
//!    engine the accuracy tests use: exact-vs-exact demands equality,
//!    and when either run is a digest run each value is held to its
//!    column's class in the digest contract (fig2's means, fig1, fig5,
//!    fig8 and box-plot `n` counts exact; quantiles ≤2×, fig3 ≤4× after
//!    renormalization).
//!
//! [`converge`] drives a digest-mode scale ladder and reports how the
//! scale-invariant headline ratios drift across scales — the artifact
//! behind `results/BENCH_convergence.json` and the CI convergence gate.

use analysis::accuracy::{self, FigureFileDiff};
use analysis::export::FIGURE_FILES;
use lockdown_core::{Study, StudyError};
use lockdown_obs::json::{self, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Relative-delta floor: denominators are clamped to this.
const REL_EPS: f64 = 1e-12;

/// One headline statistic's cross-run drift.
#[derive(Debug, Clone)]
pub struct HeadlineDrift {
    /// Statistic name, from the manifest `accuracy.headline` object.
    pub stat: String,
    /// Value in run A.
    pub a: f64,
    /// Value in run B.
    pub b: f64,
    /// `|a − b| / max(|a|, |b|, ε)`.
    pub rel_delta: f64,
}

lockdown_obs::encode_fields!(HeadlineDrift: stat, a, b, rel_delta);

/// The full typed comparison of two run directories.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Directory of run A.
    pub a: PathBuf,
    /// Directory of run B.
    pub b: PathBuf,
    /// Producing mode of run A (`exact`/`digest`; from the manifest).
    pub mode_a: String,
    /// Producing mode of run B.
    pub mode_b: String,
    /// Config hashes equal — same simulation config on both sides.
    pub config_hash_matches: bool,
    /// Scenario names and content hashes equal.
    pub scenario_matches: bool,
    /// Seeds equal.
    pub seed_matches: bool,
    /// Population scale of run A.
    pub scale_a: f64,
    /// Population scale of run B.
    pub scale_b: f64,
    /// Crate version maps equal.
    pub crates_match: bool,
    /// Degraded-day entries in run A's manifest.
    pub degraded_a: usize,
    /// Degraded-day entries in run B's manifest.
    pub degraded_b: usize,
    /// Shard counts (1 when the manifest has no sharding section).
    pub shards_a: u64,
    /// Shard count of run B.
    pub shards_b: u64,
    /// Manifest `memory.peak_bytes`, when each run tracked memory.
    pub mem_peak_a: Option<u64>,
    /// Peak of run B.
    pub mem_peak_b: Option<u64>,
    /// Headline drift rows (empty when either manifest predates the
    /// `accuracy` section).
    pub headline: Vec<HeadlineDrift>,
    /// Per-figure-file numeric diffs.
    pub figures: Vec<FigureFileDiff>,
}

impl CompareReport {
    /// Largest headline relative delta (0 when nothing compared).
    pub fn headline_max_rel_delta(&self) -> f64 {
        self.headline
            .iter()
            .map(|h| h.rel_delta)
            .fold(0.0, f64::max)
    }

    /// True when every figure file sits inside its tolerance. Headline
    /// drift and identity mismatches are reported, not gated — two
    /// runs at different scales legitimately differ in headline counts.
    pub fn within_tolerance(&self) -> bool {
        self.figures.iter().all(FigureFileDiff::within)
    }

    /// Render as an aligned text report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== compare {} ({}) vs {} ({}) ==",
            self.a.display(),
            self.mode_a,
            self.b.display(),
            self.mode_b,
        );
        let tick = |same: bool| if same { "match" } else { "DIFFER" };
        let _ = writeln!(out, "config hash: {}", tick(self.config_hash_matches));
        let _ = writeln!(out, "scenario:    {}", tick(self.scenario_matches));
        let _ = writeln!(out, "seed:        {}", tick(self.seed_matches));
        let _ = writeln!(
            out,
            "scale:       {} vs {}{}",
            self.scale_a,
            self.scale_b,
            if self.scale_a == self.scale_b {
                ""
            } else {
                "  (cross-scale: headline deltas are expected)"
            }
        );
        let _ = writeln!(out, "crates:      {}", tick(self.crates_match));
        let _ = writeln!(
            out,
            "degraded:    {} vs {} day entries",
            self.degraded_a, self.degraded_b
        );
        let _ = writeln!(out, "shards:      {} vs {}", self.shards_a, self.shards_b);
        if let (Some(pa), Some(pb)) = (self.mem_peak_a, self.mem_peak_b) {
            let _ = writeln!(
                out,
                "mem peak:    {:.1} MiB vs {:.1} MiB",
                pa as f64 / (1 << 20) as f64,
                pb as f64 / (1 << 20) as f64
            );
        }
        if self.headline.is_empty() {
            let _ = writeln!(
                out,
                "headline:    (no accuracy section on one side — pre-accuracy manifest)"
            );
        } else {
            let _ = writeln!(
                out,
                "headline:    max rel delta {:.3e} over {} stats",
                self.headline_max_rel_delta(),
                self.headline.len()
            );
            for h in &self.headline {
                if h.rel_delta > 0.0 {
                    let _ = writeln!(
                        out,
                        "   {:<34} {:>14.3} vs {:>14.3}  ({:+.2}%)",
                        h.stat,
                        h.a,
                        h.b,
                        100.0 * (h.b - h.a) / h.a.abs().max(REL_EPS)
                    );
                }
            }
        }
        let _ = writeln!(out, "figures:");
        for f in &self.figures {
            let status = match &f.note {
                Some(note) => format!("SKIP ({note})"),
                None if f.within() => "ok".to_string(),
                None => "EXCEEDS".to_string(),
            };
            let _ = writeln!(
                out,
                "   {:<10} ≤{:<4} {:>6} values  {:>3} mismatched  max ratio {:<8.4} max |Δ| {:<12.4} {status}",
                f.file, f.tolerance, f.compared, f.mismatched, f.max_ratio, f.max_abs_delta,
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.within_tolerance() {
                "WITHIN TOLERANCE"
            } else {
                "DRIFT EXCEEDS TOLERANCE"
            }
        );
        out
    }

    /// Render as a strict JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("a", self.a.display().to_string())
                .field("b", self.b.display().to_string())
                .field("mode_a", &self.mode_a)
                .field("mode_b", &self.mode_b)
                .field("config_hash_matches", self.config_hash_matches)
                .field("scenario_matches", self.scenario_matches)
                .field("seed_matches", self.seed_matches)
                .field("scale_a", self.scale_a)
                .field("scale_b", self.scale_b)
                .field("crates_match", self.crates_match)
                .field("degraded_a", self.degraded_a)
                .field("degraded_b", self.degraded_b)
                .field("shards_a", self.shards_a)
                .field("shards_b", self.shards_b)
                .field("headline_max_rel_delta", self.headline_max_rel_delta())
                .field("headline", &self.headline)
                .array("figures", |rows| {
                    for f in &self.figures {
                        rows.object(|r| {
                            r.field("file", f.file)
                                .field("tolerance", f.tolerance)
                                .field("compared", f.compared)
                                .field("mismatched", f.mismatched)
                                .field("max_ratio", f.max_ratio)
                                .field("max_abs_delta", f.max_abs_delta)
                                .field("within", f.within())
                                .field("note", &f.note);
                        });
                    }
                })
                .field("within_tolerance", self.within_tolerance());
        })
    }
}

fn read_manifest(dir: &Path) -> Result<Value, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// A manifest's producing mode: `accuracy.mode` when present, else the
/// `sharding.mode`, else `exact` (a monolithic pre-sharding manifest).
fn mode_of(m: &Value) -> String {
    m.get("accuracy")
        .and_then(|a| a.get("mode"))
        .or_else(|| m.get("sharding").and_then(|s| s.get("mode")))
        .and_then(Value::as_str)
        .unwrap_or("exact")
        .to_string()
}

/// Compare two `repro --out` run directories. Errors only on missing
/// or unreadable manifests; missing figure files degrade to per-file
/// notes so partial artifacts still produce a report.
pub fn compare_dirs(a: &Path, b: &Path) -> Result<CompareReport, String> {
    let ma = read_manifest(a)?;
    let mb = read_manifest(b)?;
    let mode_a = mode_of(&ma);
    let mode_b = mode_of(&mb);
    let digest_involved = mode_a == "digest" || mode_b == "digest";

    let str_eq =
        |key: &str| ma.get(key).and_then(Value::as_str) == mb.get(key).and_then(Value::as_str);
    let scale = |m: &Value| m.get("scale").and_then(Value::as_f64).unwrap_or(0.0);
    let degraded = |m: &Value| {
        m.get("degraded")
            .and_then(Value::as_array)
            .map(Vec::len)
            .unwrap_or(0)
    };
    let shards = |m: &Value| {
        m.get("sharding")
            .and_then(|s| s.get("shards"))
            .and_then(Value::as_u64)
            .unwrap_or(1)
    };
    let mem_peak = |m: &Value| {
        m.get("memory")
            .and_then(|s| s.get("peak_bytes"))
            .and_then(Value::as_u64)
    };

    // Headline drift from the two accuracy sections, keyed by stat name.
    let mut headline = Vec::new();
    if let (Some(ha), Some(hb)) = (
        ma.get("accuracy")
            .and_then(|x| x.get("headline"))
            .and_then(Value::as_object),
        mb.get("accuracy")
            .and_then(|x| x.get("headline"))
            .and_then(Value::as_object),
    ) {
        for (stat, va) in ha {
            let (Some(va), Some(vb)) = (va.as_f64(), hb.get(stat).and_then(Value::as_f64)) else {
                continue;
            };
            let rel_delta = (va - vb).abs() / va.abs().max(vb.abs()).max(REL_EPS);
            headline.push(HeadlineDrift {
                stat: stat.clone(),
                a: va,
                b: vb,
                rel_delta,
            });
        }
    }

    let figures = FIGURE_FILES
        .iter()
        .map(|&(file, _)| {
            let read = |dir: &Path| {
                let path = dir.join(file);
                std::fs::read_to_string(&path).map_err(|_| path.display().to_string())
            };
            match (read(a), read(b)) {
                (Ok(ta), Ok(tb)) => accuracy::diff_figure_file(file, &ta, &tb, digest_involved),
                (ra, rb) => {
                    let missing: Vec<String> = [ra.err(), rb.err()].into_iter().flatten().collect();
                    let note = format!("missing: {}", missing.join(", "));
                    FigureFileDiff::skipped(file, digest_involved, note)
                }
            }
        })
        .collect();

    Ok(CompareReport {
        a: a.to_path_buf(),
        b: b.to_path_buf(),
        mode_a,
        mode_b,
        config_hash_matches: str_eq("config_hash"),
        scenario_matches: str_eq("scenario") && str_eq("scenario_hash"),
        seed_matches: ma.get("seed").and_then(Value::as_u64)
            == mb.get("seed").and_then(Value::as_u64),
        scale_a: scale(&ma),
        scale_b: scale(&mb),
        crates_match: ma.get("crates") == mb.get("crates"),
        degraded_a: degraded(&ma),
        degraded_b: degraded(&mb),
        shards_a: shards(&ma),
        shards_b: shards(&mb),
        mem_peak_a: mem_peak(&ma),
        mem_peak_b: mem_peak(&mb),
        headline,
        figures,
    })
}

/// One rung of the convergence ladder: the scale-invariant headline
/// ratios of a digest run at one population scale.
#[derive(Debug, Clone)]
pub struct ConvergencePoint {
    /// Population scale factor of this rung.
    pub scale: f64,
    /// Shards the memory budget derived at this scale.
    pub shards: u32,
    /// Feb → Apr/May traffic growth (paper: +58%).
    pub traffic_growth: f64,
    /// Feb → Apr/May distinct-sites growth (paper: +34%).
    pub sites_growth: f64,
    /// International share of identified devices (paper: 18%).
    pub intl_share: f64,
    /// Post-shutdown share of resident devices.
    pub post_share: f64,
    /// Trough / peak active-device ratio across the study window.
    pub trough_peak_ratio: f64,
}

lockdown_obs::encode_fields!(ConvergencePoint: scale, shards, traffic_growth, sites_growth,
    intl_share, post_share, trough_peak_ratio);

/// Accessor for one scale-invariant ratio of a [`ConvergencePoint`].
type InvariantFn = fn(&ConvergencePoint) -> f64;

/// The named invariants a [`ConvergencePoint`] carries, as accessors.
const INVARIANTS: [(&str, InvariantFn); 5] = [
    ("traffic_growth", |p| p.traffic_growth),
    ("sites_growth", |p| p.sites_growth),
    ("intl_share", |p| p.intl_share),
    ("post_share", |p| p.post_share),
    ("trough_peak_ratio", |p| p.trough_peak_ratio),
];

/// A completed convergence ladder: one digest run per scale, plus the
/// drift of every invariant across successive rungs.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// RNG seed every rung ran with.
    pub seed: u64,
    /// Memory budget handed to digest mode, bytes.
    pub mem_budget: u64,
    /// Worker threads per rung.
    pub threads: usize,
    /// The ladder, in ascending scale order.
    pub points: Vec<ConvergencePoint>,
}

impl ConvergenceReport {
    /// Per-invariant drift: the largest relative delta between
    /// successive rungs.
    pub fn drifts(&self) -> Vec<(&'static str, f64)> {
        INVARIANTS
            .iter()
            .map(|&(name, get)| {
                let worst = self
                    .points
                    .windows(2)
                    .map(|w| {
                        let (x, y) = (get(&w[0]), get(&w[1]));
                        (x - y).abs() / x.abs().max(y.abs()).max(REL_EPS)
                    })
                    .fold(0.0, f64::max);
                (name, worst)
            })
            .collect()
    }

    /// The ladder's headline number: the worst invariant drift.
    pub fn max_drift(&self) -> f64 {
        self.drifts().iter().map(|&(_, d)| d).fold(0.0, f64::max)
    }

    /// Render as a strict JSON artifact (`BENCH_convergence.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("seed", self.seed)
                .field("mem_budget", self.mem_budget)
                .field("threads", self.threads)
                .field("points", &self.points)
                .object("drift", |drift| {
                    for (name, d) in self.drifts() {
                        drift.field(name, d);
                    }
                })
                .field("max_drift", self.max_drift());
        })
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== convergence ladder: {} scales, seed {:#x}, budget {:.0} MiB ==",
            self.points.len(),
            self.seed,
            self.mem_budget as f64 / (1 << 20) as f64
        );
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>15} {:>13} {:>11} {:>11} {:>18}",
            "scale",
            "shards",
            "traffic_growth",
            "sites_growth",
            "intl_share",
            "post_share",
            "trough_peak_ratio"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<8} {:>7} {:>14.1}% {:>12.1}% {:>10.1}% {:>10.1}% {:>18.4}",
                p.scale,
                p.shards,
                100.0 * p.traffic_growth,
                100.0 * p.sites_growth,
                100.0 * p.intl_share,
                100.0 * p.post_share,
                p.trough_peak_ratio,
            );
        }
        for (name, d) in self.drifts() {
            let _ = writeln!(out, "drift {:<18} {:.4}", name, d);
        }
        let _ = writeln!(out, "max drift: {:.4}", self.max_drift());
        out
    }
}

/// Run the digest convergence ladder: one digest-mode study per scale
/// (ascending), collecting the scale-invariant headline ratios.
pub fn converge(
    scales: &[f64],
    seed: u64,
    threads: usize,
    mem_budget: u64,
) -> Result<ConvergenceReport, StudyError> {
    let mut scales: Vec<f64> = scales.to_vec();
    scales.sort_by(f64::total_cmp);
    let mut points = Vec::with_capacity(scales.len());
    for scale in scales {
        let cfg = campussim::SimConfig {
            scale,
            seed,
            ..Default::default()
        };
        let d = Study::builder(cfg)
            .threads(threads)
            .mem_budget(mem_budget)
            .run_digest()?;
        let h = d.headline();
        points.push(ConvergencePoint {
            scale,
            shards: d.sharding().shards,
            traffic_growth: h.traffic_growth_feb_to_aprmay,
            sites_growth: h.sites_growth,
            intl_share: h.intl_devices as f64 / h.identified_devices.max(1) as f64,
            post_share: h.post_shutdown_devices as f64 / d.resident_devices.max(1) as f64,
            trough_peak_ratio: f64::from(h.trough_active) / f64::from(h.peak_active.max(1)),
        });
    }
    Ok(ConvergenceReport {
        seed,
        mem_budget,
        threads,
        points,
    })
}

/// Gate a measured ladder against a committed baseline artifact:
/// the measured max drift may exceed the committed one by at most
/// 1.5× plus a 0.02 absolute allowance (the same ratio-gate shape as
/// the perf and memory smoke checks). Returns the one-line verdict, or
/// an error describing the regression.
pub fn check_convergence(
    measured: &ConvergenceReport,
    committed_json: &str,
) -> Result<String, String> {
    let committed = json::parse(committed_json)
        .map_err(|e| format!("committed convergence baseline is not valid JSON: {e}"))?;
    let committed_drift = committed
        .get("max_drift")
        .and_then(Value::as_f64)
        .ok_or("committed convergence baseline has no max_drift field")?;
    let allowed = committed_drift * 1.5 + 0.02;
    let got = measured.max_drift();
    if got > allowed {
        return Err(format!(
            "convergence drift regression: measured max drift {got:.4} exceeds allowed {allowed:.4} (committed {committed_drift:.4} × 1.5 + 0.02)"
        ));
    }
    Ok(format!(
        "convergence gate ok: measured max drift {got:.4} ≤ allowed {allowed:.4} (committed {committed_drift:.4})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_core::report::RunView;

    /// A minimal synthetic run directory: manifest with an accuracy
    /// section plus one CSV and one JSON figure file; the rest missing.
    fn fake_run_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("lockdown_compare_test")
            .join(name);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"tool":"repro","config_hash":"abc","scenario":"paper-2020","scenario_hash":"def","seed":7,"scale":0.01,"crates":{"analysis":"0.1.0"},"degraded":[],"memory":null,"sharding":{"shards":2,"mode":"digest","merge_depth":3,"per_shard_peak_bytes":[],"per_shard_flows":[5,6],"per_shard_bytes":[50,60],"per_shard_wall_ns":[1,2]},"accuracy":{"mode":"digest","guaranteed_bound":4.0,"counterfactual":"not-requested","headline":{"peak_active":52.0,"sites_growth":0.34},"figures":[]}}"#,
        )
        .expect("manifest");
        std::fs::write(dir.join("fig1.csv"), "day,total\n0,10\n1,12\n").expect("fig1");
        std::fs::write(dir.join("fig6.json"), r#"{"boxes":[{"n":4,"median":1.5}]}"#).expect("fig6");
        dir
    }

    #[test]
    fn self_compare_reports_zero_drift() {
        let dir = fake_run_dir("self");
        let r = compare_dirs(&dir, &dir).expect("compare");
        assert_eq!(r.mode_a, "digest");
        assert!(r.config_hash_matches && r.scenario_matches && r.seed_matches);
        assert!(r.crates_match);
        assert_eq!(r.headline_max_rel_delta(), 0.0);
        assert_eq!(r.headline.len(), 2);
        // Present files compare clean; absent ones carry notes but the
        // present ones drive the verdict in this synthetic layout.
        let fig1 = r
            .figures
            .iter()
            .find(|f| f.file == "fig1.csv")
            .expect("fig1 diff");
        assert!(fig1.within(), "{fig1:?}");
        assert_eq!(fig1.mismatched, 0);
        assert_eq!(fig1.max_ratio, 1.0);
        let fig6 = r
            .figures
            .iter()
            .find(|f| f.file == "fig6.json")
            .expect("fig6 diff");
        assert!(fig6.within(), "{fig6:?}");
        let v = json::parse(&r.to_json()).expect("report json parses");
        assert_eq!(
            v.get("headline_max_rel_delta").and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(r.to_text().contains("max rel delta"));
    }

    #[test]
    fn real_run_self_compare_is_driftless() {
        let dir = std::env::temp_dir()
            .join("lockdown_compare_test")
            .join("real");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = campussim::SimConfig {
            scale: 0.01,
            seed: 3,
            ..Default::default()
        };
        let d = Study::builder(cfg)
            .threads(2)
            .shards(2)
            .run_digest()
            .expect("digest study");
        lockdown_core::report::write_digest_figure_files(&d, &dir).expect("figure files");
        let manifest = lockdown_core::run_manifest(&RunView::digest(&d), 2, None);
        manifest
            .write(&dir.join("manifest.json"))
            .expect("manifest");
        let r = compare_dirs(&dir, &dir).expect("compare");
        assert!(r.within_tolerance(), "{}", r.to_text());
        assert_eq!(r.headline_max_rel_delta(), 0.0);
        assert!(r.config_hash_matches && r.seed_matches && r.crates_match);
        for f in &r.figures {
            assert!(f.note.is_none(), "{}: {:?}", f.file, f.note);
            assert_eq!(f.mismatched, 0, "{}", f.file);
            assert!(f.compared > 0, "{} compared nothing", f.file);
            assert_eq!(f.max_abs_delta, 0.0, "{}", f.file);
        }
    }

    #[test]
    fn convergence_math_and_gate() {
        let report = ConvergenceReport {
            seed: 7,
            mem_budget: 1 << 24,
            threads: 2,
            points: vec![
                ConvergencePoint {
                    scale: 0.02,
                    shards: 2,
                    traffic_growth: 0.50,
                    sites_growth: 0.30,
                    intl_share: 0.18,
                    post_share: 0.20,
                    trough_peak_ratio: 0.15,
                },
                ConvergencePoint {
                    scale: 0.06,
                    shards: 4,
                    traffic_growth: 0.55,
                    sites_growth: 0.30,
                    intl_share: 0.18,
                    post_share: 0.20,
                    trough_peak_ratio: 0.15,
                },
            ],
        };
        let drift = report.max_drift();
        assert!((drift - 0.05 / 0.55).abs() < 1e-12, "drift {drift}");
        let json = report.to_json();
        let v = json::parse(&json).expect("artifact parses");
        assert_eq!(v.get("max_drift").and_then(Value::as_f64), Some(drift));
        assert_eq!(
            v.get("points").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
        // Gate: identical baseline passes, much-worse measurement fails.
        check_convergence(&report, &json).expect("self gate passes");
        let mut worse = report.clone();
        worse.points[1].traffic_growth = 2.0;
        assert!(check_convergence(&worse, &json).is_err());
    }
}
