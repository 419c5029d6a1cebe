//! Run provenance manifests: a self-describing JSON record written
//! alongside a run's figures and traces.
//!
//! A measurement study is only as auditable as its artifacts. A
//! [`RunManifest`] captures everything needed to say *what produced
//! this directory*: a hash of the simulation config, the seed, scale
//! and thread count, the versions of every workspace crate in the
//! pipeline, wall time, per-span and per-stage time totals from the
//! [trace](crate::trace), and the final [metrics
//! snapshot](crate::metrics::MetricsSnapshot). Like every document in
//! the workspace it is written through the [`crate::json`] encoder and
//! parses under a strict parser.

use crate::json::{self, Encode};
use crate::metrics::MetricsSnapshot;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// 64-bit FNV-1a hash — a tiny, dependency-free, stable fingerprint
/// used to identify configurations in manifests. Not cryptographic.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One quarantined day in a degraded run: what failed, where, and
/// whether the retry recovered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedEntry {
    /// Study day index (0-based).
    pub day: u16,
    /// Pipeline stage (or phase) the failure surfaced in.
    pub stage: String,
    /// Rendered error or panic message.
    pub error: String,
    /// Attempt the entry records (0 = first try, 1 = retry).
    pub attempt: u32,
    /// True when a later attempt completed the day.
    pub recovered: bool,
}

crate::encode_fields!(DegradedEntry: day, stage, error, attempt, recovered);

/// One stage's row in a manifest's per-stage memory table: how much the
/// stage allocated over the run and its largest within-touch transient.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageMemory {
    /// Bytes the stage allocated across the run.
    pub alloc_bytes: u64,
    /// Allocator calls the stage made across the run.
    pub allocs: u64,
    /// Largest net growth inside any single stage touch, bytes.
    pub peak_net_bytes: u64,
}

crate::encode_fields!(StageMemory: alloc_bytes, allocs, peak_net_bytes);

/// The `memory` section of a manifest: run-wide allocation accounting
/// from the tracking allocator, present only when the run tracked
/// memory (`repro run --mem` / `StudyBuilder::track_memory`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySection {
    /// The tracker's live-bytes high-water mark over the run.
    pub peak_bytes: u64,
    /// Bytes still live when the run finalized.
    pub live_bytes: u64,
    /// Bytes allocated over the run.
    pub alloc_bytes: u64,
    /// Bytes freed over the run.
    pub freed_bytes: u64,
    /// Allocation calls over the run.
    pub allocs: u64,
    /// Deallocation calls over the run.
    pub deallocs: u64,
    /// Reallocation calls over the run.
    pub reallocs: u64,
    /// Allocation calls per collected flow — the density the memory
    /// regression gate pins.
    pub allocs_per_flow: f64,
    /// Per-stage attribution (`normalize`, `resolver`, `collect`).
    pub per_stage: BTreeMap<String, StageMemory>,
}

impl Encode for MemorySection {
    fn encode(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("peak_bytes", self.peak_bytes)
                .field("live_bytes", self.live_bytes)
                .field("alloc_bytes", self.alloc_bytes)
                .field("freed_bytes", self.freed_bytes)
                .field("allocs", self.allocs)
                .field("deallocs", self.deallocs)
                .field("reallocs", self.reallocs)
                .num(
                    "allocs_per_flow",
                    format_args!("{:.3}", self.allocs_per_flow),
                )
                .field("per_stage", &self.per_stage);
        });
    }
}

/// The `sharding` section of a manifest: how the run partitioned its
/// population and merged the shard reductions. Present only for
/// partitioned runs (or when the producer chooses to record the
/// one-shard identity partition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardingSection {
    /// Number of population shards the run partitioned devices into.
    pub shards: u32,
    /// `"exact"` (byte-identical figures) or `"digest"` (exact
    /// headline, ≤2× distribution figures).
    pub mode: String,
    /// Depth of the hierarchical merge: 1 one exact shard, 2 day→shard→run
    /// exact, 3 with the digest layer on top.
    pub merge_depth: u32,
    /// Peak net pipeline bytes observed per shard, in shard-id order
    /// (empty when the run did not track memory).
    pub per_shard_peak_bytes: Vec<u64>,
    /// Flows attributed per shard over the whole run, in shard-id
    /// order (empty when the producer predates load telemetry).
    pub per_shard_flows: Vec<u64>,
    /// Flow bytes collected per shard over the whole run, in shard-id
    /// order (zeros when the run did not collect metrics).
    pub per_shard_bytes: Vec<u64>,
    /// Worker wall time spent per shard, nanoseconds, in shard-id
    /// order.
    pub per_shard_wall_ns: Vec<u64>,
}

crate::encode_fields!(ShardingSection: shards, mode, merge_depth, per_shard_peak_bytes,
    per_shard_flows, per_shard_bytes, per_shard_wall_ns);

/// One figure's row in an [`AccuracySection`]: the error contract the
/// producing mode guarantees for that figure family.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureContract {
    /// Figure family name (e.g. `"fig2.median"`).
    pub figure: String,
    /// `"exact"` or `"approx"`.
    pub kind: String,
    /// Guaranteed worst-case quantile ratio for this figure under the
    /// producing mode (1.0 when exact).
    pub bound: f64,
}

crate::encode_fields!(FigureContract: figure, kind, bound);

/// The `accuracy` section of a manifest: the error contract of the
/// producing mode plus the run's headline statistics, so two run
/// directories can be compared for drift from their manifests alone.
///
/// Present on every manifest a contract-aware producer writes; its
/// absence marks an artifact from an older producer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracySection {
    /// `"exact"` (every figure byte-identical to the one-shard
    /// reduction) or `"digest"` (exact headline, bounded-error
    /// distribution figures).
    pub mode: String,
    /// Worst-case quantile ratio across all figures under this mode
    /// (1.0 exact, 4.0 digest — fig3's renormalized ratio bound).
    pub guaranteed_bound: f64,
    /// Whether the counterfactual baseline ran: `"cohort-exact"` (the
    /// same post-shutdown cohort compared across both runs, in either
    /// mode) or `"not-requested"`.
    pub counterfactual: String,
    /// Headline statistics as `(name, value)` rows, in a fixed order —
    /// exact under every mode, so cross-run deltas here are real drift.
    pub headline: Vec<(String, f64)>,
    /// Per-figure error contracts.
    pub figures: Vec<FigureContract>,
}

impl Encode for AccuracySection {
    fn encode(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("mode", &self.mode)
                .field("guaranteed_bound", self.guaranteed_bound)
                .field("counterfactual", &self.counterfactual)
                .object("headline", |h| {
                    for (name, value) in &self.headline {
                        h.field(name, value);
                    }
                })
                .field("figures", &self.figures);
        });
    }
}

/// Provenance record for one pipeline run.
///
/// Build one with [`RunManifest::new`], fill in the identity fields,
/// fold in a trace with [`record_trace`](RunManifest::record_trace) and
/// a metrics snapshot via the `metrics` field, then serialize with
/// [`to_json`](RunManifest::to_json) or persist with
/// [`write`](RunManifest::write).
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Name of the producing tool (e.g. `"repro"`).
    pub tool: String,
    /// Creation time, milliseconds since the Unix epoch (0 if the
    /// clock is unavailable).
    pub created_unix_ms: u64,
    /// FNV-1a hash of the full simulation config, as 16 hex digits.
    pub config_hash_hex: String,
    /// Name of the scenario the run executed (e.g. `paper-2020`), when
    /// the producing tool is scenario-aware.
    pub scenario: Option<String>,
    /// FNV-1a hash of the scenario's canonical serialized form, as 16
    /// hex digits — ties the artifact to the exact timeline/policy
    /// content, not just its name.
    pub scenario_hash_hex: Option<String>,
    /// RNG seed the run used.
    pub seed: u64,
    /// Population scale factor.
    pub scale: f64,
    /// Worker thread count.
    pub threads: usize,
    /// Versions of the workspace crates involved, by crate name.
    pub crates: BTreeMap<String, String>,
    /// Measured wall time of the run, nanoseconds.
    pub wall_ns: u64,
    /// Sum of top-level span durations from the trace (0 if untraced).
    pub top_level_span_ns: u64,
    /// Total duration by span name (empty if untraced).
    pub span_totals_ns: BTreeMap<String, u64>,
    /// Span count by span name (empty if untraced).
    pub span_counts: BTreeMap<String, u64>,
    /// Busy time by pipeline stage name (empty if untraced).
    pub stage_totals_ns: BTreeMap<String, u64>,
    /// Final merged metrics, when the run collected them.
    pub metrics: Option<MetricsSnapshot>,
    /// Days that failed during the run (quarantined, retried, possibly
    /// recovered). Empty for a clean run.
    pub degraded: Vec<DegradedEntry>,
    /// Address the live telemetry server listened on, when the run was
    /// observed over HTTP — provenance of *how* a run was watched.
    pub serve_addr: Option<String>,
    /// Allocation accounting, when the run tracked memory.
    pub memory: Option<MemorySection>,
    /// Population partition and merge summary, when the run used the
    /// sharded runner.
    pub sharding: Option<ShardingSection>,
    /// Error contract and headline statistics of the producing mode,
    /// when the producer is contract-aware.
    pub accuracy: Option<AccuracySection>,
}

impl RunManifest {
    /// An empty manifest for `tool`, stamped with the current time.
    pub fn new(tool: &str) -> RunManifest {
        let created_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        RunManifest {
            tool: tool.to_string(),
            created_unix_ms,
            ..RunManifest::default()
        }
    }

    /// Record a crate version under `name`.
    pub fn crate_version(&mut self, name: &str, version: &str) {
        self.crates.insert(name.to_string(), version.to_string());
    }

    /// Fold a finished trace's aggregates into the manifest: wall time
    /// horizon, top-level span sum, per-name totals and counts, and
    /// per-stage busy totals.
    pub fn record_trace(&mut self, trace: &Trace) {
        self.wall_ns = self.wall_ns.max(trace.wall_ns());
        self.top_level_span_ns = trace.top_level_ns();
        self.span_totals_ns = trace
            .totals_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        self.span_counts = trace
            .counts_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        self.stage_totals_ns = trace
            .stage_totals_ns()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
    }

    /// Serialize as a strict-parser-safe JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("tool", &self.tool)
                .field("created_unix_ms", self.created_unix_ms)
                .field("config_hash", &self.config_hash_hex)
                .field("scenario", &self.scenario)
                .field("scenario_hash", &self.scenario_hash_hex)
                .field("seed", self.seed)
                .field("scale", self.scale)
                .field("threads", self.threads)
                .field("crates", &self.crates)
                .field("wall_ns", self.wall_ns)
                .field("top_level_span_ns", self.top_level_span_ns)
                .field("span_totals_ns", &self.span_totals_ns)
                .field("span_counts", &self.span_counts)
                .field("stage_totals_ns", &self.stage_totals_ns)
                .field("degraded", &self.degraded)
                .field("serve_addr", &self.serve_addr)
                .field("memory", &self.memory)
                .field("sharding", &self.sharding)
                .field("accuracy", &self.accuracy)
                // Quantile digest of every histogram the run recorded
                // (upper bucket bounds; true values lie within 2× below —
                // see `HistogramSnapshot::quantile`), so a manifest
                // answers "how slow were the days" without re-deriving
                // from raw buckets.
                .object("quantiles", |q| {
                    for (name, h) in self.metrics.iter().flat_map(|m| &m.histograms) {
                        q.object(name, |q| {
                            q.field("count", h.count())
                                .num("mean", format_args!("{:.1}", h.mean()))
                                .field("p50", h.quantile(0.5))
                                .field("p95", h.quantile(0.95))
                                .field("p99", h.quantile(0.99));
                        });
                    }
                })
                .field("metrics", &self.metrics);
        })
    }

    /// Write the manifest JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, SpanRecorder};

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a_64(b"config-a"), fnv1a_64(b"config-b"));
    }

    #[test]
    fn manifest_json_is_strict_and_complete() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(0, "w");
            let _day = trace::span("day");
            trace::aggregate("stage", "normalize", 1_000, &[]);
        }
        let t = rec.finish();

        let mut m = RunManifest::new("repro");
        m.config_hash_hex = format!("{:016x}", fnv1a_64(b"cfg"));
        m.seed = 42;
        m.scale = 0.05;
        m.threads = 2;
        m.scenario = Some("paper-2020".into());
        m.scenario_hash_hex = Some(format!("{:016x}", fnv1a_64(b"scenario")));
        m.crate_version("lockdown-obs", "0.1.0");
        m.record_trace(&t);
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("pipeline.flows_in".into(), 7);
        let h = crate::metrics::Histogram::detached();
        for _ in 0..10 {
            h.record(1000);
        }
        metrics
            .histograms
            .insert("study.day_duration_ns".into(), h.snapshot());
        m.metrics = Some(metrics);
        m.serve_addr = Some("127.0.0.1:9184".into());
        m.memory = Some(MemorySection {
            peak_bytes: 1 << 24,
            live_bytes: 1 << 20,
            alloc_bytes: 1 << 30,
            freed_bytes: (1 << 30) - (1 << 20),
            allocs: 5_000,
            deallocs: 4_900,
            reallocs: 100,
            allocs_per_flow: 0.125,
            per_stage: [(
                "normalize".to_string(),
                StageMemory {
                    alloc_bytes: 1 << 16,
                    allocs: 320,
                    peak_net_bytes: 1 << 12,
                },
            )]
            .into_iter()
            .collect(),
        });
        m.degraded.push(DegradedEntry {
            day: 47,
            stage: "stream_day".into(),
            error: "injected panic: \"boom\"".into(),
            attempt: 1,
            recovered: true,
        });
        m.sharding = Some(ShardingSection {
            shards: 4,
            mode: "exact".into(),
            merge_depth: 2,
            per_shard_peak_bytes: vec![1 << 20, 1 << 21, 1 << 20, 1 << 19],
            per_shard_flows: vec![10, 20, 30, 40],
            per_shard_bytes: vec![100, 200, 300, 400],
            per_shard_wall_ns: vec![1_000, 2_000, 3_000, 4_000],
        });
        m.accuracy = Some(AccuracySection {
            mode: "digest".into(),
            guaranteed_bound: 4.0,
            counterfactual: "cohort-exact".into(),
            headline: vec![
                ("peak_active".into(), 5200.0),
                ("traffic_growth_feb_to_aprmay".into(), 3.26),
            ],
            figures: vec![
                FigureContract {
                    figure: "fig1".into(),
                    kind: "exact".into(),
                    bound: 1.0,
                },
                FigureContract {
                    figure: "fig2.median".into(),
                    kind: "approx".into(),
                    bound: 2.0,
                },
            ],
        });

        let j = m.to_json();
        let v = crate::json::parse(&j).expect("manifest parses");
        assert_eq!(v.get("tool").unwrap().as_str(), Some("repro"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("scenario").unwrap().as_str(), Some("paper-2020"));
        assert_eq!(
            v.get("scenario_hash").unwrap().as_str().map(str::len),
            Some(16)
        );
        assert_eq!(v.get("scale").unwrap().as_f64(), Some(0.05));
        assert_eq!(v.get("threads").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("crates")
                .unwrap()
                .get("lockdown-obs")
                .unwrap()
                .as_str(),
            Some("0.1.0")
        );
        assert_eq!(
            v.get("stage_totals_ns")
                .unwrap()
                .get("normalize")
                .unwrap()
                .as_u64(),
            Some(1_000)
        );
        assert_eq!(
            v.get("span_counts").unwrap().get("day").unwrap().as_u64(),
            Some(1)
        );
        assert!(v.get("wall_ns").unwrap().as_u64().unwrap() >= 1_000);
        let deg = v.get("degraded").unwrap().as_array().unwrap();
        assert_eq!(deg.len(), 1);
        assert_eq!(deg[0].get("day").unwrap().as_u64(), Some(47));
        assert_eq!(deg[0].get("recovered").unwrap().as_bool(), Some(true));
        assert_eq!(
            deg[0].get("error").unwrap().as_str(),
            Some("injected panic: \"boom\"")
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("pipeline.flows_in")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            v.get("serve_addr").unwrap().as_str(),
            Some("127.0.0.1:9184")
        );
        let mem = v.get("memory").expect("memory section");
        assert_eq!(mem.get("peak_bytes").unwrap().as_u64(), Some(1 << 24));
        assert_eq!(mem.get("allocs").unwrap().as_u64(), Some(5_000));
        assert_eq!(mem.get("allocs_per_flow").unwrap().as_f64(), Some(0.125));
        let stage = mem.get("per_stage").unwrap().get("normalize").unwrap();
        assert_eq!(stage.get("allocs").unwrap().as_u64(), Some(320));
        assert_eq!(stage.get("peak_net_bytes").unwrap().as_u64(), Some(1 << 12));
        let sh = v.get("sharding").expect("sharding section");
        assert_eq!(sh.get("shards").unwrap().as_u64(), Some(4));
        assert_eq!(sh.get("mode").unwrap().as_str(), Some("exact"));
        assert_eq!(sh.get("merge_depth").unwrap().as_u64(), Some(2));
        assert_eq!(
            sh.get("per_shard_peak_bytes")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            sh.get("per_shard_flows").unwrap().as_array().unwrap().len(),
            4
        );
        assert_eq!(
            sh.get("per_shard_bytes")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|b| b.as_u64().unwrap())
                .sum::<u64>(),
            1_000
        );
        assert_eq!(
            sh.get("per_shard_wall_ns").unwrap().as_array().unwrap()[3].as_u64(),
            Some(4_000)
        );
        let acc = v.get("accuracy").expect("accuracy section");
        assert_eq!(acc.get("mode").unwrap().as_str(), Some("digest"));
        assert_eq!(acc.get("guaranteed_bound").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            acc.get("counterfactual").unwrap().as_str(),
            Some("cohort-exact")
        );
        assert_eq!(
            acc.get("headline")
                .unwrap()
                .get("traffic_growth_feb_to_aprmay")
                .unwrap()
                .as_f64(),
            Some(3.26)
        );
        let figs = acc.get("figures").unwrap().as_array().unwrap();
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[1].get("figure").unwrap().as_str(), Some("fig2.median"));
        assert_eq!(figs[1].get("kind").unwrap().as_str(), Some("approx"));
        assert_eq!(figs[1].get("bound").unwrap().as_f64(), Some(2.0));
        let q = v
            .get("quantiles")
            .unwrap()
            .get("study.day_duration_ns")
            .expect("quantile digest");
        assert_eq!(q.get("count").unwrap().as_u64(), Some(10));
        // 1000 has bit length 10, so every quantile is the 2^10 bound.
        assert_eq!(q.get("p50").unwrap().as_u64(), Some(1024));
        assert_eq!(q.get("p95").unwrap().as_u64(), Some(1024));
        assert_eq!(q.get("p99").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn untraced_manifest_serializes_with_null_metrics() {
        let m = RunManifest::new("repro");
        let v = crate::json::parse(&m.to_json()).expect("parses");
        assert!(v.get("metrics").unwrap().is_null());
        assert!(v.get("scenario").unwrap().is_null());
        assert!(v.get("scenario_hash").unwrap().is_null());
        assert_eq!(v.get("top_level_span_ns").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("degraded").unwrap().as_array().unwrap().len(), 0);
        assert!(v.get("serve_addr").unwrap().is_null());
        assert!(v.get("memory").unwrap().is_null());
        assert!(v.get("sharding").unwrap().is_null());
        assert!(v.get("accuracy").unwrap().is_null());
        assert_eq!(
            v.get("quantiles").unwrap().as_object().unwrap().len(),
            0,
            "no histograms, no digests"
        );
    }
}
