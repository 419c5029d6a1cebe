//! Shard-count and thread-count invariance of the partitioned runner.
//!
//! The sharding contract (see `DESIGN.md`): at any shard count K and
//! any thread count, the exact path produces byte-identical figures,
//! headline statistics, and normalization stats — floats included —
//! because every device lives in exactly one shard, all collector
//! state is per-device, and the hierarchical merge folds days in
//! calendar order within each shard and shards in shard-id order.
//! Digest mode keeps the headline statistics exact while bounding
//! distribution figures to a ≤2× approximation.

use analysis::figures;
use campussim::{FaultProfile, SimConfig};
use lockdown_core::report::{self, RunView};
use lockdown_core::{run_manifest, Study};
use lockdown_obs::LivePublisher;

fn tiny() -> SimConfig {
    SimConfig {
        scale: 0.01,
        ..Default::default()
    }
}

/// Every figure of the paper, rendered to its debug form — a cheap
/// byte-exact fingerprint of the full figure set.
fn figure_fingerprint(s: &Study) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        figures::figure1(&s.collector, &s.summary),
        figures::figure2(&s.collector, &s.summary),
        figures::figure3(&s.collector, &s.summary),
        figures::figure4(&s.collector, &s.summary),
        figures::figure5(&s.collector, &s.summary),
        figures::figure6(&s.collector, &s.summary),
        figures::figure7(&s.collector, &s.summary),
        figures::figure8(&s.collector, &s.summary),
    )
}

#[test]
fn sharded_exact_is_byte_identical_to_monolithic() {
    let mono = Study::builder(tiny()).run().unwrap().into_study();
    let mono_figs = figure_fingerprint(&mono);
    for (k, threads) in [(2, 1), (2, 4), (7, 2)] {
        let sharded = Study::builder(tiny())
            .shards(k)
            .threads(threads)
            .run()
            .unwrap()
            .into_study();
        assert_eq!(
            sharded.sharding().shards,
            k,
            "partition must resolve to the requested K"
        );
        assert_eq!(sharded.sharding().mode, "exact");
        assert_eq!(sharded.sharding().merge_depth, 2);
        // Bit-exact across the seam, floats included: per-device state
        // merges disjointly and fold order is schedule-independent.
        assert_eq!(mono.headline(), sharded.headline(), "K={k} T={threads}");
        assert_eq!(mono.norm_stats, sharded.norm_stats, "K={k} T={threads}");
        assert_eq!(
            mono.summary.by_device(&mono.collector),
            sharded.summary.by_device(&sharded.collector),
            "K={k} T={threads}"
        );
        assert_eq!(
            mono_figs,
            figure_fingerprint(&sharded),
            "figures drifted at K={k} T={threads}"
        );
    }
}

#[test]
fn far_more_shards_than_needed_still_exact() {
    // K far beyond the device count: many shards end up tiny or empty.
    let mono = Study::builder(tiny()).run().unwrap().into_study();
    let sharded = Study::builder(tiny())
        .shards(64)
        .run()
        .unwrap()
        .into_study();
    assert_eq!(mono.headline(), sharded.headline());
    assert_eq!(mono.norm_stats, sharded.norm_stats);
}

#[test]
fn single_shard_run_reports_like_an_unsharded_run() {
    // One shard is the grid's degenerate case, and `shards(1)` is the
    // explicit spelling of the default. Either way the run must look
    // unsharded everywhere it reports: sharding summary, manifest,
    // metrics report, and live per-shard rows.
    let default_live = LivePublisher::new();
    let explicit_live = LivePublisher::new();
    let default = Study::builder(tiny()).live(&default_live).run().unwrap();
    let explicit = Study::builder(tiny())
        .shards(1)
        .live(&explicit_live)
        .run()
        .unwrap();
    assert_eq!(default.headline(), explicit.headline());
    assert_eq!(default.norm_stats, explicit.norm_stats);
    for (run, live) in [(&default, &default_live), (&explicit, &explicit_live)] {
        let sh = run.sharding();
        assert_eq!((sh.shards, sh.mode, sh.merge_depth), (1, "exact", 1));
        assert!(!sh.is_partitioned());
        assert_eq!(run_manifest(&RunView::exact(run), 1, None).sharding, None);
        let text = report::metrics_report(run);
        for unsharded_only in ["-- Sharding:", "-- Accuracy:", "   shard 0:"] {
            assert!(!text.contains(unsharded_only), "{unsharded_only}\n{text}");
        }
        let progress = live.progress();
        assert_eq!(progress.shards, 1);
        assert!(progress.shard_loads.is_empty(), "{progress:?}");
    }
}

#[test]
fn sharded_run_is_thread_invariant_under_faults() {
    // A (shard, day) cell that panics is quarantined, retried on its
    // original grid index, and recovers bit-exactly — on any worker.
    let clean = Study::builder(tiny()).shards(2).run().unwrap().into_study();
    let clean_figs = figure_fingerprint(&clean);
    for threads in [1, 4] {
        let faulted = Study::builder(tiny())
            .shards(2)
            .threads(threads)
            .fault_profile(FaultProfile::new().panic_on_day(47))
            .run()
            .unwrap()
            .into_study();
        let degraded = faulted.degraded();
        // Day 47 exists once per shard in the grid; every instance
        // recovers on retry.
        assert_eq!(degraded.recovered.len(), 2, "{degraded:?}");
        assert!(degraded.failed.is_empty(), "{degraded:?}");
        assert_eq!(clean.headline(), faulted.headline(), "T={threads}");
        assert_eq!(clean.norm_stats, faulted.norm_stats, "T={threads}");
        assert_eq!(clean_figs, figure_fingerprint(&faulted), "T={threads}");
    }
}

#[test]
fn digest_headline_is_exact_and_shard_invariant() {
    let exact = Study::builder(tiny()).run().unwrap().into_study();
    let mut last_fingerprint: Option<String> = None;
    for k in [1, 3] {
        let digest = Study::builder(tiny())
            .shards(k)
            .threads(2)
            .run_digest()
            .unwrap();
        assert_eq!(digest.sharding().mode, "digest");
        assert_eq!(digest.sharding().merge_depth, 3);
        // Headline statistics are exact in digest mode — identical to
        // the run-level collector's, at any K.
        assert_eq!(exact.headline(), digest.headline().clone(), "K={k}");
        assert_eq!(exact.norm_stats, digest.norm_stats, "K={k}");
        // The additive figures are exact too.
        assert_eq!(
            format!("{:?}", figures::figure1(&exact.collector, &exact.summary)),
            format!("{:?}", digest.figures.fig1),
            "K={k}"
        );
        assert_eq!(
            format!("{:?}", figures::figure5(&exact.collector, &exact.summary)),
            format!("{:?}", digest.figures.fig5),
            "K={k}"
        );
        // The whole rendered set is K-invariant (approximation error is
        // deterministic and merge-order independent).
        let fp = format!("{:?}", digest.figures.headline)
            + &format!("{:?}{:?}", digest.figures.fig2, digest.figures.fig7);
        if let Some(prev) = &last_fingerprint {
            assert_eq!(prev, &fp, "digest figures drifted at K={k}");
        }
        last_fingerprint = Some(fp);
    }
}
