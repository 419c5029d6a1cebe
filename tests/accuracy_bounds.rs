//! The digest accuracy contract, measured: every figure file a digest
//! run writes stays within its per-column bounds of the exact run's, at
//! every shard count and scale, through the same figure-file diff that
//! `repro compare` runs; and the exact classes, the headline and what no
//! file holds stay bit-identical. This is the empirical check behind the
//! manifest `accuracy` section's promises.

use analysis::accuracy;
use analysis::export::FIGURE_FILES;
use analysis::LogHist;
use campussim::SimConfig;
use lockdown_core::Study;
use lockdown_testkit::check;

fn config(scale: f64) -> SimConfig {
    SimConfig {
        scale,
        seed: 0xacc1,
        ..Default::default()
    }
}

/// Digest figure files honor every per-column bound in
/// `FIGURE_CLASSES` against the exact path, across shard counts and
/// scales, and the exact classes match the exact run bit for bit at
/// full precision (the files round fig2, fig5 and fig8, and hold
/// neither the headline nor fig8's switch count). K = 1 isolates pure
/// histogram error; larger K adds the merge, which is additive and must
/// not widen the error.
#[test]
fn digest_error_within_bounds_across_shards_and_scales() {
    for scale in [0.01, 0.02] {
        let exact = Study::builder(config(scale))
            .threads(2)
            .run()
            .expect("exact study")
            .into_study();
        let reference = exact.figures();
        for k in [1u32, 2, 7, 64] {
            let d = Study::builder(config(scale))
                .threads(2)
                .shards(k)
                .run_digest()
                .expect("digest study");
            assert_eq!(d.sharding().shards, k);
            let diffs = accuracy::compare(&d.figures, reference).expect("figures export");
            assert_eq!(diffs.len(), FIGURE_FILES.len());
            for f in &diffs {
                assert!(
                    f.within() && f.compared > 0,
                    "scale {scale} K={k} violates the contract: {f:?}"
                );
            }
            let (got, want) = (&d.figures, reference);
            let at = format!("scale {scale} K={k}");
            assert_eq!(got.headline, want.headline, "{at}: headline");
            assert_eq!(got.fig1.per_bucket, want.fig1.per_bucket, "{at}: fig1");
            assert_eq!(got.fig1.total, want.fig1.total, "{at}: fig1 total");
            assert_eq!(got.fig2.mean, want.fig2.mean, "{at}: fig2 means");
            assert_eq!(got.fig5.daily, want.fig5.daily, "{at}: fig5");
            assert_eq!(got.fig8.daily_ma, want.fig8.daily_ma, "{at}: fig8");
            assert_eq!(
                got.fig8.n_switches, want.fig8.n_switches,
                "{at}: fig8 switches"
            );
        }
    }
}

/// A figure set compared against itself reports zero drift — the
/// instrument itself cannot invent error.
#[test]
fn self_comparison_is_driftless() {
    let d = Study::builder(config(0.01))
        .threads(2)
        .shards(2)
        .run_digest()
        .expect("digest study");
    for f in accuracy::compare(&d.figures, &d.figures).expect("figures export") {
        assert!(f.within() && f.compared > 0, "{f:?}");
        assert_eq!(f.mismatched, 0, "{}", f.file);
        assert_eq!(f.max_abs_delta, 0.0, "{}", f.file);
        assert_eq!(f.max_ratio, 1.0, "{}", f.file);
    }
}

/// Growth vs the 2019 counterfactual is one statistic in both modes: a
/// digest run joins each twin shard with its study shard's
/// post-shutdown cohort, and the integer tallies it sums give the exact
/// run's value bit for bit, at every shard count and scale.
#[test]
fn digest_counterfactual_streams_alongside_factual() {
    for scale in [0.01, 0.02] {
        let exact = Study::builder(config(scale))
            .threads(2)
            .with_counterfactual()
            .run()
            .expect("exact study")
            .growth_vs_2019()
            .expect("counterfactual requested");
        for k in [1u32, 2, 7, 64] {
            let d = Study::builder(config(scale))
                .threads(2)
                .shards(k)
                .with_counterfactual()
                .run_digest()
                .expect("digest study");
            let growth = d.growth_vs_2019().expect("counterfactual requested");
            assert_eq!(
                growth.to_bits(),
                exact.to_bits(),
                "scale {scale} K={k}: digest {growth} vs exact {exact}"
            );
        }
    }
    // Without the flag there is no comparison — no silent extra work.
    let plain = Study::builder(config(0.01))
        .threads(2)
        .shards(2)
        .run_digest()
        .expect("digest study");
    assert!(plain.growth_vs_2019().is_none());
}

/// `LogHist::quantile` is within `QUANTILE_BOUND` of the exact R-7
/// quantile for arbitrary positive samples and probabilities — the
/// bound the manifest advertises, checked sample-free of any pipeline
/// context.
#[test]
fn loghist_quantile_within_bound() {
    check("loghist_quantile_within_bound", |g| {
        let values = g.vec(1..200, |g| g.range(1u64..1 << 48));
        let q = g.range(0.0f64..=1.0);
        let mut h = LogHist::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        sorted.sort_by(f64::total_cmp);
        // `percentile_sorted` takes a percent, `quantile` a probability.
        let exact = analysis::stats::percentile_sorted(&sorted, q * 100.0).expect("nonempty");
        let approx = h.quantile(q).expect("nonempty");
        assert!(
            approx <= exact * analysis::QUANTILE_BOUND + 1e-9
                && approx >= exact / analysis::QUANTILE_BOUND - 1e-9,
            "q={q}: approx {approx} vs exact {exact} exceeds the bound"
        );
    });
}
