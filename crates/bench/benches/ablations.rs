//! Ablation benchmarks for the design choices DESIGN.md §5 calls out.
//! Each target sweeps one knob, printing the resulting metric (so the
//! effect is visible in the bench log) and measuring the cost.

use analysis::figures::{StudySummary, VISITOR_FILTER_DAYS};
use appsig::{App, MatchCache, SessionStitcher};
use campussim::{packets, CampusSim};
use devclass::Classifier;
use dhcplog::{LeaseIndex, Normalizer, DEFAULT_MAX_LEASE_SECS};
use dnslog::ResolverMap;
use geoloc::{builtin_geodb, cdn_prefixes, MidpointAccumulator, SubPop};
use lockdown_bench::bench_config;
use lockdown_bench::timer::bench;
use lockdown_core::Study;
use nettrace::assembler::{AssemblerConfig, FlowAssembler};
use nettrace::ip::campus;
use nettrace::time::{Day, Month};
use nettrace::DeviceId;
use std::collections::HashMap;

/// Flow-assembler idle-timeout sweep: shorter timeouts split long flows
/// into more records.
fn ablate_assembler_timeout() {
    let sim = CampusSim::new(bench_config());
    let day = Day(75);
    let trace = sim.day_trace(day);
    let mac_by_ip: HashMap<_, _> = sim
        .population()
        .devices
        .iter()
        .map(|d| (sim.device_ip(d.index, day), d.mac))
        .collect();
    // Keep the packet workload in memory bounds: flows under 2 MB (the
    // vast majority), packet digests only (frames dropped after parse).
    let mut metas = Vec::new();
    for f in trace
        .flows
        .iter()
        .filter(|f| f.total_bytes() < 2_000_000)
        .take(400)
    {
        for (ts, frame) in packets::render_flow(f, mac_by_ip[&f.orig]) {
            if let Some(m) = nettrace::packet::parse_frame(ts, &frame).unwrap() {
                metas.push(m);
            }
        }
    }

    for timeout in [30i64, 60, 300, 900] {
        let cfg = AssemblerConfig {
            tcp_idle_timeout_secs: timeout,
            udp_idle_timeout_secs: timeout,
            other_idle_timeout_secs: timeout,
            sweep_interval_secs: 30,
        };
        let mut asm = FlowAssembler::new(cfg);
        for m in &metas {
            asm.push(m);
        }
        eprintln!(
            "ablate_assembler_timeout: {timeout:>4}s -> {} flows from 400 originals",
            asm.flush().len()
        );
        bench(&format!("ablate_assembler_timeout/{timeout}"), None, || {
            let mut asm = FlowAssembler::new(cfg);
            for m in &metas {
                asm.push(m);
            }
            asm.flush().len()
        });
    }
}

/// Session-merge gap sweep (§5.2 stitching): larger gaps merge more
/// flows into fewer, longer sessions.
fn ablate_session_gap() {
    let sim = CampusSim::new(bench_config());
    let day = Day(75);
    let trace = sim.day_trace(day);
    let index = LeaseIndex::build(&trace.leases, DEFAULT_MAX_LEASE_SECS);
    let mut resolver = ResolverMap::new();
    for q in &trace.dns {
        resolver.record(q);
    }
    let sigs = appsig::study_signatures();
    let mut cache = MatchCache::new();
    let mut norm = Normalizer::new(&index, campus::residential_pool(), sim.config().anon_key);
    let social: Vec<_> = trace
        .flows
        .iter()
        .filter_map(|f| norm.normalize(f))
        .filter_map(|df| {
            let lf = resolver.label(df);
            sigs.classify_flow(&lf, sim.directory().table(), &mut cache)
                .and_then(|app| {
                    matches!(app, App::Facebook | App::Instagram | App::TikTok).then_some((
                        df.device,
                        app,
                        df.ts,
                        df.end(),
                        df.total_bytes(),
                    ))
                })
        })
        .collect();

    for gap in [0i64, 30, 60, 120, 300] {
        let mut st = SessionStitcher::with_gap_secs(gap);
        for &(d, a, s, e, by) in &social {
            st.push(d, a, s, e, by);
        }
        let sessions = st.finish();
        let mean_min = sessions
            .iter()
            .map(|s| s.duration_hours() * 60.0)
            .sum::<f64>()
            / sessions.len().max(1) as f64;
        eprintln!(
            "ablate_session_gap: gap {gap:>3}s -> {} sessions, mean {mean_min:.1} min",
            sessions.len()
        );
        bench(&format!("ablate_session_gap/{gap}"), None, || {
            let mut st = SessionStitcher::with_gap_secs(gap);
            for &(d, a, s, e, by) in &social {
                st.push(d, a, s, e, by);
            }
            st.finish().len()
        });
    }
}

/// Saidi IoT-threshold sweep: the paper fixes 0.5; lower thresholds
/// claim more devices as IoT (risking phones that talk to smart homes),
/// higher thresholds miss chatty IoT gear.
fn ablate_iot_threshold(s: &Study) {
    let truth: HashMap<DeviceId, devclass::DeviceType> = s.ground_truth_types().clone();
    for threshold in [0.3f64, 0.5, 0.7, 0.9] {
        let classifier = Classifier::new().with_iot_threshold(threshold);
        let mut iot = 0usize;
        let mut correct_iot = 0usize;
        for (dev, p) in s.collector.profiles.iter() {
            if classifier.classify(p) == devclass::DeviceType::Iot {
                iot += 1;
                if truth.get(dev).copied() == Some(devclass::DeviceType::Iot) {
                    correct_iot += 1;
                }
            }
        }
        eprintln!(
            "ablate_iot_threshold: t={threshold} -> {iot} IoT verdicts, {correct_iot} correct"
        );
        bench(&format!("ablate_iot_threshold/{threshold}"), None, || {
            s.collector
                .profiles
                .iter()
                .filter(|(_, p)| classifier.classify(p) == devclass::DeviceType::Iot)
                .count()
        });
    }
}

/// Geographic-midpoint ablations: byte weighting vs unweighted, and CDN
/// exclusion on vs off (§4.2 design choices).
fn ablate_midpoint() {
    let sim = CampusSim::new(bench_config());
    let geodb = builtin_geodb();
    let cdns = cdn_prefixes();

    // Re-derive February device flows once.
    let mut feb_flows = Vec::new();
    for d in 0..Month::Feb.num_days() {
        let day = Day(d);
        let trace = sim.day_trace(day);
        let index = LeaseIndex::build(&trace.leases, DEFAULT_MAX_LEASE_SECS);
        let mut norm = Normalizer::new(&index, campus::residential_pool(), sim.config().anon_key);
        for f in &trace.flows {
            if let Some(df) = norm.normalize(f) {
                feb_flows.push(df);
            }
        }
    }

    let classify = |weighted: bool, exclude_cdns: bool| -> (usize, usize) {
        let mut acc: HashMap<DeviceId, MidpointAccumulator> = HashMap::new();
        for df in &feb_flows {
            if exclude_cdns && cdns.contains(df.remote) {
                continue;
            }
            if let Some(e) = geodb.lookup(df.remote) {
                let w = if weighted {
                    df.total_bytes() as f64
                } else {
                    1.0
                };
                acc.entry(df.device).or_default().add(e.lat, e.lon, w);
            }
        }
        let mut intl = 0;
        let mut total = 0;
        for sp in acc.values().filter_map(MidpointAccumulator::subpop) {
            total += 1;
            intl += usize::from(sp == SubPop::International);
        }
        (intl, total)
    };

    for (name, weighted, exclude) in [
        ("weighted_cdn_excluded", true, true),
        ("ablate_midpoint_weighting", false, true),
        ("ablate_cdn_exclusion", true, false),
    ] {
        let (intl, total) = classify(weighted, exclude);
        eprintln!(
            "{name}: {intl}/{total} international ({:.1}%)",
            100.0 * intl as f64 / total.max(1) as f64
        );
        bench(name, None, || classify(weighted, exclude));
    }
}

/// Visitor-filter sweep (§3's 14-day rule): shorter filters admit
/// transient devices, inflating population counts.
fn ablate_visitor_filter(s: &Study) {
    let c = &s.collector;
    for days in [1usize, 7, VISITOR_FILTER_DAYS, 30] {
        let residents = || {
            (0..c.devices().len())
                .filter(|&slot| c.volume.active_day_count(slot) >= days)
                .count()
        };
        eprintln!(
            "ablate_visitor_filter: >= {days} days -> {} residents",
            residents()
        );
        bench(&format!("ablate_visitor_filter/{days}"), None, residents);
    }
    // Keep the default-path finalize honest too.
    bench("summary_finalize_default_filter", None, || {
        StudySummary::finalize(&s.collector)
    });
}

fn main() {
    let study = Study::builder(bench_config())
        .threads(8)
        .run()
        .expect("bench study")
        .into_study();
    ablate_assembler_timeout();
    ablate_session_gap();
    ablate_iot_threshold(&study);
    ablate_midpoint();
    ablate_visitor_filter(&study);
}
