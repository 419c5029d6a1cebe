//! Cross-crate pipeline-stage tests: the text log codecs round-trip the
//! generator's output, and the pipeline recovers generator ground truth
//! through the real DHCP/DNS stages.

use campussim::{CampusSim, SimConfig};
use dnslog::DomainTable;
use nettrace::time::Day;
use nettrace::DeviceId;
use std::collections::HashSet;

fn tiny_sim() -> CampusSim {
    CampusSim::new(SimConfig::at_scale(0.005))
}

#[test]
fn dhcp_log_text_roundtrip_preserves_normalization() {
    let sim = tiny_sim();
    let day = Day(12);
    let trace = sim.day_trace(day);

    // Serialize the lease log to text and parse it back — the pipeline
    // must behave identically on the parsed copy.
    let text = dhcplog::lease::write_log(&trace.leases);
    let parsed = dhcplog::lease::parse_log(&text).expect("log parses");
    assert_eq!(parsed, trace.leases);

    let idx_direct = dhcplog::LeaseIndex::build(&trace.leases, dhcplog::DEFAULT_MAX_LEASE_SECS);
    let idx_text = dhcplog::LeaseIndex::build(&parsed, dhcplog::DEFAULT_MAX_LEASE_SECS);
    for f in &trace.flows {
        assert_eq!(
            idx_direct.lookup(f.orig, f.ts),
            idx_text.lookup(f.orig, f.ts)
        );
    }
}

#[test]
fn dns_log_text_roundtrip_preserves_labels() {
    let sim = tiny_sim();
    let day = Day(12);
    let trace = sim.day_trace(day);

    let text = dnslog::query::write_log(&trace.dns, sim.directory().table());
    let mut table2 = DomainTable::new();
    let parsed = dnslog::query::parse_log(&text, &mut table2).expect("log parses");
    assert_eq!(parsed.len(), trace.dns.len());

    let mut resolver_a = dnslog::ResolverMap::new();
    for q in &trace.dns {
        resolver_a.record(q);
    }
    let mut resolver_b = dnslog::ResolverMap::new();
    for q in &parsed {
        resolver_b.record(q);
    }
    // Same IP→name answer for every flow (names compared as strings:
    // the two tables intern in different orders).
    for f in trace.flows.iter().take(500) {
        let a = resolver_a
            .lookup(f.resp, f.ts)
            .map(|d| sim.directory().table().name(d).as_str().to_owned());
        let b = resolver_b
            .lookup(f.resp, f.ts)
            .map(|d| table2.name(d).as_str().to_owned());
        assert_eq!(a, b, "label mismatch for {}", f.resp);
    }
}

#[test]
fn pipeline_attributes_all_flows_across_many_days() {
    let sim = tiny_sim();
    let ctx = analysis::collect::PipelineCtx::study();
    let mut collector = analysis::collect::StudyCollector::new();
    let mut total_flows = 0usize;
    for d in [0u16, 30, 47, 50, 75, 120] {
        let day = Day(d);
        let trace = sim.day_trace(day);
        total_flows += trace.flows.len();
        let opts = lockdown_core::PipelineOptions::new(
            &ctx,
            sim.directory().table(),
            day,
            sim.config().anon_key,
        );
        let stats = lockdown_core::process_day(opts, &mut collector, &trace);
        assert_eq!(stats.unattributed, 0, "day {d}");
        assert_eq!(stats.foreign, 0, "day {d}");
    }
    assert!(total_flows > 1000);

    // Every attributed device is a real ground-truth device.
    let truth: HashSet<DeviceId> = sim.population().devices.iter().map(|d| d.id).collect();
    for dev in collector.devices() {
        assert!(truth.contains(dev));
    }
}

#[test]
fn labeling_flows_resolves_via_dns_not_wishes() {
    // Devices contact only IPs they actually resolved that day, so the
    // resolver must label (nearly) all flows; unlabeled flows can only be
    // those matched by IP-range signatures (none in the generator's DNS
    // universe).
    let sim = tiny_sim();
    let day = Day(40);
    let trace = sim.day_trace(day);
    let mut resolver = dnslog::ResolverMap::new();
    for q in &trace.dns {
        resolver.record(q);
    }
    let leases = dhcplog::LeaseIndex::build(&trace.leases, dhcplog::DEFAULT_MAX_LEASE_SECS);
    let mut norm = dhcplog::Normalizer::new(
        &leases,
        nettrace::ip::campus::residential_pool(),
        sim.config().anon_key,
    );
    let mut labeled = 0usize;
    let mut total = 0usize;
    for f in &trace.flows {
        let df = norm.normalize(f).expect("attributable");
        total += 1;
        if resolver.label(df).domain.is_some() {
            labeled += 1;
        }
    }
    // Devices connect to addresses they resolved, so every flow labels.
    assert_eq!(labeled, total, "only {labeled}/{total} flows labeled");
}

#[test]
fn ground_truth_device_kinds_survive_the_pipeline() {
    // Switch detection through the full pipeline matches the generator's
    // console inventory (for consoles present long enough to be seen).
    let sim = tiny_sim();
    let ctx = analysis::collect::PipelineCtx::study();
    let mut collector = analysis::collect::StudyCollector::new();
    for d in 0..21u16 {
        let day = Day(d);
        let trace = sim.day_trace(day);
        let opts = lockdown_core::PipelineOptions::new(
            &ctx,
            sim.directory().table(),
            day,
            sim.config().anon_key,
        );
        lockdown_core::process_day(opts, &mut collector, &trace);
    }
    let detected: HashSet<DeviceId> = collector
        .switch_detect
        .switches()
        .map(|slot| collector.devices()[slot])
        .collect();
    let true_switches: HashSet<DeviceId> = sim
        .population()
        .devices
        .iter()
        .filter(|d| d.kind == campussim::TrueKind::Switch && d.acquired.is_none())
        .map(|d| d.id)
        .collect();
    // Every true Switch active in the window is detected, and nothing
    // else is (Switch traffic is ~100% Nintendo, nothing else comes
    // close to 50%).
    for dev in &true_switches {
        let slot = collector.slot(*dev);
        if slot.is_some_and(|s| collector.volume.active_day_count(s) > 0) {
            assert!(detected.contains(dev), "missed switch {dev}");
        }
    }
    for dev in &detected {
        assert!(true_switches.contains(dev), "false switch {dev}");
    }
}

#[test]
fn conn_log_roundtrip_preserves_analysis_inputs() {
    // Serialize a generated day to Zeek conn.log text, parse it back, and
    // verify the pipeline sees identical flows — proving interop with the
    // production pipeline's native format.
    let sim = tiny_sim();
    let day = Day(18);
    let trace = sim.day_trace(day);
    let text = nettrace::zeek::write_conn_log(&trace.flows);
    let parsed = nettrace::zeek::parse_conn_log(&text).expect("conn.log parses");
    assert_eq!(parsed, trace.flows);
}
