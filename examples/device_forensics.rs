//! Device-classification forensics: run the classifier over a simulated
//! population, compare against ground truth, and show *why* devices end
//! up in each bucket — the §3 heuristics at work.
//!
//! ```sh
//! cargo run --release --example device_forensics
//! ```

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use devclass::{DeviceType, FigureBucket};
use lockdown_core::{process_day, PipelineOptions};
use nettrace::time::Day;
use std::collections::HashMap;

fn main() {
    let sim = CampusSim::new(SimConfig::at_scale(0.01));
    let ctx = PipelineCtx::study();
    let mut collector = StudyCollector::new();

    // Two weeks of February traffic is plenty of classification evidence.
    for d in 0..14u16 {
        let day = Day(d);
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        process_day(opts, &mut collector, &trace);
    }

    let classifier = devclass::Classifier::new();
    let truth: HashMap<_, _> = sim
        .population()
        .devices
        .iter()
        .map(|d| (d.id, d.kind))
        .collect();

    let mut confusion: HashMap<(DeviceType, FigureBucket), usize> = HashMap::new();
    let mut evidence_counts = [0usize; 4]; // ua, iot, console, oui
    for (dev, profile) in collector.profiles.iter() {
        let Some(kind) = truth.get(dev) else { continue };
        let predicted = classifier.classify(profile);
        *confusion
            .entry((kind.true_type(), predicted.figure_bucket()))
            .or_default() += 1;
        if devclass::useragent::vote(profile.user_agents.as_slice()).is_some() {
            evidence_counts[0] += 1;
        } else if profile.iot.is_iot(devclass::SAIDI_THRESHOLD) {
            evidence_counts[1] += 1;
        } else if profile.total_bytes > 0
            && profile.console_fraction() >= devclass::SWITCH_THRESHOLD
        {
            evidence_counts[2] += 1;
        } else if !profile.locally_administered && profile.oui.is_some() {
            evidence_counts[3] += 1;
        }
    }

    println!("evidence that decided each device (first heuristic to fire):");
    println!("  User-Agent vote:        {}", evidence_counts[0]);
    println!("  IoT backend fraction:   {}", evidence_counts[1]);
    println!("  console traffic:        {}", evidence_counts[2]);
    println!("  OUI vendor (at most):   {}", evidence_counts[3]);
    println!();
    println!("confusion (truth → predicted bucket):");
    let mut rows: Vec<_> = confusion.into_iter().collect();
    rows.sort_by_key(|((t, p), _)| (format!("{t:?}"), format!("{p:?}")));
    for ((t, p), n) in rows {
        println!("  {:<16} → {:<16} {n}", t.name(), p.name());
    }

    // A concrete Switch detection example.
    println!();
    println!(
        "Switch detector: {} devices exceed the 50% Nintendo-traffic threshold",
        collector.switch_detect.switches().count()
    );
    let true_switches = sim
        .population()
        .devices
        .iter()
        .filter(|d| d.kind == campussim::TrueKind::Switch)
        .filter(|d| sim.population().device_present(d, Day(0)))
        .count();
    println!("ground truth Switches present in February: {true_switches}");
}
