//! Sub-population segmentation demo (§4.2): geolocate February
//! destinations, compute byte-weighted geographic midpoints, classify
//! devices as domestic or international, and compare against the
//! generator's ground truth — including the conservative
//! misclassification the paper discusses.
//!
//! ```sh
//! cargo run --release --example subpopulations
//! ```

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, SimConfig};
use geoloc::SubPop;
use lockdown_core::{process_day, PipelineOptions};
use nettrace::time::Day;

fn main() {
    let sim = CampusSim::new(SimConfig::at_scale(0.02));
    let ctx = PipelineCtx::study();
    let mut collector = StudyCollector::new();

    // The classifier uses February traffic only.
    for d in 0..29u16 {
        let day = Day(d);
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        process_day(opts, &mut collector, &trace);
    }

    let truth: std::collections::HashMap<_, _> = sim
        .population()
        .devices
        .iter()
        .map(|d| (d.id, sim.population().students[d.owner as usize].subpop))
        .collect();

    let mut tp = 0; // true international classified international
    let mut fn_ = 0; // true international classified domestic (conservative)
    let mut fp = 0; // true domestic classified international
    let mut tn = 0;
    let mut examples = Vec::new();
    for (slot, acc) in collector.midpoints.iter() {
        let dev = collector.devices()[slot];
        let Some(measured) = acc.subpop() else {
            continue;
        };
        match (truth[&dev], measured) {
            (SubPop::International, SubPop::International) => tp += 1,
            (SubPop::International, SubPop::Domestic) => {
                fn_ += 1;
                if examples.len() < 3 {
                    examples.extend(acc.midpoint().map(|(lat, lon)| (dev, lat, lon)));
                }
            }
            (SubPop::Domestic, SubPop::International) => fp += 1,
            (SubPop::Domestic, SubPop::Domestic) => tn += 1,
        }
    }

    println!("midpoint classification vs ground truth (February evidence):");
    println!("  international → international: {tp}");
    println!("  international → domestic:      {fn_}   (the paper's conservatism)");
    println!("  domestic → international:      {fp}");
    println!("  domestic → domestic:           {tn}");
    let measured_share = (tp + fp) as f64 / (tp + fp + fn_ + tn) as f64;
    let true_share = (tp + fn_) as f64 / (tp + fp + fn_ + tn) as f64;
    println!(
        "  measured international share: {:.1}%  (true share {:.1}%; paper measured 18% vs ~25% enrollment)",
        100.0 * measured_share,
        100.0 * true_share
    );
    println!();
    println!("examples of conservatively-misclassified internationals (midpoint inside the US):");
    for (dev, lat, lon) in examples {
        println!("  {dev}: midpoint ({lat:.1}, {lon:.1})");
    }
}
