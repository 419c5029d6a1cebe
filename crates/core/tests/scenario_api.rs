//! Acceptance tests for the scenario API: the built-in `paper-2020`
//! scenario is a byte-exact alias for the legacy pipeline, the
//! `baseline-2019` scenario is the legacy counterfactual, `run_matrix`
//! stamps every cell with its scenario, and the multi-wave built-in
//! produces phase-aligned occupancy shifts.

use analysis::figures;
use campussim::{Scenario, SimConfig};
use lockdown_core::report::RunView;
use lockdown_core::Study;

fn cfg() -> SimConfig {
    SimConfig {
        scale: 0.01,
        seed: 7,
        ..Default::default()
    }
}

/// [`cfg`] running the built-in scenario `name`.
fn cfg_with(name: &str) -> SimConfig {
    SimConfig {
        scenario: Scenario::builtin(name).expect("builtin"),
        ..cfg()
    }
}

#[test]
fn explicit_paper_scenario_is_bit_identical_to_the_default_run() {
    let default_run = Study::builder(cfg()).threads(2).run().expect("default run");
    let scenario_run = Study::builder(cfg_with("paper-2020"))
        .threads(2)
        .run()
        .expect("scenario run");
    // HeadlineStats PartialEq is exact (bitwise on floats), so this
    // catches any drift in the scenario-threaded model tables.
    assert_eq!(default_run.headline(), scenario_run.headline());
    let (dc, ds) = (&default_run.collector, &default_run.summary);
    let (sc, ss) = (&scenario_run.collector, &scenario_run.summary);
    assert_eq!(
        figures::figure1(dc, ds).total,
        figures::figure1(sc, ss).total
    );
    let default_manifest = lockdown_core::run_manifest(&RunView::exact(&default_run), 2, None);
    let scenario_manifest = lockdown_core::run_manifest(&RunView::exact(&scenario_run), 2, None);
    assert_eq!(
        default_manifest.config_hash_hex, scenario_manifest.config_hash_hex,
        "the stock scenario must not perturb the provenance hash"
    );
    assert_eq!(scenario_manifest.scenario.as_deref(), Some("paper-2020"));
}

#[test]
fn baseline_scenario_matches_the_legacy_counterfactual() {
    let counterfactual = Study::builder(Scenario::counterfactual_of(&cfg()))
        .threads(2)
        .run()
        .expect("counterfactual run")
        .into_study();
    let baseline = Study::builder(cfg_with("baseline-2019"))
        .threads(2)
        .run()
        .expect("baseline run")
        .into_study();
    assert_eq!(counterfactual.headline(), baseline.headline());
}

#[test]
fn run_matrix_stamps_every_cell_with_its_scenario() {
    let scenarios = Scenario::builtins().to_vec();
    let matrix = Study::builder(cfg())
        .threads(2)
        .run_matrix(&scenarios)
        .expect("matrix run");
    assert_eq!(matrix.cells.len(), scenarios.len());
    for (scenario, cell) in scenarios.iter().zip(&matrix.cells) {
        assert_eq!(cell.scenario_name, scenario.name);
        assert_eq!(cell.scenario_hash_hex, scenario.content_hash_hex());
        assert_eq!(cell.run.scenario().name, scenario.name);
    }
    // The matrix's paper cell is the same study as a direct run.
    let direct = Study::builder(cfg())
        .threads(2)
        .run()
        .expect("direct run")
        .into_study();
    let paper = matrix.cell("paper-2020").expect("paper cell");
    assert_eq!(paper.run.headline(), direct.headline());
    // And the cells genuinely differ from one another.
    let baseline = matrix.cell("baseline-2019").expect("baseline cell");
    assert_ne!(paper.run.headline(), baseline.run.headline());
}

#[test]
fn staggered_scenario_shifts_occupancy_at_its_phase_boundaries() {
    let staggered = Study::builder(cfg_with("staggered-reopening"))
        .threads(2)
        .run()
        .expect("staggered run")
        .into_study();
    let fig1 = figures::figure1(&staggered.collector, &staggered.summary);
    let active = &fig1.total;
    // Partial reopening at day 75: returning students push daily
    // actives above the late-lockdown floor.
    let lockdown_floor = *active[60..75].iter().min().expect("lockdown window");
    let reopened = *active[80..95].iter().max().expect("reopening window");
    assert!(
        reopened > lockdown_floor,
        "reopening should lift actives above the lockdown floor \
         ({reopened} vs {lockdown_floor})"
    );
    // Second wave from day 100: occupancy falls back below the
    // reopened plateau's mean by the end of term.
    let plateau: u32 = active[85..100].iter().sum::<u32>() / 15;
    let second_wave_tail = *active[110..121].iter().min().expect("tail window");
    assert!(
        second_wave_tail < plateau,
        "second wave should cut actives below the reopened plateau \
         ({second_wave_tail} vs {plateau})"
    );
}
