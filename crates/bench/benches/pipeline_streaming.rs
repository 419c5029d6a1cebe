//! Streamed vs. materialized per-day processing.
//!
//! `per_day_pipeline/materialized` is the oracle path: generate a full
//! `DayTrace`, batch-build the lease index and resolver map, collect
//! from a `Vec<LabeledFlow>`. `per_day_pipeline/batched` is the
//! production driver: the generator streams into reused flow batches
//! that run through the stage pipeline in bulk. Both include
//! generation, so the numbers compare like with like. The timer
//! measures wall-clock only; see this crate's README for how to compare
//! peak RSS, which is where the streamed path actually wins.

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{CampusSim, DayEvent};
use lockdown_bench::bench_config;
use lockdown_bench::timer::bench;
use lockdown_core::{process_day, process_day_batched, PipelineOptions};
use lockdown_obs::{MetricsRegistry, SpanRecorder};
use nettrace::time::Day;

fn main() {
    let sim = CampusSim::new(bench_config());
    let ctx = PipelineCtx::study();
    let day = Day(75); // busy online-term weekday
    let trace = sim.day_trace(day);
    let n_flows = Some(trace.flows.len() as u64);
    let table = sim.directory().table();
    let key = sim.config().anon_key;

    bench("day_generation/materialize_day_trace", n_flows, || {
        sim.day_trace(day)
    });
    bench("day_generation/stream_day_drain", n_flows, || {
        let mut flows = 0u64;
        sim.stream_day(day, &mut |e: DayEvent| {
            if matches!(e, DayEvent::Flow(_)) {
                flows += 1;
            }
        });
        flows
    });

    let opts = PipelineOptions::new(&ctx, table, day, key);
    bench("per_day_pipeline/materialized", n_flows, || {
        let mut collector = StudyCollector::new();
        let trace = sim.day_trace(day);
        process_day(opts, &mut collector, &trace)
    });
    bench("per_day_pipeline/batched", n_flows, || {
        let mut collector = StudyCollector::new();
        process_day_batched(opts, &mut collector, &sim)
    });
    // Same batched path with per-stage metrics on: the delta is the
    // whole cost of the observability layer (must stay within noise of
    // the uninstrumented run).
    let registry = MetricsRegistry::new();
    bench("per_day_pipeline/batched_metrics", n_flows, || {
        let mut collector = StudyCollector::new();
        process_day_batched(opts.metrics(&registry), &mut collector, &sim)
    });
    // Same batched path with span tracing on: a recorder lane is
    // installed, so the pipeline emits per-stage aggregate spans. See
    // the `overhead` bin (src/bin) for the off-vs-on comparison artifact.
    let recorder = SpanRecorder::new();
    let _lane = recorder.install(0, "bench");
    bench("per_day_pipeline/batched_traced", n_flows, || {
        let mut collector = StudyCollector::new();
        let _day = lockdown_obs::trace::span("day");
        process_day_batched(opts, &mut collector, &sim)
    });
}
