//! The study orchestrator: generate → pipeline → collect → finalize,
//! in parallel over a (shard × day) grid.
//!
//! Every run partitions its population with
//! [`campussim::PopulationPlan`] into K deterministic shards — one by
//! default — and drains the (shard × day) grid through a work-stealing
//! cursor: workers pull the next cell, drive its day end-to-end through
//! [`process_day_batched`], and submit the outcome to the shard's
//! ordered reduction. Which worker processes which cell is
//! nondeterministic, but results are not — and not merely
//! statistically: days are independent, integer state merges
//! commutatively, and the reduction folds collectors *in calendar
//! order* (buffering out-of-order arrivals), so even the
//! order-sensitive `f64` accumulators (social-session hours,
//! geolocation midpoints) come out bit-identical at every thread count.
//! Figures diff byte-for-byte across schedules; no float tolerance
//! needed anywhere downstream.
//!
//! Runs are configured through [`StudyBuilder`] (see
//! [`Study::builder`]): thread count, an optional [`LivePublisher`]
//! that watches the run, the 2019 counterfactual, a seeded
//! [`FaultProfile`], and strict mode. Every run collects per-stage
//! metrics.
//!
//! ## The shard × day grid
//!
//! A shard's sub-campus is built lazily when a worker first touches one
//! of its days and dropped as soon as its last day resolves, so at most
//! a few shards of devices are ever resident. The merge is
//! hierarchical and uses one ordered fold at both levels — days fold
//! into their shard in calendar order, sealed shards fold into the run
//! in shard-id order — and because every cross-device reduction in the
//! figures is either integer, integer-valued `f64`, or sorted before
//! use, [`StudyBuilder::run`] is *byte-identical* at any shard count K
//! and any thread count. One shard (the default) is the grid's
//! degenerate case: its sub-campus is the whole campus, and the run
//! reports like an unsharded one. [`StudyBuilder::shards`] fixes K;
//! [`StudyBuilder::mem_budget`] derives it from a memory budget.
//!
//! What a sealed shard leaves behind is chosen by the result type:
//! [`StudyBuilder::run`] keeps each shard's full collector, while
//! [`StudyBuilder::run_digest`] reduces it to a fixed-size
//! [`ShardDigest`] (exact headline statistics, ≤2× approximate
//! distribution figures), so the run never holds more than the
//! in-flight shards' collectors.
//!
//! ## Fault isolation
//!
//! Each day runs inside its own isolation boundary: a fresh per-day
//! collector and metrics registry under `catch_unwind`, so a day that
//! panics contributes *no* partial state — its collector and registry
//! are simply discarded. The failed day is quarantined on a shared
//! retry queue and re-attempted once by whichever worker drains its
//! main queue first. A recovered day is exact: it submits under its
//! original calendar index, so the ordered reduction cannot tell a
//! retried day from a first-try one ([`StudyCollector::finish_day`]
//! closes all day-scoped state before the collector leaves the
//! boundary). A day that fails both attempts is dropped and
//! recorded in the run's [`DegradedReport`]. Under
//! [`StudyBuilder::strict`] the first failure aborts the run with
//! [`StudyError::DayFailed`] instead — the CI posture.

use crate::error::{panic_message, DayFailure, DegradedReport, StudyError};
use crate::pipeline::{process_day_batched, PipelineOptions};
use analysis::accuracy::exact_figures;
use analysis::collect::{PipelineCtx, StudyCollector};
use analysis::digest::{DigestFigures, ShardDigest};
use analysis::figures::{MonthTraffic, StudySummary};
use analysis::HeadlineStats;
use campussim::{
    CampusSim, FaultProfile, Population, PopulationPlan, Scenario, ServiceDirectory, Shard,
    SimConfig,
};
use devclass::{audit_sample, AuditReport, DeviceType};
use dhcplog::NormalizeStats;
use lockdown_obs::{
    alloc, trace, AllocScope, LivePublisher, MetricsRegistry, MetricsSnapshot, SpanRecorder,
};
use nettrace::time::{Day, StudyCalendar};
use nettrace::DeviceId;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Poison-tolerant lock: a worker that panicked inside a day boundary
/// cannot leave shared run state unusable (the per-day state it held
/// was private and discarded).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A payload the ordered reduction folds: an empty start and an
/// in-order merge.
trait Fold {
    fn empty() -> Self;
    fn fold(&mut self, next: Self);
}

impl Fold for StudyCollector {
    fn empty() -> Self {
        StudyCollector::new()
    }

    fn fold(&mut self, next: Self) {
        self.merge(next);
    }
}

impl Fold for ShardDigest {
    fn empty() -> Self {
        ShardDigest::empty()
    }

    fn fold(&mut self, next: Self) {
        self.merge(&next);
    }
}

/// Deterministic index-ordered reduction, the one fold behind both
/// merge levels: a shard's days in calendar order, a run's sealed
/// shards in shard-id order.
///
/// Integer side state (normalization stats, metrics) merges
/// commutatively and is folded the moment it arrives; only the payload
/// — a collector carrying order-sensitive `f64` accumulators, or a
/// shard digest — waits for its slot, buffered until every lower index
/// has arrived or been skipped. The result is bit-identical to a
/// sequential fold at any thread count and under any work-stealing
/// schedule, which is what lets the figure diffs in CI be exact byte
/// comparisons instead of `1e-9` tolerances.
struct OrderedReducer<T> {
    /// Next index the payload fold is waiting for.
    next: usize,
    /// Out-of-order arrivals: `Some` to fold when reached, `None` for
    /// an index that will never arrive (the fold must still step over
    /// it).
    pending: BTreeMap<usize, Option<T>>,
    acc: T,
    stats: NormalizeStats,
    metrics: MetricsSnapshot,
}

impl<T: Fold> OrderedReducer<T> {
    fn new() -> Self {
        OrderedReducer {
            next: 0,
            pending: BTreeMap::new(),
            acc: T::empty(),
            stats: NormalizeStats::default(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Fold in `index`: stats and metrics immediately (commutative),
    /// the payload, if any, in index order.
    fn submit(
        &mut self,
        index: usize,
        part: Option<T>,
        stats: NormalizeStats,
        metrics: &MetricsSnapshot,
    ) {
        self.stats += stats;
        self.metrics.merge(metrics);
        self.offer(index, part);
    }

    /// Record that `index` will never arrive (dropped after two failed
    /// attempts), so the fold can step over it.
    fn skip(&mut self, index: usize) {
        self.offer(index, None);
    }

    fn offer(&mut self, index: usize, part: Option<T>) {
        if index != self.next {
            self.pending.insert(index, part);
            return;
        }
        if let Some(p) = part {
            self.acc.fold(p);
        }
        self.next += 1;
        while let Some(slot) = self.pending.remove(&self.next) {
            if let Some(p) = slot {
                self.acc.fold(p);
            }
            self.next += 1;
        }
    }

    /// Finish the reduction. Indices still pending (possible only on an
    /// aborted run, whose result is discarded anyway) fold in index
    /// order as a safety net.
    fn finish(self) -> (T, NormalizeStats, MetricsSnapshot) {
        let OrderedReducer {
            pending,
            mut acc,
            stats,
            metrics,
            ..
        } = self;
        for part in pending.into_values().flatten() {
            acc.fold(part);
        }
        (acc, stats, metrics)
    }
}

/// What a run reduces each sealed shard to, and what it returns. The
/// result type picks the implementation: [`StudyRun`] keeps every
/// shard's full collector (byte-identical figures at any shard count),
/// [`DigestStudy`] extracts a fixed-size [`ShardDigest`] per study
/// shard.
trait RunSink: Sized {
    /// What one sealed shard contributes to the run.
    type Part: Fold + Send;
    /// [`ShardingReport::mode`].
    const MODE: &'static str;
    /// [`ShardingReport::merge_depth`] over `shards` shards.
    fn merge_depth(shards: u32) -> u32;
    /// Reduce a sealed shard's day-ordered collector to its part, or to
    /// nothing when the shard's only reader is the [`CohortJoin`]. When
    /// the run compares against its counterfactual, `seat` is the
    /// shard's place at that join; a sink that keeps whole collectors
    /// compares them at assembly and leaves its seat empty.
    fn seal(collector: StudyCollector, seat: Option<Seat<'_>>) -> Option<Self::Part>;
    /// Build the run's result from its drained passes.
    fn assemble(run: Drained<Self::Part>) -> Self;
}

/// One drained pass (the study or its counterfactual), reduced over
/// all of its shards.
struct Pass<P> {
    cfg: SimConfig,
    part: P,
    stats: NormalizeStats,
    metrics: MetricsSnapshot,
    sharding: ShardingReport,
}

/// A drained run, handed to its [`RunSink`] for assembly.
struct Drained<P> {
    main: Pass<P>,
    counterfactual: Option<Pass<P>>,
    /// What the [`CohortJoin`] summed, when the counterfactual ran.
    cohort: Option<CohortTraffic>,
    degraded: DegradedReport,
}

/// Apr/May traffic of the 2020 post-shutdown cohort in the study and in
/// its 2019 twin: the tallies behind `growth_vs_2019` in both modes.
/// The twin's population is the study's (same seed, unconditional
/// draws), so every cohort device exists in both runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CohortTraffic {
    study: MonthTraffic,
    twin: MonthTraffic,
}

/// A study collector's post-shutdown cohort: its devices and traffic.
struct Cohort {
    devices: Vec<DeviceId>,
    traffic: MonthTraffic,
}

impl Cohort {
    /// The post-shutdown users of `summary`, finalized from `study`.
    fn of(study: &StudyCollector, summary: &StudySummary) -> Cohort {
        let slots = || summary.post_shutdown(study).map(|(slot, _)| slot);
        Cohort {
            devices: slots().map(|slot| study.devices()[slot]).collect(),
            traffic: MonthTraffic::over(study, slots()),
        }
    }

    /// Its tallies in the study and in `twin`, which numbers its devices
    /// on its own: the one place a cohort device is resolved to a slot.
    fn against(self, twin: &StudyCollector) -> CohortTraffic {
        let slots = self.devices.iter().filter_map(|&dev| twin.slot(dev));
        CohortTraffic {
            study: self.traffic,
            twin: MonthTraffic::over(twin, slots),
        }
    }
}

impl CohortTraffic {
    fn merge(&mut self, other: &CohortTraffic) {
        self.study.merge(&other.study);
        self.twin.merge(&other.twin);
    }

    /// Growth of the cohort's Apr/May bytes per active device-day over
    /// its 2019 twin (0 for an empty baseline).
    fn growth(&self) -> f64 {
        let baseline = self.twin.aprmay_daily();
        if baseline > 0.0 {
            self.study.aprmay_daily() / baseline - 1.0
        } else {
            0.0
        }
    }
}

/// Which pass of a run a grid drains: the study, or its 2019 twin.
#[derive(Debug, Clone, Copy)]
enum Side {
    Study,
    Twin,
}

impl Side {
    /// The stage a failed day of this pass is recorded under.
    fn stage(self) -> &'static str {
        match self {
            Side::Study => "pipeline",
            Side::Twin => "counterfactual",
        }
    }
}

/// A sealing shard's place at the [`CohortJoin`].
struct Seat<'a> {
    join: &'a CohortJoin,
    side: Side,
    shard: usize,
}

/// One side of a shard pair, waiting at the join for the other.
enum Half {
    /// A study shard's post-shutdown cohort.
    Cohort(Cohort),
    /// A twin shard's collector.
    Twin(Box<StudyCollector>),
}

/// The per-shard join behind a sharded run's vs-2019 comparison.
///
/// A scenario's shards and its twin's cover the same devices (same plan
/// over the same population), and whether a device is post-shutdown is
/// decided inside its own shard, so the run's [`CohortTraffic`] is the
/// sum over shard pairs of the cohort's tallies in each. Whichever side
/// of a pair seals second reduces the pair to those integers, so the sum
/// is the whole-campus one at any thread × shard count, and no
/// per-device state outlives the pair. Workers drain the study's grid
/// before the twin's, so a twin parks its collector here only while its
/// study shard's last day is still in flight.
struct CohortJoin {
    /// Per shard id: the side that sealed first.
    waiting: Mutex<Vec<Option<Half>>>,
    total: Mutex<CohortTraffic>,
}

impl CohortJoin {
    fn new(shards: usize) -> Self {
        CohortJoin {
            waiting: Mutex::new((0..shards).map(|_| None).collect()),
            total: Mutex::default(),
        }
    }

    /// Seat `half` for `shard`; when the other side is already there,
    /// reduce the pair and add it to the total.
    fn meet(&self, shard: usize, half: Half) {
        let other = {
            let mut waiting = lock(&self.waiting);
            match waiting[shard].take() {
                Some(other) => other,
                None => {
                    waiting[shard] = Some(half);
                    return;
                }
            }
        };
        let pair = match (half, other) {
            (Half::Cohort(cohort), Half::Twin(twin)) | (Half::Twin(twin), Half::Cohort(cohort)) => {
                cohort.against(&twin)
            }
            _ => unreachable!("shard {shard} sealed twice in one pass"),
        };
        lock(&self.total).merge(&pair);
    }

    /// The summed tallies, once every shard pair has met.
    fn into_total(self) -> CohortTraffic {
        let waiting = self
            .waiting
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(waiting.iter().all(Option::is_none), "unmatched shard");
        self.total
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Run-wide state every worker shares: the pipeline context, the live
/// view, and the failure bookkeeping.
struct RunShared {
    ctx: PipelineCtx,
    live: Option<LivePublisher>,
    strict: bool,
    degraded: Mutex<DegradedReport>,
    abort: AtomicBool,
    first_err: Mutex<Option<DayFailure>>,
    /// Days currently inside the isolation boundary, across all
    /// workers — sampled into the `study.days_inflight` gauge.
    inflight: AtomicU64,
    /// The vs-2019 join both passes seal into, when the counterfactual
    /// runs.
    join: Option<CohortJoin>,
}

impl RunShared {
    /// Record a run-fatal failure (strict mode) and tell every worker
    /// to stop pulling work.
    fn record_fatal(&self, failure: DayFailure) {
        let mut slot = lock(&self.first_err);
        if slot.is_none() {
            *slot = Some(failure);
        }
        self.abort.store(true, Ordering::Relaxed);
    }
}

/// The per-day state a successful attempt yields for merging.
struct DayOutcome {
    collector: StudyCollector,
    stats: NormalizeStats,
    metrics: MetricsSnapshot,
    /// Wall duration of the attempt (the `study.day_duration_ns`
    /// sample, also published through [`LivePublisher::day_finished`]).
    duration_ns: u64,
}

/// How a run's population was partitioned and merged — surfaced in the
/// manifest's `sharding` section and the reports when
/// [`ShardingReport::is_partitioned`].
#[derive(Debug, Clone)]
pub struct ShardingReport {
    /// Number of population shards.
    pub shards: u32,
    /// `"exact"` (full collectors merged) or `"digest"` (fixed-size
    /// per-shard digests merged).
    pub mode: &'static str,
    /// Merge hierarchy depth: 1 = one exact shard (days → run);
    /// 2 = days → shard → run; 3 = days → shard → digest → run.
    pub merge_depth: u32,
    /// Peak net day-allocation bytes observed per shard, in shard-id
    /// order (zeros when memory tracking was off).
    pub per_shard_peak_bytes: Vec<u64>,
    /// Flows attributed per shard over the run, in shard-id order.
    pub per_shard_flows: Vec<u64>,
    /// Flow payload bytes collected per shard, in shard-id order.
    pub per_shard_bytes: Vec<u64>,
    /// Worker wall time spent on each shard's days, nanoseconds, in
    /// shard-id order.
    pub per_shard_wall_ns: Vec<u64>,
}

impl ShardingReport {
    /// Whether the run has a shard seam worth reporting: more than one
    /// shard, or a merge deeper than days → run. A one-shard exact run
    /// is the grid's degenerate case and looks unsharded: no manifest
    /// `sharding` section, no sharding lines in the reports, and no
    /// per-shard `/progress` rows.
    pub fn is_partitioned(&self) -> bool {
        self.shards > 1 || self.merge_depth > 1
    }
}

/// One shard's slot in the grid: the lazily built sub-campus, its own
/// day-ordered reduction, and a countdown of unresolved days. When the
/// countdown hits zero the slot is sealed — reduced into the run — and
/// the sub-campus dropped, bounding resident memory to the shards
/// currently in flight.
struct ShardSlot {
    shard: Shard,
    sim: Mutex<Option<Arc<CampusSim>>>,
    /// The shard's days, folded in calendar order; taken at seal.
    days: Mutex<Option<OrderedReducer<StudyCollector>>>,
    remaining: AtomicUsize,
    peak_bytes: AtomicU64,
    /// Load tallies across the shard's resolved days, feeding the
    /// manifest `sharding` section and `/progress` shard rows.
    flows: AtomicU64,
    bytes: AtomicU64,
    wall_ns: AtomicU64,
}

impl ShardSlot {
    /// A fresh slot owing `days` day outcomes.
    fn new(shard: Shard, days: usize) -> Self {
        ShardSlot {
            shard,
            sim: Mutex::new(None),
            days: Mutex::new(Some(OrderedReducer::new())),
            remaining: AtomicUsize::new(days),
            peak_bytes: AtomicU64::new(0),
            flows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }
}

/// One pass of a run — the study, or its counterfactual — over the
/// (shard × day) grid: one cursor, shard-major so a shard's days
/// cluster in time and its sub-campus can be dropped early, and one
/// shard-ordered reduction of the sealed shards' parts.
struct Grid<'a, S: RunSink> {
    cfg: SimConfig,
    directory: &'a Arc<ServiceDirectory>,
    slots: Vec<ShardSlot>,
    days: &'a [Day],
    cursor: AtomicUsize,
    /// Quarantined first-attempt failures, each carrying its cell index
    /// so a recovery can submit under it.
    retry: Mutex<Vec<(usize, DayFailure)>>,
    /// Sealed shards, folded in shard-id order.
    run: Mutex<OrderedReducer<S::Part>>,
    fault: Option<&'a FaultProfile>,
    side: Side,
    /// Attribute allocation deltas to days and stages (`mem.*`
    /// metrics). Set only when the run's builder asked for it *and*
    /// the process-global tracking allocator probe succeeded.
    track_memory: bool,
    /// The pass's shard layout; per-shard tallies fill in at the end.
    sharding: ShardingReport,
}

impl<'a, S: RunSink> Grid<'a, S> {
    fn new(
        cfg: SimConfig,
        shards: Vec<Shard>,
        directory: &'a Arc<ServiceDirectory>,
        days: &'a [Day],
        fault: Option<&'a FaultProfile>,
        side: Side,
        track_memory: bool,
    ) -> Self {
        let k = shards.len() as u32;
        Grid {
            cfg,
            directory,
            slots: shards
                .into_iter()
                .map(|shard| ShardSlot::new(shard, days.len()))
                .collect(),
            days,
            cursor: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            run: Mutex::new(OrderedReducer::new()),
            fault,
            side,
            track_memory,
            sharding: ShardingReport {
                shards: k,
                mode: S::MODE,
                merge_depth: S::merge_depth(k),
                per_shard_peak_bytes: Vec::new(),
                per_shard_flows: Vec::new(),
                per_shard_bytes: Vec::new(),
                per_shard_wall_ns: Vec::new(),
            },
        }
    }

    /// Grid cell `i`: its shard's slot and the day's calendar index.
    fn cell(&self, i: usize) -> (&ShardSlot, usize) {
        let nd = self.days.len();
        (&self.slots[i / nd], i % nd)
    }

    /// The shard's sub-campus, built on first touch. Building happens
    /// under the slot's lock so concurrent first-touchers build once;
    /// the population realization replays the exact per-student RNG
    /// ranges of the whole-campus build, so this sim emits
    /// bit-identical traffic for its devices.
    fn shard_sim(&self, slot: &ShardSlot) -> Arc<CampusSim> {
        let mut guard = lock(&slot.sim);
        if let Some(sim) = guard.as_ref() {
            return Arc::clone(sim);
        }
        let span = trace::span("build_shard").attr("shard", u64::from(slot.shard.id()));
        let sim = Arc::new(CampusSim::for_shard(
            self.cfg.clone(),
            slot.shard.build(),
            Arc::clone(self.directory),
        ));
        drop(span);
        *guard = Some(Arc::clone(&sim));
        sim
    }

    /// One worker's share of the pass: pull cells off the cursor until
    /// the grid is dry, then adopt quarantined cells off the retry
    /// queue, each retried exactly once (possibly pushed there by a
    /// different worker). Every worker that pushes to the retry queue
    /// also drains it afterwards, so no quarantined cell is ever
    /// orphaned. A recovered cell submits under its original day index
    /// inside its shard, so the hierarchical fold cannot tell it from a
    /// first-try success.
    fn drain(&self, run: &RunShared, worker: usize) {
        let cells = self.slots.len() * self.days.len();
        while !run.abort.load(Ordering::Relaxed) {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= cells {
                break;
            }
            if let Err(failure) = self.attempt(run, worker, i, 0) {
                if run.strict {
                    run.record_fatal(failure);
                    break;
                }
                lock(&self.retry).push((i, failure));
            }
        }
        while !run.abort.load(Ordering::Relaxed) {
            let Some((i, first)) = lock(&self.retry).pop() else {
                break;
            };
            match self.attempt(run, worker, i, 1) {
                Ok(()) => lock(&run.degraded).recovered.push(first),
                Err(failure) => {
                    let (slot, day_index) = self.cell(i);
                    if let Some(days) = lock(&slot.days).as_mut() {
                        days.skip(day_index);
                    }
                    self.day_resolved(run, slot);
                    lock(&run.degraded).failed.push(failure);
                }
            }
        }
    }

    /// Attempt grid cell `i` once. A success folds into the cell's
    /// shard; a failure is reported to the live view and returned for
    /// the caller to quarantine or record.
    fn attempt(
        &self,
        run: &RunShared,
        worker: usize,
        i: usize,
        attempt: u32,
    ) -> Result<(), DayFailure> {
        let (slot, day_index) = self.cell(i);
        let day = self.days[day_index];
        let shard = slot.shard.id();
        let sim = self.shard_sim(slot);
        let live = run.live.as_ref();
        if let Some(live) = live {
            live.day_started(worker, day);
        }
        match self.try_day(run, &sim, shard, day, worker, attempt) {
            Ok(out) => {
                if let Some(live) = live {
                    let shard = self.sharding.is_partitioned().then_some(shard);
                    let flows = out.stats.attributed;
                    live.day_finished(worker, shard, flows, out.duration_ns, &out.metrics);
                }
                // Fold the day into the shard's load tallies before the
                // outcome moves into the reduction.
                slot.flows
                    .fetch_add(out.stats.attributed, Ordering::Relaxed);
                slot.bytes.fetch_add(
                    out.metrics.counter("pipeline.bytes_collected"),
                    Ordering::Relaxed,
                );
                slot.wall_ns.fetch_add(out.duration_ns, Ordering::Relaxed);
                if let Some(days) = lock(&slot.days).as_mut() {
                    days.submit(day_index, Some(out.collector), out.stats, &out.metrics);
                }
                self.day_resolved(run, slot);
                Ok(())
            }
            Err(error) => {
                if let Some(live) = live {
                    live.day_failed(worker);
                }
                Err(DayFailure {
                    day: day.0,
                    stage: self.side.stage().to_string(),
                    error,
                    attempt,
                })
            }
        }
    }

    /// Run one day inside the isolation boundary: a fresh collector and
    /// registry, under `catch_unwind`. On panic the day's partial state
    /// is discarded and the rendered payload is returned as the error.
    fn try_day(
        &self,
        run: &RunShared,
        sim: &CampusSim,
        shard: u32,
        day: Day,
        worker: usize,
        attempt: u32,
    ) -> Result<DayOutcome, String> {
        let registry = MetricsRegistry::new();
        let mut collector = StudyCollector::new();
        // Sample run-wide concurrency into the day's registry: gauges
        // merge by max, so the final value is the run's peak
        // days-in-flight.
        let inflight = run.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        registry.gauge("study.days_inflight").set_max(inflight);
        // The day-level allocation scope opens before the isolation
        // boundary and closes after it on the same thread (the panic is
        // caught, so `end` always runs), covering everything the day
        // allocates — generation, stages, collection.
        let mem_scope = self.track_memory.then(AllocScope::begin);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let day_span = trace::span(if attempt == 0 { "day" } else { "day.retry" })
                .attr("day", u64::from(day.0))
                .attr("worker", worker as u64)
                .attr("attempt", u64::from(attempt));
            if shard != 0 {
                day_span.set_attr("shard", u64::from(shard));
            }
            let opts = PipelineOptions::new(
                &run.ctx,
                sim.directory().table(),
                day,
                sim.config().anon_key,
            )
            .live(run.live.as_ref())
            .metrics(&registry)
            .fault(self.fault)
            .attempt(attempt)
            .worker(worker)
            .shard(shard)
            .track_memory(self.track_memory);
            let day_stats = process_day_batched(opts, &mut collector, sim);
            day_span.set_attr("flows", day_stats.attributed);
            day_stats
        }));
        let duration_ns = t0.elapsed().as_nanos() as u64;
        run.inflight.fetch_sub(1, Ordering::Relaxed);
        let mem_delta = mem_scope.map(AllocScope::end);
        match result {
            Ok(stats) => {
                registry
                    .histogram("study.day_duration_ns")
                    .record(duration_ns);
                if let Some(d) = mem_delta {
                    registry.counter("mem.day.alloc_bytes").add(d.alloc_bytes);
                    registry.counter("mem.day.freed_bytes").add(d.freed_bytes);
                    registry.counter("mem.day.allocs").add(d.allocs);
                    registry.counter("mem.day.deallocs").add(d.deallocs);
                    registry
                        .gauge("mem.day.peak_net_bytes")
                        .set_max(d.peak_net_bytes);
                }
                Ok(DayOutcome {
                    collector,
                    stats,
                    metrics: registry.snapshot(),
                    duration_ns,
                })
            }
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    }

    /// Mark one of the slot's days fully resolved (success, recovered,
    /// or dropped); seal the shard when it was the last one.
    fn day_resolved(&self, run: &RunShared, slot: &ShardSlot) {
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.seal(run, slot);
        }
    }

    /// Seal a drained shard: close its day-ordered reduction, record
    /// its peak, reduce it to the sink's part (seating it at the
    /// vs-2019 join), fold that part, if any, and the shard's stats and
    /// metrics into the run, and drop its sub-campus.
    fn seal(&self, run: &RunShared, slot: &ShardSlot) {
        let _span = trace::span("seal_shard").attr("shard", u64::from(slot.shard.id()));
        let Some(days) = lock(&slot.days).take() else {
            return;
        };
        let (collector, stats, metrics) = days.finish();
        slot.peak_bytes
            .store(metrics.gauge("mem.day.peak_net_bytes"), Ordering::Relaxed);
        let shard = slot.shard.id() as usize;
        let seat = run.join.as_ref().map(|join| Seat {
            join,
            side: self.side,
            shard,
        });
        let part = S::seal(collector, seat);
        lock(&self.run).submit(shard, part, stats, &metrics);
        *lock(&slot.sim) = None;
    }

    /// The pass's shard-ordered result, with the per-shard tallies
    /// filled into its sharding report.
    fn into_pass(self) -> Pass<S::Part> {
        let tally =
            |load: fn(&ShardSlot) -> u64| -> Vec<u64> { self.slots.iter().map(load).collect() };
        let sharding = ShardingReport {
            per_shard_peak_bytes: tally(|s| s.peak_bytes.load(Ordering::Relaxed)),
            per_shard_flows: tally(|s| s.flows.load(Ordering::Relaxed)),
            per_shard_bytes: tally(|s| s.bytes.load(Ordering::Relaxed)),
            per_shard_wall_ns: tally(|s| s.wall_ns.load(Ordering::Relaxed)),
            ..self.sharding
        };
        let (part, stats, metrics) = self
            .run
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish();
        Pass {
            cfg: self.cfg,
            part,
            stats,
            metrics,
            sharding,
        }
    }
}

/// A completed study run.
pub struct Study {
    /// The configuration it ran.
    pub cfg: SimConfig,
    /// Everything collected by the pipeline.
    pub collector: StudyCollector,
    /// Classified, segmented device universe.
    pub summary: StudySummary,
    /// Aggregate normalization statistics.
    pub norm_stats: NormalizeStats,
    metrics: MetricsSnapshot,
    degraded: DegradedReport,
    sharding: ShardingReport,
    /// The rendered figures, built on first request (never inside
    /// [`StudyBuilder::run`]).
    figures: OnceLock<DigestFigures>,
    /// Ground-truth device types, from a population rebuilt on first
    /// request (an audit's), then borrowed.
    truth_types: OnceLock<HashMap<DeviceId, DeviceType>>,
}

impl Study {
    /// Configure a run: `Study::builder(cfg).threads(8).run()?`.
    pub fn builder(cfg: SimConfig) -> StudyBuilder {
        StudyBuilder::new(cfg)
    }

    /// Finalize one exact pass: classify and segment the merged
    /// collector.
    fn from_pass(pass: Pass<StudyCollector>, degraded: DegradedReport) -> Study {
        let summary = StudySummary::finalize(&pass.part);
        Study {
            cfg: pass.cfg,
            collector: pass.part,
            summary,
            norm_stats: pass.stats,
            metrics: pass.metrics,
            degraded,
            sharding: pass.sharding,
            figures: OnceLock::new(),
            truth_types: OnceLock::new(),
        }
    }

    /// Run-level per-stage counters (sessions generated, flows
    /// assembled, leases normalized, labels resolved, …), folded
    /// together from the per-worker registries.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Which days failed and had to be retried (or were dropped). Empty
    /// on a clean run; see [`DegradedReport`].
    pub fn degraded(&self) -> &DegradedReport {
        &self.degraded
    }

    /// How the run's population was partitioned and merged (shard
    /// count, mode, merge depth, per-shard peaks).
    pub fn sharding(&self) -> &ShardingReport {
        &self.sharding
    }

    /// The paper's eight figures and headline statistics, rendered
    /// from the collector on first call and cached, so the text report,
    /// the figure files and the manifest all read one rendering.
    pub fn figures(&self) -> &DigestFigures {
        self.figures.get_or_init(|| {
            let _span = trace::span("report.render");
            exact_figures(&self.collector, &self.summary)
        })
    }

    /// The paper's headline statistics for this run.
    pub fn headline(&self) -> HeadlineStats {
        self.figures().headline.clone()
    }

    /// The scenario this study ran (the config's scenario; for a
    /// counterfactual run, the scenario's no-event twin).
    pub fn scenario(&self) -> &Scenario {
        &self.cfg.scenario
    }

    /// Ground-truth device types from the generator (for validation).
    /// The first call rebuilds the whole campus's population, which is
    /// byte-identical to the shard union the run drained (the
    /// population plan's compatibility guarantee); the map is cached
    /// and borrowed from then on.
    pub fn ground_truth_types(&self) -> &HashMap<DeviceId, DeviceType> {
        self.truth_types.get_or_init(|| {
            let _span = trace::span("ground_truth");
            Population::build(&self.cfg)
                .devices
                .iter()
                .map(|d| (d.id, d.kind.true_type()))
                .collect()
        })
    }

    /// Reproduce the paper's manual 100-device classification audit
    /// against generator ground truth (§3: 84 correct / 2 affirmative
    /// errors / 14 conservative unknowns).
    pub fn classification_audit(&self, sample: usize) -> AuditReport {
        let devices = self.collector.devices();
        let predicted = self.summary.residents(&self.collector);
        audit_sample(
            predicted.map(|(slot, r)| (devices[slot], r.device_type)),
            self.ground_truth_types(),
            sample,
            self.cfg.seed,
        )
    }
}

/// Configures and launches a study run.
///
/// ```no_run
/// use campussim::SimConfig;
/// use lockdown_core::Study;
/// use lockdown_obs::LivePublisher;
///
/// # fn main() -> Result<(), lockdown_core::StudyError> {
/// let live = LivePublisher::new();
/// let run = Study::builder(SimConfig::at_scale(0.05))
///     .threads(8)
///     .live(&live)
///     .with_counterfactual()
///     .run()?;
/// println!("{} days", live.progress().days_completed);
/// println!("growth vs 2019: {:?}", run.growth_vs_2019());
/// # Ok(())
/// # }
/// ```
pub struct StudyBuilder {
    cfg: SimConfig,
    threads: usize,
    counterfactual: bool,
    trace: Option<SpanRecorder>,
    fault: Option<FaultProfile>,
    strict: bool,
    live: Option<LivePublisher>,
    track_memory: bool,
    shards: u32,
    mem_budget: Option<u64>,
}

impl StudyBuilder {
    /// Defaults: sequential, unwatched, no tracing, no
    /// counterfactual, no fault injection, graceful (non-strict)
    /// degradation, one population shard.
    pub fn new(cfg: SimConfig) -> Self {
        StudyBuilder {
            cfg,
            threads: 1,
            counterfactual: false,
            trace: None,
            fault: None,
            strict: false,
            live: None,
            track_memory: false,
            shards: 0,
            mem_budget: None,
        }
    }

    /// Partition the population into exactly `k` deterministic shards
    /// (0, the default, means "derive": from [`StudyBuilder::mem_budget`]
    /// if one is set, else 1). `k = 1` is the same run as not calling
    /// this at all; `k > 1` drains the (shard × day) grid with lazily
    /// built, eagerly dropped sub-campuses and hierarchically merges
    /// shard reductions in shard-id order — still byte-identical
    /// figures at any `k` and any thread count.
    pub fn shards(mut self, k: u32) -> Self {
        self.shards = k;
        self
    }

    /// Derive the shard count from a peak-memory budget (bytes) using
    /// the population plan's per-device footprint estimate, instead of
    /// fixing it with [`StudyBuilder::shards`]. An explicit non-zero
    /// `shards` wins over the budget.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Resolve the effective shard partition. Requires a validated
    /// config (the plan scans scenario-driven population knobs). One
    /// shard needs no counting pass.
    fn effective_shards(&self) -> Vec<Shard> {
        let plan = PopulationPlan::new(&self.cfg);
        if self.shards > 0 {
            plan.shards(self.shards)
        } else if let Some(budget) = self.mem_budget {
            plan.auto_shards(budget)
        } else {
            plan.shards(1)
        }
    }

    /// Track allocation during the run (default off): day- and
    /// stage-attributed `mem.*` counters and peak gauges land in the
    /// run's metrics, and run-wide totals (peak bytes, live bytes,
    /// alloc/dealloc/realloc counts) are recorded at finalize.
    ///
    /// Requires the binary to have registered
    /// [`lockdown_obs::TrackingAlloc`] as its `#[global_allocator]`
    /// (like `repro` does); otherwise the enable probe fails and the
    /// run silently proceeds untracked. Tracking is observation-only:
    /// figures, non-`mem.*` metrics, and config hashes are
    /// byte-identical with it on or off.
    pub fn track_memory(mut self, on: bool) -> Self {
        self.track_memory = on;
        self
    }

    /// Fan the grid out over `n` workers (clamped to at least 1). Cells
    /// are handed out through a shared work-stealing cursor, so a slow
    /// day (e.g. peak-occupancy February) never leaves the other
    /// workers idle the way static round-robin chunking did.
    /// Bit-deterministic regardless of thread count: each day runs
    /// independently and the ordered reduction folds day collectors in
    /// calendar order, so even `f64` accumulation order is
    /// schedule-independent.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Record a span timeline of the run into `recorder`: each worker
    /// gets a lane with nested `worker` → `day` → `stream_day` spans
    /// plus per-stage busy aggregates (and `build_shard` /
    /// `seal_shard` where it builds and seals a shard), and the
    /// orchestration phases (`build_sim`, `finalize`) land on the
    /// [`trace::MAIN_LANE`]. After the run, `recorder.finish()` yields
    /// the [`lockdown_obs::Trace`] for export. Off by default — and
    /// when off, the hot path pays a single thread-local check per day,
    /// not per record.
    pub fn trace(mut self, recorder: &SpanRecorder) -> Self {
        self.trace = Some(recorder.clone());
        self
    }

    /// Inject seeded, deterministic faults into the main study's record
    /// stream (the counterfactual always runs clean, so the 2019
    /// baseline stays a controlled comparison). Dropped and repaired
    /// records are accounted under the `pipeline.errors.*` and
    /// `assembler.malformed.*` counters; an injected worker panic
    /// exercises the quarantine-and-retry machinery.
    pub fn fault_profile(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Fail fast: abort the run with [`StudyError::DayFailed`] on the
    /// first day failure instead of quarantining and retrying. The CI
    /// posture — a fault that would silently degrade a nightly run
    /// becomes a red build.
    pub fn strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }

    /// Feed live run state into `publisher` (a cheap clone of shared
    /// state): day boundaries, periodic mid-day snapshots, and — when
    /// the run completes — the exact final merged metrics. To serve it
    /// over HTTP, bind a [`lockdown_obs::TelemetryServer`] on the same
    /// publisher before the run. Publication is observation-only:
    /// results are bit-identical with or without a publisher attached.
    pub fn live(mut self, publisher: &LivePublisher) -> Self {
        self.live = Some(publisher.clone());
        self
    }

    /// Run every scenario in `scenarios` as its own full study — same
    /// seed, scale, thread count, shard settings, memory tracking and
    /// strictness for every cell — and collect the per-cell results
    /// for cross-scenario comparison. Cells run
    /// sequentially; each cell fans its grid out over this builder's
    /// worker pool exactly like [`StudyBuilder::run`], so the
    /// work-stealing runner and ordered reduction keep every cell
    /// bit-deterministic.
    ///
    /// Tracing, fault injection, and live telemetry are per-run
    /// concerns and are *not* carried into matrix cells.
    ///
    /// Errors on the first cell that fails; completed cells are
    /// dropped (scenario runs are cheap relative to debugging a
    /// half-reported matrix).
    pub fn run_matrix(self, scenarios: &[Scenario]) -> Result<MatrixRun, StudyError> {
        let StudyBuilder {
            cfg,
            threads,
            strict,
            track_memory,
            shards,
            mem_budget,
            ..
        } = self;
        let mut cells = Vec::with_capacity(scenarios.len());
        for scenario in scenarios {
            let mut cell_cfg = cfg.clone();
            cell_cfg.scenario = scenario.clone();
            let mut cell = StudyBuilder::new(cell_cfg)
                .threads(threads)
                .strict(strict)
                .track_memory(track_memory)
                .shards(shards);
            if let Some(budget) = mem_budget {
                cell = cell.mem_budget(budget);
            }
            let run = cell.run()?;
            cells.push(MatrixCell {
                scenario_name: scenario.name.clone(),
                scenario_hash_hex: scenario.content_hash_hex(),
                run,
            });
        }
        Ok(MatrixRun { cells })
    }

    /// Also run the 2019 counterfactual (same seed and population
    /// scale, no pandemic) and report Apr/May traffic growth against
    /// it; the paper reports +53%. Both runs share one pool of scoped
    /// workers: each worker drains the study's grid, then rolls
    /// straight into the counterfactual's, so no threads are torn down
    /// and respawned between the runs and the pool stays busy across
    /// the boundary.
    pub fn with_counterfactual(mut self) -> Self {
        self.counterfactual = true;
        self
    }

    /// Execute the configured run: drain the (shard × day) grid and
    /// fold every sealed shard's full collector into the run, in
    /// shard-id order.
    ///
    /// Errors when the configuration fails validation, when any day
    /// fails under [`StudyBuilder::strict`], or when a worker dies
    /// outside the per-day isolation boundary. A day that fails both
    /// its attempts in non-strict mode does *not* error: the run
    /// completes without that day and records it in
    /// [`Study::degraded`].
    pub fn run(self) -> Result<StudyRun, StudyError> {
        self.run_grid()
    }

    /// Sharded digest run: partition the population (per
    /// [`StudyBuilder::shards`] / [`StudyBuilder::mem_budget`]), drain
    /// the (shard × day) grid, and reduce every sealed shard to a
    /// fixed-size [`ShardDigest`] so the run never holds more than the
    /// in-flight shards' collectors. Headline statistics are exact at
    /// any shard count; distribution figures are ≤2× approximations
    /// (see [`analysis::digest`]). The counterfactual, when requested,
    /// streams through its own shards, and each twin shard goes only to
    /// the join with its study shard's post-shutdown cohort (no digest),
    /// so
    /// [`DigestStudy::growth_vs_2019`] is the exact run's statistic;
    /// there is no classification audit — the full device table is
    /// never materialized.
    pub fn run_digest(self) -> Result<DigestStudy, StudyError> {
        self.run_grid()
    }

    /// The one runner behind [`StudyBuilder::run`] and
    /// [`StudyBuilder::run_digest`]: one (shard × day) grid per pass,
    /// lazily built and eagerly dropped sub-campuses, and a
    /// hierarchical merge into the result type's sink.
    fn run_grid<S: RunSink>(self) -> Result<S, StudyError> {
        self.cfg.validate()?;
        let shards = self.effective_shards();
        let StudyBuilder {
            cfg,
            threads,
            counterfactual,
            trace: trace_rec,
            fault,
            strict,
            live,
            track_memory,
            ..
        } = self;
        let k = shards.len() as u32;
        let fault = fault.filter(|p| !p.is_noop());
        // Enable allocation tracking before the campus is built so the
        // directory and every shard's population count toward the
        // run's peak. `enable` probes for a registered tracker; without
        // one the run proceeds untracked.
        let mem_on = track_memory && alloc::enable();
        let mem_base = mem_on.then(alloc::stats);
        // If a recorder is configured and the calling thread is not
        // already recording (e.g. the CLI installed its own main lane),
        // give the orchestration phases a lane of their own. No span
        // stays open across the worker phase, so on a sequential run
        // the top-level spans of all lanes tile the timeline instead of
        // double-counting it.
        let _orchestration_lane = match &trace_rec {
            Some(rec) if !trace::enabled() => Some(rec.install(trace::MAIN_LANE, "orchestrator")),
            _ => None,
        };
        let cf_cfg = counterfactual.then(|| Scenario::counterfactual_of(&cfg));
        // One service directory for every shard of both passes — the
        // synthetic Internet is population-independent world state.
        let (directory, ctx) = {
            let _span = trace::span("build_sim");
            (Arc::new(ServiceDirectory::build()), PipelineCtx::study())
        };
        let days: Vec<Day> = StudyCalendar::days().collect();
        if let Some(live) = &live {
            let passes = 1 + u64::from(cf_cfg.is_some());
            live.set_days_total(days.len() as u64 * u64::from(k) * passes);
            live.set_mem_tracking(mem_on);
            live.set_shards(k);
        }
        let run = RunShared {
            ctx,
            live,
            strict,
            degraded: Mutex::default(),
            abort: AtomicBool::new(false),
            first_err: Mutex::new(None),
            inflight: AtomicU64::new(0),
            join: cf_cfg.is_some().then(|| CohortJoin::new(shards.len())),
        };
        let main = Grid::<S>::new(
            cfg,
            shards,
            &directory,
            &days,
            fault.as_ref(),
            Side::Study,
            mem_on,
        );
        // The counterfactual always runs clean, through the same sink
        // as the main pass, over the same plan of the same population:
        // its shard `i` holds the devices of the study's shard `i`,
        // which the vs-2019 join pairs them by.
        let cf = cf_cfg.map(|cf_cfg| {
            let shards = PopulationPlan::new(&cf_cfg).shards(k);
            Grid::<S>::new(cf_cfg, shards, &directory, &days, None, Side::Twin, mem_on)
        });

        let trace_rec = trace_rec.as_ref();
        let worker = |w: usize| {
            let _lane = trace_rec.map(|rec| rec.install(w as u32, &format!("worker {w}")));
            let worker_span = trace::span("worker").attr("worker", w as u64);
            {
                let _span = trace::span("drain.study");
                main.drain(&run, w);
            }
            if let Some(cf) = &cf {
                let _span = trace::span("drain.counterfactual");
                cf.drain(&run, w);
            }
            drop(worker_span);
            Instant::now()
        };

        let finished: Vec<Instant> = if threads == 1 {
            vec![worker(0)]
        } else {
            let worker = &worker;
            let joined: Vec<_> = std::thread::scope(|s| {
                // The eager collect is the fork: without it the lazy
                // spawn/join chain would run the workers one at a time.
                #[allow(clippy::needless_collect)]
                let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || worker(w))).collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let mut out = Vec::with_capacity(joined.len());
            for j in joined {
                match j {
                    Ok(t) => out.push(t),
                    // Day-level failures are caught inside the
                    // isolation boundary; reaching here means the
                    // worker died outside it.
                    Err(payload) => {
                        return Err(StudyError::WorkerPanicked {
                            detail: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            out
        };

        if let Some(failure) = lock(&run.first_err).take() {
            return Err(StudyError::DayFailed(failure));
        }

        let _finalize_span = trace::span("finalize");

        // Tail idle per worker: the gap between a worker running out of
        // work and the last worker finishing (the join barrier).
        let reg = MetricsRegistry::new();
        if let Some(latest) = finished.iter().copied().max() {
            let idle = reg.histogram("study.worker_idle_ns");
            for done in &finished {
                idle.record(latest.duration_since(*done).as_nanos() as u64);
            }
        }

        // Run-wide memory accounting: counters as the delta since the
        // run's base snapshot (so back-to-back runs in one process stay
        // comparable), peak/live as the tracker's absolute values.
        if let Some(base) = mem_base.as_ref() {
            let now = alloc::stats();
            let d = now.since(base);
            reg.counter("mem.alloc_bytes").add(d.alloc_bytes);
            reg.counter("mem.freed_bytes").add(d.freed_bytes);
            reg.counter("mem.allocs").add(d.allocs);
            reg.counter("mem.deallocs").add(d.deallocs);
            reg.counter("mem.reallocs").add(d.reallocs);
            reg.gauge("mem.peak_bytes").set_max(now.peak_bytes);
            reg.gauge("mem.live_bytes").set_max(now.live_bytes);
        }

        let mut degraded = std::mem::take(&mut *lock(&run.degraded));
        degraded.sort();

        let mut main = main.into_pass();
        main.metrics.merge(&reg.snapshot());
        let counterfactual = cf.map(Grid::into_pass);
        // The live view ends on the exact final merged metrics (a
        // superset of everything published mid-run, so the view stays
        // monotone), marked done for `/healthz` once the result exists.
        let final_metrics = run.live.as_ref().map(|_| {
            let mut m = main.metrics.clone();
            if let Some(cf) = &counterfactual {
                m.merge(&cf.metrics);
            }
            m
        });
        let result = S::assemble(Drained {
            main,
            counterfactual,
            cohort: run.join.map(CohortJoin::into_total),
            degraded,
        });
        if let (Some(live), Some(metrics)) = (&run.live, &final_metrics) {
            live.finish(metrics);
        }
        Ok(result)
    }
}

impl RunSink for StudyRun {
    type Part = StudyCollector;
    const MODE: &'static str = "exact";

    fn merge_depth(shards: u32) -> u32 {
        if shards > 1 {
            2
        } else {
            1
        }
    }

    fn seal(collector: StudyCollector, _seat: Option<Seat<'_>>) -> Option<StudyCollector> {
        Some(collector)
    }

    /// Both passes keep their whole collectors, so the cohort is
    /// tallied here, over the whole campus, not at the join.
    fn assemble(run: Drained<StudyCollector>) -> StudyRun {
        let Drained {
            main,
            counterfactual,
            degraded,
            ..
        } = run;
        let study = Study::from_pass(main, degraded);
        let counterfactual = counterfactual.map(|cf| {
            let cf = Study::from_pass(cf, DegradedReport::default());
            Counterfactual {
                growth_vs_2019: Cohort::of(&study.collector, &study.summary)
                    .against(&cf.collector)
                    .growth(),
                study: cf,
            }
        });
        StudyRun {
            study,
            counterfactual,
        }
    }
}

impl RunSink for DigestStudy {
    type Part = ShardDigest;
    const MODE: &'static str = "digest";

    fn merge_depth(_shards: u32) -> u32 {
        3
    }

    /// A twin shard's only reader is the vs-2019 join, so it goes there
    /// whole and adds nothing to its pass's fold.
    fn seal(collector: StudyCollector, seat: Option<Seat<'_>>) -> Option<ShardDigest> {
        if let Some(Seat {
            join,
            side: Side::Twin,
            shard,
        }) = seat
        {
            join.meet(shard, Half::Twin(Box::new(collector)));
            return None;
        }
        // Classification and segmentation are per-device and a device's
        // whole history lives in its one shard, so the per-shard summary
        // equals the device's slice of the run-level one.
        let summary = StudySummary::finalize(&collector);
        let digest = ShardDigest::extract(&collector, &summary);
        if let Some(Seat { join, shard, .. }) = seat {
            join.meet(shard, Half::Cohort(Cohort::of(&collector, &summary)));
        }
        Some(digest)
    }

    /// The twin's pass folded no digests: the comparison is the join's.
    fn assemble(run: Drained<ShardDigest>) -> DigestStudy {
        let Drained {
            main,
            cohort,
            degraded,
            ..
        } = run;
        DigestStudy {
            figures: main.part.render(),
            resident_devices: main.part.resident_devices(),
            cfg: main.cfg,
            norm_stats: main.stats,
            metrics: main.metrics,
            degraded,
            sharding: main.sharding,
            growth_vs_2019: cohort.as_ref().map(CohortTraffic::growth),
        }
    }
}

/// A completed sharded digest run: the paper's figures and headline
/// statistics without a run-level collector or device table. Headline
/// statistics are exact; distribution figures are ≤2× approximations
/// (see [`analysis::digest`] for the precise contract). Growth vs the
/// 2019 counterfactual, when requested, is the exact run's cohort
/// statistic, bit for bit. No classification audit.
pub struct DigestStudy {
    /// The configuration the run executed.
    pub cfg: SimConfig,
    /// Rendered figures plus exact headline statistics.
    pub figures: DigestFigures,
    /// Residents (devices passing the 14-day filter) across all shards.
    pub resident_devices: usize,
    /// Aggregate normalization statistics (exact).
    pub norm_stats: NormalizeStats,
    metrics: MetricsSnapshot,
    degraded: DegradedReport,
    sharding: ShardingReport,
    growth_vs_2019: Option<f64>,
}

impl DigestStudy {
    /// The paper's headline statistics — exact at any shard count.
    pub fn headline(&self) -> &HeadlineStats {
        &self.figures.headline
    }

    /// Run-level merged metrics.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Days that failed and were retried or dropped.
    pub fn degraded(&self) -> &DegradedReport {
        &self.degraded
    }

    /// Shard partition and merge summary.
    pub fn sharding(&self) -> &ShardingReport {
        &self.sharding
    }

    /// Apr/May traffic growth of the 2020 post-shutdown cohort over the
    /// same cohort in 2019, if [`StudyBuilder::with_counterfactual`] was
    /// requested: [`StudyRun::growth_vs_2019`], bit for bit.
    pub fn growth_vs_2019(&self) -> Option<f64> {
        self.growth_vs_2019
    }
}

/// The 2019 no-pandemic twin of a study run.
pub struct Counterfactual {
    /// The counterfactual study itself.
    pub study: Study,
    /// Apr/May traffic growth of the 2020 post-shutdown cohort over the
    /// same cohort in 2019 (the paper reports +53%).
    pub growth_vs_2019: f64,
}

/// What [`StudyBuilder::run`] returns: the study plus, when requested,
/// its 2019 counterfactual. Dereferences to the main [`Study`].
pub struct StudyRun {
    /// The main (2020) study.
    pub study: Study,
    /// The 2019 counterfactual, if [`StudyBuilder::with_counterfactual`]
    /// was requested.
    pub counterfactual: Option<Counterfactual>,
}

impl StudyRun {
    /// Discard the counterfactual (if any) and keep the main study.
    pub fn into_study(self) -> Study {
        self.study
    }

    /// Apr/May traffic growth vs the 2019 counterfactual, if one ran.
    pub fn growth_vs_2019(&self) -> Option<f64> {
        self.counterfactual.as_ref().map(|c| c.growth_vs_2019)
    }
}

impl std::ops::Deref for StudyRun {
    type Target = Study;

    fn deref(&self) -> &Study {
        &self.study
    }
}

/// One cell of a scenario matrix: a full study run under one scenario.
pub struct MatrixCell {
    /// The scenario's name (also the cell's output directory name).
    pub scenario_name: String,
    /// The scenario's canonical content hash, as 16 lowercase hex
    /// digits — recorded in the cell's manifest for provenance.
    pub scenario_hash_hex: String,
    /// The completed run.
    pub run: StudyRun,
}

/// What [`StudyBuilder::run_matrix`] returns: one completed study per
/// scenario, in the order requested.
pub struct MatrixRun {
    /// Per-scenario cells.
    pub cells: Vec<MatrixCell>,
}

impl MatrixRun {
    /// Find a cell by scenario name.
    pub fn cell(&self, name: &str) -> Option<&MatrixCell> {
        self.cells.iter().find(|c| c.scenario_name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_obs::TelemetryServer;

    fn tiny() -> SimConfig {
        SimConfig {
            scale: 0.01,
            ..Default::default()
        }
    }

    /// An order-sensitive payload: folding concatenates, so any fold
    /// out of index order shows up as a permutation.
    impl Fold for Vec<usize> {
        fn empty() -> Self {
            Vec::new()
        }

        fn fold(&mut self, next: Self) {
            self.extend(next);
        }
    }

    #[test]
    fn ordered_fold_equals_a_sequential_fold() {
        let stats = |attributed| NormalizeStats {
            attributed,
            ..Default::default()
        };
        let mut r = OrderedReducer::<Vec<usize>>::new();
        // Out-of-order arrivals; index 3 is dropped after two failed
        // attempts; index 5 never arrives (an aborted run), so 6 and 7
        // are still pending at finish.
        for i in [2, 0, 7, 4, 1, 6] {
            r.submit(
                i,
                Some(vec![i]),
                stats(i as u64),
                &MetricsSnapshot::default(),
            );
        }
        r.skip(3);
        assert_eq!(r.acc, [0, 1, 2, 4], "folded exactly up to the gap");
        let (acc, total, _) = r.finish();
        let mut sequential = Vec::new();
        for i in [0, 1, 2, 4, 6, 7] {
            sequential.fold(vec![i]);
        }
        assert_eq!(acc, sequential);
        // Side state folds on arrival, whatever the order.
        assert_eq!(total.attributed, 2 + 7 + 4 + 1 + 6);
    }

    /// A collector in which device `d` of `devices` moves `base + d`
    /// bytes on every third day of `days(d)`.
    fn traffic(
        devices: std::ops::Range<u64>,
        base: u64,
        days: impl Fn(u64) -> std::ops::Range<u16>,
    ) -> StudyCollector {
        let mut c = StudyCollector::new();
        for d in devices {
            let slot = c.intern(DeviceId(d));
            for day in days(d).step_by(3) {
                c.volume.add(slot, Day(day), base + d);
            }
        }
        c
    }

    #[test]
    fn cohort_join_meets_in_either_order() {
        // Two shard pairs, devices 0..6 and 6..12. In the study the even
        // devices are active from day 40 on, so they are the cohort, and
        // the odd ones leave before the break; the twin's are all active
        // from day 0, with less traffic.
        const ND: u16 = StudyCalendar::NUM_DAYS;
        let shards = [0..6, 6..12];
        let study = |devices| traffic(devices, 900, |d| if d % 2 == 0 { 40..ND } else { 0..50 });
        let twin = |devices| traffic(devices, 600, |_| 0..ND);
        let cohort = |c: &StudyCollector| Cohort::of(c, &StudySummary::finalize(c));
        let mut expect = CohortTraffic::default();
        for devices in &shards {
            let study = study(devices.clone());
            let cohort = cohort(&study);
            let evens: Vec<DeviceId> = devices.clone().step_by(2).map(DeviceId).collect();
            assert_eq!(cohort.devices, evens);
            expect.merge(&cohort.against(&twin(devices.clone())));
        }
        // The shard pairs add up to the whole campus, as an exact run
        // tallies it.
        let whole = cohort(&study(0..12)).against(&twin(0..12));
        assert_eq!(whole, expect);
        assert!(expect.growth() > 0.0);
        // A cohort device the twin never saw adds nothing on its side.
        let mut with_stranger = cohort(&study(0..12));
        with_stranger.devices.push(DeviceId(99));
        assert_eq!(with_stranger.against(&twin(0..12)), expect);
        // Study first in both pairs, twin first in both, and one of each.
        for order in [[true, true], [false, false], [true, false]] {
            let join = CohortJoin::new(2);
            for (shard, study_first) in order.into_iter().enumerate() {
                let offer = |side, c: StudyCollector| {
                    let seat = Seat {
                        join: &join,
                        side,
                        shard,
                    };
                    DigestStudy::seal(c, Some(seat));
                };
                let devices = &shards[shard];
                if study_first {
                    offer(Side::Study, study(devices.clone()));
                    offer(Side::Twin, twin(devices.clone()));
                } else {
                    offer(Side::Twin, twin(devices.clone()));
                    assert!(lock(&join.waiting)[shard].is_some(), "the twin parks");
                    offer(Side::Study, study(devices.clone()));
                }
                assert!(lock(&join.waiting)[shard].is_none(), "the pair is reduced");
            }
            assert_eq!(join.into_total(), expect, "study first: {order:?}");
        }
    }

    #[test]
    fn digest_twin_seal_folds_nothing_and_reaches_the_join() {
        const ND: u16 = StudyCalendar::NUM_DAYS;
        let study = || traffic(0..6, 900, |d| if d % 2 == 0 { 40..ND } else { 0..50 });
        let twin = || traffic(0..6, 600, |_| 0..ND);
        let expect = {
            let study = study();
            Cohort::of(&study, &StudySummary::finalize(&study)).against(&twin())
        };
        let join = CohortJoin::new(1);
        let seat = |side| {
            Some(Seat {
                join: &join,
                side,
                shard: 0,
            })
        };
        // The twin's pass folds no payload for the shard, but its stats
        // and metrics still merge.
        let part = DigestStudy::seal(twin(), seat(Side::Twin));
        assert!(part.is_none(), "a twin shard seals no digest");
        assert!(
            matches!(lock(&join.waiting)[0], Some(Half::Twin(_))),
            "the twin's collector waits at the join"
        );
        let mut pass = OrderedReducer::<ShardDigest>::new();
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("pipeline.flows_in".into(), 7);
        let stats = NormalizeStats {
            attributed: 5,
            ..Default::default()
        };
        pass.submit(0, part, stats, &metrics);
        assert_eq!(pass.next, 1, "the fold stepped over the shard");
        let (folded, stats, metrics) = pass.finish();
        assert_eq!(folded.resident_devices(), 0);
        assert_eq!(stats.attributed, 5);
        assert_eq!(metrics.counter("pipeline.flows_in"), 7);
        // The study shard seals its digest and completes the pair.
        let digest = DigestStudy::seal(study(), seat(Side::Study)).expect("a study digest");
        assert!(digest.resident_devices() > 0);
        assert!(lock(&join.waiting)[0].is_none(), "the pair is reduced");
        assert_eq!(join.into_total(), expect);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let a = Study::builder(tiny()).run().unwrap().into_study();
        let b = Study::builder(tiny())
            .threads(4)
            .run()
            .unwrap()
            .into_study();
        assert_eq!(a.norm_stats, b.norm_stats);
        assert_eq!(
            a.summary.by_device(&a.collector),
            b.summary.by_device(&b.collector)
        );
        // Bit-exact, floats included: the ordered reduction folds day
        // collectors in calendar order regardless of which worker ran
        // which day, so no float tolerance is needed.
        assert_eq!(a.headline(), b.headline());
        // Metrics are deterministic too: per-worker registries merge
        // commutatively, so thread count cannot change the totals.
        assert_eq!(a.metrics().counters, b.metrics().counters);
        assert!(a.degraded().is_empty());
    }

    #[test]
    fn study_produces_plausible_shape() {
        let s = Study::builder(tiny())
            .threads(4)
            .run()
            .unwrap()
            .into_study();
        // Figures render on first use, never inside the run, and the
        // headline is read from that one rendering.
        assert!(s.figures.get().is_none(), "run rendered the figures");
        let h = s.headline();
        assert_eq!(h, s.figures().headline);
        // Population declines into shutdown.
        assert!(h.peak_active > 2 * h.trough_active, "{h:?}");
        // Some post-shutdown users exist and some are international.
        assert!(h.post_shutdown_devices > 0);
        assert!(h.intl_devices > 0);
        assert!(h.identified_devices >= h.intl_devices);
        // Traffic grows into the pandemic.
        assert!(h.traffic_growth_feb_to_aprmay > 0.2, "{h:?}");
        // All flows attributed.
        assert_eq!(s.norm_stats.unattributed, 0);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let err = Study::builder(SimConfig {
            scale: -0.5,
            ..Default::default()
        })
        .run()
        .err()
        .expect("negative scale must not run");
        assert!(matches!(err, StudyError::Config(_)), "{err}");
    }

    #[test]
    fn audit_mostly_correct() {
        let rec = SpanRecorder::new();
        let s = Study::builder(tiny())
            .threads(4)
            .trace(&rec)
            .run()
            .unwrap()
            .into_study();
        // The run leaves ground truth to the audit, which builds it once.
        let spans = rec.finish().counts_by_name();
        assert!(spans.contains_key("finalize") && !spans.contains_key("ground_truth"));
        let lane = rec.install(0, "audit");
        let audit = s.classification_audit(100);
        assert_eq!(s.classification_audit(100), audit);
        drop(lane);
        assert_eq!(rec.finish().counts_by_name().get("ground_truth"), Some(&1));
        assert!(audit.sampled > 50);
        assert!(
            audit.accuracy() > 0.6,
            "accuracy {} ({:?})",
            audit.accuracy(),
            audit
        );
    }

    #[test]
    fn observer_sees_every_day() {
        let live = LivePublisher::new();
        let run = Study::builder(tiny()).threads(2).live(&live).run().unwrap();
        let days = StudyCalendar::days().count() as u64;
        let p = live.progress();
        assert_eq!(p.days_completed, days);
        assert_eq!(p.degraded_days, 0);
        assert_eq!(p.flows, run.study.norm_stats.attributed);
        assert_eq!(p.workers.iter().map(|w| w.days_done).sum::<u64>(), days);
        assert!((1..=2).contains(&p.workers.len()), "{p:?}");
        assert!(
            p.workers
                .iter()
                .all(|w| w.day.is_none() && w.day_flows == 0),
            "{p:?}"
        );
    }

    #[test]
    fn injected_panic_is_quarantined_and_recovered() {
        let live = LivePublisher::new();
        let run = Study::builder(tiny())
            .threads(2)
            .live(&live)
            .fault_profile(FaultProfile::new().panic_on_day(47))
            .run()
            .unwrap();
        let degraded = run.study.degraded();
        assert_eq!(degraded.recovered.len(), 1, "{degraded:?}");
        assert!(degraded.failed.is_empty(), "{degraded:?}");
        assert_eq!(degraded.recovered[0].day, 47);
        assert_eq!(degraded.recovered[0].attempt, 0);
        assert_eq!(degraded.recovered[0].stage, "pipeline");
        assert_eq!(live.progress().degraded_days, 1);
        // The retried day's data is present and exact: the recovered
        // day submits under its original calendar index, so the run
        // matches a clean one bit for bit — floats included.
        let clean = Study::builder(tiny()).threads(2).run().unwrap();
        assert_eq!(run.study.norm_stats, clean.study.norm_stats);
        assert_eq!(run.study.headline(), clean.study.headline());
    }

    #[test]
    fn live_publisher_tracks_run_and_finishes_with_final_metrics() {
        let live = LivePublisher::new();
        let run = Study::builder(tiny()).threads(2).live(&live).run().unwrap();
        assert!(live.is_finished());
        let days = StudyCalendar::days().count() as u64;
        let p = live.progress();
        assert_eq!(p.status, "done");
        assert_eq!(p.days_total, days);
        assert_eq!(p.days_completed, days);
        assert_eq!(p.days_inflight, 0);
        assert_eq!(p.eta_ns, Some(0));
        assert_eq!(p.flows, run.study.norm_stats.attributed);
        // The final live view is the run's own merged metrics, exactly.
        assert_eq!(&live.metrics(), run.study.metrics());
        // Day-boundary instrumentation: one duration sample per day, and
        // the inflight gauge saw at least one day in flight.
        let h = run
            .study
            .metrics()
            .histogram("study.day_duration_ns")
            .expect("day duration histogram");
        assert_eq!(h.count(), days);
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert!(run.study.metrics().gauge("study.days_inflight") >= 1);
    }

    #[test]
    fn serving_telemetry_does_not_change_results() {
        let clean = Study::builder(tiny()).threads(2).run().unwrap();
        let live = LivePublisher::new();
        let server = TelemetryServer::bind("127.0.0.1:0", live.clone()).unwrap();
        let served = Study::builder(tiny()).threads(2).live(&live).run().unwrap();
        assert_eq!(
            clean.study.metrics().counters,
            served.study.metrics().counters
        );
        assert_eq!(clean.study.norm_stats, served.study.norm_stats);
        assert_eq!(
            clean.study.headline().peak_active,
            served.study.headline().peak_active
        );
        // The server still answers with the final state.
        let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
        use std::io::{Read as _, Write as _};
        write!(conn, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read");
        assert!(raw.contains("\"status\":\"done\""), "{raw}");
    }

    #[test]
    fn strict_mode_fails_fast_on_injected_panic() {
        let err = Study::builder(tiny())
            .threads(2)
            .fault_profile(FaultProfile::new().panic_on_day(47))
            .strict(true)
            .run()
            .err()
            .expect("strict run over a panicking day must error");
        match err {
            StudyError::DayFailed(f) => {
                assert_eq!(f.day, 47);
                assert_eq!(f.attempt, 0);
                assert!(f.error.contains("injected"), "{f}");
            }
            other => panic!("expected DayFailed, got {other}"),
        }
    }
}
