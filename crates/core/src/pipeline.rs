//! The per-day measurement pipeline.
//!
//! Mirrors §3 of the paper stage for stage:
//!
//! 1. flows arrive keyed by dynamic IP (from the tap / flow extractor);
//! 2. DHCP logs normalize dynamic IPs to per-device identity, which is
//!    anonymized before anything else sees it;
//! 3. DNS logs label each remote IP with the domain the device resolved;
//! 4. the labeled stream feeds the study collector (classification
//!    evidence, application usage, geolocation midpoints, …).
//!
//! Two drivers share those stages. [`process_day_batched`] is the
//! production driver: the generator streams into a [`Batcher`] that
//! reuses one [`FlowBatch`] of [`DEFAULT_BATCH_ROWS`] rows, and
//! [`DayPipeline`] walks each batch through the stages in bulk, so
//! nothing day-sized is ever materialized. [`process_day`] drives the
//! same stages over a materialized [`DayTrace`]; it is the oracle the
//! batched driver is tested against, and the entry point for traces
//! that arrive materialized (the packet path).
//!
//! Everything a day pipeline needs besides its input stream and its
//! collector travels in one [`PipelineOptions`] value: the shared
//! context, the day, the anonymization key, and the optional
//! observability hooks (a [`MetricsRegistry`] and the run's
//! [`LivePublisher`]). With the hooks left off the per-record cost is
//! a single predictable branch on a `None`.

use analysis::collect::{PipelineCtx, StudyCollector};
use campussim::{
    Batcher, CampusSim, DayBatch, DayBatchSink, DayTrace, FaultProfile, FaultStats, FaultingSink,
};
use dhcplog::{
    LeaseEvent, LeaseIndex, NormalizeStage, NormalizeStats, Normalizer, DEFAULT_MAX_LEASE_SECS,
};
use dnslog::{DnsQuery, DomainId, DomainTable, LabeledFlow, ResolverMap};
use lockdown_obs::{trace, AllocScope, Counter, Gauge, LivePublisher, MetricsRegistry, ScopeDelta};
use nettrace::ip::campus;
use nettrace::time::Day;
use nettrace::{BatchStage, DeviceId, FlowBatch, NO_LABEL};
use std::time::Instant;

/// Everything a [`DayPipeline`] needs besides its input stream and its
/// output collector, bundled so call sites name what they change.
///
/// ```ignore
/// let opts = PipelineOptions::new(&ctx, table, day, key).metrics(&registry);
/// ```
#[derive(Clone, Copy)]
pub struct PipelineOptions<'a> {
    /// Shared lookup tables (signatures, geolocation, …).
    pub ctx: &'a PipelineCtx,
    /// The interned domain universe.
    pub table: &'a DomainTable,
    /// The day being processed.
    pub day: Day,
    /// Secret key for MAC anonymization (§3).
    pub anon_key: u64,
    metrics: Option<&'a MetricsRegistry>,
    live: Option<&'a LivePublisher>,
    fault: Option<&'a FaultProfile>,
    attempt: u32,
    worker: usize,
    shard: u32,
    batch_rows: usize,
    track_memory: bool,
}

/// Number of collected flows between two [`LivePublisher::day_tick`]
/// publications, coarse enough that the tick is invisible next to
/// per-record work. A day at the default scale 0.05 collects about
/// 20,000 flows on average, so a live view refreshes about twice
/// mid-day; at scale 0.01 (about 4,400) most days publish only at
/// their boundaries.
pub const DEFAULT_LIVE_TICK: u32 = 8192;

/// Default number of flow rows per [`FlowBatch`] on the batched path
/// ([`process_day_batched`]). Large enough that per-batch work
/// (stage dispatch, instrumentation, tick checks) amortizes to noise,
/// small enough that a batch of every column stays comfortably inside
/// L2 and live progress stays fresh.
pub const DEFAULT_BATCH_ROWS: usize = 4096;

impl<'a> PipelineOptions<'a> {
    /// Options with observability off.
    pub fn new(ctx: &'a PipelineCtx, table: &'a DomainTable, day: Day, anon_key: u64) -> Self {
        PipelineOptions {
            ctx,
            table,
            day,
            anon_key,
            metrics: None,
            live: None,
            fault: None,
            attempt: 0,
            worker: 0,
            shard: 0,
            batch_rows: DEFAULT_BATCH_ROWS,
            track_memory: false,
        }
    }

    /// Record per-stage counters into `registry`.
    pub fn metrics(mut self, registry: &'a MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Publish the day's collected flows to `live` every
    /// [`DEFAULT_LIVE_TICK`] flows, with the day registry when
    /// [`PipelineOptions::metrics`] is set.
    pub fn live(mut self, live: Option<&'a LivePublisher>) -> Self {
        self.live = live;
        self
    }

    /// Inject seeded faults into the day's record stream (a no-op when
    /// `profile.is_noop()`). Corruption is keyed by `(profile.seed,
    /// day)`, so a retry of the same day sees the same faults.
    pub fn fault(mut self, profile: Option<&'a FaultProfile>) -> Self {
        self.fault = profile;
        self
    }

    /// Which processing attempt this is for the day (0 = first pass,
    /// 1 = retry). Only consulted by the fault profile's injected-panic
    /// trigger, which fires on attempt 0 only so retries succeed.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// The worker lane index running this day, reported with every
    /// [`LivePublisher::day_tick`] publication.
    pub fn worker(mut self, worker: usize) -> Self {
        self.worker = worker;
        self
    }

    /// Which population shard this day belongs to (default 0, the first
    /// — or only — shard). Only consulted by the fault injector, whose
    /// RNG is keyed by (seed, day, shard) so each shard gets its own
    /// deterministic fault weather; shard 0 reproduces the historic
    /// single-population fault stream exactly.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// Flow rows per batch on the [`process_day_batched`] path
    /// (default [`DEFAULT_BATCH_ROWS`]; clamped to at least 1).
    /// Ignored by [`process_day`]. Results are identical at every batch
    /// size; only amortization changes.
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Attribute allocation deltas to the pipeline's stage seams as
    /// `mem.stage.*` counters and peak gauges (default off). Only
    /// effective when a metrics registry is set and the process runs
    /// under an enabled [`lockdown_obs::TrackingAlloc`]; with the
    /// tracker off the scopes read zero, so callers normally gate this
    /// on [`lockdown_obs::alloc::enable`]. Off costs nothing: no scope
    /// is ever opened.
    pub fn track_memory(mut self, on: bool) -> Self {
        self.track_memory = on;
        self
    }
}

/// One stage's instrumentation for one day: busy time and records for
/// the day's `"stage"` aggregate span, and allocation totals for its
/// `mem.stage.<name>.*` metrics. Each half is decided at construction
/// (a trace lane installed; [`PipelineOptions::track_memory`] with a
/// registry), so an unwatched call costs one branch and the meter
/// never allocates.
struct StageMeter {
    name: &'static str,
    /// Either half is on.
    on: bool,
    /// `(busy_ns, records)` accrued since the last [`emit`](Self::emit).
    busy: Option<(u64, u64)>,
    /// Allocation totals over the day's calls; `peak_net_bytes` is the
    /// largest net growth inside any single call, the stage's transient
    /// high-water mark (merged across days by `max`).
    mem: Option<ScopeDelta>,
}

/// Indices into [`DayPipeline`]'s meters, in span order.
const NORMALIZE: usize = 0;
const RESOLVER: usize = 1;
const COLLECT: usize = 2;

impl StageMeter {
    fn new(name: &'static str, traced: bool, track_memory: bool) -> Self {
        StageMeter {
            name,
            on: traced || track_memory,
            busy: traced.then_some((0, 0)),
            mem: track_memory.then(ScopeDelta::default),
        }
    }

    /// Run `f` as `records` records of this stage's work: timed only
    /// when traced, inside an [`AllocScope`] only when tracking memory.
    #[inline]
    fn measure(&mut self, records: u64, f: impl FnOnce()) {
        if !self.on {
            return f();
        }
        let scope = self.mem.is_some().then(AllocScope::begin);
        let t0 = self.busy.is_some().then(Instant::now);
        f();
        if let (Some((ns, n)), Some(t0)) = (&mut self.busy, t0) {
            *ns += t0.elapsed().as_nanos() as u64;
            *n += records;
        }
        if let (Some(m), Some(scope)) = (&mut self.mem, scope) {
            let d = scope.end();
            m.alloc_bytes += d.alloc_bytes;
            m.freed_bytes += d.freed_bytes;
            m.allocs += d.allocs;
            m.deallocs += d.deallocs;
            m.peak_net_bytes = m.peak_net_bytes.max(d.peak_net_bytes);
        }
    }

    /// Publish the busy time accrued since the last call as one
    /// `"stage"` aggregate span with a `records` attribute, then reset.
    /// No-op when untraced or when nothing accrued.
    fn emit(&mut self) {
        if let Some((ns, records)) = &mut self.busy {
            if *records > 0 {
                trace::aggregate("stage", self.name, *ns, &[("records", *records)]);
                *ns = 0;
                *records = 0;
            }
        }
    }

    /// Add the day's allocation totals to `mem.stage.<name>.*`. No-op
    /// unless tracking memory.
    fn publish(&self, reg: &MetricsRegistry) {
        let Some(m) = &self.mem else { return };
        let name = self.name;
        reg.counter(&format!("mem.stage.{name}.alloc_bytes"))
            .add(m.alloc_bytes);
        reg.counter(&format!("mem.stage.{name}.freed_bytes"))
            .add(m.freed_bytes);
        reg.counter(&format!("mem.stage.{name}.allocs"))
            .add(m.allocs);
        reg.counter(&format!("mem.stage.{name}.deallocs"))
            .add(m.deallocs);
        reg.gauge(&format!("mem.stage.{name}.peak_net_bytes"))
            .set_max(m.peak_net_bytes);
    }
}

/// Hot-path counter handles, acquired once per day at registration time
/// so the per-record cost is a `Relaxed` add, never a name lookup.
struct PipelineCounters {
    flows_in: Counter,
    flows_collected: Counter,
    bytes_collected: Counter,
    dns_queries: Counter,
    ua_sightings: Counter,
    tracker_open_peak: Gauge,
}

impl PipelineCounters {
    fn register(reg: &MetricsRegistry) -> Self {
        PipelineCounters {
            flows_in: reg.counter("pipeline.flows_in"),
            flows_collected: reg.counter("pipeline.flows_collected"),
            bytes_collected: reg.counter("pipeline.bytes_collected"),
            dns_queries: reg.counter("pipeline.dns_queries"),
            ua_sightings: reg.counter("pipeline.ua_sightings"),
            tracker_open_peak: reg.gauge("normalize.tracker.open_peak"),
        }
    }
}

/// The full §3 pipeline as a single [`DayBatchSink`]: lease events build
/// the DHCP state, DNS queries build the resolver map, and every flow
/// row runs normalize → label → collect between them, in the exact
/// per-device event order the generator emitted.
///
/// Normalize, resolver and collect each have one meter. Normalize
/// counts raw rows plus lease events, resolver counts device rows plus
/// DNS queries, and collect counts collected flows; device metadata,
/// UA sightings and `finish_day` stay outside every meter. When the
/// constructing thread has a trace lane installed,
/// [`DayPipeline::emit_stage_spans`] publishes one `"stage"`-category
/// span per stage per day.
pub struct DayPipeline<'a> {
    opts: PipelineOptions<'a>,
    collector: &'a mut StudyCollector,
    normalize: NormalizeStage,
    resolver: ResolverMap,
    counters: Option<PipelineCounters>,
    /// One meter per stage, indexed by [`NORMALIZE`], [`RESOLVER`] and
    /// [`COLLECT`].
    meters: [StageMeter; 3],
    /// Flows collected this day, driving the periodic `day_tick`
    /// publication.
    collected_total: u64,
    /// Flows collected since the last `day_tick`.
    since_tick: u32,
}

impl<'a> DayPipeline<'a> {
    /// Wire the stages up for one day, accumulating into `collector`.
    pub fn new(opts: PipelineOptions<'a>, collector: &'a mut StudyCollector) -> Self {
        let traced = trace::enabled();
        let track_memory = opts.track_memory && opts.metrics.is_some();
        DayPipeline {
            collector,
            normalize: NormalizeStage::new(
                campus::residential_pool(),
                opts.anon_key,
                DEFAULT_MAX_LEASE_SECS,
            ),
            resolver: ResolverMap::new(),
            counters: opts.metrics.map(PipelineCounters::register),
            meters: ["normalize", "resolver", "collect"]
                .map(|name| StageMeter::new(name, traced, track_memory)),
            collected_total: 0,
            since_tick: 0,
            opts,
        }
    }

    /// Publish each stage's accumulated busy time as one aggregate
    /// trace span (no-ops when tracing is off). Call while the day's
    /// umbrella span is still open so the stage spans nest under it;
    /// [`DayPipeline::finish`] also calls it as a safety net.
    pub fn emit_stage_spans(&mut self) {
        for m in &mut self.meters {
            m.emit();
        }
    }

    /// Flush day-scoped state (open social sessions), publish the
    /// stages' own statistics to the registry, and return the day's
    /// normalization statistics.
    pub fn finish(mut self) -> NormalizeStats {
        self.emit_stage_spans();
        self.collector.finish_day();
        let stats = self.normalize.stats();
        if let Some(reg) = self.opts.metrics {
            reg.counter("normalize.attributed").add(stats.attributed);
            reg.counter("normalize.unattributed")
                .add(stats.unattributed);
            reg.counter("normalize.foreign").add(stats.foreign);
            reg.counter("normalize.lease_events")
                .add(self.normalize.lease_events());
            reg.gauge("normalize.tracker.closed_peak")
                .set_max(self.normalize.tracker().closed_count() as u64);
            let labels = self.resolver.label_stats();
            reg.counter("resolver.labeled").add(labels.labeled);
            reg.counter("resolver.unlabeled").add(labels.unlabeled);
            reg.gauge("resolver.ips_peak")
                .set_max(self.resolver.ip_count() as u64);
            for m in &self.meters {
                m.publish(reg);
            }
        }
        stats
    }

    /// Apply one row-tagged group of lease events: device metadata
    /// first, then tracker state, sampling the live-binding peak once
    /// per group. Metadata and tracker state are disjoint, so grouping
    /// the two sweeps is invisible next to the interleaved per-record
    /// order, and `max` over per-event samples makes the peak gauge
    /// bit-identical to sampling after every event.
    fn apply_leases(&mut self, group: &[(u32, LeaseEvent)]) {
        for (_, event) in group {
            if event.action == dhcplog::LeaseAction::Assign {
                let dev = DeviceId::anonymize(event.mac, self.opts.anon_key);
                self.collector.observe_device_meta(
                    dev,
                    event.mac.oui(),
                    event.mac.is_locally_administered(),
                );
            }
        }
        let track_peak = self.counters.is_some();
        let mut peak = 0u64;
        self.meters[NORMALIZE].measure(group.len() as u64, || {
            for (_, event) in group {
                self.normalize.record_lease(event);
                if track_peak {
                    peak = peak.max(self.normalize.tracker().open_count() as u64);
                }
            }
        });
        if let Some(c) = &self.counters {
            c.tracker_open_peak.set_max(peak);
        }
    }

    /// Apply one row-tagged group of DNS queries to the resolver map,
    /// one meter touch for the whole group.
    fn apply_dns(&mut self, group: &[(u32, DnsQuery)]) {
        self.meters[RESOLVER].measure(group.len() as u64, || {
            for (_, q) in group {
                self.resolver.record(q);
            }
        });
    }

    /// Drive the batch's raw rows up to `hi` (exclusive) through
    /// normalize → label → collect, then publish at most one `day_tick`
    /// for the segment. Every per-record instrumentation touch is
    /// amortized to once per segment; the tick fires between segments,
    /// not mid-segment (so up to a segment late at large batch sizes,
    /// exactly on the interval at one row per batch) but always reports
    /// the exact collected total.
    fn process_rows(&mut self, flows: &mut FlowBatch, hi: usize) {
        flows.set_raw_limit(hi);
        let dev_lo = flows.dev_len();
        let raw = flows.raw_window().len() as u64;
        self.meters[NORMALIZE].measure(raw, || self.normalize.push_batch(flows));
        let dev_hi = flows.dev_len();
        let seg = (dev_hi - dev_lo) as u64;
        self.meters[RESOLVER].measure(seg, || self.resolver.push_batch(flows));
        if seg == 0 {
            return;
        }
        if let Some(c) = &self.counters {
            c.flows_collected.add(seg);
        }
        self.collected_total += seg;
        let tally_bytes = self.counters.is_some();
        self.meters[COLLECT].measure(seg, || {
            let mut seg_bytes = 0u64;
            for i in dev_lo..dev_hi {
                let label = flows.label(i);
                let lf = LabeledFlow {
                    flow: flows.dev_row(i),
                    domain: (label != NO_LABEL).then_some(DomainId(label)),
                };
                if tally_bytes {
                    seg_bytes += lf.flow.total_bytes();
                }
                self.collector
                    .observe_flow(self.opts.ctx, self.opts.table, self.opts.day, &lf);
            }
            if let Some(c) = &self.counters {
                c.bytes_collected.add(seg_bytes);
            }
        });
        let since = u64::from(self.since_tick) + seg;
        let tick = u64::from(DEFAULT_LIVE_TICK);
        if since >= tick {
            self.since_tick = (since % tick) as u32;
            if let Some(live) = self.opts.live {
                live.day_tick(self.opts.worker, self.collected_total, self.opts.metrics);
            }
        } else {
            self.since_tick = since as u32;
        }
    }
}

/// The batched hot path: one [`DayBatch`] at a time, walking flow rows
/// segment by segment between the row-tagged lease/DNS groups so every
/// record observes exactly the stage state it would have seen had the
/// events been applied one at a time in generation order. UA sightings
/// apply at batch end (sound because a batch never splits one device's
/// events across a UA sighting — see [`campussim::batch`]); per-record
/// counters become per-batch adds.
impl DayBatchSink for DayPipeline<'_> {
    fn day_batch(&mut self, batch: &mut DayBatch) {
        let n = batch.flows.raw_len();
        if let Some(c) = &self.counters {
            c.flows_in.add(n as u64);
            c.dns_queries.add(batch.dns.len() as u64);
            c.ua_sightings.add(batch.ua.len() as u64);
        }
        let (mut row, mut li, mut di) = (0usize, 0usize, 0usize);
        while row < n || li < batch.leases.len() || di < batch.dns.len() {
            let next_lease = batch.leases.get(li).map_or(n, |&(t, _)| t as usize);
            let next_dns = batch.dns.get(di).map_or(n, |&(t, _)| t as usize);
            let boundary = next_lease.min(next_dns).min(n);
            if row < boundary {
                self.process_rows(&mut batch.flows, boundary);
                row = boundary;
            }
            if li < batch.leases.len() && next_lease == boundary {
                let start = li;
                while li < batch.leases.len() && batch.leases[li].0 as usize == boundary {
                    li += 1;
                }
                self.apply_leases(&batch.leases[start..li]);
            }
            if di < batch.dns.len() && next_dns == boundary {
                let start = di;
                while di < batch.dns.len() && batch.dns[di].0 as usize == boundary {
                    di += 1;
                }
                self.apply_dns(&batch.dns[start..di]);
            }
        }
        for s in &batch.ua {
            self.collector.observe_ua(s.device, s.ua);
        }
    }
}

/// Process one day by streaming the generator into a [`Batcher`] and
/// driving [`FlowBatch`]es of `opts.batch_rows` flows through the
/// stages in bulk — the hot path. Bit-identical to [`process_day`] over
/// [`CampusSim::day_trace`] at every batch size, seed, and thread
/// count: the batch walk replays the exact per-device event order,
/// fault injection happens per record upstream of the batcher (the
/// same RNG draw order at any batch size), and every counter receives
/// the same totals. Batch size changes only amortization — stage
/// dispatch, busy-time sampling, counter updates, and live ticks cost
/// once per batch or segment instead of once per record.
pub fn process_day_batched(
    opts: PipelineOptions<'_>,
    collector: &mut StudyCollector,
    sim: &CampusSim,
) -> NormalizeStats {
    let day = opts.day;
    let metrics = opts.metrics;
    let batch_rows = opts.batch_rows;
    let fault = opts.fault.filter(|p| !p.is_noop());
    if let Some(profile) = fault {
        if profile.should_panic(day, opts.attempt) {
            panic!("injected fault-profile panic on day {}", day.0);
        }
    }
    let mut pipeline = DayPipeline::new(opts, collector);
    let gen_stats = {
        // The streaming phase gets its own span; stage aggregates are
        // emitted before it closes so they nest as its children.
        let stream_span = trace::span("stream_day");
        let gen_stats = {
            let mut batcher = Batcher::new(&mut pipeline, batch_rows);
            let gen_stats = match fault {
                Some(profile) => {
                    let mut sink = FaultingSink::for_shard(profile, day, opts.shard, &mut batcher);
                    let gen_stats = sim.stream_day(day, &mut sink);
                    let fault_stats = sink.stats();
                    if let Some(reg) = metrics {
                        record_fault_stats(reg, &fault_stats);
                    }
                    gen_stats
                }
                None => sim.stream_day(day, &mut batcher),
            };
            batcher.finish();
            gen_stats
        };
        pipeline.emit_stage_spans();
        stream_span.set_attr("flows", gen_stats.flows);
        gen_stats
    };
    if let Some(reg) = metrics {
        reg.counter("gen.devices_present")
            .add(gen_stats.devices_present);
        reg.counter("gen.devices_active")
            .add(gen_stats.devices_active);
        reg.counter("gen.flows").add(gen_stats.flows);
        reg.counter("gen.dns_queries").add(gen_stats.dns_queries);
        reg.counter("gen.lease_events").add(gen_stats.lease_events);
        reg.counter("gen.ua_sightings").add(gen_stats.ua_sightings);
    }
    let _finish_span = trace::span("finish_day");
    pipeline.finish()
}

/// Publish a day's fault-injection accounting under the conventional
/// `pipeline.errors.*` (records lost or repaired before a stage saw
/// them) and `assembler.malformed.*` (the frame-level loss taxonomy)
/// counters. Merged across days and workers like every other counter.
pub fn record_fault_stats(reg: &MetricsRegistry, stats: &FaultStats) {
    reg.counter("pipeline.errors.flows_dropped")
        .add(stats.flows_dropped);
    reg.counter("pipeline.errors.flows_repaired")
        .add(stats.flows_repaired);
    reg.counter("pipeline.errors.leases_dropped")
        .add(stats.leases_dropped);
    reg.counter("pipeline.errors.leases_repaired")
        .add(stats.leases_repaired);
    reg.counter("pipeline.errors.dns_answers_dropped")
        .add(stats.dns_answers_dropped);
    reg.counter("pipeline.errors.dns_duplicated")
        .add(stats.dns_duplicated);
    reg.counter("assembler.malformed.frames_truncated")
        .add(stats.frames_truncated);
    reg.counter("assembler.malformed.frames_garbled")
        .add(stats.frames_garbled);
    reg.counter("assembler.malformed.frames_skipped")
        .add(stats.frames_skipped);
    reg.counter("assembler.malformed.pcap_truncated")
        .add(stats.pcap_truncated);
}

/// Process one day of raw trace through the full pipeline into the
/// collector. Returns the normalization statistics for the day.
pub fn process_day(
    opts: PipelineOptions<'_>,
    collector: &mut StudyCollector,
    trace: &DayTrace,
) -> NormalizeStats {
    // Stage 2 inputs: the day's lease log.
    let leases = LeaseIndex::build(&trace.leases, DEFAULT_MAX_LEASE_SECS);

    // Device hardware metadata is visible at this stage (the pipeline
    // sees raw MACs while normalizing, §3), and only the anonymized
    // token flows onward.
    for ev in &trace.leases {
        if ev.action == dhcplog::LeaseAction::Assign {
            let dev = DeviceId::anonymize(ev.mac, opts.anon_key);
            collector.observe_device_meta(dev, ev.mac.oui(), ev.mac.is_locally_administered());
        }
    }

    // Stage 3 inputs: the day's DNS log.
    let mut resolver = ResolverMap::new();
    for q in &trace.dns {
        resolver.record(q);
    }

    // Stages 2+3 over the flow stream.
    let mut normalizer = Normalizer::new(&leases, campus::residential_pool(), opts.anon_key);
    let mut labeled: Vec<LabeledFlow> = Vec::with_capacity(trace.flows.len());
    for f in &trace.flows {
        if let Some(df) = normalizer.normalize(f) {
            labeled.push(resolver.label(df));
        }
    }

    // User-Agent sightings ride HTTP metadata past the same stage.
    for s in &trace.ua {
        collector.observe_ua(s.device, s.ua);
    }

    // Stage 4: collection.
    collector.observe_day(opts.ctx, opts.table, opts.day, &labeled);

    let stats = normalizer.stats();
    if let Some(reg) = opts.metrics {
        reg.counter("pipeline.flows_in")
            .add(trace.flows.len() as u64);
        reg.counter("pipeline.flows_collected")
            .add(labeled.len() as u64);
        reg.counter("pipeline.dns_queries")
            .add(trace.dns.len() as u64);
        reg.counter("pipeline.ua_sightings")
            .add(trace.ua.len() as u64);
        reg.counter("normalize.attributed").add(stats.attributed);
        reg.counter("normalize.unattributed")
            .add(stats.unattributed);
        reg.counter("normalize.foreign").add(stats.foreign);
        reg.counter("normalize.lease_events")
            .add(trace.leases.len() as u64);
        reg.gauge("resolver.ips_peak")
            .set_max(resolver.ip_count() as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use campussim::{CampusSim, SimConfig};
    use lockdown_obs::trace::AttrValue;
    use std::collections::BTreeSet;

    fn sim_1pct() -> CampusSim {
        CampusSim::new(SimConfig {
            scale: 0.01,
            ..Default::default()
        })
    }

    #[test]
    fn pipeline_attributes_every_generated_flow() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let mut collector = StudyCollector::new();
        let day = Day(10);
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        let stats = process_day(opts, &mut collector, &trace);
        assert_eq!(stats.unattributed, 0, "{stats:?}");
        assert_eq!(stats.foreign, 0);
        assert_eq!(stats.attributed as usize, trace.flows.len());
        assert!(collector.volume.device_count() > 0);
    }

    #[test]
    fn pipeline_identity_matches_generator_ground_truth() {
        // The device ids the pipeline derives via DHCP + anonymization
        // must be exactly the generator's ground-truth ids.
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let mut collector = StudyCollector::new();
        let day = Day(20);
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        process_day(opts, &mut collector, &trace);
        let truth: std::collections::HashSet<DeviceId> =
            sim.population().devices.iter().map(|d| d.id).collect();
        for dev in collector.devices() {
            assert!(truth.contains(dev), "unknown device {dev}");
        }
    }

    /// Per-device Feb/Mar volumes of two collectors must agree exactly.
    fn assert_same_volumes(a: &StudyCollector, b: &StudyCollector, label: &str) {
        assert_eq!(
            a.volume.device_count(),
            b.volume.device_count(),
            "device count: {label}"
        );
        for (slot, &dev) in a.devices().iter().enumerate() {
            let theirs = b.slot(dev).expect("device in both");
            for m in [nettrace::time::Month::Feb, nettrace::time::Month::Mar] {
                assert_eq!(
                    a.volume.month_total(slot, m),
                    b.volume.month_total(theirs, m),
                    "volume divergence for {dev}: {label}"
                );
            }
        }
    }

    #[test]
    fn batched_matches_oracle_for_a_day() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(47); // shutdown day: mixed present/absent devices
        let trace = sim.day_trace(day);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        let mut oracle = StudyCollector::new();
        let oracle_stats = process_day(opts, &mut oracle, &trace);
        let mut batched = StudyCollector::new();
        let batch_stats = process_day_batched(opts, &mut batched, &sim);
        assert_eq!(oracle_stats, batch_stats);
        assert_same_volumes(&oracle, &batched, "oracle vs batched");
    }

    /// The deterministic (non-timing) metrics every batch size must agree
    /// on, bit for bit.
    const DETERMINISTIC_COUNTERS: &[&str] = &[
        "pipeline.flows_in",
        "pipeline.flows_collected",
        "pipeline.bytes_collected",
        "pipeline.dns_queries",
        "pipeline.ua_sightings",
        "normalize.attributed",
        "normalize.unattributed",
        "normalize.foreign",
        "normalize.lease_events",
        "resolver.labeled",
        "resolver.unlabeled",
        "gen.devices_present",
        "gen.devices_active",
        "gen.flows",
        "gen.dns_queries",
        "gen.lease_events",
        "gen.ua_sightings",
    ];
    const DETERMINISTIC_GAUGES: &[&str] = &[
        "normalize.tracker.open_peak",
        "normalize.tracker.closed_peak",
        "resolver.ips_peak",
    ];

    fn assert_same_counters(a: &MetricsRegistry, b: &MetricsRegistry, label: &str) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        for name in DETERMINISTIC_COUNTERS {
            assert_eq!(
                sa.counter(name),
                sb.counter(name),
                "{label}: counter {name}"
            );
        }
        for name in DETERMINISTIC_GAUGES {
            assert_eq!(sa.gauge(name), sb.gauge(name), "{label}: gauge {name}");
        }
    }

    #[test]
    fn batched_counters_are_batch_size_invariant() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(47); // shutdown day: mixed present/absent devices

        // One row per batch: every record is its own segment, the
        // per-record reference.
        let reg_1 = MetricsRegistry::new();
        let mut one = StudyCollector::new();
        let one_stats = process_day_batched(
            PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
                .metrics(&reg_1)
                .batch_rows(1),
            &mut one,
            &sim,
        );
        // Sizes: a mid-device odd cut, the default, and larger-than-day
        // (one batch).
        for rows in [997, DEFAULT_BATCH_ROWS, usize::MAX] {
            let reg_b = MetricsRegistry::new();
            let mut batched = StudyCollector::new();
            let batch_stats = process_day_batched(
                PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
                    .metrics(&reg_b)
                    .batch_rows(rows),
                &mut batched,
                &sim,
            );
            let label = format!("batch_rows={rows}");
            assert_eq!(one_stats, batch_stats, "stats at {label}");
            assert_same_counters(&reg_1, &reg_b, &label);
            assert_same_volumes(&one, &batched, &label);
        }
    }

    #[test]
    fn faulted_stream_is_batch_size_invariant() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(10);
        let profile = campussim::FaultProfile::new()
            .frame_corruption(0.05)
            .dns_answer_drops(0.05);
        // The fault layer sits upstream of the batcher and draws its
        // RNG per record, so the corrupted stream — and therefore every
        // statistic — is identical at any batch size.
        let faulted = |rows: usize| {
            let reg = MetricsRegistry::new();
            let mut collector = StudyCollector::new();
            let stats = process_day_batched(
                PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
                    .metrics(&reg)
                    .fault(Some(&profile))
                    .batch_rows(rows),
                &mut collector,
                &sim,
            );
            (stats, reg)
        };
        let (one_stats, reg_1) = faulted(1);
        let (batch_stats, reg_b) = faulted(513);
        assert_eq!(one_stats, batch_stats);
        assert_same_counters(&reg_1, &reg_b, "faulted");
        for name in [
            "pipeline.errors.flows_dropped",
            "pipeline.errors.leases_dropped",
            "pipeline.errors.dns_answers_dropped",
            "pipeline.errors.dns_duplicated",
        ] {
            assert_eq!(
                reg_1.snapshot().counter(name),
                reg_b.snapshot().counter(name),
                "fault counter {name}"
            );
        }
    }

    #[test]
    fn fault_profile_drops_are_accounted() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(10);
        let reg = MetricsRegistry::new();
        let profile = campussim::FaultProfile::new()
            .frame_corruption(0.05)
            .dns_answer_drops(0.05);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
            .metrics(&reg)
            .fault(Some(&profile));
        let mut collector = StudyCollector::new();
        process_day_batched(opts, &mut collector, &sim);
        let snap = reg.snapshot();
        assert!(snap.counter("pipeline.errors.flows_dropped") > 0);
        // Every generated flow is either fed to the pipeline or counted
        // as dropped by the fault layer — nothing vanishes silently.
        assert_eq!(
            snap.counter("gen.flows"),
            snap.counter("pipeline.flows_in") + snap.counter("pipeline.errors.flows_dropped")
        );
        // The frame-level loss taxonomy sums to the dropped-flow count.
        assert_eq!(
            snap.counter("assembler.malformed.frames_truncated")
                + snap.counter("assembler.malformed.frames_garbled")
                + snap.counter("assembler.malformed.frames_skipped")
                + snap.counter("assembler.malformed.pcap_truncated"),
            snap.counter("pipeline.errors.flows_dropped")
        );
    }

    #[test]
    fn noop_fault_profile_is_invisible() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(10);
        let profile = campussim::FaultProfile::new();
        let reg = MetricsRegistry::new();
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
            .metrics(&reg)
            .fault(Some(&profile));
        let mut faulted = StudyCollector::new();
        let faulted_stats = process_day_batched(opts, &mut faulted, &sim);
        let mut clean = StudyCollector::new();
        let clean_stats = process_day_batched(
            PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key),
            &mut clean,
            &sim,
        );
        assert_eq!(faulted_stats, clean_stats);
        assert_eq!(
            reg.snapshot().counter("pipeline.errors.flows_dropped"),
            0,
            "no-op profile must not even register fault counters"
        );
    }

    #[test]
    fn day_tick_publishes_at_the_configured_interval() {
        // Twice the usual test campus, so a February day collects
        // between one and two tick intervals of flows.
        let sim = CampusSim::new(SimConfig::at_scale(0.02));
        let ctx = PipelineCtx::study();
        let day = Day(14);
        let live = LivePublisher::new();
        // One row per batch makes every segment one record long, so the
        // tick lands exactly on the interval.
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
            .live(Some(&live))
            .worker(3)
            .batch_rows(1);
        let mut collector = StudyCollector::new();
        let stats = process_day_batched(opts, &mut collector, &sim);
        assert_eq!(stats.attributed, 12_737, "the day this test is sized for");
        // The worker row holds the last tick's total: one tick at 8,192.
        // A tick at half the interval would leave 12,288 there, one at
        // twice the interval 0.
        let p = live.progress();
        assert_eq!(p.workers.len(), 1);
        assert_eq!(p.workers[0].worker, 3);
        assert_eq!(p.workers[0].day_flows, u64::from(DEFAULT_LIVE_TICK));
    }

    #[test]
    fn metrics_options_are_honored() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(10);
        let reg = MetricsRegistry::new();
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key)
            .metrics(&reg);
        let mut collector = StudyCollector::new();
        let stats = process_day_batched(opts, &mut collector, &sim);
        let snap = reg.snapshot();
        // Every generated flow went in, was attributed, and came out.
        assert_eq!(snap.counter("gen.flows"), snap.counter("pipeline.flows_in"));
        assert_eq!(snap.counter("normalize.attributed"), stats.attributed);
        assert_eq!(
            snap.counter("pipeline.flows_collected"),
            stats.attributed,
            "{snap:?}"
        );
        // Labeling stage saw every attributed flow.
        assert_eq!(
            snap.counter("resolver.labeled") + snap.counter("resolver.unlabeled"),
            stats.attributed
        );
        assert_eq!(
            snap.counter("gen.lease_events"),
            snap.counter("normalize.lease_events")
        );
        assert!(snap.gauge("resolver.ips_peak") > 0);
    }

    const METERED: [&str; 3] = ["normalize", "resolver", "collect"];

    /// The `records` attribute of each `"stage"` span of each metered
    /// stage in `t`.
    fn stage_records(t: &lockdown_obs::Trace) -> [Vec<AttrValue>; 3] {
        METERED.map(|name| {
            let spans = t
                .spans
                .iter()
                .filter(|s| s.cat == "stage" && s.name == name);
            let attrs = spans.flat_map(|s| s.attrs.iter().filter(|(k, _)| *k == "records"));
            attrs.map(|&(_, v)| v).collect()
        })
    }

    #[test]
    fn traced_day_emits_one_stage_span_per_metered_stage() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let reg = MetricsRegistry::new();
        let rec = lockdown_obs::SpanRecorder::new();
        {
            let _lane = rec.install(0, "w");
            let _day = trace::span("day");
            let opts = PipelineOptions::new(
                &ctx,
                sim.directory().table(),
                Day(10),
                sim.config().anon_key,
            )
            .metrics(&reg);
            process_day_batched(opts, &mut StudyCollector::new(), &sim);
        }
        let snap = reg.snapshot();
        // Normalize: raw rows plus lease events. Resolver: device rows
        // plus DNS queries. Collect: collected flows.
        let collected = snap.counter("pipeline.flows_collected");
        let expect = [
            snap.counter("pipeline.flows_in") + snap.counter("normalize.lease_events"),
            collected + snap.counter("pipeline.dns_queries"),
            collected,
        ];
        assert!(expect.iter().all(|&n| n > 0), "{expect:?}");
        let expect = expect.map(|n| vec![AttrValue::U64(n)]);
        assert_eq!(stage_records(&rec.finish()), expect);
    }

    #[test]
    fn untraced_construction_never_emits() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let day = Day(10);
        let opts = PipelineOptions::new(&ctx, sim.directory().table(), day, sim.config().anon_key);
        let mut collector = StudyCollector::new();
        // Built before any lane exists: the meters stay off for the
        // whole day, even once a lane appears.
        let mut pipeline = DayPipeline::new(opts, &mut collector);
        let rec = lockdown_obs::SpanRecorder::new();
        {
            let _lane = rec.install(0, "w");
            let _day = trace::span("day");
            let mut batcher = Batcher::new(&mut pipeline, DEFAULT_BATCH_ROWS);
            sim.stream_day(day, &mut batcher);
            batcher.finish();
            pipeline.emit_stage_spans();
            assert!(pipeline.finish().attributed > 0);
        }
        assert_eq!(stage_records(&rec.finish()), [vec![], vec![], vec![]]);
    }

    #[test]
    fn track_memory_publishes_exactly_the_metered_stages() {
        let sim = sim_1pct();
        let ctx = PipelineCtx::study();
        let mem_metrics = |track: bool| {
            let reg = MetricsRegistry::new();
            let opts = PipelineOptions::new(
                &ctx,
                sim.directory().table(),
                Day(10),
                sim.config().anon_key,
            )
            .metrics(&reg)
            .track_memory(track);
            process_day_batched(opts, &mut StudyCollector::new(), &sim);
            let snap = reg.snapshot();
            let names = snap.counters.into_keys().chain(snap.gauges.into_keys());
            names
                .filter(|k| k.starts_with("mem.stage."))
                .collect::<Vec<_>>()
        };
        // Four counters and the peak gauge for each metered stage.
        let names = mem_metrics(true);
        let stages: BTreeSet<&str> = names.iter().filter_map(|k| k.split('.').nth(2)).collect();
        assert_eq!(stages, BTreeSet::from(METERED));
        assert_eq!(names.len(), 5 * METERED.len(), "{names:?}");
        assert!(mem_metrics(false).is_empty());
    }
}
