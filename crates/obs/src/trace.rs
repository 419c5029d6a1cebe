//! Span-based tracing: where wall-clock time goes inside a run.
//!
//! The metrics registry answers *how many* (records, bytes, flushes);
//! this module answers *how long and where* — which stage, which day,
//! which worker — the way measurement pipelines in the literature are
//! profiled end to end. The design mirrors the metrics layer's
//! zero-cost-when-off discipline:
//!
//! * A [`SpanRecorder`] is the run-scoped collector. Each thread that
//!   wants its work on the timeline [`install`](SpanRecorder::install)s
//!   a **lane** (a `tid` in the exported trace); the returned
//!   [`LaneGuard`] owns a thread-local span stack and a private event
//!   buffer, so recording a span never takes a lock. Buffers are handed
//!   to the recorder when the guard drops and merged deterministically
//!   by [`SpanRecorder::finish`].
//! * [`span`] opens a span on the calling thread's current lane and
//!   returns a [`SpanGuard`] that closes it on drop — guards nest, close
//!   in LIFO order even during panic unwinding (drop order), and carry
//!   attributes like day index or record counts.
//! * [`aggregate`] records a *synthetic* span for accumulated busy time
//!   (e.g. "this day spent 1.4 ms inside the normalize stage") without
//!   paying a per-record span. Aggregates are placed sequentially under
//!   the currently open span so exported timelines stay non-overlapping.
//! * With no lane installed every entry point is a no-op behind one
//!   thread-local check — the same `Option`-handle pattern as the
//!   metrics registry, so instrumentation can stay in the code
//!   permanently.
//!
//! [`SpanRecorder::finish`] yields a [`Trace`], which exports to Chrome
//! trace-event JSON ([`Trace::to_chrome_json`], loadable in Perfetto or
//! `chrome://tracing`) and collapsed-stack text
//! ([`Trace::to_collapsed`], the input format of flamegraph tooling).
//!
//! ```
//! use lockdown_obs::trace::{self, SpanRecorder};
//!
//! let recorder = SpanRecorder::new();
//! {
//!     let _lane = recorder.install(0, "worker 0");
//!     let day = trace::span("day").attr("day", 17);
//!     {
//!         let _stream = trace::span("stream_day");
//!         trace::aggregate("stage", "normalize", 1_000, &[("records", 42)]);
//!     }
//!     day.set_attr("flows", 42);
//! }
//! let t = recorder.finish();
//! assert_eq!(t.spans.len(), 3);
//! assert!(t.to_chrome_json().contains("\"name\":\"normalize\""));
//! ```

use crate::json::{self, Encode};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Conventional lane id for the orchestrating (non-worker) thread.
/// Installing the same lane id twice is allowed — the buffers merge
/// into one exported timeline row — which lets a binary's `main` and a
/// library's orchestration phase share a lane without coordination.
pub const MAIN_LANE: u32 = u32::MAX;

/// A span attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer (day index, record count, …).
    U64(u64),
    /// A static string (mode names, not free-form data).
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl Encode for AttrValue {
    fn encode(&self, out: &mut String) {
        match self {
            AttrValue::U64(n) => n.encode(out),
            AttrValue::Str(t) => t.encode(out),
        }
    }
}

/// Nanoseconds written as fractional microseconds (`µs.ns`), the Chrome
/// trace's time unit at full precision.
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// One finished span on one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static so the hot path never allocates for it).
    pub name: &'static str,
    /// Category: `"task"` for real intervals, `"stage"` for synthetic
    /// busy-time aggregates.
    pub cat: &'static str,
    /// Lane (exported as the Chrome trace `tid`).
    pub lane: u32,
    /// Nesting depth at close time (0 = top level of its lane).
    pub depth: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Total duration of direct children (for self-time computation).
    pub child_ns: u64,
    /// Ancestor span names, root first (excluding this span).
    pub path: Vec<&'static str>,
    /// Attributes attached while the span was open.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// End of the span, nanoseconds since the recorder epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Duration not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// One lane's buffered output, surrendered when its guard drops.
struct LaneLog {
    lane: u32,
    name: String,
    spans: Vec<SpanEvent>,
}

struct Shared {
    epoch: Instant,
    lanes: Mutex<Vec<LaneLog>>,
}

/// The run-scoped span collector. Clone freely — clones share one
/// buffer set and one epoch.
#[derive(Clone)]
pub struct SpanRecorder {
    shared: Arc<Shared>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A fresh recorder; its creation instant is the trace epoch.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Attach the calling thread to this recorder as `lane` (shown as
    /// `name` in exports). Until the returned [`LaneGuard`] drops,
    /// [`span`]/[`aggregate`] calls on this thread record here. Installs
    /// nest: a second install shadows the first until its guard drops.
    #[must_use = "spans are only recorded while the LaneGuard is alive"]
    pub fn install(&self, lane: u32, name: &str) -> LaneGuard {
        ACTIVE.with(|a| {
            a.borrow_mut().push(LaneCtx {
                shared: Arc::clone(&self.shared),
                lane,
                name: name.to_string(),
                stack: Vec::new(),
                done: Vec::new(),
            })
        });
        LaneGuard {
            _not_send: PhantomData,
        }
    }

    /// Collect every surrendered lane buffer into a [`Trace`]. Lanes
    /// still installed on live threads are *not* included — drop their
    /// guards first. Merging is deterministic regardless of thread
    /// count or completion order: spans sort by (lane, start, depth,
    /// name), and the per-lane buffers themselves are in close order.
    pub fn finish(&self) -> Trace {
        let lanes = std::mem::take(
            &mut *self
                .shared
                .lanes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let mut lane_names = BTreeMap::new();
        let mut spans = Vec::new();
        for log in lanes {
            lane_names.entry(log.lane).or_insert(log.name);
            spans.extend(log.spans);
        }
        spans.sort_by(|a, b| {
            (a.lane, a.start_ns, a.depth, a.name).cmp(&(b.lane, b.start_ns, b.depth, b.name))
        });
        Trace { spans, lane_names }
    }
}

struct LaneCtx {
    shared: Arc<Shared>,
    lane: u32,
    name: String,
    stack: Vec<OpenSpan>,
    done: Vec<SpanEvent>,
}

struct OpenSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Placement cursor for synthetic aggregate children: starts at the
    /// span's own start and advances past every closed child, so
    /// aggregates tile the timeline without overlapping real spans.
    agg_cursor_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl LaneCtx {
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn close_top(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else { return };
        let dur_ns = now_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
            parent.agg_cursor_ns = parent.agg_cursor_ns.max(now_ns);
        }
        let path: Vec<&'static str> = self.stack.iter().map(|o| o.name).collect();
        self.done.push(SpanEvent {
            name: open.name,
            cat: open.cat,
            lane: self.lane,
            depth: self.stack.len() as u32,
            start_ns: open.start_ns,
            dur_ns,
            child_ns: open.child_ns,
            path,
            attrs: open.attrs,
        });
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<LaneCtx>> = const { RefCell::new(Vec::new()) };
}

/// Detaches the lane installed by [`SpanRecorder::install`] on drop,
/// closing any spans still open (e.g. after a panic was caught above
/// this frame) and surrendering the lane's buffer to the recorder.
pub struct LaneGuard {
    // Lane contexts live in a thread-local stack; dropping the guard on
    // another thread would pop someone else's lane.
    _not_send: PhantomData<*const ()>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            let Some(mut ctx) = a.borrow_mut().pop() else {
                return;
            };
            let now = ctx.now_ns();
            while !ctx.stack.is_empty() {
                ctx.close_top(now);
            }
            let log = LaneLog {
                lane: ctx.lane,
                name: std::mem::take(&mut ctx.name),
                spans: std::mem::take(&mut ctx.done),
            };
            ctx.shared
                .lanes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(log);
        });
    }
}

/// True if the calling thread currently has a lane installed — i.e.
/// whether span recording is live. Instrumented code uses this to gate
/// timing work that only feeds the tracer.
pub fn enabled() -> bool {
    ACTIVE.with(|a| !a.borrow().is_empty())
}

/// Open a span named `name` (category `"task"`) on the current lane.
/// No-op (and allocation-free) when no lane is installed.
#[must_use = "the span closes when the returned guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat("task", name)
}

/// [`span`] with an explicit category.
#[must_use = "the span closes when the returned guard drops"]
pub fn span_cat(cat: &'static str, name: &'static str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(ctx) = a.last_mut() else {
            return SpanGuard {
                live: false,
                index: 0,
                _not_send: PhantomData,
            };
        };
        let start_ns = ctx.now_ns();
        ctx.stack.push(OpenSpan {
            name,
            cat,
            start_ns,
            child_ns: 0,
            agg_cursor_ns: start_ns,
            attrs: Vec::new(),
        });
        SpanGuard {
            live: true,
            index: ctx.stack.len() - 1,
            _not_send: PhantomData,
        }
    })
}

/// Record a synthetic span of `busy_ns` accumulated busy time as a
/// child of the currently open span. Used for per-record work that is
/// far too hot for a span per record: a stage sums its own busy time
/// and emits one aggregate per day. Placement is sequential under the
/// parent — a cursor starts at the parent's start and advances past
/// every closed child and every aggregate — so aggregates from several
/// stages tile rather than overlap. No-op when no lane is installed.
pub fn aggregate(
    cat: &'static str,
    name: &'static str,
    busy_ns: u64,
    attrs: &[(&'static str, u64)],
) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(ctx) = a.last_mut() else { return };
        let (start_ns, depth, path) = match ctx.stack.last_mut() {
            Some(parent) => {
                let start = parent.agg_cursor_ns;
                parent.agg_cursor_ns += busy_ns;
                parent.child_ns += busy_ns;
                let path: Vec<&'static str> = ctx.stack.iter().map(|o| o.name).collect();
                (start, ctx.stack.len() as u32, path)
            }
            None => {
                let now = ctx.now_ns();
                (now.saturating_sub(busy_ns), 0, Vec::new())
            }
        };
        let lane = ctx.lane;
        ctx.done.push(SpanEvent {
            name,
            cat,
            lane,
            depth,
            start_ns,
            dur_ns: busy_ns,
            child_ns: 0,
            path,
            attrs: attrs.iter().map(|&(k, v)| (k, AttrValue::U64(v))).collect(),
        });
    });
}

/// Closes its span on drop. Guards close in LIFO order by construction
/// (Rust drop order), including during panic unwinding; a guard that
/// somehow outlives deeper guards closes the strays first, so the stack
/// can never interleave.
pub struct SpanGuard {
    live: bool,
    index: usize,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attach an attribute; builder-style for use at open time.
    pub fn attr(self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attach an attribute to the still-open span (e.g. a record count
    /// known only at the end of the work).
    pub fn set_attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if !self.live {
            return;
        }
        let value = value.into();
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(ctx) = a.last_mut() else { return };
            if let Some(open) = ctx.stack.get_mut(self.index) {
                open.attrs.push((key, value));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(ctx) = a.last_mut() else { return };
            let now = ctx.now_ns();
            while ctx.stack.len() > self.index {
                ctx.close_top(now);
            }
        });
    }
}

/// A finished, merged trace: every span from every surrendered lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All spans, sorted by (lane, start, depth, name).
    pub spans: Vec<SpanEvent>,
    lane_names: BTreeMap<u32, String>,
}

impl Trace {
    /// No spans recorded at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The display name a lane was installed with.
    pub fn lane_name(&self, lane: u32) -> Option<&str> {
        self.lane_names.get(&lane).map(String::as_str)
    }

    /// Trace horizon: latest span end minus earliest span start. This
    /// is the run's measured wall time as seen by the tracer.
    pub fn wall_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min();
        let end = self.spans.iter().map(SpanEvent::end_ns).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        }
    }

    /// Sum of top-level (depth-0) span durations across all lanes.
    /// When at most one span is open at any instant (e.g. a
    /// single-threaded run), this approximates [`Trace::wall_ns`] from
    /// below; the gap is uninstrumented time.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Total duration by span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns;
        }
        out
    }

    /// Span count by name.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Total busy time of `"stage"`-category aggregates, by stage name.
    pub fn stage_totals_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.cat == "stage") {
            *out.entry(s.name).or_insert(0) += s.dur_ns;
        }
        out
    }

    /// Export as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object format), loadable in Perfetto and `chrome://tracing`.
    /// Spans become `ph:"X"` complete events with microsecond
    /// timestamps (fractional, so nanosecond precision survives); lanes
    /// become `tid`s with `thread_name` metadata events.
    pub fn to_chrome_json(&self) -> String {
        json::object(|o| {
            o.field("displayTimeUnit", "ms")
                .array("traceEvents", |events| {
                    for (&lane, name) in &self.lane_names {
                        events.object(|e| {
                            e.field("ph", "M")
                                .field("pid", 1u32)
                                .field("tid", lane)
                                .field("name", "thread_name")
                                .object("args", |a| {
                                    a.field("name", name);
                                });
                        });
                    }
                    for s in &self.spans {
                        events.object(|e| {
                            e.field("ph", "X")
                                .field("pid", 1u32)
                                .field("tid", s.lane)
                                .field("name", s.name)
                                .field("cat", s.cat)
                                .num("ts", Micros(s.start_ns))
                                .num("dur", Micros(s.dur_ns))
                                .object("args", |a| {
                                    for (k, v) in &s.attrs {
                                        a.field(k, v);
                                    }
                                });
                        });
                    }
                });
        })
    }

    /// Export as collapsed-stack text (`frame;frame;frame value`, one
    /// line per unique stack, value = self time in microseconds) — the
    /// input format of `flamegraph.pl` / `inferno-flamegraph`. Each
    /// lane's name is the root frame.
    pub fn to_collapsed(&self) -> String {
        fn frame(s: &str) -> String {
            s.replace([';', ' '], "_")
        }
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let root = self
                .lane_names
                .get(&s.lane)
                .map(|n| frame(n))
                .unwrap_or_else(|| format!("lane{}", s.lane));
            let mut key = root;
            for anc in &s.path {
                key.push(';');
                key.push_str(&frame(anc));
            }
            key.push(';');
            key.push_str(&frame(s.name));
            let self_us = s.self_ns() / 1_000;
            *totals.entry(key).or_insert(0) += self_us;
        }
        let mut out = String::new();
        for (stack, us) in totals {
            if us == 0 {
                continue;
            }
            let _ = writeln!(out, "{stack} {us}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disabled_is_a_no_op() {
        assert!(!enabled());
        let g = span("orphan").attr("k", 1u64);
        g.set_attr("k2", 2u64);
        drop(g);
        aggregate("stage", "x", 100, &[]);
        // Nothing recorded anywhere, nothing panicked.
    }

    #[test]
    fn spans_nest_and_carry_attributes() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(3, "worker 3");
            let outer = span("outer").attr("day", 7u64);
            {
                let _inner = span("inner");
            }
            outer.set_attr("flows", 99u64);
        }
        let t = rec.finish();
        assert_eq!(t.spans.len(), 2);
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.path, vec!["outer"]);
        assert_eq!(outer.depth, 0);
        assert!(outer.attrs.contains(&("day", AttrValue::U64(7))));
        assert!(outer.attrs.contains(&("flows", AttrValue::U64(99))));
        // The child's time is accounted to the parent.
        assert!(outer.child_ns >= inner.dur_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(t.lane_name(3), Some("worker 3"));
    }

    #[test]
    fn guards_close_lifo_under_panic_unwind() {
        let rec = SpanRecorder::new();
        let lane = rec.install(0, "w");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _a = span("a");
            let _b = span("b");
            let _c = span("c");
            panic!("boom");
        }));
        assert!(result.is_err());
        drop(lane);
        let t = rec.finish();
        // All three spans closed despite the panic, deepest first.
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 3);
        let a = t.spans.iter().find(|s| s.name == "a").unwrap();
        let b = t.spans.iter().find(|s| s.name == "b").unwrap();
        let c = t.spans.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(a.depth, 0);
        assert_eq!(b.depth, 1);
        assert_eq!(c.depth, 2);
        assert_eq!(c.path, vec!["a", "b"]);
        // LIFO: children end no later than their parents.
        assert!(c.end_ns() <= b.end_ns());
        assert!(b.end_ns() <= a.end_ns());
        // A fresh lane on the same thread starts with a clean stack.
        {
            let _lane = rec.install(1, "w2");
            let fresh = span("fresh");
            drop(fresh);
        }
        let t2 = rec.finish();
        assert_eq!(t2.spans.len(), 1);
        assert_eq!(t2.spans[0].depth, 0);
    }

    #[test]
    fn lane_guard_closes_leaked_spans() {
        let rec = SpanRecorder::new();
        let lane = rec.install(0, "w");
        let a = span("left_open");
        std::mem::forget(a);
        drop(lane);
        let t = rec.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "left_open");
    }

    #[test]
    fn merge_is_deterministic_across_thread_counts() {
        // The same logical work recorded under different parallelism
        // (and surrender order) must merge to the same span structure.
        fn run(threads: usize, lanes_per_thread: usize) -> Vec<(u32, &'static str, u32)> {
            let rec = SpanRecorder::new();
            std::thread::scope(|s| {
                for th in 0..threads {
                    let rec = rec.clone();
                    s.spawn(move || {
                        for l in 0..lanes_per_thread {
                            let lane = (th * lanes_per_thread + l) as u32;
                            let _g = rec.install(lane, &format!("lane {lane}"));
                            let _outer = span("outer");
                            let _inner = span("inner");
                        }
                    });
                }
            });
            rec.finish()
                .spans
                .iter()
                .map(|s| (s.lane, s.name, s.depth))
                .collect()
        }
        // 6 lanes of identical work, carved 1/2/3 threads at a time.
        let a = run(1, 6);
        let b = run(2, 3);
        let c = run(3, 2);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn aggregates_tile_under_the_open_span() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(0, "w");
            let _day = span("day");
            aggregate("stage", "normalize", 1_000, &[("records", 10)]);
            aggregate("stage", "resolver", 500, &[]);
        }
        let t = rec.finish();
        let norm = t.spans.iter().find(|s| s.name == "normalize").unwrap();
        let res = t.spans.iter().find(|s| s.name == "resolver").unwrap();
        let day = t.spans.iter().find(|s| s.name == "day").unwrap();
        assert_eq!(norm.cat, "stage");
        assert_eq!(norm.dur_ns, 1_000);
        assert_eq!(norm.start_ns, day.start_ns);
        // Sequential placement: resolver starts where normalize ends.
        assert_eq!(res.start_ns, norm.end_ns());
        assert_eq!(norm.path, vec!["day"]);
        assert!(norm.attrs.contains(&("records", AttrValue::U64(10))));
        // Aggregate busy counts toward the parent's child time.
        assert!(day.child_ns >= 1_500);
        let stages = t.stage_totals_ns();
        assert_eq!(stages.get("normalize"), Some(&1_000));
        assert_eq!(stages.get("resolver"), Some(&500));
    }

    #[test]
    fn chrome_export_is_strict_json_with_nesting() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(2, "worker 2");
            let _outer = span("day").attr("day", 3u64);
            let _inner = span_cat("task", "stream_day");
            aggregate("stage", "normalize", 2_000, &[("records", 5)]);
        }
        let t = rec.finish();
        let j = t.to_chrome_json();
        let v = crate::json::parse(&j).expect("chrome json parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 1 thread_name metadata + 3 spans.
        assert_eq!(events.len(), 4);
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 2")
        );
        let day = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("day"))
            .unwrap();
        assert_eq!(day.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            day.get("args").unwrap().get("day").unwrap().as_u64(),
            Some(3)
        );
        // Nesting by containment: child ts within parent [ts, ts+dur].
        let stream = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("stream_day"))
            .unwrap();
        let d_ts = day.get("ts").unwrap().as_f64().unwrap();
        let d_end = d_ts + day.get("dur").unwrap().as_f64().unwrap();
        let s_ts = stream.get("ts").unwrap().as_f64().unwrap();
        assert!(d_ts <= s_ts && s_ts <= d_end);
    }

    #[test]
    fn collapsed_export_sums_self_time_per_stack() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(0, "worker 0");
            let _outer = span("day");
            aggregate("stage", "normalize", 5_000_000, &[]);
            aggregate("stage", "normalize", 3_000_000, &[]);
        }
        let t = rec.finish();
        let folded = t.to_collapsed();
        let line = folded
            .lines()
            .find(|l| l.contains("normalize"))
            .expect("normalize stack present");
        // Two aggregates on the same stack fold into one line; lane
        // names are space-sanitized so the trailing field is the value.
        assert_eq!(line, "worker_0;day;normalize 8000");
        for l in folded.lines() {
            assert!(l.rsplit_once(' ').unwrap().1.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn wall_and_top_level_accounting() {
        let rec = SpanRecorder::new();
        {
            let _lane = rec.install(0, "w");
            let _a = span("a");
        }
        {
            let _lane = rec.install(0, "w");
            let _b = span("b");
        }
        let t = rec.finish();
        assert_eq!(t.spans.len(), 2);
        // Two sequential top-level spans: their sum is at most the
        // horizon, and the horizon covers both.
        assert!(t.top_level_ns() <= t.wall_ns());
        assert!(t.wall_ns() >= t.spans.iter().map(|s| s.dur_ns).max().unwrap());
    }
}
