//! Population sharding: build a campus of millions of devices without
//! ever materializing the full device table.
//!
//! [`PopulationPlan`] deterministically partitions the configured
//! population into K independent sub-populations. Each [`Shard`] builds
//! lazily ([`Shard::build`]) and can be dropped as soon as its days are
//! drained, so peak memory is bounded by the largest *shard*, not the
//! campus.
//!
//! ## Why sharding is exact
//!
//! Every resident realizes all of its attributes from a private RNG
//! stream keyed `(seed, Population, student, 0)` and every visitor from
//! `(seed, Population, visitor, 1)` — there is no cross-student
//! randomness. A shard therefore replays exactly the draws of its own
//! contiguous student range, and the union of all shards is
//! *bit-identical* to the monolithic [`Population::build`] (student and
//! device indices stay global; MACs, anonymized ids, and volume factors
//! come out bit-equal). `PopulationPlan::shards(1)` is the compatibility
//! path: one `Full` shard built by the very same code path as
//! `Population::build`.
//!
//! ## Partitioning
//!
//! Shards are contiguous student ranges, device-balanced using a
//! counting pass that replays every student's draws and records a
//! prefix sum of device counts (the realizer is the *same function*
//! used to build, so counts cannot drift from reality). Residents and
//! visitors never share a shard: resident shards come first, then
//! visitor shards, preserving the monolithic emit order. Keeping each
//! shard a contiguous *device* range also keeps the per-day modular IP
//! assignment (`device_ip`) collision-free within a shard as long as a
//! shard spans fewer than the DHCP pool's ~65k addresses —
//! [`PopulationPlan::auto_shards`] enforces a comfortable
//! [`MAX_SHARD_DEVICES`] ceiling.
//!
//! ## Per-shard seeds
//!
//! Each shard carries a derived seed `mix(seed, shard_id)`
//! ([`Shard::seed`]). Population realization deliberately does *not*
//! use it (that would break byte-identity with the monolithic build);
//! it keys shard-scoped auxiliary randomness — fault-injection weather
//! via `FaultingSink::for_shard` — and stamps provenance in manifests.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::config::SimConfig;
use crate::population::{Population, PopulationEnv};
use crate::rng;

/// Largest device span `auto_shards` allows per shard. The per-day IP
/// assignment walks a /16 pool (65534 usable hosts) with a modular
/// stride, so any contiguous device range below the pool size maps to
/// distinct per-day IPs; 48k leaves slack for the visitor MAC offset
/// and keeps shards comfortably under the pool.
pub const MAX_SHARD_DEVICES: u64 = 49_152;

/// Per-device working-set estimate used to derive a shard count from a
/// memory budget. What a shard holds per device was measured at scale
/// 0.2, seed 7 (EXPERIMENTS.md, "one device numbering per collector"):
/// its run collector keeps about 5.3 KB per device after 121 days,
/// three fifths of it figure-3 hour rows and a quarter 121-day volume
/// rows, and a day collector about 0.8 KB per device active that day
/// on a figure-3-week day, which `crates/core/tests/day_collector_heap.rs`
/// bounds at 2 KiB. The estimate sets K, so it is not refitted to these
/// figures here; it is biased high so a budget is a ceiling, not a
/// target.
pub const BYTES_PER_DEVICE_EST: u64 = 4096;

/// Fixed per-run overhead reserved out of the budget before dividing
/// (service directory, stage scratch, figure buffers).
const SHARD_BASE_BYTES: u64 = 8 << 20;

/// How a shard maps onto the global population.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardKind {
    /// The whole campus in one shard (the `shards(1)` compatibility
    /// path — same code path as [`Population::build`]).
    Full,
    /// A contiguous range of resident students.
    Residents {
        students: Range<u32>,
        device_base: u32,
    },
    /// A contiguous range of visitors.
    Visitors {
        visitors: Range<u32>,
        student_base: u32,
        device_base: u32,
    },
}

/// The partition coordinates of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `0..shards`.
    pub shard_id: u32,
    /// Total shard count K of the plan that produced this spec.
    pub shards: u32,
    /// Derived per-shard seed `mix(cfg.seed, shard_id)` for
    /// shard-scoped auxiliary randomness and provenance.
    pub seed: u64,
    kind: ShardKind,
}

/// Device-count prefix sums from the counting pass: `resident[s]` =
/// devices owned by residents `0..s`, likewise for visitors.
struct Counts {
    resident: Vec<u64>,
    visitor: Vec<u64>,
}

impl Counts {
    fn resident_devices(&self) -> u64 {
        *self.resident.last().unwrap_or(&0)
    }

    fn visitor_devices(&self) -> u64 {
        *self.visitor.last().unwrap_or(&0)
    }

    fn total_devices(&self) -> u64 {
        self.resident_devices() + self.visitor_devices()
    }
}

struct PlanInner {
    env: PopulationEnv,
    seed: u64,
    counts: OnceLock<Counts>,
}

impl PlanInner {
    /// The counting pass: replay every student's draws through the same
    /// realizer used to build, keeping only device counts. Runs once
    /// per plan, only when a multi-shard partition (or a device total)
    /// is actually requested.
    fn counts(&self) -> &Counts {
        self.counts.get_or_init(|| {
            let n = self.env.n_residents();
            let mut resident = Vec::with_capacity(n + 1);
            resident.push(0u64);
            let mut acc = 0u64;
            for s in 0..n {
                let (_, devs) = self.env.realize_resident(s, 0);
                acc += devs.len() as u64;
                resident.push(acc);
            }
            let m = self.env.n_visitors();
            let mut visitor = Vec::with_capacity(m + 1);
            visitor.push(0u64);
            let mut acc = 0u64;
            for v in 0..m {
                let (_, devs) = self.env.realize_visitor(v, 0, 0);
                acc += devs.len() as u64;
                visitor.push(acc);
            }
            Counts { resident, visitor }
        })
    }
}

/// A deterministic partition of the configured population into K
/// independently buildable shards. Cheap to create; the counting pass
/// runs lazily on first multi-shard use. Clone-friendly (`Arc` inside)
/// and shareable across worker threads.
#[derive(Clone)]
pub struct PopulationPlan {
    inner: Arc<PlanInner>,
}

impl PopulationPlan {
    /// Plan the population of `cfg`. Resolves the scenario and OUI
    /// pools once; does not realize any student yet.
    pub fn new(cfg: &SimConfig) -> PopulationPlan {
        PopulationPlan {
            inner: Arc::new(PlanInner {
                env: PopulationEnv::new(cfg),
                seed: cfg.seed,
                counts: OnceLock::new(),
            }),
        }
    }

    /// Number of students (residents + visitors) the plan covers.
    pub fn total_students(&self) -> u64 {
        (self.inner.env.n_residents() + self.inner.env.n_visitors()) as u64
    }

    /// Exact total device count, from the counting pass.
    pub fn total_devices(&self) -> u64 {
        self.inner.counts().total_devices()
    }

    /// Partition into exactly `k` shards (`k = 1` is the compatibility
    /// path: one `Full` shard, bit-identical to [`Population::build`]
    /// and requiring no counting pass). For `k ≥ 2`, shards are
    /// device-balanced contiguous student ranges — residents first,
    /// then visitors — and may be empty when `k` exceeds the student
    /// count. Explicit `k` is taken as given; use
    /// [`auto_shards`](Self::auto_shards) to derive a safe count from
    /// a memory budget.
    pub fn shards(&self, k: u32) -> Vec<Shard> {
        let k = k.max(1);
        if k == 1 {
            return vec![self.shard(0, 1, ShardKind::Full)];
        }
        let counts = self.inner.counts();
        let res_dev = counts.resident_devices();
        let vis_dev = counts.visitor_devices();
        let total = res_dev + vis_dev;
        // Split K between the resident and visitor segments in
        // proportion to device mass, keeping at least one shard per
        // non-empty segment.
        let mut k_res = (k as u64 * res_dev + total / 2)
            .checked_div(total)
            .map_or(k, |v| v as u32);
        k_res = k_res.clamp(u32::from(res_dev > 0 || vis_dev == 0), k);
        if vis_dev > 0 {
            k_res = k_res.min(k - 1);
        }
        let k_vis = k - k_res;
        let mut out = Vec::with_capacity(k as usize);
        let res_bounds = boundaries(&counts.resident, k_res);
        for i in 0..k_res as usize {
            let students = res_bounds[i] as u32..res_bounds[i + 1] as u32;
            let device_base = counts.resident[res_bounds[i]] as u32;
            out.push(self.shard(
                out.len() as u32,
                k,
                ShardKind::Residents {
                    students,
                    device_base,
                },
            ));
        }
        let n_res = self.inner.env.n_residents() as u32;
        let vis_bounds = boundaries(&counts.visitor, k_vis);
        for i in 0..k_vis as usize {
            let visitors = vis_bounds[i] as u32..vis_bounds[i + 1] as u32;
            let student_base = n_res + visitors.start;
            let device_base = (res_dev + counts.visitor[vis_bounds[i]]) as u32;
            out.push(self.shard(
                out.len() as u32,
                k,
                ShardKind::Visitors {
                    visitors,
                    student_base,
                    device_base,
                },
            ));
        }
        out
    }

    /// Derive a shard count from a memory budget (bytes) and partition.
    /// K is the larger of the memory-derived count
    /// (`devices × BYTES_PER_DEVICE_EST / budget`) and the IP-pool
    /// floor (`devices / MAX_SHARD_DEVICES`), so a generous budget
    /// still cannot produce a shard wider than the DHCP pool.
    pub fn auto_shards(&self, mem_budget_bytes: u64) -> Vec<Shard> {
        let devices = self.total_devices();
        let usable = mem_budget_bytes.saturating_sub(SHARD_BASE_BYTES).max(1);
        let k_mem = devices
            .saturating_mul(BYTES_PER_DEVICE_EST)
            .div_ceil(usable);
        let k_ip = devices.div_ceil(MAX_SHARD_DEVICES);
        // A budget below the fixed base overhead can demand absurdly
        // fine partitions (k_mem explodes as `usable` → 1); past one
        // device per shard, more shards cannot shrink the working set,
        // so the device count caps the answer.
        let k = k_mem
            .max(k_ip)
            .max(1)
            .min(devices.max(1))
            .min(u64::from(u32::MAX)) as u32;
        self.shards(k)
    }

    fn shard(&self, shard_id: u32, shards: u32, kind: ShardKind) -> Shard {
        Shard {
            inner: Arc::clone(&self.inner),
            spec: ShardSpec {
                shard_id,
                shards,
                seed: rng::mix(&[self.inner.seed, u64::from(shard_id)]),
                kind,
            },
        }
    }
}

impl std::fmt::Debug for PopulationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PopulationPlan")
            .field("students", &self.total_students())
            .finish_non_exhaustive()
    }
}

/// One lazily buildable sub-population. Holds only partition
/// coordinates (plus an `Arc` of the shared plan) until
/// [`build`](Shard::build) is called; the caller owns the returned
/// [`Population`] and drops it when the shard's days are drained.
#[derive(Clone)]
pub struct Shard {
    inner: Arc<PlanInner>,
    spec: ShardSpec,
}

impl Shard {
    /// Shard index in `0..total_shards()`.
    pub fn id(&self) -> u32 {
        self.spec.shard_id
    }

    /// Total shard count K of the owning plan.
    pub fn total_shards(&self) -> u32 {
        self.spec.shards
    }

    /// Derived per-shard seed `mix(cfg.seed, shard_id)`.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// The partition coordinates.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Exact device count of this shard without building it (from the
    /// counting pass; triggers it for a `Full` shard).
    pub fn expected_devices(&self) -> u64 {
        let counts = self.inner.counts();
        match &self.spec.kind {
            ShardKind::Full => counts.total_devices(),
            ShardKind::Residents { students, .. } => {
                counts.resident[students.end as usize] - counts.resident[students.start as usize]
            }
            ShardKind::Visitors { visitors, .. } => {
                counts.visitor[visitors.end as usize] - counts.visitor[visitors.start as usize]
            }
        }
    }

    /// Number of students in this shard (no counting pass needed).
    pub fn student_count(&self) -> u64 {
        match &self.spec.kind {
            ShardKind::Full => (self.inner.env.n_residents() + self.inner.env.n_visitors()) as u64,
            ShardKind::Residents { students, .. } => u64::from(students.end - students.start),
            ShardKind::Visitors { visitors, .. } => u64::from(visitors.end - visitors.start),
        }
    }

    /// Realize this shard's slice of the population. Bit-identical to
    /// the same slice of the monolithic [`Population::build`].
    pub fn build(&self) -> Population {
        let env = &self.inner.env;
        match &self.spec.kind {
            ShardKind::Full => Population::build_full(env),
            ShardKind::Residents {
                students: range,
                device_base,
            } => {
                let mut students = Vec::with_capacity(range.len());
                let mut devices = Vec::new();
                let mut base = *device_base;
                for s in range.clone() {
                    let (student, devs) = env.realize_resident(s as usize, base);
                    base += devs.len() as u32;
                    students.push(student);
                    devices.extend(devs);
                }
                Population::from_parts(students, devices, range.start, *device_base)
            }
            ShardKind::Visitors {
                visitors: range,
                student_base,
                device_base,
            } => {
                let mut students = Vec::with_capacity(range.len());
                let mut devices = Vec::new();
                let mut base = *device_base;
                for (off, v) in range.clone().enumerate() {
                    let s_index = student_base + off as u32;
                    let (student, devs) = env.realize_visitor(v as usize, s_index, base);
                    base += devs.len() as u32;
                    students.push(student);
                    devices.extend(devs);
                }
                Population::from_parts(students, devices, *student_base, *device_base)
            }
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// Device-balanced split points: `k + 1` indices into the entity axis
/// of a strictly increasing device-count prefix array, such that each
/// `[b[i], b[i+1])` range holds ≈ `total / k` devices. Empty ranges
/// appear only when `k` exceeds the entity count.
fn boundaries(prefix: &[u64], k: u32) -> Vec<usize> {
    let n = prefix.len() - 1;
    if k == 0 {
        return vec![n; 1];
    }
    let total = prefix[n];
    let mut out = Vec::with_capacity(k as usize + 1);
    for i in 0..=u64::from(k) {
        let target = total * i / u64::from(k);
        let b = if i == u64::from(k) {
            n
        } else {
            prefix.partition_point(|&p| p < target).min(n)
        };
        out.push(b);
    }
    // Guard monotonicity under duplicate targets (tiny populations).
    for i in 1..out.len() {
        if out[i] < out[i - 1] {
            out[i] = out[i - 1];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::scenario::Scenario;

    fn small_cfg() -> SimConfig {
        SimConfig {
            scale: 0.05,
            ..Default::default()
        }
    }

    fn assert_same_population(a: &Population, b: &Population) {
        assert_eq!(a.students.len(), b.students.len());
        assert_eq!(a.devices.len(), b.devices.len());
        for (x, y) in a.students.iter().zip(&b.students) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.subpop, y.subpop);
            assert_eq!(x.arrives, y.arrives);
            assert_eq!(x.departs, y.departs);
            assert_eq!(x.returns, y.returns);
            assert_eq!(x.devices, y.devices);
            assert_eq!(x.steam_gamer, y.steam_gamer);
            assert_eq!(x.leisure_factor.to_bits(), y.leisure_factor.to_bits());
            assert_eq!(x.visitor, y.visitor);
        }
        for (x, y) in a.devices.iter().zip(&b.devices) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.mac, y.mac);
            assert_eq!(x.id, y.id);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.os, y.os);
            assert_eq!(x.randomized_mac, y.randomized_mac);
            assert_eq!(x.ua_visible, y.ua_visible);
            assert_eq!(x.owner, y.owner);
            assert_eq!(x.volume_factor.to_bits(), y.volume_factor.to_bits());
            assert_eq!(x.acquired, y.acquired);
        }
    }

    #[test]
    fn one_shard_is_bit_identical_to_monolithic_build() {
        let cfg = small_cfg();
        let full = Population::build(&cfg);
        let shards = PopulationPlan::new(&cfg).shards(1);
        assert_eq!(shards.len(), 1);
        let p = shards[0].build();
        assert_eq!(p.student_base(), 0);
        assert_eq!(p.device_base(), 0);
        assert_same_population(&full, &p);
    }

    #[test]
    fn shard_union_is_bit_identical_to_monolithic_build() {
        let cfg = small_cfg();
        let full = Population::build(&cfg);
        let plan = PopulationPlan::new(&cfg);
        for k in [2u32, 3, 7, 16] {
            let shards = plan.shards(k);
            assert_eq!(shards.len(), k as usize);
            let mut students = Vec::new();
            let mut devices = Vec::new();
            for shard in &shards {
                let p = shard.build();
                assert_eq!(p.student_base() as usize, students.len());
                assert_eq!(p.device_base() as usize, devices.len());
                assert_eq!(p.devices.len() as u64, shard.expected_devices());
                assert_eq!(p.students.len() as u64, shard.student_count());
                students.extend(p.students);
                devices.extend(p.devices);
            }
            let union = Population::from_parts(students, devices, 0, 0);
            assert_same_population(&full, &union);
        }
    }

    #[test]
    fn shards_are_device_balanced_and_segregate_visitors() {
        let cfg = small_cfg();
        let plan = PopulationPlan::new(&cfg);
        let shards = plan.shards(5);
        let total = plan.total_devices();
        for shard in &shards {
            let p = shard.build();
            // No shard mixes residents and visitors.
            let visitors = p.students.iter().filter(|s| s.visitor).count();
            assert!(visitors == 0 || visitors == p.students.len());
            // Balance: nobody holds more than half again the fair share
            // (+ the largest single inventory, since students are atomic).
            assert!(
                (p.devices.len() as u64) < total / 5 * 3 / 2 + 16,
                "shard {} holds {} of {total} devices",
                shard.id(),
                p.devices.len()
            );
        }
    }

    #[test]
    fn per_shard_seeds_are_derived_and_distinct() {
        let cfg = small_cfg();
        let shards = PopulationPlan::new(&cfg).shards(4);
        let mut seeds: Vec<u64> = shards.iter().map(|s| s.seed()).collect();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.seed(), rng::mix(&[cfg.seed, i as u64]));
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn global_index_accessors_work_on_shard_slices() {
        let cfg = small_cfg();
        let plan = PopulationPlan::new(&cfg);
        for shard in plan.shards(3) {
            let p = shard.build();
            for s in &p.students {
                assert_eq!(p.student(s.index).index, s.index);
            }
            for d in &p.devices {
                assert_eq!(p.device(d.index).index, d.index);
                assert_eq!(p.owner_of(d).index, d.owner);
                // Owner lives in the same shard: presence queries work.
                let _ = p.device_present(d, nettrace::time::Day(0));
            }
        }
    }

    #[test]
    fn more_shards_than_students_yields_empty_shards() {
        let cfg = SimConfig {
            scale: 0.001,
            ..Default::default()
        };
        let full = Population::build(&cfg);
        let plan = PopulationPlan::new(&cfg);
        let shards = plan.shards(64);
        assert_eq!(shards.len(), 64);
        let mut students = Vec::new();
        let mut devices = Vec::new();
        for shard in &shards {
            let p = shard.build();
            students.extend(p.students);
            devices.extend(p.devices);
        }
        let union = Population::from_parts(students, devices, 0, 0);
        assert_same_population(&full, &union);
    }

    #[test]
    fn auto_shards_respects_budget_and_ip_floor() {
        let cfg = small_cfg();
        let plan = PopulationPlan::new(&cfg);
        let devices = plan.total_devices();
        // A huge budget still gives at least one shard.
        assert_eq!(plan.auto_shards(u64::MAX).len(), 1);
        // A tight budget forces more shards.
        let budget = SHARD_BASE_BYTES + devices * BYTES_PER_DEVICE_EST / 4;
        let shards = plan.auto_shards(budget);
        assert!(shards.len() >= 4, "got {} shards", shards.len());
        // Every shard stays under the IP-pool ceiling.
        for s in &shards {
            assert!(s.expected_devices() <= MAX_SHARD_DEVICES);
        }
        // A budget below the fixed base overhead (even one byte) caps
        // at one device per shard instead of exploding toward u32::MAX.
        let floor = plan.auto_shards(1);
        assert_eq!(floor.len() as u64, devices);
    }

    /// A sharded run pairs shard `i` of the study with shard `i` of its
    /// counterfactual twin to compare the same devices across both, so
    /// the two plans must partition alike.
    #[test]
    fn counterfactual_plans_shard_like_their_study() {
        for scenario in Scenario::builtins() {
            let cfg = SimConfig {
                scenario: scenario.clone(),
                ..small_cfg()
            };
            let study = PopulationPlan::new(&cfg);
            let twin = PopulationPlan::new(&Scenario::counterfactual_of(&cfg));
            for k in [1u32, 2, 7, 64] {
                let (a, b) = (study.shards(k), twin.shards(k));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.spec(), y.spec(), "{} K={k}", scenario.name);
                    assert_eq!(
                        x.expected_devices(),
                        y.expected_devices(),
                        "{} K={k} shard {}",
                        scenario.name,
                        x.id()
                    );
                }
            }
        }
    }

    #[test]
    fn counting_pass_matches_built_population() {
        let cfg = small_cfg();
        let plan = PopulationPlan::new(&cfg);
        let full = Population::build(&cfg);
        assert_eq!(plan.total_devices(), full.devices.len() as u64);
        assert_eq!(plan.total_students(), full.students.len() as u64);
    }
}
