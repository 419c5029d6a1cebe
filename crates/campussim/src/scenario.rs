//! Scenario engine: the study timeline, policy events, and behaviour
//! deltas as first-class *data* instead of hard-coded tables.
//!
//! A [`Scenario`] names a sequence of phases (contiguous day ranges with
//! per-phase behaviour curves), a policy block (departure waves, console
//! launch/acquisition windows, visitor cut-off), optional population-mix
//! overrides, and global behaviour multipliers. Scenarios load from a
//! strict, dependency-free TOML subset ([`Scenario::parse`]), serialize
//! canonically ([`Scenario::to_toml`]), and carry a stable content hash
//! ([`Scenario::content_hash`]) recorded in run manifests for provenance.
//!
//! The paper's Feb–May 2020 timeline is re-expressed as the built-in
//! [`paper-2020`](Scenario::builtin) scenario, which reproduces the
//! legacy hard-coded pipeline **byte-identically** (asserted by tests
//! that compare every curve against the former closed-form tables on all
//! 121 study days). The 2019 counterfactual is the built-in
//! `baseline-2019`, and [`Scenario::counterfactual`] derives the same
//! twin from any scenario while preserving its RNG draw structure so a
//! scenario and its counterfactual build bit-identical populations.

use std::fmt;
use std::sync::OnceLock;

use geoloc::SubPop;
use nettrace::time::{Day, Month};

use crate::config::SimConfig;
use crate::model::{self, SocialApp, SteamMonth};

/// Errors from parsing or validating a [`Scenario`].
///
/// Every variant carries enough context (line numbers for parse errors,
/// field names for validation errors) to pinpoint the problem in the
/// scenario file without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A line the parser could not interpret at all.
    Syntax {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A key that is not part of the scenario schema. The parser is
    /// strict: misspellings fail loudly instead of silently defaulting.
    UnknownKey {
        /// 1-based line number in the input.
        line: usize,
        /// The offending key (qualified with its section).
        key: String,
    },
    /// The same key appeared twice in one section.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// A value failed to parse as the type its key requires.
    BadValue {
        /// 1-based line number in the input.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// What the parser expected.
        msg: String,
    },
    /// A required key was absent.
    MissingKey {
        /// The section (e.g. `phase "break"`) missing the key.
        context: String,
        /// The missing key.
        key: String,
    },
    /// A behaviour curve expression did not parse.
    BadCurve {
        /// The key holding the curve.
        key: String,
        /// What went wrong.
        msg: String,
    },
    /// [`Scenario::builtin`] was asked for a name not in the library.
    UnknownScenario {
        /// The requested name.
        name: String,
    },
    /// The phase list is empty.
    EmptyPhases,
    /// Consecutive phases do not tile the study span contiguously.
    PhaseGap {
        /// Name of the phase that starts at the wrong day.
        phase: String,
        /// The day the phase was expected to start on.
        expected_start: u16,
        /// The day it actually starts on.
        actual_start: u16,
    },
    /// A phase's day range is inverted or leaves `0..=120`.
    DayOutOfRange {
        /// Which phase or policy field.
        context: String,
        /// The offending day value.
        day: u16,
    },
    /// A departure/return wave is structurally invalid.
    BadWave {
        /// Index of the wave in declaration order.
        index: usize,
        /// What is wrong with it.
        msg: String,
    },
    /// A fraction-like field left `[0, 1]`, or a multiplier is not
    /// finite and non-negative.
    BadField {
        /// The offending field (qualified with its section).
        field: String,
        /// The offending value.
        value: f64,
    },
    /// The scenario name is empty or uses characters outside
    /// `[A-Za-z0-9_-]` (names become output directory names).
    BadName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key `{key}`")
            }
            ScenarioError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key `{key}`")
            }
            ScenarioError::BadValue { line, key, msg } => {
                write!(f, "line {line}: bad value for `{key}`: {msg}")
            }
            ScenarioError::MissingKey { context, key } => {
                write!(f, "{context}: missing required key `{key}`")
            }
            ScenarioError::BadCurve { key, msg } => {
                write!(f, "bad curve for `{key}`: {msg}")
            }
            ScenarioError::UnknownScenario { name } => {
                write!(f, "unknown built-in scenario `{name}`")
            }
            ScenarioError::EmptyPhases => write!(f, "scenario has no phases"),
            ScenarioError::PhaseGap {
                phase,
                expected_start,
                actual_start,
            } => write!(
                f,
                "phase `{phase}` starts at day {actual_start}, expected {expected_start} \
                 (phases must tile the study span contiguously)"
            ),
            ScenarioError::DayOutOfRange { context, day } => {
                write!(f, "{context}: day {day} outside the study span")
            }
            ScenarioError::BadWave { index, msg } => {
                write!(f, "policy wave #{index}: {msg}")
            }
            ScenarioError::BadField { field, value } => {
                write!(f, "{field}: value {value} out of range")
            }
            ScenarioError::BadName { name } => {
                write!(f, "scenario name `{name}` must be non-empty [A-Za-z0-9_-]")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One analytic segment of a behaviour [`Curve`].
///
/// Segment forms are chosen so the built-in `paper-2020` scenario can
/// re-express the legacy closed-form tables **bit-identically**: each
/// form performs exactly the arithmetic the former hard-coded functions
/// performed, in the same order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Seg {
    /// A constant value.
    Const(f64),
    /// Linear interpolation `from + (to - from) * t` where
    /// `t = ((d - start) / span).clamp(0, 1)`.
    Lerp {
        /// Value at `start`.
        from: f64,
        /// Value at `start + span`.
        to: f64,
        /// Day the ramp begins.
        start: f64,
        /// Ramp length in days.
        span: f64,
    },
    /// Additive ramp `base + coeff * t` with the same clamped `t` as
    /// [`Seg::Lerp`]. Exists because some legacy tables wrote the slope
    /// as an explicit coefficient — `base + coeff*t` and
    /// `from + (to-from)*t` differ in the last bit when `to - from`
    /// does not round to `coeff`.
    Rise {
        /// Value at `start`.
        base: f64,
        /// Total rise across the ramp.
        coeff: f64,
        /// Day the ramp begins.
        start: f64,
        /// Ramp length in days.
        span: f64,
    },
    /// Unclamped secular drift `base + slope * (d / denom)` across the
    /// whole study (the 2019 counterfactual's gentle upward trend).
    Drift {
        /// Value at day 0.
        base: f64,
        /// Total drift across `denom` days.
        slope: f64,
        /// Normalizing day count.
        denom: f64,
    },
}

impl Seg {
    /// Evaluate at (fractional) study day `d`.
    pub fn eval(&self, d: f64) -> f64 {
        match *self {
            Seg::Const(v) => v,
            Seg::Lerp {
                from,
                to,
                start,
                span,
            } => from + (to - from) * ((d - start) / span).clamp(0.0, 1.0),
            Seg::Rise {
                base,
                coeff,
                start,
                span,
            } => base + coeff * ((d - start) / span).clamp(0.0, 1.0),
            Seg::Drift { base, slope, denom } => base + slope * (d / denom),
        }
    }

    fn to_expr(self) -> String {
        match self {
            Seg::Const(v) => format!("const({v})"),
            Seg::Lerp {
                from,
                to,
                start,
                span,
            } => format!("lerp({from}, {to}, {start}, {span})"),
            Seg::Rise {
                base,
                coeff,
                start,
                span,
            } => format!("rise({base}, {coeff}, {start}, {span})"),
            Seg::Drift { base, slope, denom } => format!("drift({base}, {slope}, {denom})"),
        }
    }

    fn parse_expr(key: &str, s: &str) -> Result<Seg, ScenarioError> {
        let s = s.trim();
        let bad = |msg: &str| ScenarioError::BadCurve {
            key: key.to_string(),
            msg: msg.to_string(),
        };
        let open = s.find('(').ok_or_else(|| bad("expected `name(args)`"))?;
        if !s.ends_with(')') {
            return Err(bad("expected closing `)`"));
        }
        let name = &s[..open];
        let args: Vec<f64> = {
            let inner = &s[open + 1..s.len() - 1];
            let mut out = Vec::new();
            for part in inner.split(',') {
                let part = part.trim();
                let v: f64 = part
                    .parse()
                    .map_err(|_| bad(&format!("`{part}` is not a number")))?;
                if !v.is_finite() {
                    return Err(bad(&format!("`{part}` is not finite")));
                }
                out.push(v);
            }
            out
        };
        let want = |n: usize| {
            if args.len() == n {
                Ok(())
            } else {
                Err(bad(&format!(
                    "`{name}` takes {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        match name {
            "const" => {
                want(1)?;
                Ok(Seg::Const(args[0]))
            }
            "lerp" => {
                want(4)?;
                if args[3] == 0.0 {
                    return Err(bad("lerp span must be nonzero"));
                }
                Ok(Seg::Lerp {
                    from: args[0],
                    to: args[1],
                    start: args[2],
                    span: args[3],
                })
            }
            "rise" => {
                want(4)?;
                if args[3] == 0.0 {
                    return Err(bad("rise span must be nonzero"));
                }
                Ok(Seg::Rise {
                    base: args[0],
                    coeff: args[1],
                    start: args[2],
                    span: args[3],
                })
            }
            "drift" => {
                want(3)?;
                if args[2] == 0.0 {
                    return Err(bad("drift denom must be nonzero"));
                }
                Ok(Seg::Drift {
                    base: args[0],
                    slope: args[1],
                    denom: args[2],
                })
            }
            _ => Err(bad(&format!("unknown segment `{name}`"))),
        }
    }
}

/// One piece of a piecewise [`Curve`]: a segment, optionally bounded by
/// the last day (inclusive) it applies to.
#[derive(Debug, Clone, PartialEq)]
pub struct Piece {
    /// Last study day (inclusive) this piece covers; `None` means "to
    /// the end" and is only legal on the final piece.
    pub until: Option<u16>,
    /// The segment evaluated while this piece is active.
    pub seg: Seg,
}

/// A piecewise behaviour curve over study days.
///
/// Written in scenario files as a `;`-separated list of pieces, each
/// optionally prefixed `until <day>:` — e.g.
/// `"until 63: lerp(1.28, 1.78, 58, 5); lerp(1.78, 1.1, 63, 57)"`.
/// Every piece except the last must carry `until`; the last must not.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve(pub Vec<Piece>);

impl Curve {
    /// A single-segment curve.
    pub fn single(seg: Seg) -> Self {
        Curve(vec![Piece { until: None, seg }])
    }

    /// A constant curve.
    pub fn constant(v: f64) -> Self {
        Curve::single(Seg::Const(v))
    }

    /// Evaluate on a study day.
    pub fn eval(&self, day: Day) -> f64 {
        let d = day.0 as f64;
        for p in &self.0 {
            match p.until {
                Some(u) if day.0 > u => continue,
                _ => return p.seg.eval(d),
            }
        }
        // Unreachable for validated curves (the last piece is unbounded);
        // an empty curve is rejected by `Scenario::validate`.
        1.0
    }

    /// Render as the curve-expression DSL (canonical form).
    pub fn to_expr(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            if let Some(u) = p.until {
                out.push_str(&format!("until {u}: "));
            }
            out.push_str(&p.seg.to_expr());
        }
        out
    }

    /// Parse the curve-expression DSL.
    pub fn parse_expr(key: &str, s: &str) -> Result<Curve, ScenarioError> {
        let bad = |msg: String| ScenarioError::BadCurve {
            key: key.to_string(),
            msg,
        };
        let mut pieces = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                return Err(bad("empty curve piece".to_string()));
            }
            let (until, expr) = match part.strip_prefix("until") {
                Some(rest) if rest.starts_with([' ', '\t']) => {
                    let rest = rest.trim_start();
                    let colon = rest
                        .find(':')
                        .ok_or_else(|| bad("`until` needs `: <segment>`".to_string()))?;
                    let day: u16 = rest[..colon].trim().parse().map_err(|_| {
                        bad(format!("`{}` is not a day number", rest[..colon].trim()))
                    })?;
                    (Some(day), &rest[colon + 1..])
                }
                _ => (None, part),
            };
            pieces.push(Piece {
                until,
                seg: Seg::parse_expr(key, expr)?,
            });
        }
        // Structural checks: `until` on every piece but the last, strictly
        // increasing bounds.
        let n = pieces.len();
        let mut prev: Option<u16> = None;
        for (i, p) in pieces.iter().enumerate() {
            if i + 1 < n && p.until.is_none() {
                return Err(bad("only the last piece may omit `until`".to_string()));
            }
            if i + 1 == n && p.until.is_some() {
                return Err(bad("the last piece must not carry `until`".to_string()));
            }
            if let (Some(a), Some(b)) = (prev, p.until) {
                if b <= a {
                    return Err(bad(format!("`until {b}` does not increase past {a}")));
                }
            }
            prev = p.until;
        }
        Ok(Curve(pieces))
    }
}

/// A per-month scalar table, indexed explicitly by [`Month`].
///
/// Replaces the former positional `[f64; 4]` tables in the model layer,
/// whose index order was only documented by a
/// `let _ = (Feb, Mar, Apr, May)` hack — the scenario layer now owns the
/// month→value mapping and a misordered table is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthTable {
    /// February value.
    pub feb: f64,
    /// March value.
    pub mar: f64,
    /// April value.
    pub apr: f64,
    /// May value.
    pub may: f64,
}

impl MonthTable {
    /// Build from the four study months in calendar order.
    pub const fn new(feb: f64, mar: f64, apr: f64, may: f64) -> Self {
        MonthTable { feb, mar, apr, may }
    }

    /// Look up a month's value.
    pub fn get(&self, month: Month) -> f64 {
        match month {
            Month::Feb => self.feb,
            Month::Mar => self.mar,
            Month::Apr => self.apr,
            Month::May => self.may,
        }
    }
}

/// One named phase: a contiguous day range with its behaviour knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name (for reports and error messages).
    pub name: String,
    /// First study day (inclusive).
    pub start: u16,
    /// Last study day (inclusive).
    pub end: u16,
    /// Whether campus counts as "post shutdown" during this phase —
    /// drives the diurnal/weekend activity shapes (§4.1's earlier,
    /// higher weekday spikes).
    pub post_shutdown: bool,
    /// Distinct background sites in a device's home set (§4.1's "+34%
    /// distinct sites" growth).
    pub web_breadth: usize,
    /// Expected weekday Zoom hours per student.
    pub zoom_weekday: f64,
    /// Expected weekend Zoom hours per student.
    pub zoom_weekend: f64,
    /// Leisure-volume multiplier curve, domestic students.
    pub leisure_domestic: Curve,
    /// Leisure-volume multiplier curve, international students.
    pub leisure_international: Curve,
    /// Switch gameplay-hours multiplier curve (before weekend boost).
    pub switch_mult: Curve,
}

/// One departure wave: a triangular distribution of departure days and
/// an optional partial return.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveSpec {
    /// Earliest departure day.
    pub start: u16,
    /// Modal departure day.
    pub peak: u16,
    /// Latest departure day.
    pub end: u16,
    /// Relative share of departing students assigned to this wave
    /// (normalized across waves).
    pub fraction: f64,
    /// Day departed students come back on campus, if any.
    pub return_day: Option<u16>,
    /// Fraction of this wave's departers who return (only meaningful
    /// with `return_day`).
    pub return_fraction: f64,
}

/// Policy events: who leaves, when, and what gets bought.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Whether non-staying students depart at all (false for baselines).
    pub departures: bool,
    /// Departure waves (the paper's March exodus is one wave). Waves are
    /// sampled even when `departures` is false so a scenario and its
    /// counterfactual consume identical RNG draw sequences.
    pub waves: Vec<WaveSpec>,
    /// Day a console hit (Animal Crossing, 2020-03-20) floods the
    /// vendor CDN with downloads, if the scenario has one.
    pub console_launch_day: Option<u16>,
    /// First day of the lock-down console buying window (inclusive).
    pub console_buy_start: u16,
    /// End of the console buying window (exclusive).
    pub console_buy_end: u16,
    /// Whether staying students actually acquire consoles in the window
    /// (false for baselines; the purchase day is drawn regardless, for
    /// RNG parity).
    pub console_acquisitions: bool,
    /// Latest day a visitor device may stay on campus.
    pub visitor_cutoff: u16,
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec {
            departures: false,
            waves: Vec::new(),
            console_launch_day: None,
            console_buy_start: 60,
            console_buy_end: 115,
            console_acquisitions: false,
            visitor_cutoff: 46,
        }
    }
}

/// Optional population-mix overrides; `None` falls back to the
/// default in [`crate::config`] (e.g.
/// [`DEFAULT_INTL_FRACTION`](crate::config::DEFAULT_INTL_FRACTION)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PopulationSpec {
    /// Fraction of students who are international.
    pub intl_fraction: Option<f64>,
    /// Probability a domestic student stays post-shutdown.
    pub domestic_stay_rate: Option<f64>,
    /// Probability an international student stays post-shutdown.
    pub intl_stay_rate: Option<f64>,
}

/// Global behaviour multipliers applied on top of the phase curves and
/// app catalog. All default to 1 (no delta).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorSpec {
    /// Background-web volume multiplier.
    pub web: f64,
    /// Zoom-hours multiplier.
    pub zoom: f64,
    /// Social-app duration multiplier (all apps).
    pub social: f64,
    /// Steam bytes/connections multiplier.
    pub steam: f64,
    /// Switch gameplay multiplier.
    pub switch_games: f64,
    /// Extra Facebook-specific multiplier.
    pub facebook: f64,
    /// Extra Instagram-specific multiplier.
    pub instagram: f64,
    /// Extra TikTok-specific multiplier.
    pub tiktok: f64,
    /// Override for the config's year-over-year growth factor (the 2019
    /// baseline pins this to 1).
    pub yoy_growth: Option<f64>,
}

impl Default for BehaviorSpec {
    fn default() -> Self {
        BehaviorSpec {
            web: 1.0,
            zoom: 1.0,
            social: 1.0,
            steam: 1.0,
            switch_games: 1.0,
            facebook: 1.0,
            instagram: 1.0,
            tiktok: 1.0,
            yoy_growth: None,
        }
    }
}

/// A complete scenario description. See the [module docs](self) for the
/// file format and [`Scenario::builtin`] for the shipped library.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9_-]+`; doubles as the output directory
    /// name in matrix runs).
    pub name: String,
    /// Human-readable description for reports.
    pub description: String,
    /// Ordered, contiguous phases tiling days `0..=120`.
    pub phases: Vec<PhaseSpec>,
    /// Policy events.
    pub policy: PolicySpec,
    /// Population-mix overrides.
    pub population: PopulationSpec,
    /// Global behaviour multipliers.
    pub behavior: BehaviorSpec,
}

impl Scenario {
    /// The phase covering `day` (clamped to the last phase past the
    /// study end).
    pub fn phase_at(&self, day: Day) -> &PhaseSpec {
        self.phases
            .iter()
            .find(|p| day.0 >= p.start && day.0 <= p.end)
            .unwrap_or_else(|| &self.phases[self.phases.len() - 1])
    }

    /// Day-level leisure volume multiplier relative to the February
    /// baseline (the scenario-owned successor of the former
    /// `model::leisure_multiplier` table).
    pub fn leisure_multiplier(&self, subpop: SubPop, day: Day) -> f64 {
        let p = self.phase_at(day);
        let curve = match subpop {
            SubPop::Domestic => &p.leisure_domestic,
            SubPop::International => &p.leisure_international,
        };
        curve.eval(day) * self.behavior.web
    }

    /// Expected Zoom hours for a student on `day`.
    pub fn zoom_hours(&self, day: Day) -> f64 {
        let p = self.phase_at(day);
        let h = if day.weekday().is_weekend() {
            p.zoom_weekend
        } else {
            p.zoom_weekday
        };
        h * self.behavior.zoom
    }

    /// Switch gameplay-hours multiplier on `day` (weekend boost applied
    /// here, as the legacy table did).
    pub fn switch_multiplier(&self, day: Day) -> f64 {
        let weekend_boost = if day.weekday().is_weekend() { 1.4 } else { 1.0 };
        self.phase_at(day).switch_mult.eval(day) * weekend_boost * self.behavior.switch_games
    }

    /// Distinct background sites in a device's home set on `day`.
    pub fn web_breadth(&self, day: Day) -> usize {
        self.phase_at(day).web_breadth
    }

    /// Whether `day` falls in a post-shutdown phase (drives diurnal and
    /// weekend activity shapes).
    pub fn post_shutdown(&self, day: Day) -> bool {
        self.phase_at(day).post_shutdown
    }

    /// Monthly median social-app hours for a device cohort, scaled by
    /// the scenario's behaviour multipliers.
    pub fn social_monthly_hours(
        &self,
        app: SocialApp,
        subpop: SubPop,
        escalator: bool,
        month: Month,
    ) -> f64 {
        let app_mult = match app {
            SocialApp::Facebook => self.behavior.facebook,
            SocialApp::Instagram => self.behavior.instagram,
            SocialApp::TikTok => self.behavior.tiktok,
        };
        model::social_base_hours(app, subpop, escalator).get(month)
            * (self.behavior.social * app_mult)
    }

    /// Monthly Steam model with the scenario's gaming delta applied to
    /// the byte/connection medians (activity probability is left to the
    /// base tables).
    pub fn steam_month(&self, subpop: SubPop, month: Month) -> SteamMonth {
        let base = model::steam_month(subpop, month);
        SteamMonth {
            active_prob: base.active_prob,
            median_bytes: base.median_bytes * self.behavior.steam,
            median_conns: base.median_conns * self.behavior.steam,
        }
    }

    /// The year-over-year growth factor in effect: the scenario override
    /// if set, else the config knob.
    pub fn effective_yoy(&self, cfg_yoy: f64) -> f64 {
        self.behavior.yoy_growth.unwrap_or(cfg_yoy)
    }

    /// Whether this scenario already *is* a no-event baseline (nothing
    /// departs, nothing launches, nothing gets bought).
    pub fn is_baseline(&self) -> bool {
        !self.policy.departures
            && !self.policy.console_acquisitions
            && self.policy.console_launch_day.is_none()
    }

    /// Derive the 2019-style counterfactual twin of this scenario: same
    /// population, same phase calendar (post-shutdown flags and web
    /// breadth stay — those shifts are calendar-driven, not
    /// pandemic-driven, see DESIGN.md), but no departures, no console
    /// events, pre-emergency Zoom levels, secular-drift leisure, flat
    /// Switch play, and year-over-year growth pinned to 1.
    ///
    /// The wave list and buying window are preserved (with their effects
    /// disabled) so the twin consumes the exact RNG draw sequence of the
    /// original and builds a bit-identical population. Idempotent on
    /// scenarios that are already baselines.
    pub fn counterfactual(&self) -> Scenario {
        if self.is_baseline() {
            return self.clone();
        }
        if self.name == PAPER_2020 {
            // The paper scenario's twin is the named built-in baseline.
            match Scenario::builtin(BASELINE_2019) {
                Ok(s) => return s,
                Err(_) => unreachable!("baseline-2019 is a built-in"),
            }
        }
        let mut twin = self.clone();
        twin.name = format!("{}-counterfactual", self.name);
        twin.description = format!("No-event counterfactual of `{}`", self.name);
        for p in &mut twin.phases {
            p.zoom_weekday = 0.05;
            p.zoom_weekend = 0.01;
            p.leisure_domestic = Curve::single(Seg::Drift {
                base: 1.0,
                slope: 0.05,
                denom: 120.0,
            });
            p.leisure_international = Curve::single(Seg::Drift {
                base: 1.0,
                slope: 0.05,
                denom: 120.0,
            });
            p.switch_mult = Curve::constant(1.0);
        }
        twin.policy.departures = false;
        twin.policy.console_launch_day = None;
        twin.policy.console_acquisitions = false;
        twin.behavior = BehaviorSpec {
            yoy_growth: Some(1.0),
            ..BehaviorSpec::default()
        };
        twin
    }

    /// The counterfactual *config* for a run: same population and seed;
    /// the attached scenario becomes its counterfactual twin and
    /// year-over-year growth is unwound.
    pub fn counterfactual_of(cfg: &SimConfig) -> SimConfig {
        let mut twin = cfg.clone();
        twin.scenario = cfg.scenario.counterfactual();
        twin.yoy_growth = 1.0;
        twin
    }

    /// Stable content hash of the canonical serialization, recorded in
    /// run manifests. Comments and formatting in a scenario file do not
    /// affect the hash.
    pub fn content_hash(&self) -> u64 {
        lockdown_obs::manifest::fnv1a_64(self.to_toml().as_bytes())
    }

    /// `content_hash` rendered as the fixed-width hex manifests use.
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Whether this is the unmodified built-in paper scenario (used to
    /// keep legacy config hashes byte-stable).
    pub fn is_paper_default(&self) -> bool {
        self.name == PAPER_2020 && *self == *paper_2020()
    }
}

impl Default for Scenario {
    /// The paper's own timeline: `paper-2020`.
    fn default() -> Self {
        paper_2020().clone()
    }
}

/// Name of the built-in paper timeline scenario.
pub const PAPER_2020: &str = "paper-2020";
/// Name of the built-in 2019 counterfactual baseline scenario.
pub const BASELINE_2019: &str = "baseline-2019";

const BUILTIN_SOURCES: [(&str, &str); 4] = [
    (PAPER_2020, include_str!("../scenarios/paper-2020.toml")),
    (
        BASELINE_2019,
        include_str!("../scenarios/baseline-2019.toml"),
    ),
    (
        "favale-elearning",
        include_str!("../scenarios/favale-elearning.toml"),
    ),
    (
        "staggered-reopening",
        include_str!("../scenarios/staggered-reopening.toml"),
    ),
];

fn builtin_library() -> &'static [Scenario] {
    static LIB: OnceLock<Vec<Scenario>> = OnceLock::new();
    LIB.get_or_init(|| {
        BUILTIN_SOURCES
            .iter()
            .map(|(name, src)| match Scenario::parse(src) {
                Ok(s) => {
                    assert_eq!(
                        &s.name, name,
                        "built-in scenario file name mismatch: {name}"
                    );
                    s
                }
                Err(e) => panic!("built-in scenario `{name}` failed to parse: {e}"),
            })
            .collect()
    })
}

fn paper_2020() -> &'static Scenario {
    &builtin_library()[0]
}

impl Scenario {
    /// The shipped scenario library, in catalog order: `paper-2020`,
    /// `baseline-2019`, `favale-elearning` (the e-learning-heavy
    /// European campus of Favale et al.), `staggered-reopening` (a
    /// Feldmann-style multi-wave timeline with a partial return and a
    /// second shutdown).
    pub fn builtins() -> &'static [Scenario] {
        builtin_library()
    }

    /// Names of the built-in scenarios, catalog order.
    pub fn builtin_names() -> Vec<&'static str> {
        BUILTIN_SOURCES.iter().map(|(n, _)| *n).collect()
    }

    /// Look up a built-in scenario by name.
    pub fn builtin(name: &str) -> Result<Scenario, ScenarioError> {
        builtin_library()
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .ok_or_else(|| ScenarioError::UnknownScenario {
                name: name.to_string(),
            })
    }

    /// Structural validation: phases must tile days `0..=120`
    /// contiguously, waves must be well-formed triangles, every
    /// fraction/multiplier must be in range. [`Scenario::parse`] calls
    /// this, so a parsed scenario is always valid; call it directly on
    /// programmatically built scenarios.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(ScenarioError::BadName {
                name: self.name.clone(),
            });
        }
        if self.phases.is_empty() {
            return Err(ScenarioError::EmptyPhases);
        }
        let last_day = nettrace::time::StudyCalendar::NUM_DAYS - 1;
        let mut expected_start = 0u16;
        let mut seen_names: Vec<&str> = Vec::new();
        for p in &self.phases {
            if p.name.is_empty() || seen_names.contains(&p.name.as_str()) {
                return Err(ScenarioError::BadName {
                    name: format!("phase `{}`", p.name),
                });
            }
            seen_names.push(&p.name);
            if p.start != expected_start {
                return Err(ScenarioError::PhaseGap {
                    phase: p.name.clone(),
                    expected_start,
                    actual_start: p.start,
                });
            }
            if p.end < p.start || p.end > last_day {
                return Err(ScenarioError::DayOutOfRange {
                    context: format!("phase `{}`", p.name),
                    day: p.end,
                });
            }
            expected_start = p.end + 1;
            if p.web_breadth == 0 {
                return Err(ScenarioError::BadField {
                    field: format!("phase `{}`.web_breadth", p.name),
                    value: 0.0,
                });
            }
            for (fname, v) in [
                ("zoom_weekday", p.zoom_weekday),
                ("zoom_weekend", p.zoom_weekend),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(ScenarioError::BadField {
                        field: format!("phase `{}`.{fname}", p.name),
                        value: v,
                    });
                }
            }
            for (cname, c) in [
                ("leisure_domestic", &p.leisure_domestic),
                ("leisure_international", &p.leisure_international),
                ("switch", &p.switch_mult),
            ] {
                if c.0.is_empty() {
                    return Err(ScenarioError::BadCurve {
                        key: format!("phase `{}`.{cname}", p.name),
                        msg: "curve has no pieces".to_string(),
                    });
                }
            }
        }
        if expected_start != last_day + 1 {
            return Err(ScenarioError::DayOutOfRange {
                context: "last phase must end on the final study day".to_string(),
                day: expected_start.saturating_sub(1),
            });
        }
        let pol = &self.policy;
        if pol.departures && pol.waves.is_empty() {
            return Err(ScenarioError::BadWave {
                index: 0,
                msg: "departures enabled but no [[policy.wave]] defined".to_string(),
            });
        }
        for (i, w) in pol.waves.iter().enumerate() {
            let wave_err = |msg: String| ScenarioError::BadWave { index: i, msg };
            if !(w.start <= w.peak && w.peak <= w.end && w.end > w.start) {
                return Err(wave_err(format!(
                    "needs start <= peak <= end with end > start, got {}/{}/{}",
                    w.start, w.peak, w.end
                )));
            }
            if w.end > last_day {
                return Err(ScenarioError::DayOutOfRange {
                    context: format!("policy wave #{i}"),
                    day: w.end,
                });
            }
            if !w.fraction.is_finite() || w.fraction <= 0.0 {
                return Err(wave_err(format!(
                    "fraction must be > 0, got {}",
                    w.fraction
                )));
            }
            if let Some(r) = w.return_day {
                if r <= w.end || r > last_day {
                    return Err(wave_err(format!(
                        "return_day {r} must lie after the wave end {} and within the study",
                        w.end
                    )));
                }
            }
            if !w.return_fraction.is_finite() || !(0.0..=1.0).contains(&w.return_fraction) {
                return Err(wave_err(format!(
                    "return_fraction must lie in [0, 1], got {}",
                    w.return_fraction
                )));
            }
        }
        if let Some(d) = pol.console_launch_day {
            if d > last_day {
                return Err(ScenarioError::DayOutOfRange {
                    context: "policy.console_launch_day".to_string(),
                    day: d,
                });
            }
        }
        if pol.console_buy_start >= pol.console_buy_end || pol.console_buy_end > last_day + 1 {
            return Err(ScenarioError::DayOutOfRange {
                context: "policy.console_buy window".to_string(),
                day: pol.console_buy_end,
            });
        }
        if pol.visitor_cutoff > last_day {
            return Err(ScenarioError::DayOutOfRange {
                context: "policy.visitor_cutoff".to_string(),
                day: pol.visitor_cutoff,
            });
        }
        for (field, v) in [
            ("population.intl_fraction", self.population.intl_fraction),
            (
                "population.domestic_stay_rate",
                self.population.domestic_stay_rate,
            ),
            ("population.intl_stay_rate", self.population.intl_stay_rate),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(ScenarioError::BadField {
                        field: field.to_string(),
                        value: v,
                    });
                }
            }
        }
        let b = &self.behavior;
        for (field, v) in [
            ("behavior.web", b.web),
            ("behavior.zoom", b.zoom),
            ("behavior.social", b.social),
            ("behavior.steam", b.steam),
            ("behavior.switch", b.switch_games),
            ("behavior.facebook", b.facebook),
            ("behavior.instagram", b.instagram),
            ("behavior.tiktok", b.tiktok),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ScenarioError::BadField {
                    field: field.to_string(),
                    value: v,
                });
            }
        }
        if let Some(v) = b.yoy_growth {
            if !v.is_finite() || v <= 0.0 {
                return Err(ScenarioError::BadField {
                    field: "behavior.yoy_growth".to_string(),
                    value: v,
                });
            }
        }
        Ok(())
    }

    /// Canonical serialization: fixed key order, floats in shortest
    /// round-trip form. `parse(to_toml(s))` reproduces `s` exactly, and
    /// `to_toml` is a fixpoint under re-parsing — the property the
    /// content hash relies on.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = writeln!(out, "name = \"{}\"", esc(&self.name));
        let _ = writeln!(out, "description = \"{}\"", esc(&self.description));
        let pop = &self.population;
        if pop.intl_fraction.is_some()
            || pop.domestic_stay_rate.is_some()
            || pop.intl_stay_rate.is_some()
        {
            let _ = writeln!(out, "\n[population]");
            if let Some(v) = pop.intl_fraction {
                let _ = writeln!(out, "intl_fraction = {v}");
            }
            if let Some(v) = pop.domestic_stay_rate {
                let _ = writeln!(out, "domestic_stay_rate = {v}");
            }
            if let Some(v) = pop.intl_stay_rate {
                let _ = writeln!(out, "intl_stay_rate = {v}");
            }
        }
        let pol = &self.policy;
        let _ = writeln!(out, "\n[policy]");
        let _ = writeln!(out, "departures = {}", pol.departures);
        let _ = writeln!(out, "console_acquisitions = {}", pol.console_acquisitions);
        if let Some(d) = pol.console_launch_day {
            let _ = writeln!(out, "console_launch_day = {d}");
        }
        let _ = writeln!(out, "console_buy_start = {}", pol.console_buy_start);
        let _ = writeln!(out, "console_buy_end = {}", pol.console_buy_end);
        let _ = writeln!(out, "visitor_cutoff = {}", pol.visitor_cutoff);
        for w in &pol.waves {
            let _ = writeln!(out, "\n[[policy.wave]]");
            let _ = writeln!(out, "start = {}", w.start);
            let _ = writeln!(out, "peak = {}", w.peak);
            let _ = writeln!(out, "end = {}", w.end);
            let _ = writeln!(out, "fraction = {}", w.fraction);
            if let Some(r) = w.return_day {
                let _ = writeln!(out, "return_day = {r}");
                let _ = writeln!(out, "return_fraction = {}", w.return_fraction);
            }
        }
        let b = &self.behavior;
        let _ = writeln!(out, "\n[behavior]");
        let _ = writeln!(out, "web = {}", b.web);
        let _ = writeln!(out, "zoom = {}", b.zoom);
        let _ = writeln!(out, "social = {}", b.social);
        let _ = writeln!(out, "steam = {}", b.steam);
        let _ = writeln!(out, "switch = {}", b.switch_games);
        let _ = writeln!(out, "facebook = {}", b.facebook);
        let _ = writeln!(out, "instagram = {}", b.instagram);
        let _ = writeln!(out, "tiktok = {}", b.tiktok);
        if let Some(v) = b.yoy_growth {
            let _ = writeln!(out, "yoy_growth = {v}");
        }
        for p in &self.phases {
            let _ = writeln!(out, "\n[[phase]]");
            let _ = writeln!(out, "name = \"{}\"", esc(&p.name));
            let _ = writeln!(out, "start = {}", p.start);
            let _ = writeln!(out, "end = {}", p.end);
            let _ = writeln!(out, "post_shutdown = {}", p.post_shutdown);
            let _ = writeln!(out, "web_breadth = {}", p.web_breadth);
            let _ = writeln!(out, "zoom_weekday = {}", p.zoom_weekday);
            let _ = writeln!(out, "zoom_weekend = {}", p.zoom_weekend);
            let _ = writeln!(
                out,
                "leisure_domestic = \"{}\"",
                p.leisure_domestic.to_expr()
            );
            let _ = writeln!(
                out,
                "leisure_international = \"{}\"",
                p.leisure_international.to_expr()
            );
            let _ = writeln!(out, "switch = \"{}\"", p.switch_mult.to_expr());
        }
        out
    }

    /// Parse a scenario file (strict TOML subset) and validate it.
    ///
    /// Supported syntax: `key = value` lines, `[population]`, `[policy]`,
    /// `[behavior]` sections, repeatable `[[policy.wave]]` and
    /// `[[phase]]` array sections, `#` comments, quoted strings with
    /// `\"`/`\\` escapes, booleans, integers, and floats. Unknown keys,
    /// unknown sections, and duplicate keys are hard errors.
    pub fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        parse::parse(input)
    }
}

/// The strict line-based parser for the scenario file format.
mod parse {
    use super::*;
    use std::collections::HashSet;

    enum Section {
        Root,
        Population,
        Policy,
        Wave,
        Behavior,
        Phase,
    }

    #[derive(Default)]
    struct PhaseDraft {
        name: Option<String>,
        start: Option<u16>,
        end: Option<u16>,
        post_shutdown: Option<bool>,
        web_breadth: Option<usize>,
        zoom_weekday: Option<f64>,
        zoom_weekend: Option<f64>,
        leisure_domestic: Option<Curve>,
        leisure_international: Option<Curve>,
        switch_mult: Option<Curve>,
    }

    impl PhaseDraft {
        fn finish(self, index: usize) -> Result<PhaseSpec, ScenarioError> {
            let ctx = || format!("[[phase]] #{index}");
            let miss = |key: &str| ScenarioError::MissingKey {
                context: ctx(),
                key: key.to_string(),
            };
            Ok(PhaseSpec {
                name: self.name.ok_or_else(|| miss("name"))?,
                start: self.start.ok_or_else(|| miss("start"))?,
                end: self.end.ok_or_else(|| miss("end"))?,
                post_shutdown: self.post_shutdown.ok_or_else(|| miss("post_shutdown"))?,
                web_breadth: self.web_breadth.ok_or_else(|| miss("web_breadth"))?,
                zoom_weekday: self.zoom_weekday.ok_or_else(|| miss("zoom_weekday"))?,
                zoom_weekend: self.zoom_weekend.ok_or_else(|| miss("zoom_weekend"))?,
                leisure_domestic: self
                    .leisure_domestic
                    .ok_or_else(|| miss("leisure_domestic"))?,
                leisure_international: self
                    .leisure_international
                    .ok_or_else(|| miss("leisure_international"))?,
                switch_mult: self.switch_mult.ok_or_else(|| miss("switch"))?,
            })
        }
    }

    #[derive(Default)]
    struct WaveDraft {
        start: Option<u16>,
        peak: Option<u16>,
        end: Option<u16>,
        fraction: Option<f64>,
        return_day: Option<u16>,
        return_fraction: Option<f64>,
    }

    impl WaveDraft {
        fn finish(self, index: usize) -> Result<WaveSpec, ScenarioError> {
            let miss = |key: &str| ScenarioError::MissingKey {
                context: format!("[[policy.wave]] #{index}"),
                key: key.to_string(),
            };
            if self.return_fraction.is_some() && self.return_day.is_none() {
                return Err(ScenarioError::BadWave {
                    index,
                    msg: "return_fraction requires return_day".to_string(),
                });
            }
            Ok(WaveSpec {
                start: self.start.ok_or_else(|| miss("start"))?,
                peak: self.peak.ok_or_else(|| miss("peak"))?,
                end: self.end.ok_or_else(|| miss("end"))?,
                fraction: self.fraction.ok_or_else(|| miss("fraction"))?,
                return_day: self.return_day,
                return_fraction: self.return_fraction.unwrap_or(1.0),
            })
        }
    }

    /// A scalar value with its source line, for typed conversion errors.
    struct Val<'a> {
        line: usize,
        key: &'a str,
        /// `Some` for quoted strings, `None` for bare scalars.
        string: Option<String>,
        raw: &'a str,
    }

    impl Val<'_> {
        fn bad(&self, msg: &str) -> ScenarioError {
            ScenarioError::BadValue {
                line: self.line,
                key: self.key.to_string(),
                msg: msg.to_string(),
            }
        }

        fn str(self) -> Result<String, ScenarioError> {
            self.string
                .clone()
                .ok_or_else(|| self.bad("expected a quoted string"))
        }

        fn bool(self) -> Result<bool, ScenarioError> {
            if self.string.is_some() {
                return Err(self.bad("expected true or false, got a string"));
            }
            match self.raw {
                "true" => Ok(true),
                "false" => Ok(false),
                _ => Err(self.bad("expected true or false")),
            }
        }

        fn f64(self) -> Result<f64, ScenarioError> {
            if self.string.is_some() {
                return Err(self.bad("expected a number, got a string"));
            }
            let v: f64 = self
                .raw
                .parse()
                .map_err(|_| self.bad("expected a number"))?;
            if !v.is_finite() {
                return Err(self.bad("number must be finite"));
            }
            Ok(v)
        }

        fn u16(self) -> Result<u16, ScenarioError> {
            if self.string.is_some() {
                return Err(self.bad("expected an integer, got a string"));
            }
            self.raw
                .parse()
                .map_err(|_| self.bad("expected a non-negative integer"))
        }

        fn usize(self) -> Result<usize, ScenarioError> {
            if self.string.is_some() {
                return Err(self.bad("expected an integer, got a string"));
            }
            self.raw
                .parse()
                .map_err(|_| self.bad("expected a non-negative integer"))
        }

        fn curve(self) -> Result<Curve, ScenarioError> {
            let key = self.key.to_string();
            let s = self.str()?;
            Curve::parse_expr(&key, &s)
        }
    }

    /// Split a quoted string off `rest`, honoring `\"` and `\\` escapes;
    /// returns the unescaped string and what follows the closing quote.
    fn take_string(rest: &str) -> Option<(String, &str)> {
        let rest = rest.strip_prefix('"')?;
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    _ => return None,
                },
                '"' => return Some((out, &rest[i + 1..])),
                _ => out.push(c),
            }
        }
        None
    }

    pub(super) fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        let mut section = Section::Root;
        let mut seen: HashSet<String> = HashSet::new();

        let mut name: Option<String> = None;
        let mut description: Option<String> = None;
        let mut population = PopulationSpec::default();
        let mut policy = PolicySpec::default();
        let mut behavior = BehaviorSpec::default();
        let mut waves: Vec<WaveSpec> = Vec::new();
        let mut phases: Vec<PhaseSpec> = Vec::new();
        let mut wave_draft: Option<WaveDraft> = None;
        let mut phase_draft: Option<PhaseDraft> = None;

        // Close out a pending [[policy.wave]] / [[phase]] when a new
        // section starts (or at end of input).
        macro_rules! flush_arrays {
            () => {
                if let Some(d) = wave_draft.take() {
                    waves.push(d.finish(waves.len())?);
                }
                if let Some(d) = phase_draft.take() {
                    phases.push(d.finish(phases.len())?);
                }
            };
        }

        for (idx, raw) in input.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let syntax = |msg: &str| ScenarioError::Syntax {
                line: lineno,
                msg: msg.to_string(),
            };
            if let Some(bracketed) = line.strip_prefix('[') {
                // Section header; allow a trailing comment.
                let (depth, rest) = match line.strip_prefix("[[") {
                    Some(r) => (2usize, r),
                    None => (1usize, bracketed),
                };
                let close = rest
                    .find(']')
                    .ok_or_else(|| syntax("unterminated section header"))?;
                let header = rest[..close].trim();
                let mut after = &rest[close..];
                for _ in 0..depth {
                    after = after
                        .strip_prefix(']')
                        .ok_or_else(|| syntax("mismatched section brackets"))?;
                }
                let after = after.trim_start();
                if !after.is_empty() && !after.starts_with('#') {
                    return Err(syntax("trailing junk after section header"));
                }
                flush_arrays!();
                seen.clear();
                section = match (depth, header) {
                    (1, "population") => Section::Population,
                    (1, "policy") => Section::Policy,
                    (1, "behavior") => Section::Behavior,
                    (2, "policy.wave") => {
                        wave_draft = Some(WaveDraft::default());
                        Section::Wave
                    }
                    (2, "phase") => {
                        phase_draft = Some(PhaseDraft::default());
                        Section::Phase
                    }
                    _ => {
                        return Err(ScenarioError::UnknownKey {
                            line: lineno,
                            key: format!("[{header}]"),
                        })
                    }
                };
                continue;
            }
            let eq = line
                .find('=')
                .ok_or_else(|| syntax("expected `key = value`"))?;
            let key = line[..eq].trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(syntax("malformed key"));
            }
            if !seen.insert(key.to_string()) {
                return Err(ScenarioError::DuplicateKey {
                    line: lineno,
                    key: key.to_string(),
                });
            }
            let rest = line[eq + 1..].trim();
            let val = if rest.starts_with('"') {
                let (s, tail) = take_string(rest).ok_or_else(|| syntax("unterminated string"))?;
                let tail = tail.trim_start();
                if !tail.is_empty() && !tail.starts_with('#') {
                    return Err(syntax("trailing junk after string value"));
                }
                Val {
                    line: lineno,
                    key,
                    string: Some(s),
                    raw: "",
                }
            } else {
                let scalar = rest.split('#').next().unwrap_or("").trim();
                if scalar.is_empty() {
                    return Err(syntax("missing value"));
                }
                Val {
                    line: lineno,
                    key,
                    string: None,
                    raw: scalar,
                }
            };
            let unknown = || ScenarioError::UnknownKey {
                line: lineno,
                key: key.to_string(),
            };
            match section {
                Section::Root => match key {
                    "name" => name = Some(val.str()?),
                    "description" => description = Some(val.str()?),
                    _ => return Err(unknown()),
                },
                Section::Population => match key {
                    "intl_fraction" => population.intl_fraction = Some(val.f64()?),
                    "domestic_stay_rate" => population.domestic_stay_rate = Some(val.f64()?),
                    "intl_stay_rate" => population.intl_stay_rate = Some(val.f64()?),
                    _ => return Err(unknown()),
                },
                Section::Policy => match key {
                    "departures" => policy.departures = val.bool()?,
                    "console_acquisitions" => policy.console_acquisitions = val.bool()?,
                    "console_launch_day" => policy.console_launch_day = Some(val.u16()?),
                    "console_buy_start" => policy.console_buy_start = val.u16()?,
                    "console_buy_end" => policy.console_buy_end = val.u16()?,
                    "visitor_cutoff" => policy.visitor_cutoff = val.u16()?,
                    _ => return Err(unknown()),
                },
                Section::Wave => {
                    let d = wave_draft.as_mut().unwrap_or_else(|| unreachable!());
                    match key {
                        "start" => d.start = Some(val.u16()?),
                        "peak" => d.peak = Some(val.u16()?),
                        "end" => d.end = Some(val.u16()?),
                        "fraction" => d.fraction = Some(val.f64()?),
                        "return_day" => d.return_day = Some(val.u16()?),
                        "return_fraction" => d.return_fraction = Some(val.f64()?),
                        _ => return Err(unknown()),
                    }
                }
                Section::Behavior => match key {
                    "web" => behavior.web = val.f64()?,
                    "zoom" => behavior.zoom = val.f64()?,
                    "social" => behavior.social = val.f64()?,
                    "steam" => behavior.steam = val.f64()?,
                    "switch" => behavior.switch_games = val.f64()?,
                    "facebook" => behavior.facebook = val.f64()?,
                    "instagram" => behavior.instagram = val.f64()?,
                    "tiktok" => behavior.tiktok = val.f64()?,
                    "yoy_growth" => behavior.yoy_growth = Some(val.f64()?),
                    _ => return Err(unknown()),
                },
                Section::Phase => {
                    let d = phase_draft.as_mut().unwrap_or_else(|| unreachable!());
                    match key {
                        "name" => d.name = Some(val.str()?),
                        "start" => d.start = Some(val.u16()?),
                        "end" => d.end = Some(val.u16()?),
                        "post_shutdown" => d.post_shutdown = Some(val.bool()?),
                        "web_breadth" => d.web_breadth = Some(val.usize()?),
                        "zoom_weekday" => d.zoom_weekday = Some(val.f64()?),
                        "zoom_weekend" => d.zoom_weekend = Some(val.f64()?),
                        "leisure_domestic" => d.leisure_domestic = Some(val.curve()?),
                        "leisure_international" => d.leisure_international = Some(val.curve()?),
                        "switch" => d.switch_mult = Some(val.curve()?),
                        _ => return Err(unknown()),
                    }
                }
            }
        }
        flush_arrays!();
        policy.waves = waves;
        let scenario = Scenario {
            name: name.ok_or_else(|| ScenarioError::MissingKey {
                context: "scenario".to_string(),
                key: "name".to_string(),
            })?,
            description: description.unwrap_or_default(),
            phases,
            policy,
            population,
            behavior,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::time::{Phase, StudyCalendar};

    /// The legacy hard-coded leisure multiplier (model.rs before the
    /// scenario engine), inlined here verbatim as the reference.
    fn legacy_leisure(subpop: SubPop, day: Day) -> f64 {
        let d = day.0 as f64;
        let intl = subpop == SubPop::International;
        match StudyCalendar::phase_of(day.start()) {
            Phase::PreEmergency => 1.0,
            Phase::Emergency => 1.05,
            Phase::PandemicDeclared => 1.12,
            Phase::StayAtHome => {
                if intl {
                    1.35
                } else {
                    1.18
                }
            }
            Phase::Break => {
                if intl {
                    1.95
                } else {
                    1.28
                }
            }
            Phase::OnlineTerm => {
                let (peak, floor) = if intl { (2.15, 1.50) } else { (1.78, 1.10) };
                if d <= 63.0 {
                    let base = if intl { 1.95 } else { 1.28 };
                    base + (peak - base) * ((d - 58.0) / 5.0).clamp(0.0, 1.0)
                } else {
                    peak + (floor - peak) * ((d - 63.0) / (120.0 - 63.0)).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// The legacy hard-coded Zoom hours table.
    fn legacy_zoom(day: Day) -> f64 {
        let weekend = day.weekday().is_weekend();
        match StudyCalendar::phase_of(day.start()) {
            Phase::PreEmergency => {
                if weekend {
                    0.01
                } else {
                    0.05
                }
            }
            Phase::Emergency => {
                if weekend {
                    0.02
                } else {
                    0.15
                }
            }
            Phase::PandemicDeclared => {
                if weekend {
                    0.05
                } else {
                    0.55
                }
            }
            Phase::StayAtHome => {
                if weekend {
                    0.08
                } else {
                    0.9
                }
            }
            Phase::Break => {
                if weekend {
                    0.08
                } else {
                    0.12
                }
            }
            Phase::OnlineTerm => {
                if weekend {
                    0.25
                } else {
                    2.6
                }
            }
        }
    }

    /// The legacy hard-coded Switch gameplay multiplier.
    fn legacy_switch(day: Day) -> f64 {
        let d = day.0 as f64;
        let base = match StudyCalendar::phase_of(day.start()) {
            Phase::PreEmergency => 1.0,
            Phase::Emergency => 1.05,
            Phase::PandemicDeclared => 1.15,
            Phase::StayAtHome => 1.6,
            Phase::Break => 2.7,
            Phase::OnlineTerm => {
                if d <= 67.0 {
                    2.0
                } else if d <= 95.0 {
                    2.0 - (d - 67.0) / 28.0
                } else {
                    1.0 + 0.6 * ((d - 95.0) / 25.0).min(1.0)
                }
            }
        };
        if day.weekday().is_weekend() {
            base * 1.4
        } else {
            base
        }
    }

    /// The legacy hard-coded web breadth table.
    fn legacy_breadth(day: Day) -> usize {
        match StudyCalendar::phase_of(day.start()) {
            Phase::PreEmergency | Phase::Emergency => 14,
            Phase::PandemicDeclared | Phase::StayAtHome => 15,
            Phase::Break => 18,
            Phase::OnlineTerm => 21,
        }
    }

    fn all_days() -> impl Iterator<Item = Day> {
        (0..StudyCalendar::NUM_DAYS).map(Day)
    }

    #[test]
    fn paper_2020_matches_legacy_tables_bit_for_bit() {
        let s = paper_2020();
        for day in all_days() {
            for subpop in [SubPop::Domestic, SubPop::International] {
                let got = s.leisure_multiplier(subpop, day);
                let want = legacy_leisure(subpop, day);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "leisure {subpop:?} day {}: {got} != {want}",
                    day.0
                );
            }
            assert_eq!(
                s.zoom_hours(day).to_bits(),
                legacy_zoom(day).to_bits(),
                "zoom day {}",
                day.0
            );
            assert_eq!(
                s.switch_multiplier(day).to_bits(),
                legacy_switch(day).to_bits(),
                "switch day {}",
                day.0
            );
            assert_eq!(
                s.web_breadth(day),
                legacy_breadth(day),
                "breadth day {}",
                day.0
            );
            assert_eq!(
                s.post_shutdown(day),
                StudyCalendar::phase_of(day.start()) >= Phase::StayAtHome,
                "post day {}",
                day.0
            );
        }
    }

    #[test]
    fn baseline_2019_is_flat_with_drift() {
        let s = match Scenario::builtin(BASELINE_2019) {
            Ok(s) => s,
            Err(e) => panic!("baseline-2019 must parse: {e}"),
        };
        for day in all_days() {
            let d = day.0 as f64;
            let want = 1.0 + 0.05 * (d / 120.0);
            for subpop in [SubPop::Domestic, SubPop::International] {
                assert_eq!(s.leisure_multiplier(subpop, day).to_bits(), want.to_bits());
            }
            let weekend = day.weekday().is_weekend();
            let zoom: f64 = if weekend { 0.01 } else { 0.05 };
            assert_eq!(s.zoom_hours(day).to_bits(), zoom.to_bits());
            let switch: f64 = if weekend { 1.4 } else { 1.0 };
            assert_eq!(s.switch_multiplier(day).to_bits(), switch.to_bits());
        }
        assert!(s.is_baseline());
        assert_eq!(s.effective_yoy(1.03), 1.0);
    }

    #[test]
    fn paper_counterfactual_is_builtin_baseline() {
        let cf = paper_2020().counterfactual();
        assert_eq!(cf.name, BASELINE_2019);
        let builtin = Scenario::builtin(BASELINE_2019).unwrap();
        assert_eq!(cf, builtin);
        // Idempotent: a baseline's counterfactual is itself.
        assert_eq!(cf.counterfactual(), cf);
    }

    #[test]
    fn generic_counterfactual_preserves_rng_structure() {
        let s = Scenario::builtin("staggered-reopening").unwrap();
        let cf = s.counterfactual();
        assert_eq!(cf.name, "staggered-reopening-counterfactual");
        assert!(cf.is_baseline());
        assert!(!cf.policy.departures);
        assert!(!cf.policy.console_acquisitions);
        assert_eq!(cf.policy.console_launch_day, None);
        // Wave structure and buy window survive so the per-student draw
        // sequence is identical between a scenario and its twin.
        assert_eq!(cf.policy.waves, s.policy.waves);
        assert_eq!(cf.policy.console_buy_start, s.policy.console_buy_start);
        assert_eq!(cf.policy.console_buy_end, s.policy.console_buy_end);
        assert_eq!(cf.phases.len(), s.phases.len());
        for (p, orig) in cf.phases.iter().zip(&s.phases) {
            assert_eq!(p.start, orig.start);
            assert_eq!(p.end, orig.end);
            assert_eq!(p.post_shutdown, orig.post_shutdown);
        }
        assert_eq!(cf.effective_yoy(1.03), 1.0);
        assert_eq!(cf.validate(), Ok(()));
    }

    #[test]
    fn builtin_library_exposes_four_scenarios() {
        let names = Scenario::builtin_names();
        assert_eq!(
            names,
            vec![
                "paper-2020",
                "baseline-2019",
                "favale-elearning",
                "staggered-reopening"
            ]
        );
        for name in names {
            let s = Scenario::builtin(name).unwrap();
            assert_eq!(s.name, name);
            assert_eq!(s.validate(), Ok(()));
        }
        assert!(matches!(
            Scenario::builtin("nope"),
            Err(ScenarioError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn round_trip_is_a_fixpoint_for_all_builtins() {
        for s in Scenario::builtins() {
            let toml = s.to_toml();
            let back = match Scenario::parse(&toml) {
                Ok(b) => b,
                Err(e) => panic!("{}: canonical form must re-parse: {e}", s.name),
            };
            assert_eq!(&back, s, "{} round trip changed the scenario", s.name);
            assert_eq!(back.to_toml(), toml, "{} serialize not a fixpoint", s.name);
            assert_eq!(back.content_hash(), s.content_hash());
        }
    }

    #[test]
    fn phase_edges_stay_continuous() {
        // Behaviour multipliers may step at phase boundaries, but never
        // by an absurd amount: the curves in every built-in are designed
        // so adjacent days differ by < 0.8, keeping figure lines
        // plausible across scenario-defined boundaries.
        for s in Scenario::builtins() {
            for day in (1..StudyCalendar::NUM_DAYS).map(Day) {
                let prev = Day(day.0 - 1);
                for subpop in [SubPop::Domestic, SubPop::International] {
                    let jump = (s.leisure_multiplier(subpop, day)
                        - s.leisure_multiplier(subpop, prev))
                    .abs();
                    assert!(
                        jump < 0.8,
                        "{}: leisure {subpop:?} jumps {jump} at day {}",
                        s.name,
                        day.0
                    );
                }
            }
        }
    }

    #[test]
    fn parse_rejects_unknown_keys() {
        let mut toml = paper_2020().to_toml();
        toml.push_str("\n[behavior]\nwarp_factor = 9\n");
        match Scenario::parse(&toml) {
            Err(ScenarioError::UnknownKey { key, .. }) => assert_eq!(key, "warp_factor"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        let toml = "name = \"x\"\nname = \"y\"\n";
        assert!(matches!(
            Scenario::parse(toml),
            Err(ScenarioError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn parse_rejects_phase_gaps_and_overlaps() {
        let mk = |second_start: u16| {
            format!(
                "name = \"t\"\n\
                 [[phase]]\nname = \"a\"\nstart = 0\nend = 50\npost_shutdown = false\n\
                 web_breadth = 14\nzoom_weekday = 0.05\nzoom_weekend = 0.01\n\
                 leisure_domestic = \"const(1)\"\nleisure_international = \"const(1)\"\n\
                 switch = \"const(1)\"\n\
                 [[phase]]\nname = \"b\"\nstart = {second_start}\nend = 120\npost_shutdown = false\n\
                 web_breadth = 14\nzoom_weekday = 0.05\nzoom_weekend = 0.01\n\
                 leisure_domestic = \"const(1)\"\nleisure_international = \"const(1)\"\n\
                 switch = \"const(1)\"\n"
            )
        };
        assert!(Scenario::parse(&mk(51)).is_ok());
        // Gap.
        assert!(matches!(
            Scenario::parse(&mk(52)),
            Err(ScenarioError::PhaseGap { .. })
        ));
        // Overlap.
        assert!(matches!(
            Scenario::parse(&mk(50)),
            Err(ScenarioError::PhaseGap { .. })
        ));
    }

    #[test]
    fn parse_rejects_out_of_range_days() {
        let toml = "name = \"t\"\n\
             [[phase]]\nname = \"a\"\nstart = 0\nend = 121\npost_shutdown = false\n\
             web_breadth = 14\nzoom_weekday = 0.05\nzoom_weekend = 0.01\n\
             leisure_domestic = \"const(1)\"\nleisure_international = \"const(1)\"\n\
             switch = \"const(1)\"\n";
        assert!(matches!(
            Scenario::parse(toml),
            Err(ScenarioError::DayOutOfRange { .. })
        ));
    }

    #[test]
    fn parse_rejects_incomplete_coverage() {
        let toml = "name = \"t\"\n\
             [[phase]]\nname = \"a\"\nstart = 0\nend = 100\npost_shutdown = false\n\
             web_breadth = 14\nzoom_weekday = 0.05\nzoom_weekend = 0.01\n\
             leisure_domestic = \"const(1)\"\nleisure_international = \"const(1)\"\n\
             switch = \"const(1)\"\n";
        assert!(matches!(
            Scenario::parse(toml),
            Err(ScenarioError::DayOutOfRange { .. })
        ));
    }

    #[test]
    fn parse_reports_syntax_errors_with_line_numbers() {
        match Scenario::parse("name = \"x\"\nthis is not toml\n") {
            Err(ScenarioError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn curve_expr_round_trips() {
        for expr in [
            "const(1)",
            "const(1.15)",
            "lerp(1.28, 1.78, 58, 5)",
            "rise(1, 0.6, 95, 25)",
            "drift(1, 0.05, 120)",
            "until 63: lerp(1.95, 2.15, 58, 5); lerp(2.15, 1.5, 63, 57)",
        ] {
            let c = Curve::parse_expr("test", expr).unwrap();
            assert_eq!(c.to_expr(), expr);
        }
        assert!(Curve::parse_expr("test", "warble(3)").is_err());
        assert!(Curve::parse_expr("test", "lerp(1, 2, 0, 0)").is_err());
        assert!(Curve::parse_expr("test", "until 5: const(1)").is_err());
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = paper_2020();
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.behavior.zoom = 1.5;
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash_hex().len(), 16);
    }

    #[test]
    fn social_and_steam_apply_behavior_multipliers() {
        let s = paper_2020();
        let base =
            model::social_base_hours(SocialApp::Instagram, SubPop::Domestic, false).get(Month::Apr);
        assert_eq!(
            s.social_monthly_hours(SocialApp::Instagram, SubPop::Domestic, false, Month::Apr),
            base
        );
        let mut boosted = s.clone();
        boosted.behavior.social = 2.0;
        boosted.behavior.instagram = 1.5;
        assert_eq!(
            boosted.social_monthly_hours(SocialApp::Instagram, SubPop::Domestic, false, Month::Apr),
            base * 3.0
        );
        let sm = s.steam_month(SubPop::Domestic, Month::Apr);
        let mut heavy = s.clone();
        heavy.behavior.steam = 2.0;
        let sm2 = heavy.steam_month(SubPop::Domestic, Month::Apr);
        assert_eq!(sm2.median_bytes, sm.median_bytes * 2.0);
        assert_eq!(sm2.active_prob, sm.active_prob);
    }

    #[test]
    fn is_paper_default_detects_the_stock_scenario() {
        assert!(Scenario::default().is_paper_default());
        let mut tweaked = Scenario::default();
        tweaked.behavior.web = 1.1;
        assert!(!tweaked.is_paper_default());
        assert!(!Scenario::builtin(BASELINE_2019).unwrap().is_paper_default());
    }
}
