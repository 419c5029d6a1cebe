//! Simulation configuration.
//!
//! Defaults are calibrated so that, at `scale = 1.0`, the synthetic campus
//! reproduces the paper's headline population numbers (≈32k peak active
//! devices, ≈6.5k post-shutdown devices, ≈1.1k Switches, 18% measured
//! international share). Counts scale linearly with `scale`; medians and
//! shapes are scale-invariant.

use std::fmt;

use crate::scenario::{Scenario, ScenarioError};

/// A structurally invalid [`SimConfig`], caught by
/// [`SimConfig::validate`] before a run starts rather than as a NaN or
/// a panic deep inside the generator.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `scale` must be finite and strictly positive.
    BadScale(f64),
    /// `yoy_growth` must be finite and strictly positive (it is a
    /// multiplicative factor, not a rate).
    BadGrowth(f64),
    /// The attached scenario failed structural validation.
    Scenario(ScenarioError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadScale(v) => {
                write!(f, "scale must be finite and > 0, got {v}")
            }
            ConfigError::BadGrowth(v) => {
                write!(f, "yoy_growth must be finite and > 0, got {v}")
            }
            ConfigError::Scenario(e) => write!(f, "scenario: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fraction of the student body that is international (the paper
/// cites ~25% campus-wide enrollment), unless the scenario's
/// `[population]` block sets `intl_fraction`.
pub const DEFAULT_INTL_FRACTION: f64 = 0.25;

/// Probability a domestic student stays on campus post-shutdown, unless
/// the scenario's `[population]` block sets `domestic_stay_rate`.
pub const DEFAULT_DOMESTIC_STAY_RATE: f64 = 0.115;

/// Probability an international student stays (higher: flights home
/// were scarce, §4.2), unless the scenario's `[population]` block sets
/// `intl_stay_rate`.
pub const DEFAULT_INTL_STAY_RATE: f64 = 0.148;

/// Top-level simulation configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Master seed; every random choice derives from it.
    pub seed: u64,
    /// Linear population scale. 1.0 ≈ the paper's campus; the default
    /// 0.1 keeps full-study runs interactive.
    pub scale: f64,
    /// Students enrolled in residence halls at scale 1.0.
    pub base_students: usize,
    /// Year-over-year secular traffic growth applied to 2020 baselines
    /// relative to the 2019 counterfactual (≈3%/yr keeps the paper's
    /// 58%-vs-Feb and 53%-vs-2019 statistics distinct).
    pub yoy_growth: f64,
    /// Anonymization key for MAC → DeviceId (§3 privacy controls).
    pub anon_key: u64,
    /// The timeline/policy/behaviour scenario driving the model layer.
    /// Defaults to the built-in `paper-2020`. For the 2019-style
    /// counterfactual twin of a config, use
    /// [`Scenario::counterfactual_of`].
    pub scenario: Scenario,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed_2020,
            scale: 0.1,
            base_students: 13_000,
            yoy_growth: 1.03,
            anon_key: 0x0a0a_0a0a_5a5a_5a5a,
            scenario: Scenario::default(),
        }
    }
}

/// Matches the pre-scenario-engine `#[derive(Debug)]` output
/// byte-for-byte for configs running the stock paper scenario, so the
/// manifest `config_hash` (an FNV-1a over `format!("{cfg:?}")`) is
/// stable across both the scenario-engine introduction and the removal
/// of the legacy `pandemic` field: the printed `pandemic` flag is now
/// *derived* from the scenario (`true` iff it has pandemic-era events),
/// and the population mix prints the defaults the former fields held.
/// Non-default scenarios append their name and content hash, giving
/// distinct hashes per scenario cell.
impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("SimConfig");
        s.field("seed", &self.seed)
            .field("scale", &self.scale)
            .field("base_students", &self.base_students)
            .field("intl_fraction", &DEFAULT_INTL_FRACTION)
            .field("domestic_stay_rate", &DEFAULT_DOMESTIC_STAY_RATE)
            .field("intl_stay_rate", &DEFAULT_INTL_STAY_RATE)
            .field("pandemic", &!self.scenario.is_baseline())
            .field("yoy_growth", &self.yoy_growth)
            .field("anon_key", &self.anon_key);
        if !self.scenario.is_paper_default() {
            s.field("scenario", &self.scenario.name).field(
                "scenario_hash",
                &format_args!("{:016x}", self.scenario.content_hash()),
            );
        }
        s.finish()
    }
}

impl SimConfig {
    /// Config with a given scale, other knobs default.
    pub fn at_scale(scale: f64) -> Self {
        SimConfig {
            scale,
            ..Default::default()
        }
    }

    /// Number of students after scaling.
    pub fn num_students(&self) -> usize {
        ((self.base_students as f64) * self.scale).round().max(1.0) as usize
    }

    /// Check every knob for structural validity. The study runner calls
    /// this before building a population, so a bad config is one typed
    /// error instead of a panic (or, worse, a silently absurd campus).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(ConfigError::BadScale(self.scale));
        }
        if !self.yoy_growth.is_finite() || self.yoy_growth <= 0.0 {
            return Err(ConfigError::BadGrowth(self.yoy_growth));
        }
        self.scenario.validate().map_err(ConfigError::Scenario)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling() {
        let c = SimConfig::at_scale(0.1);
        assert_eq!(c.num_students(), 1300);
        let c = SimConfig::at_scale(1.0);
        assert_eq!(c.num_students(), 13_000);
        let c = SimConfig::at_scale(0.00001);
        assert_eq!(c.num_students(), 1);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_nonsense() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(
            Scenario::counterfactual_of(&SimConfig::default()).validate(),
            Ok(())
        );
        let bad = SimConfig {
            scale: 0.0,
            ..Default::default()
        };
        assert!(matches!(bad.validate(), Err(ConfigError::BadScale(_))));
        let bad = SimConfig {
            scale: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(bad.validate(), Err(ConfigError::BadScale(_))));
        // The population mix is set by the scenario, which range-checks it.
        let mut bad = SimConfig::default();
        bad.scenario.population.intl_fraction = Some(1.5);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::Scenario(ScenarioError::BadField { ref field, .. }))
                if field == "population.intl_fraction"
        ));
        let bad = SimConfig {
            yoy_growth: -1.0,
            ..Default::default()
        };
        assert!(matches!(bad.validate(), Err(ConfigError::BadGrowth(_))));
        // Errors render for operators.
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("yoy_growth"));
    }

    #[test]
    fn counterfactual_of_swaps_in_the_baseline_scenario() {
        let c = SimConfig::default();
        let cf = Scenario::counterfactual_of(&c);
        assert_eq!(cf.scenario.name, "baseline-2019");
        assert!(cf.scenario.is_baseline());
        assert_eq!(cf.yoy_growth, 1.0);
        assert_eq!(cf.seed, c.seed);
        assert_eq!(cf.num_students(), c.num_students());
        // The twin advertises itself in Debug (and thus the config hash).
        let dbg = format!("{cf:?}");
        assert!(dbg.contains("pandemic: false"));
        assert!(dbg.contains("scenario: \"baseline-2019\""));
    }

    #[test]
    fn debug_output_matches_legacy_derive_for_paper_scenario() {
        // The manifest config hash is FNV-1a over this string; it must
        // not move for stock-paper runs when the scenario field rides
        // along (or when the legacy boolean field is gone, as now).
        let c = SimConfig::default();
        let dbg = format!("{c:?}");
        assert_eq!(
            dbg,
            "SimConfig { seed: 1592598560, scale: 0.1, base_students: 13000, \
             intl_fraction: 0.25, domestic_stay_rate: 0.115, intl_stay_rate: 0.148, \
             pandemic: true, yoy_growth: 1.03, anon_key: 723401729728207450 }"
        );
        assert!(!dbg.contains("scenario"));
        // A non-default scenario shows up (and changes the hash).
        let alt = SimConfig {
            scenario: Scenario::builtin("favale-elearning").unwrap(),
            ..SimConfig::default()
        };
        let alt_dbg = format!("{alt:?}");
        assert!(alt_dbg.contains("scenario: \"favale-elearning\""));
        assert!(alt_dbg.contains("scenario_hash: "));
    }
}
