//! # lockdown-core — the study orchestrator
//!
//! Ties the reproduction together: the synthetic campus (`campussim`)
//! feeds the measurement pipeline (`dhcplog` normalization + `dnslog`
//! labeling), whose output streams into the `analysis` collectors; the
//! finalized summary yields every figure and headline statistic of
//! *Locked-In during Lock-Down* (IMC '21).
//!
//! ```no_run
//! use lockdown_core::Study;
//! use campussim::SimConfig;
//!
//! # fn main() -> Result<(), lockdown_core::StudyError> {
//! let study = Study::builder(SimConfig::at_scale(0.05))
//!     .threads(8)
//!     .run()?
//!     .into_study();
//! println!("{}", lockdown_core::report::text_report(&study, None));
//! println!("{}", lockdown_core::report::metrics_report(&study));
//! # Ok(())
//! # }
//! ```
//!
//! Every fallible surface returns a typed [`StudyError`]; day-level
//! faults are isolated, retried, and reported through
//! [`Study::degraded`] (see the `docs/ROBUSTNESS.md` chapter of the
//! repository).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod pipeline;
pub mod report;
pub mod study;

pub use error::{DayFailure, DegradedReport, StudyError};
pub use pipeline::{
    process_day, process_day_batched, record_fault_stats, DayPipeline, PipelineOptions,
    DEFAULT_BATCH_ROWS, DEFAULT_LIVE_TICK,
};
pub use report::run_manifest;
pub use study::{
    Counterfactual, DigestStudy, MatrixCell, MatrixRun, ShardingReport, Study, StudyBuilder,
    StudyRun,
};

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
