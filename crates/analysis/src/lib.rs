//! # analysis — statistics, collectors, and figure extraction
//!
//! One streaming pass over the labeled flow stream (the
//! [`collect::StudyCollector`]) feeds every figure and headline
//! statistic of the paper; [`figures`] reduces the collected state after
//! classification and segmentation, with one selection per figure that
//! exact runs and per-shard [`digest`]s share; [`ascii`] and [`export`]
//! render the results for terminals and files; [`accuracy`] holds the
//! digest contract and the one figure-file diff that checks it, for the
//! tests and `repro compare` alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod ascii;
pub mod collect;
pub mod digest;
pub mod export;
pub mod figures;
pub mod matrix;
pub mod stats;

pub use accuracy::{FigureClass, FIGURE_CLASSES};
pub use collect::{PipelineCtx, StudyCollector};
pub use digest::{DigestFigures, LogHist, ShardDigest, QUANTILE_BOUND};
pub use export::ExportError;
pub use figures::{headline_stats, HeadlineStats, StudySummary};
pub use stats::BoxStats;

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
