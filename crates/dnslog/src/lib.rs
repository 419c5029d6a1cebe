//! # dnslog — DNS logs and remote-IP labeling
//!
//! Third stage of the measurement pipeline (§3): contemporaneous DNS logs
//! convert remote IP addresses to the domain names devices actually
//! resolved, which is what lets the study distinguish services.
//!
//! * [`domain`] — validated domain names, suffix matching, registered
//!   domains (eTLD+1), and interning.
//! * [`query`] — the query-log record, its inline answer set, and the
//!   line codec.
//! * [`resolver`] — the temporal remote-IP → domain index and flow
//!   labeling.
//! * [`sites`] — per-device distinct-site accounting (the paper's "34%
//!   more distinct sites" statistic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod query;
pub mod resolver;
pub mod sites;

pub use domain::{DomainId, DomainName, DomainTable};
pub use query::{Answers, DnsQuery, INLINE_ANSWERS};
pub use resolver::{LabelStats, LabeledFlow, ResolverMap};
pub use sites::DistinctSiteCounter;

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
