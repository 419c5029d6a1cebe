//! # locked-in-lockdown — umbrella crate
//!
//! Re-exports the whole reproduction of *Locked-In during Lock-Down:
//! Undergraduate Life on the Internet in a Pandemic* (IMC '21) behind one
//! dependency. See the README for the architecture and DESIGN.md for the
//! paper-to-module map.
//!
//! ```no_run
//! use locked_in_lockdown::prelude::*;
//!
//! # fn main() -> Result<(), StudyError> {
//! let study = Study::builder(SimConfig::at_scale(0.02))
//!     .threads(4)
//!     .run()?
//!     .into_study();
//! let stats = study.headline();
//! println!("post-shutdown devices: {}", stats.post_shutdown_devices);
//! println!("flows assembled: {}", study.metrics().counter("pipeline.flows_in"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use appsig;
pub use campussim;
pub use devclass;
pub use dhcplog;
pub use dnslog;
pub use geoloc;
pub use lockdown_core;
pub use lockdown_obs;
pub use nettrace;

/// Convenient imports for the common workflow.
pub mod prelude {
    pub use analysis::collect::{PipelineCtx, StudyCollector};
    pub use analysis::figures::StudySummary;
    pub use campussim::{CampusSim, FaultProfile, SimConfig};
    pub use lockdown_core::{
        report, DayFailure, DegradedReport, Study, StudyBuilder, StudyError, StudyRun,
    };
    pub use lockdown_obs::{
        LivePublisher, MetricsRegistry, MetricsSnapshot, Progress, TelemetryServer,
    };
    pub use nettrace::time::{Day, Month, Phase, StudyCalendar};
}
