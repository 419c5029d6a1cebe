//! # geoloc — geolocation and sub-population segmentation
//!
//! The pieces of §4.2 of the paper: geolocate the destinations each
//! device contacted in February (excluding CDNs), compute the
//! byte-weighted geographic midpoint per device, and test whether that
//! midpoint falls inside the United States (domestic) or not
//! (international). The study applies these pieces in `analysis`: its
//! collector accumulates the midpoints, and its summary labels each
//! post-shutdown device by [`MidpointAccumulator::subpop`].
//!
//! * [`atlas`] — the longest-prefix-match geolocation database and the
//!   built-in synthetic world the trace generator and pipeline share.
//! * [`midpoint`] — spherical weighted midpoints, the US border test and
//!   the rule that turns a midpoint into a [`SubPop`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod midpoint;

pub use atlas::{
    builtin_geodb, builtin_regions, cdn_prefixes, CountryCode, GeoDb, GeoEntry, Region,
};
pub use midpoint::{in_united_states, MidpointAccumulator, SubPop};

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
