//! # geoloc — geolocation and sub-population segmentation
//!
//! The pieces of §4.2 of the paper: geolocate the destinations each
//! device contacted in February (excluding CDNs), compute the
//! byte-weighted geographic midpoint per device, and test whether that
//! midpoint falls inside the United States (domestic) or not
//! (international). The study's classifier is `analysis`'s collector and
//! summary, which apply these pieces.
//!
//! * [`atlas`] — the longest-prefix-match geolocation database and the
//!   built-in synthetic world the trace generator and pipeline share.
//! * [`midpoint`] — spherical weighted midpoints and the US border test.

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
