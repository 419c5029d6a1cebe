//! # nettrace — packet and flow substrate
//!
//! This crate is the bottom layer of the *Locked-In during Lock-Down*
//! reproduction. It provides everything the measurement pipeline needs to
//! speak about raw traffic:
//!
//! * [`time`] — the study clock and academic/pandemic calendar used by every
//!   analysis in the paper (Feb 1 – May 31, 2020, with the four event dates
//!   marked in the paper's figures).
//! * [`mac`] — MAC addresses, OUI (vendor prefix) extraction, and the
//!   anonymized device tokens the privacy-preserving pipeline keys on.
//! * [`ip`] — CIDR prefixes and address utilities used by signature matching
//!   and the geolocation atlas.
//! * [`ethernet`], [`ipv4`], [`tcp`], [`udp`] — zero-copy header codecs in
//!   the style of `smoltcp`: simple, robust, no macro tricks.
//! * [`packet`] — composition of the codecs into whole frames.
//! * [`pcap`] — classic libpcap file read/write for interoperability.
//! * [`flow`] — Zeek `conn.log`-style flow records, the lingua franca of the
//!   paper's pipeline.
//! * [`zeek`] — `conn.log` text interop, so real Zeek output can feed the
//!   analyses and synthetic traces can be inspected with standard tools.
//! * [`assembler`] — a flow table that turns a packet stream back into flow
//!   records (the "Zeek" stage of the pipeline).
//! * [`fasthash`] — the deterministic fxhash-style hasher behind every
//!   hot-path map (device ids and interned ids are trusted keys; SipHash
//!   hardening is wasted on them).
//! * [`devmap`] — dense per-device slots: the one index a study collector
//!   numbers its devices with, and the slot-indexed store for signals
//!   only some devices have.
//!
//! The crate is deliberately free of I/O beyond `pcap` and free of
//! dependencies; everything above it (DHCP normalization,
//! DNS labeling, classification, analysis) builds on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assembler;
pub mod batch;
pub mod devmap;
pub mod error;
pub mod ethernet;
pub mod fasthash;
pub mod flow;
pub mod ip;
pub mod ipv4;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod time;
pub mod udp;
pub mod zeek;

pub use batch::{BatchStage, FlowBatch, NO_LABEL};
pub use devmap::{DeviceIndex, SlotValues};
pub use error::{Error, Result};
pub use fasthash::{FastMap, FastSet};
pub use flow::{FlowKey, FlowRecord, Proto};
pub use mac::{DeviceId, MacAddr, Oui};
pub use time::{Day, Month, Phase, StudyCalendar, Timestamp};

/// This crate's version, for provenance manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
