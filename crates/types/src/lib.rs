//! Core vocabulary types shared by every LEGOStore crate.
//!
//! LEGOStore (VLDB 2022) is a linearizable geo-distributed key-value store that, per key,
//! chooses between a replication-based protocol (ABD) and an erasure-coding-based protocol
//! (CAS), and places quorums across a set of public-cloud data centers to minimize cost
//! subject to latency SLOs and a fault-tolerance target `f`.
//!
//! This crate defines the types that describe *what* is stored and *how* it is configured:
//! data-center identifiers, logical tags, values, protocol configurations and the errors
//! that the public API surfaces. It deliberately contains no protocol logic.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fault;
pub mod tag;
pub mod value;

pub use config::{Configuration, ConfigurationError, ProtocolKind, QuorumId, QuorumSpec};
pub use error::{StoreError, StoreResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState, LinkVerdict};
pub use tag::{ClientId, Tag};
pub use value::Value;

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a data center participating in the store.
///
/// Data centers are numbered `0..D`. The paper uses nine Google Cloud Platform locations;
/// the [`legostore-cloud`](https://docs.rs) crate provides that concrete catalog, but the
/// protocols work with any numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DcId(pub u16);

impl DcId {
    /// Returns the raw index of this data center.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

impl From<usize> for DcId {
    fn from(v: usize) -> Self {
        DcId(v as u16)
    }
}

/// A key in the store. Keys are arbitrary UTF-8 strings.
///
/// The text is shared: cloning a key, which every message and every lookup of a
/// per-key map does, bumps a reference count instead of copying the string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key(Arc<str>);

impl Key {
    /// Creates a key from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        Key(s.into().into())
    }

    /// Borrow the key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(s.into())
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(s.into())
    }
}

/// Kind of a user-facing operation, used by workload generators, statistics and the
/// linearizability checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A linearizable read (GET).
    Get,
    /// A linearizable write (PUT).
    Put,
}

impl OpKind {
    /// True if this is a GET.
    pub fn is_get(self) -> bool {
        matches!(self, OpKind::Get)
    }

    /// True if this is a PUT.
    pub fn is_put(self) -> bool {
        matches!(self, OpKind::Put)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Get => write!(f, "GET"),
            OpKind::Put => write!(f, "PUT"),
        }
    }
}

/// Monotonically increasing identifier for a configuration epoch of a key.
///
/// Every reconfiguration bumps the epoch; servers and clients use it to recognize stale
/// configuration information.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ConfigEpoch(pub u64);

impl ConfigEpoch {
    /// The initial epoch assigned by CREATE.
    pub const INITIAL: ConfigEpoch = ConfigEpoch(0);

    /// Returns the next epoch.
    pub fn next(self) -> ConfigEpoch {
        ConfigEpoch(self.0 + 1)
    }
}

impl std::fmt::Display for ConfigEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_id_roundtrip() {
        let dc = DcId::from(7usize);
        assert_eq!(dc.index(), 7);
        assert_eq!(dc.to_string(), "dc7");
    }

    #[test]
    fn key_display_and_from() {
        let k: Key = "user:42".into();
        assert_eq!(k.as_str(), "user:42");
        assert_eq!(k.to_string(), "user:42");
        assert_eq!(Key::new(String::from("a")), Key::from("a"));
        let copy = k.clone();
        assert!(std::ptr::eq(copy.as_str(), k.as_str()), "a clone shares the text");
    }

    #[test]
    fn op_kind_predicates() {
        assert!(OpKind::Get.is_get());
        assert!(!OpKind::Get.is_put());
        assert!(OpKind::Put.is_put());
        assert_eq!(OpKind::Put.to_string(), "PUT");
    }

    #[test]
    fn config_epoch_next_is_monotonic() {
        let e = ConfigEpoch::INITIAL;
        assert!(e.next() > e);
        assert_eq!(e.next().next(), ConfigEpoch(2));
    }
}
