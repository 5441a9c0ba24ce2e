//! Linearizability checking for read/write register histories.
//!
//! The paper verifies its prototype's execution histories with Porcupine (a Go checker).
//! This crate is the Rust substitute: an O(n log n) zone checker for read/write registers
//! whose written values are distinct (Gibbons & Korach; Golab, Li & Shah), which decides
//! every history, plus the bookkeeping needed to record histories from a running store.
//!
//! Because linearizability is compositional (Herlihy & Wing), the store checks each key's
//! history independently; [`History::check`] operates on a single register.

pub mod history;
pub mod recorder;

pub use history::{CheckOutcome, History, Operation, OperationKind};
pub use recorder::HistoryRecorder;
