//! Transport-agnostic implementations of LEGOStore's consistency protocols.
//!
//! This crate contains the protocol logic of the paper, factored as pure state machines so
//! that the same code runs on the deterministic discrete-event simulator
//! (`legostore-sim`), on the threaded in-process deployment (`legostore-core`), and in unit
//! tests that drive message exchanges by hand:
//!
//! * [`abd`] — the Attiya–Bar-Noy–Dolev replication protocol (Figure 7 of the paper):
//!   2-phase PUT, 2-phase GET, and the one-phase "optimized GET" fast path.
//! * [`cas`] — Coded Atomic Storage (Figures 8–9): 3-phase PUT, 2-phase GET over
//!   Reed–Solomon codeword symbols, optimized GET through a client-side cache, and server
//!   garbage collection (Appendix F).
//! * [`driver`] — the sans-IO operation driver: one GET/PUT from first message to result,
//!   with every retry decision (timeout widening, epoch redirects, the attempt budget).
//! * [`reconfig`] — the reconfiguration protocol (Algorithms 1–2, Appendix D): one driver
//!   for the controller's rounds and their pacing (resends, deadline, finish acks).
//! * [`server`] — the per-data-center server that hosts per-key, per-epoch protocol state
//!   and dispatches the messages defined in [`msg`], and the request-serving loop body
//!   both server hosts share.
//! * [`quorum`] — quorum bookkeeping shared by the client-side state machines.
//! * [`wire`] — the length-prefixed binary codec that puts every message of [`msg`] on a
//!   real socket (used by the TCP transport and the `legostore-server` binary).
//!
//! The state machines never perform I/O: clients emit [`msg::Outbound`] messages and consume
//! replies via `on_reply`, servers map one inbound message to zero or more replies. The
//! hosting runtime is responsible for delivery and for telling the drivers what time it is.

#![warn(missing_docs)]

pub mod abd;
pub mod cas;
pub mod driver;
pub mod msg;
pub mod quorum;
pub mod reconfig;
pub mod server;
pub mod wire;

pub use abd::{AbdGet, AbdPut};
pub use cas::{CasGet, CasPut};
pub use driver::{Completed, Host, OpDriver, OpSpec, RetryCause, Step};
pub use msg::{OpOutcome, OpProgress, Outbound, ProtoMsg, ProtoReply};
pub use server::{ControlMsg, DcServer, KeyServerState};
pub use wire::{Frame, WireError};
