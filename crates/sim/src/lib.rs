//! Deterministic geo-distributed discrete-event simulation of a LEGOStore deployment.
//!
//! The paper evaluates its prototype on nine real GCP data centers. This crate substitutes
//! that testbed: it runs the *same* protocol state machines (`legostore-proto`) over a
//! virtual clock, delivering every message after the measured inter-DC round-trip time plus
//! the transfer time of its payload, and metering every byte against the paper's network
//! price tables. Because inter-DC RTTs dominate operation latency (paper §4.3, §G.1), the
//! simulated latencies reproduce the shape of the prototype's measurements, and the metered
//! costs follow the same accounting as the optimizer's cost model — which is exactly what
//! the evaluation figures need.
//!
//! The simulated world — servers, operation and reconfiguration drivers, the metadata
//! service, client views and GET caches — is one crate-private engine that applies one
//! input at a time. [`Simulation`] is a scheduler over it: an event queue over modelled
//! delays, with fault verdicts, cost metering and history recording. The engine's tests
//! drive the same engine from a second scheduler, a seeded interleaver that delivers,
//! drops and duplicates in-flight messages in random order.
//!
//! The simulator supports the scenarios of the evaluation section: open-loop Poisson
//! workloads over many keys (Figures 4, 6, 11), mid-run reconfigurations driven by the
//! controller protocol (Figure 5), data-center failures and recoveries (Figures 5, 11), and
//! client-side metadata staleness (the "type (ii)" degradations of Figure 5).
//!
//! Beyond the paper's scenarios, a run can inject a deterministic
//! [`FaultPlan`](legostore_types::fault::FaultPlan) — crashes, partitions, slow DCs,
//! lossy links — via [`Simulation::set_fault_plan`], and record per-key operation
//! histories for linearizability checking via [`Simulation::enable_history_recording`];
//! the same plan drives the threaded deployment in
//! `tests/cross_runtime_conformance.rs`, holding the two runtimes to each other.

pub mod report;
pub mod simulation;
mod world;

pub use report::{CostMeter, LatencySummary, OpRecord, SimReport};
pub use simulation::{SimOptions, Simulation};
