//! The runnable LEGOStore: a multi-threaded, in-process deployment of the protocol stack.
//!
//! The paper's prototype runs one server process per GCP data center plus client processes
//! co-located with users. This crate reproduces that deployment inside one process: every
//! data center's server is a locked state machine served on the thread that sends it a
//! request, which takes the reply straight back (a reply deferred by a reconfiguration
//! travels on the parked client's clocked channel), clients are synchronous
//! handles that implement the user-facing CREATE/GET/PUT/DELETE API, and the measured
//! inter-DC round-trip times of the cloud model are injected on the client side: each
//! attempt's [`Endpoint`] holds a reply until its modeled arrival (scaled by a
//! configurable factor so tests finish quickly). Because the protocol state machines come
//! from `legostore-proto` unchanged, the concurrency behaviour — quorum waiting, blocking
//! during reconfigurations, fail-over to new configurations — is the real thing; only the
//! wire is simulated.
//!
//! Main entry points:
//!
//! * [`Cluster`] — builds and owns the per-DC servers plus the metadata service.
//! * [`StoreClient`] — a LEGOStore client bound to one data center
//!   ([`Cluster::client`]), offering linearizable `create` / `get` / `put` / `delete`.
//! * [`Cluster::reconfigure`] — runs the reconfiguration controller (Algorithm 1) against
//!   the live deployment.
//! * [`Cluster::recorder`] — the operation history recorder whose per-key histories can be
//!   checked for linearizability with `legostore-lincheck`.
//! * [`Clock`] — the deployment's time source: real wall-clock time (the default) or a
//!   shared virtual clock that collapses the modeled RTT waits to microseconds.
//! * [`ClusterOptions::fault_plan`] — a deterministic
//!   [`FaultPlan`](legostore_types::fault::FaultPlan) injected at the deployment's
//!   transport layer (crashes, partitions, slow DCs, lossy links), interpreted lazily as
//!   the clock passes each event's instant.

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod cluster;
mod inbox;
pub mod transport;

pub use client::StoreClient;
pub use clock::Clock;
pub use cluster::{Cluster, ClusterOptions, ClusterStats};
pub use legostore_proto::server::ServedReply;
pub use transport::{Endpoint, Transport};
