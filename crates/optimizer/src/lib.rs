//! LEGOStore's cost optimizer (paper §3.2 and Appendix C) and its baselines (§4.1).
//!
//! For one key (or a group of keys with similar workload features) the optimizer chooses:
//!
//! * the protocol — ABD (replication) or CAS (erasure coding);
//! * the code length `n` and dimension `k` (replication degree, `k = 1`, for ABD);
//! * the quorum sizes `q1..q4` subject to the safety/liveness constraints;
//! * which data centers host the key and which hosts each client location's quorums
//!   contact;
//!
//! so as to minimize the $/hour cost of GET networking + PUT networking + storage + VMs,
//! subject to worst-case latency SLOs for GET and PUT and a fault-tolerance target `f`.
//!
//! The crate also provides:
//!
//! * [`baselines`] — the six baselines of §4.1 (`ABD/CAS Fixed`, `ABD/CAS Nearest`,
//!   `ABD/CAS Only Optimal`);
//! * [`monitor`] — windowed workload estimation and the reactive "is this key configured
//!   poorly?" triggers of §3.4;
//! * [`reconfig_analysis`] — the cost/benefit rule of §3.4 that decides whether a key
//!   should be reconfigured.

pub mod baselines;
pub mod cost;
pub mod latency;
pub mod monitor;
pub mod plan;
pub mod reconfig_analysis;
pub mod search;

pub use baselines::{evaluate_baseline, Baseline};
pub use cost::CostBreakdown;
pub use monitor::{OpObservation, ReconfigTrigger, TriggerThresholds, WorkloadMonitor};
pub use plan::Plan;
pub use reconfig_analysis::{should_reconfigure, ReconfigDecision};
pub use search::{Objective, Optimizer, SearchOptions};
