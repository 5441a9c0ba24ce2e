//! Experiment harness regenerating every table and figure of the LEGOStore paper.
//!
//! Each experiment is a plain function that returns a structured result with a text
//! rendering; the `experiments` binary prints them.
//!
//! Optimizer-driven experiments (Figures 1–3, 12–15, Table 3, the `Kopt` model, §4.2.5) are
//! exact re-evaluations of the paper's cost model on the paper's price/RTT tables.
//! Prototype-driven experiments (Figures 4–6, 11, garbage collection) run the protocol
//! state machines on the discrete-event simulator with the same RTTs, so latency shapes —
//! who is faster, by roughly how much, where SLOs break — are comparable even though the
//! absolute testbed numbers differ.

pub mod experiments;

pub use experiments::optimizer_studies;
pub use experiments::sim_studies;
