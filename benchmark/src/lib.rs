//! The LEGOStore benchmark: four named workloads, end-to-end metrics with regression
//! bounds, and a per-layer budget taken from a traced walk and a telemetry scrape.
//! README.md in this directory is the manual; `catalog` is the contract.

#![warn(missing_docs)]

pub mod catalog;
pub mod cli;
pub mod geo;
pub mod load;
pub mod micro;
pub mod report;
pub mod scrape;
pub mod spans;
pub mod stats;
pub mod tcp;
pub mod walk;
