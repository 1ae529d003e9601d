//! End-to-end and per-layer benchmark of the dual-graph simulator.
//!
//! Three workloads (`flood_epoch`, `harmonic_trials`, `quorum_stream`) are
//! built from the public API of `dualgraph-net`, `dualgraph-sim` and
//! `dualgraph-broadcast`. Every unit's simulated outcome is checked. See
//! `README.md` for the metrics, the workloads and their measured spread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod measure;
pub mod run;
pub mod trace;
pub mod workloads;
