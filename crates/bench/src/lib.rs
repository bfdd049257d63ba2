//! Shared measurement harness for the experiment binaries and wall-clock
//! benches. See EXPERIMENTS.md at the workspace root for the experiment
//! index (E1–E16) and the recorded results.

#![warn(missing_docs)]

pub mod cli;
pub mod jsonio;
pub mod real;
pub mod tables;
pub mod timing;
pub mod workloads;
