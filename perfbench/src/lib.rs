//! End-to-end serving benchmark for the Sparta workspace.
//!
//! One process builds its inputs, starts the real `sparta-server` on
//! loopback, drives it with at most one client thread and connection
//! per core, and checks every response against the brute-force oracle.
//! `src/main.rs` is the command line; `NOTES.md` says why each workload
//! exists.

#![forbid(unsafe_code)]

pub mod check;
pub mod generator;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod spans;
pub mod workloads;
