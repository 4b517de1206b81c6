//! End-to-end and per-layer benchmark of the Pinatubo stack.
//!
//! Three workloads, each run in its own process: `serve_mix` (served
//! tenants through `pinatubo-serve`), `fastbit_secded` (the FastBit
//! bitmap-index app under SEC-DED with transient sense faults) and
//! `ukernel16` (the shared 16-bit µ-kernel on full rows). Every run
//! reports wall-clock metrics of its timed phase and modeled-clock
//! metrics of a fixed window of units, and checks its outputs against
//! computations kept apart from the PIM path. See `README.md`.

pub mod common;
pub mod fastbit;
pub mod serve_mix;
pub mod ukernel;

use common::{Outcome, RunConfig};

/// The workload names the command accepts.
pub const WORKLOADS: [&str; 3] = ["serve_mix", "fastbit_secded", "ukernel16"];

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure inside the workload.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "serve_mix" => serve_mix::run(cfg),
        "fastbit_secded" => fastbit::run(cfg),
        "ukernel16" => ukernel::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
