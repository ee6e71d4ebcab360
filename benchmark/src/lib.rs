//! The repository benchmark: three workloads driven from one process
//! through the public APIs of `vtm-fabric` and `vtm-core::mechanism`.
//!
//! * `quote-closed` — closed-loop quoting through a 1-shard fabric.
//! * `quote-open` — an open-loop ladder of absolute rates through a
//!   2-shard, 2-arm journaled fabric with session eviction.
//! * `train` — Algorithm 1 (PPO learning the Stackelberg price).
//!
//! A run prints human-readable lines, then one JSON line with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Output checks run in both modes; a failed check ends the
//! run with an error and no numbers. See `README.md`.

pub mod checks;
pub mod drive;
pub mod layers;
pub mod policy;
pub mod quote;
pub mod report;
pub mod stats;
pub mod traced;
pub mod train;

use std::path::PathBuf;

use checks::Fault;
use quote::QuoteWorkload;
use report::{result_line, END_TO_END, PER_LAYER};

/// What every workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// The open-loop rate ladder, requests per second, ascending.
    pub ladder: Vec<f64>,
    /// The ladder rate latency is reported at.
    pub reference: f64,
    /// A check to break on purpose (self-tests only).
    pub fault: Fault,
    /// A scratch directory the run may write journals into.
    pub work: PathBuf,
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["quote-closed", "quote-open", "train"];

/// Runs one workload and returns its result line.
///
/// # Errors
///
/// An unknown workload, a failed output check, or a measurement that
/// cannot be reported.
pub fn run(workload: &str, trace: bool, ctx: &Ctx) -> Result<String, String> {
    let outcome = match (workload, trace) {
        ("quote-closed", false) => quote::closed(ctx)?,
        ("quote-open", false) => quote::open(ctx)?,
        ("train", false) => train::run(ctx)?,
        ("quote-closed", true) => traced::quote(ctx, QuoteWorkload::Closed)?,
        ("quote-open", true) => traced::quote(ctx, QuoteWorkload::Open)?,
        ("train", true) => traced::train(ctx)?,
        _ => {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    result_line(&outcome, if trace { PER_LAYER } else { END_TO_END })
}
