#![warn(missing_docs)]

//! Experiment harness for the CMP-NuRAPID reproduction.
//!
//! One function per table/figure of the paper ([`figures`]), driven
//! by one memoizing [`Lab`]: it simulates each (workload,
//! organization) pair at most once, fans batches of pairs across the
//! worker pool ([`pool::run_jobs`]), and is also what the serving
//! layer and the shard workers run. Sequential is just a lab with one
//! worker. The `all` binary prints every table and figure, or any
//! subset, in the paper's layout together with the paper's reported
//! values for side-by-side comparison:
//!
//! ```text
//! cargo run --release -p cmp-bench --bin all                   # everything
//! cargo run --release -p cmp-bench --bin all -- fig10 table1   # chosen sections
//! cargo run --release -p cmp-bench --bin ablations             # design-choice studies
//! ```
//!
//! All binaries accept an optional positional argument `quick` for a
//! fast low-fidelity pass (CI smoke), defaulting to the full
//! paper-scale configuration.

pub mod figures;
pub mod journal;
pub mod json;
pub mod lab;
pub mod obs_report;
pub mod pool;
pub mod scaling;
pub mod shard;
pub mod spec;
pub mod sweep;
pub mod table;

pub use journal::{Journal, FSYNC_EVERY_ENV, JOURNAL_ENV};
pub use json::Json;
pub use lab::{BatchSlot, Lab, Pair, PairTiming, WorkloadId};
pub use obs_report::OBS_REPORT_PATH;
pub use pool::{CancelToken, JobError};
pub use scaling::{run_scaling, ScalingReport, ScalingRow};
pub use shard::{
    run_sharded, KillSchedule, KillSpec, MultiShardReport, ShardOptions, ShardSlot, ShardStats,
};
pub use spec::{InternedSpec, ScenarioSpec};
pub use sweep::{Quarantined, Resilience, SweepReport};
pub use table::TextTable;

use cmp_sim::RunConfig;

/// Parses the common sizing argument `quick|paper|<measure_accesses>`
/// (absent means `paper`); `None` when the argument is none of these.
pub fn config_arg(arg: Option<&str>) -> Option<RunConfig> {
    match arg {
        Some("quick") => Some(RunConfig::quick()),
        None | Some("paper") => Some(RunConfig::paper()),
        Some(n) => n.parse::<u64>().ok().map(|m| RunConfig::sized(m / 2, m, 0x15CA)),
    }
}

/// Parses the common binary CLI: `[quick|paper|<measure_accesses>]`.
pub fn config_from_args() -> RunConfig {
    config_arg(std::env::args().nth(1).as_deref()).unwrap_or_else(|| {
        eprintln!("usage: <bin> [quick|paper|<measure_accesses>]");
        std::process::exit(2);
    })
}

/// Unwraps a runner result in a binary: prints the error and exits
/// with status 2 instead of panicking with a backtrace.
pub fn ok_or_exit<T>(r: Result<T, cmp_sim::SimError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The five multithreaded workloads in the paper's order.
pub const MULTITHREADED: [&str; 5] = ["oltp", "apache", "specjbb", "ocean", "barnes"];

/// The three commercial workloads (the headline average).
pub const COMMERCIAL: [&str; 3] = ["oltp", "apache", "specjbb"];

/// The four multiprogrammed mixes.
pub const MIXES: [&str; 4] = ["MIX1", "MIX2", "MIX3", "MIX4"];
