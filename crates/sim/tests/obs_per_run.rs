//! The simulator's metric counters reconcile exactly with the run
//! results they were counted from.
//!
//! Every `sim.*`, `cache.l2.*` and `bus.*` counter is added once per
//! run from its `RunResult`, so after a batch of runs each counter
//! must equal the sum of the matching result field over the batch:
//! no warm-up access, no lost increment from a concurrent worker and
//! no early-stopped run may make them differ.
//!
//! This binary holds a single test: the counters are process-global,
//! and no other test in the same process may add to them.

use cmp_sim::runner::multithreaded_workload;
use cmp_sim::{run_workload_mono, OrgKind, RunConfig, RunResult, StopMetric, StopRule};

#[test]
fn simulator_counters_equal_sums_of_run_results() {
    cmp_obs::reset_metrics();
    cmp_obs::set_enabled(true);

    let fixed = RunConfig::sized(2_000, 6_000, 0x0B5);
    let approx = fixed.with_stop(StopRule::Confidence {
        metric: StopMetric::MissRate,
        rel_half_width: 0.2,
        confidence: 0.9,
    });
    let (left, right) = OrgKind::ALL.split_at(OrgKind::ALL.len() / 2);
    let results: Vec<RunResult> = std::thread::scope(|s| {
        let workers: Vec<_> = [left, right]
            .into_iter()
            .map(|kinds| {
                s.spawn(|| {
                    kinds
                        .iter()
                        .map(|&kind| {
                            // One confidence-stopped run among the fixed ones.
                            let cfg = if kind == OrgKind::Nurapid { &approx } else { &fixed };
                            run_workload_mono(multithreaded_workload("oltp", cfg.seed), kind, cfg)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker")).collect()
    });
    assert_eq!(results.len(), OrgKind::ALL.len());

    let snap = cmp_obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let sum = |field: fn(&RunResult) -> u64| results.iter().map(field).sum::<u64>();
    assert_eq!(counter("sim.runs"), results.len() as u64);
    assert_eq!(counter("sim.accesses"), sum(|r| r.accesses));
    assert_eq!(counter("cache.l2.accesses"), sum(|r| r.l2.accesses()));
    assert_eq!(counter("cache.l2.hits"), sum(|r| r.l2.hits()));
    assert_eq!(counter("cache.l2.misses"), sum(|r| r.l2.misses()));
    assert_eq!(counter("bus.snoops"), sum(|r| r.bus.total()));
    assert_eq!(counter("bus.arbitration_wait_cycles"), sum(|r| r.bus.arbitration_wait));
    assert!(counter("cache.l2.accesses") > 0, "the runs must reach the L2");
    assert!(counter("bus.arbitration_wait_cycles") > 0, "the runs must contend for the bus");
}
