//! Property tests of the approximate mode against the exact mode on
//! the full golden sweep: every (workload, organization) pair behind
//! the paper figures.
//!
//! The approximate mode trades measurement budget for a declared
//! confidence interval, so its contract is statistical, not
//! bit-exact: on every golden pair the approx miss rate must land
//! within the declared relative half-width of the exact-mode value
//! (times a fixed slack factor covering the gap between the CI on
//! the batch mean and the truncated-vs-full-budget comparison this
//! test actually makes). Both sweeps are fully deterministic, so
//! this is a hard threshold, not a flaky tolerance.

use std::collections::HashSet;

use cmp_bench::{figures, Lab, WorkloadId};
use cmp_sim::{OrgKind, RunConfig, StopMetric, StopRule};

const REL_HALF_WIDTH: f64 = 0.05;
const CONFIDENCE: f64 = 0.95;

/// The CI bounds the *estimator's* half-width around the batch mean;
/// the approx-vs-exact gap can stretch further because at quick
/// sizing the warm-up does not fill the L2, so the miss rate drifts
/// downward across the measurement window and a truncated run biases
/// toward the early (higher) batches. The observed worst pair over
/// the whole sweep sits at ~3.6 half-widths; five fails loudly if
/// the estimator is ever wrong in kind rather than degree.
const SLACK: f64 = 5.0;

fn approx_cfg() -> RunConfig {
    RunConfig::quick().with_stop(StopRule::Confidence {
        metric: StopMetric::MissRate,
        rel_half_width: REL_HALF_WIDTH,
        confidence: CONFIDENCE,
    })
}

fn unique_pairs() -> Vec<(WorkloadId, OrgKind)> {
    let mut seen = HashSet::new();
    figures::pairs::all().into_iter().filter(|p| seen.insert(*p)).collect()
}

fn miss_rate(r: &cmp_sim::RunResult) -> f64 {
    if r.l2.accesses() == 0 {
        0.0
    } else {
        r.l2.misses() as f64 / r.l2.accesses() as f64
    }
}

#[test]
fn approx_miss_rates_land_within_the_declared_interval_on_every_golden_pair() {
    let pairs = unique_pairs();
    let mut exact = Lab::new(RunConfig::quick());
    let mut approx = Lab::new(approx_cfg());
    let mut worst = (0.0f64, String::new());
    for &(wl, kind) in &pairs {
        let e = exact.try_result(wl, kind).expect("exact run");
        let a = approx.try_result(wl, kind).expect("approx run");
        let (e_mr, a_mr) = (miss_rate(e), miss_rate(a));
        // Tolerance: SLACK half-widths of the exact value, floored
        // for near-zero miss rates where a relative bound vanishes.
        let tol = (SLACK * REL_HALF_WIDTH * e_mr).max(0.002);
        let gap = (a_mr - e_mr).abs();
        if e_mr > 0.0 && gap / (REL_HALF_WIDTH * e_mr) > worst.0 {
            worst = (gap / (REL_HALF_WIDTH * e_mr), format!("{}/{}", wl.name(), kind.name()));
        }
        assert!(
            gap <= tol,
            "{}/{}: approx miss rate {a_mr:.5} vs exact {e_mr:.5} \
             (gap {gap:.5} > tolerance {tol:.5})",
            wl.name(),
            kind.name()
        );
        assert!(
            a.accesses <= e.accesses,
            "{}/{}: approx measured {} accesses, exact {}",
            wl.name(),
            kind.name(),
            a.accesses,
            e.accesses
        );
    }
    eprintln!("worst pair {} at {:.2} half-widths", worst.1, worst.0);
}

#[test]
fn approx_sweep_is_deterministic_across_labs() {
    let pairs = unique_pairs();
    let mut first = Lab::new(approx_cfg());
    let mut second = Lab::new(approx_cfg());
    for &(wl, kind) in &pairs {
        let a = first.try_result(wl, kind).expect("first approx run");
        let b = second.try_result(wl, kind).expect("second approx run");
        assert_eq!(
            a,
            b,
            "{}/{}: same-seed approx runs must agree bit-for-bit",
            wl.name(),
            kind.name()
        );
    }
}
