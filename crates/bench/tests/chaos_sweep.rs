//! Chaos convergence suite: a sweep with seeded worker panics and
//! deadline-cancelled stalls must converge — via deterministic
//! retries — to exactly the fault-free answer, at 2 and at 8 worker
//! threads, and a job that exhausts its retry budget must be
//! quarantined without aborting the batch.

use std::sync::Once;
use std::time::Duration;

use cmp_audit::{ChaosEvent, ChaosSchedule, ChaosSpec};
use cmp_bench::{figures, Lab, Pair, Resilience, WorkloadId};
use cmp_sim::{OrgKind, RunConfig};

/// Stalls run far past the deadline, so only the watchdog ends them.
const STALL_MILLIS: u64 = 30_000;
/// Generous against an oversubscribed CI box: a tiny-config pair
/// simulates in well under a millisecond.
const DEADLINE: Duration = Duration::from_secs(1);

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(200, 400, 23)
}

fn quiet_injected_panics() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected worker panic") {
                prev(info);
            }
        }));
    });
}

fn converges_at(threads: usize) {
    quiet_injected_panics();
    let submitted = figures::pairs::fig6();
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<Pair> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();

    // Fault-free reference.
    let mut reference = Lab::with_threads(tiny_cfg(), threads);
    reference.prefetch(&submitted).unwrap();
    assert!(reference.last_report().is_clean(), "{}", reference.last_report().summary());
    let want_figure = figures::fig6(&mut reference);

    // Chaos run: seeded schedule, events armed on first attempts only,
    // so the retry budget guarantees convergence.
    let schedule = ChaosSchedule::seeded(0xBAD_5EED, unique.len(), 2, 1, STALL_MILLIS);
    let armed_panics =
        schedule.specs().iter().filter(|s| s.event == ChaosEvent::WorkerPanic).count();
    let armed_stalls = schedule.len() - armed_panics;
    let mut chaos = Lab::with_threads(tiny_cfg(), threads);
    chaos.set_resilience(Resilience {
        max_attempts: 3,
        deadline: Some(DEADLINE),
        chaos: Some(schedule),
    });
    chaos.prefetch(&submitted).unwrap();

    let report = chaos.last_report();
    assert!(report.panicked >= armed_panics, "armed panics never fired: {}", report.summary());
    assert!(report.timed_out >= armed_stalls, "armed stalls never timed out: {}", report.summary());
    assert!(report.retries >= armed_panics + armed_stalls, "{}", report.summary());
    assert!(report.quarantined.is_empty(), "failed to converge: {}", report.summary());

    // Bit-identical convergence, result by result and figure byte by
    // figure byte.
    for &(w, k) in &unique {
        let want = reference.result(w, k).clone();
        assert_eq!(chaos.result(w, k), &want, "{}/{} diverged under chaos", w.name(), k.name());
    }
    assert_eq!(figures::fig6(&mut chaos), want_figure, "figure bytes diverged under chaos");
}

#[test]
fn chaos_sweep_converges_on_two_threads() {
    converges_at(2);
}

#[test]
fn chaos_sweep_converges_on_eight_threads() {
    converges_at(8);
}

#[test]
fn exhausted_retries_quarantine_without_aborting_the_sweep() {
    quiet_injected_panics();
    let pairs: Vec<Pair> = vec![
        (WorkloadId::Multithreaded("barnes"), OrgKind::Shared),
        (WorkloadId::Multithreaded("barnes"), OrgKind::Private),
        (WorkloadId::Mix("MIX2"), OrgKind::Shared),
    ];
    // Job 1 panics on every attempt of its budget.
    let specs = (0..2)
        .map(|attempt| ChaosSpec { job: 1, attempt, event: ChaosEvent::WorkerPanic })
        .collect();
    let mut lab = Lab::with_threads(tiny_cfg(), 2);
    lab.set_resilience(Resilience {
        max_attempts: 2,
        deadline: None,
        chaos: Some(ChaosSchedule::new(specs)),
    });

    // Quarantine is a partial result, not an error: prefetch succeeds.
    let timings = lab.prefetch(&pairs).unwrap();
    assert_eq!(timings.len(), 2, "the two healthy pairs still complete");
    assert_eq!(lab.simulations(), 2);
    let report = lab.last_report().clone();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].pair, pairs[1]);
    assert_eq!(report.quarantined[0].attempts, 2);
    assert!(report.first_failure().is_some());

    // The quarantined pair is still reachable on demand through the
    // sequential path (no chaos there), so figures can always render.
    let mut reference = Lab::with_threads(tiny_cfg(), 1);
    let want = reference.result(pairs[1].0, pairs[1].1).clone();
    assert_eq!(lab.result(pairs[1].0, pairs[1].1), &want);
    assert_eq!(lab.simulations(), 3);
}
