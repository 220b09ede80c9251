//! The resilient sweep engine: deterministic retry, deadlines,
//! quarantine, and chaos injection on top of [`crate::pool`].
//!
//! A sweep is a batch of `(workload, organization)` pairs, each a
//! *pure* function of `(pair, config)`. That purity is what makes
//! resilience cheap: when an attempt fails — a worker panic, a
//! deadline overrun — the engine simply re-runs the same job key, and
//! the re-run is guaranteed bit-identical to what the failed attempt
//! would have produced. A job that keeps failing through its retry
//! budget is *quarantined*: the sweep completes with partial results
//! and a [`SweepReport`] naming the survivors instead of aborting the
//! batch.
//!
//! Chaos testing reuses `cmp-audit`'s seeded-schedule discipline at
//! the lab layer: a [`ChaosSchedule`] arms worker panics and
//! cooperative stalls against specific `(job, attempt)` keys, and the
//! suites in `tests/` prove a chaos-injected sweep converges to the
//! same `RunResult`s and figure bytes as a fault-free one.

use std::time::{Duration, Instant};

use cmp_audit::{ChaosEvent, ChaosSchedule};
use cmp_sim::{RunConfig, RunResult, SimError};

use crate::lab::{simulate_pair, Pair};
use crate::pool::{self, CancelToken, JobError};

/// Retry/deadline/chaos policy for a sweep.
#[derive(Clone, Debug)]
pub struct Resilience {
    /// Total attempts per job (1 = no retry). Clamped to at least 1.
    pub max_attempts: u32,
    /// Per-job wall-clock deadline enforced by the pool's watchdog;
    /// `None` disables the watchdog entirely (the fault-free default:
    /// a legitimate paper-scale simulation has no natural bound).
    pub deadline: Option<Duration>,
    /// Chaos schedule applied to attempts, keyed by the job's index
    /// within the deduplicated miss batch. `None` in production.
    pub chaos: Option<ChaosSchedule>,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience { max_attempts: 3, deadline: None, chaos: None }
    }
}

/// A job that exhausted its retry budget.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// The pair that kept failing.
    pub pair: Pair,
    /// Attempts consumed (equals the sweep's `max_attempts`).
    pub attempts: u32,
    /// The failure of the final attempt.
    pub error: JobError,
}

/// What a sweep survived: attempt/failure accounting plus the
/// quarantine list. `SweepReport::default()` is the clean report.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Job attempts started (first runs + retries).
    pub attempts: usize,
    /// Attempts beyond each job's first.
    pub retries: usize,
    /// Attempts that ended in a captured panic.
    pub panicked: usize,
    /// Attempts cancelled by the per-job deadline.
    pub timed_out: usize,
    /// Results computed but undeliverable (receiver gone) — see
    /// [`crate::pool::BatchOutcome::orphaned`].
    pub orphaned: usize,
    /// Jobs that exhausted their retry budget, in submission order.
    pub quarantined: Vec<Quarantined>,
}

impl SweepReport {
    /// Whether every job delivered a result with no faults observed.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.orphaned == 0
            && self.panicked == 0
            && self.timed_out == 0
    }

    /// The first quarantined job as a [`SimError`], for callers that
    /// need an all-or-nothing sweep.
    pub fn first_failure(&self) -> Option<SimError> {
        self.quarantined.first().map(|q| SimError::JobFailed {
            pair: format!("{}/{}", q.pair.0.name(), q.pair.1.name()),
            cause: q.error.to_string(),
        })
    }

    /// One-line human summary (binaries print this under their
    /// reports).
    pub fn summary(&self) -> String {
        format!(
            "{} attempt(s), {} retr{}, {} panic(s), {} timeout(s), {} orphan(s), \
             {} quarantined",
            self.attempts,
            self.retries,
            if self.retries == 1 { "y" } else { "ies" },
            self.panicked,
            self.timed_out,
            self.orphaned,
            self.quarantined.len(),
        )
    }
}

/// Per-job outcome slot: `None` means quarantined (details in the
/// report), otherwise the simulation result plus its wall-clock
/// milliseconds.
pub(crate) type PairOutcome = Option<(Result<RunResult, SimError>, f64)>;

/// Runs every miss through the supervised pool with bounded
/// deterministic retry. Slots come back aligned with `misses`
/// (submission order); the engine never aborts the batch.
pub(crate) fn run_pairs(
    misses: &[Pair],
    cfg: &RunConfig,
    threads: usize,
    resilience: &Resilience,
) -> (Vec<PairOutcome>, SweepReport) {
    let n = misses.len();
    let mut slots: Vec<PairOutcome> = (0..n).map(|_| None).collect();
    let mut report = SweepReport::default();
    let max_attempts = resilience.max_attempts.max(1);
    // (slot index, last error) of jobs still owed a result.
    let mut pending: Vec<(usize, Option<JobError>)> = (0..n).map(|i| (i, None)).collect();
    for attempt in 0..max_attempts {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            report.retries += pending.len();
        }
        let jobs: Vec<_> = pending
            .iter()
            .map(|&(index, _)| {
                let pair = misses[index];
                let cfg = *cfg;
                let chaos = resilience.chaos.clone();
                move |token: &CancelToken| {
                    if let Some(plan) = &chaos {
                        apply_chaos(plan, index, attempt, token);
                    }
                    let t0 = Instant::now();
                    let result = simulate_pair(pair, &cfg);
                    (result, t0.elapsed().as_secs_f64() * 1e3)
                }
            })
            .collect();
        let outcome = pool::run_jobs(jobs, threads, resilience.deadline);
        report.orphaned += outcome.orphaned.len();
        let mut still = Vec::new();
        for ((index, _), job_result) in pending.into_iter().zip(outcome.results) {
            report.attempts += 1;
            match job_result {
                Ok(value) => slots[index] = Some(value),
                Err(error) => {
                    match error {
                        JobError::Panicked(_) => report.panicked += 1,
                        JobError::TimedOut => report.timed_out += 1,
                        JobError::Cancelled => {}
                    }
                    still.push((index, Some(error)));
                }
            }
        }
        pending = still;
    }
    for (index, error) in pending {
        report.quarantined.push(Quarantined {
            pair: misses[index],
            attempts: max_attempts,
            error: error.unwrap_or(JobError::Cancelled),
        });
    }
    record_sweep(&report);
    (slots, report)
}

/// Folds one finished sweep's accounting into the metrics registry
/// and warns (capture-ably) about each quarantined pair. Called once
/// per sweep, so the per-attempt hot path carries no instrumentation.
fn record_sweep(report: &SweepReport) {
    static ATTEMPTS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.attempts");
    static RETRIES: cmp_obs::Counter = cmp_obs::Counter::new("sweep.retries");
    static PANICS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.panics");
    static TIMEOUTS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.timeouts");
    static ORPHANS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.orphans");
    static QUARANTINED: cmp_obs::Counter = cmp_obs::Counter::new("sweep.quarantined");
    ATTEMPTS.add(report.attempts as u64);
    RETRIES.add(report.retries as u64);
    PANICS.add(report.panicked as u64);
    TIMEOUTS.add(report.timed_out as u64);
    ORPHANS.add(report.orphaned as u64);
    QUARANTINED.add(report.quarantined.len() as u64);
    for q in &report.quarantined {
        let pair = format!("{}/{}", q.pair.0.name(), q.pair.1.name());
        let cause = q.error.to_string();
        cmp_obs::warn!(
            "sweep job quarantined after exhausting its retry budget",
            pair = pair,
            attempts = q.attempts,
            cause = cause
        );
    }
}

/// Applies the chaos event (if any) armed for `(job, attempt)`: a
/// panic unwinds right here on the worker; a stall busy-waits with
/// the cancellation token polled, so a supervisor deadline cuts it
/// short and the timeout machinery is exercised deterministically.
fn apply_chaos(plan: &ChaosSchedule, job: usize, attempt: u32, token: &CancelToken) {
    match plan.event(job, attempt) {
        Some(ChaosEvent::WorkerPanic) => {
            panic!("chaos: injected worker panic (job {job}, attempt {attempt})")
        }
        Some(ChaosEvent::JobStall { millis }) => {
            let until = Instant::now() + Duration::from_millis(millis);
            while Instant::now() < until && !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::WorkloadId;
    use cmp_audit::ChaosSpec;
    use cmp_sim::OrgKind;

    fn tiny_cfg() -> RunConfig {
        RunConfig::sized(100, 200, 5)
    }

    fn misses() -> Vec<Pair> {
        vec![
            (WorkloadId::Multithreaded("barnes"), OrgKind::Shared),
            (WorkloadId::Multithreaded("barnes"), OrgKind::Private),
            (WorkloadId::Mix("MIX1"), OrgKind::Shared),
        ]
    }

    #[test]
    fn fault_free_sweep_is_clean_and_complete() {
        let (slots, report) = run_pairs(&misses(), &tiny_cfg(), 2, &Resilience::default());
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.attempts, 3);
        assert_eq!(report.retries, 0);
        assert!(slots.iter().all(|s| matches!(s, Some((Ok(_), _)))));
    }

    #[test]
    fn sim_errors_pass_through_without_retry() {
        let batch = vec![(WorkloadId::Multithreaded("tpch"), OrgKind::Shared)];
        let (slots, report) = run_pairs(&batch, &tiny_cfg(), 2, &Resilience::default());
        assert_eq!(report.attempts, 1, "a SimError is an answer, not a fault");
        match &slots[0] {
            Some((Err(SimError::UnknownWorkload(name)), _)) => assert_eq!(name, "tpch"),
            other => panic!("unexpected slot {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_quarantine_without_aborting() {
        crate::pool::quiet_injected_panics();
        // Panic on every attempt of job 1.
        let specs = (0..3)
            .map(|attempt| ChaosSpec { job: 1, attempt, event: cmp_audit::ChaosEvent::WorkerPanic })
            .collect();
        let resilience = Resilience {
            max_attempts: 3,
            chaos: Some(ChaosSchedule::new(specs)),
            ..Resilience::default()
        };
        let batch = misses();
        let (slots, report) = run_pairs(&batch, &tiny_cfg(), 2, &resilience);
        assert!(matches!(slots[0], Some((Ok(_), _))));
        assert!(slots[1].is_none(), "job 1 must be quarantined");
        assert!(matches!(slots[2], Some((Ok(_), _))));
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].pair, batch[1]);
        assert_eq!(report.quarantined[0].attempts, 3);
        assert_eq!(report.panicked, 3);
        assert_eq!(report.retries, 2);
        let err = report.first_failure().unwrap();
        assert!(matches!(err, SimError::JobFailed { .. }), "{err}");
        assert!(err.to_string().contains("barnes/private"), "{err}");
    }

    #[test]
    fn report_summary_reads() {
        let report = SweepReport { attempts: 5, retries: 1, panicked: 1, ..Default::default() };
        assert_eq!(
            report.summary(),
            "5 attempt(s), 1 retry, 1 panic(s), 0 timeout(s), 0 orphan(s), 0 quarantined"
        );
    }
}
