//! A dependency-free scoped-thread worker pool with panic isolation
//! and supervised deadlines, behind one entry point: [`run_jobs`].
//!
//! The workspace builds offline with vendored shims only, so instead
//! of `rayon` the pool hand-rolls fan-out on
//! [`std::thread::scope`] plus an [`mpsc`] channel: jobs wait in a
//! mutex-guarded deque, each worker repeatedly pops the next one, and
//! finished results flow back tagged with their submission index so
//! the caller sees them in submission order regardless of which
//! worker finished first. That ordering is what lets the parallel
//! experiment lab render every figure byte-identically to the
//! sequential path.
//!
//! Resilience is built into the pool itself:
//!
//! * every job body runs under [`std::panic::catch_unwind`], and the
//!   queue lock is **never** held across user code, so one panicking
//!   job can neither poison the queue nor take sibling workers down —
//!   the panic is captured into [`JobError::Panicked`] and every
//!   other job still completes;
//! * queue/registry locks are acquired with poison *recovery*
//!   ([`std::sync::PoisonError::into_inner`]): even if a panic ever
//!   did unwind while a guard was live, the next worker drains the
//!   remaining jobs instead of cascading `expect` panics;
//! * an optional per-job deadline adds a watchdog thread and a
//!   cooperative [`CancelToken`]: a job that overruns its deadline is
//!   flagged, its (late) result is discarded as
//!   [`JobError::TimedOut`], and well-behaved long operations can
//!   poll the token to bail out early;
//! * a result that was computed but could not be delivered (the
//!   receiver hung up) is an *orphan*: logged once with its
//!   submission index and surfaced in [`BatchOutcome::orphaned`]
//!   rather than silently dropped.
//!
//! Thread count resolution is shared by every consumer through
//! [`default_threads`]: the `CMP_BENCH_THREADS` environment variable
//! when set to a positive integer, otherwise
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cmp_sim::SimError;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "CMP_BENCH_THREADS";

/// How often the watchdog thread scans running jobs for expired
/// deadlines. Coarse on purpose: deadlines guard against *stalls*
/// (seconds), not against jitter.
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// A boxed job for heterogeneous batches (e.g. the ablation studies,
/// whose runs close over different organization builders).
pub type Job<'a, T> = Box<dyn FnOnce(&CancelToken) -> T + Send + 'a>;

/// Why a job produced no usable result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload message was captured.
    Panicked(String),
    /// The job overran the supervisor's per-job deadline; any late
    /// result was discarded so a retry cannot race it.
    TimedOut,
    /// The job's worker stopped before a result could be delivered
    /// (receiver hung up mid-batch, or the job was never run).
    Cancelled,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut => f.write_str("timed out"),
            JobError::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// Cooperative cancellation flag handed to supervised jobs. Cheap to
/// clone; a long-running job may poll [`CancelToken::is_cancelled`]
/// at convenient points and return early (the supervisor discards
/// whatever a cancelled job returns).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Everything a supervised batch produced: per-job outcomes in
/// submission order plus the indices of orphaned jobs (computed but
/// undeliverable results).
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// One slot per submitted job, in submission order.
    pub results: Vec<Result<T, JobError>>,
    /// Submission indices whose results were computed but could not
    /// be sent back (the batch summary surfaces these instead of
    /// losing them silently).
    pub orphaned: Vec<usize>,
}

impl<T> BatchOutcome<T> {
    /// Every job's value in submission order, or the first failure
    /// (by submission index) as [`SimError::JobFailed`] — the
    /// fail-fast shape the report binaries unwrap with
    /// [`crate::ok_or_exit`].
    pub fn into_values(self) -> Result<Vec<T>, SimError> {
        self.results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map_err(|e| SimError::JobFailed {
                    pair: format!("job {i}"),
                    cause: e.to_string(),
                })
            })
            .collect()
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked:
/// the queue and registries only hold plain data that is valid at
/// every instruction boundary, so a poisoned lock is safe to adopt.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Books one orphaned job — a result that was computed but could not
/// be delivered because the batch receiver was gone — into the orphan
/// registry, with a capture-able warning and a `pool.orphans` metric.
///
/// Public so the test suites can exercise the orphan path directly:
/// through the public batch API the receiver provably outlives every
/// worker (they share one [`std::thread::scope`]), so the path is
/// unreachable without either tearing down a channel by hand or
/// calling this.
pub fn record_orphan(orphans: &Mutex<Vec<usize>>, index: usize) {
    static ORPHANS: cmp_obs::Counter = cmp_obs::Counter::new("pool.orphans");
    cmp_obs::warn!(
        "orphaned pool job: result computed but the batch receiver was gone",
        index = index
    );
    ORPHANS.inc();
    lock_recovering(orphans).push(index);
}

/// Renders a captured panic payload (`&str` / `String` payloads keep
/// their message; anything else gets a placeholder).
fn payload_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker count to use when the caller does not pin one:
/// `CMP_BENCH_THREADS` if set to a positive integer, otherwise the
/// machine's available parallelism (1 if even that is unknown). An
/// unparsable or non-positive value warns (via
/// [`cmp_obs::env_parse_valid`]) with the offending value before
/// falling back.
pub fn default_threads() -> usize {
    cmp_obs::env_parse_valid::<usize>(THREADS_ENV, |n| *n >= 1).unwrap_or_else(available)
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every job on a pool of at most `threads` scoped workers and
/// returns each job's outcome **in submission order**: panic
/// isolation per job, poison recovery on every lock, an optional
/// per-job `deadline` enforced by a watchdog thread, and orphan
/// accounting.
///
/// `threads` is clamped to `1..=jobs.len()`; with one worker and no
/// deadline the jobs run inline on the caller's thread, so a
/// single-threaded batch is exactly the sequential loop.
///
/// Each job receives a [`CancelToken`]; when a deadline is set, a
/// watchdog cancels the token of any job running longer than the
/// deadline and the job's eventual result is discarded as
/// [`JobError::TimedOut`] (a thread cannot be killed, so cancellation
/// is cooperative — but the *outcome* is fenced regardless of whether
/// the job polls the token).
pub fn run_jobs<T, F>(jobs: Vec<F>, threads: usize, deadline: Option<Duration>) -> BatchOutcome<T>
where
    F: FnOnce(&CancelToken) -> T + Send,
    T: Send,
{
    let n = jobs.len();
    if n == 0 {
        return BatchOutcome { results: Vec::new(), orphaned: Vec::new() };
    }
    let threads = threads.clamp(1, n);
    if threads == 1 && deadline.is_none() {
        // Inline sequential path (no watchdog needed): still isolates
        // panics per job.
        let token = CancelToken::new();
        let results = jobs
            .into_iter()
            .map(|job| {
                catch_unwind(AssertUnwindSafe(|| job(&token)))
                    .map_err(|p| JobError::Panicked(payload_message(p)))
            })
            .collect();
        return BatchOutcome { results, orphaned: Vec::new() };
    }

    let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    // Registry of currently running jobs, scanned by the watchdog.
    let running: Mutex<Vec<(usize, Instant, CancelToken)>> = Mutex::new(Vec::new());
    let orphans: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, JobError>)>();
    std::thread::scope(|scope| {
        if let Some(limit) = deadline {
            let running = &running;
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(WATCHDOG_POLL);
                    let now = Instant::now();
                    for (_, started, token) in lock_recovering(running).iter() {
                        if now.duration_since(*started) >= limit {
                            token.cancel();
                        }
                    }
                }
            });
        }
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            let running = &running;
            let orphans = &orphans;
            scope.spawn(move || loop {
                // Pop under the lock, run outside it: user code never
                // executes while the queue guard is held.
                let next = lock_recovering(queue).pop_front();
                let Some((index, job)) = next else { break };
                let token = CancelToken::new();
                lock_recovering(running).push((index, Instant::now(), token.clone()));
                let outcome = catch_unwind(AssertUnwindSafe(|| job(&token)));
                lock_recovering(running).retain(|(i, _, _)| *i != index);
                let result = match outcome {
                    // A cancelled job's late result must not be used:
                    // the supervisor may already have scheduled a
                    // deterministic retry.
                    Ok(_) if token.is_cancelled() => Err(JobError::TimedOut),
                    Ok(value) => Ok(value),
                    Err(payload) => Err(JobError::Panicked(payload_message(payload))),
                };
                if tx.send((index, result)).is_err() {
                    record_orphan(orphans, index);
                    break;
                }
            });
        }
        // The workers hold the only remaining senders; the receive
        // loop ends when the last worker exits.
        drop(tx);
        let mut out: Vec<Option<Result<T, JobError>>> = (0..n).map(|_| None).collect();
        for (index, value) in rx {
            out[index] = Some(value);
        }
        done.store(true, Ordering::Release);
        let mut orphaned = std::mem::take(&mut *lock_recovering(&orphans));
        orphaned.sort_unstable();
        let results =
            out.into_iter().map(|slot| slot.unwrap_or(Err(JobError::Cancelled))).collect();
        BatchOutcome { results, orphaned }
    })
}

/// Silences the default panic hook's stderr spew for panics the test
/// suites inject on purpose (real failures still print). Test-only.
#[cfg(test)]
pub(crate) fn quiet_injected_panics() {
    use std::sync::Once;
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
            if !msg.contains("injected panic") && !msg.contains("injected worker panic") {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 3, 8] {
            let jobs: Vec<_> = (0..20u64)
                .map(|i| {
                    move |_: &CancelToken| {
                        // Stagger finish times so completion order
                        // differs from submission order.
                        std::thread::sleep(std::time::Duration::from_micros(((20 - i) % 5) * 200));
                        i * i
                    }
                })
                .collect();
            let out = run_jobs(jobs, threads, None).into_values().unwrap();
            assert_eq!(out, (0..20u64).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_and_more_threads_than_jobs() {
        let none: Vec<Job<u32>> = Vec::new();
        assert_eq!(run_jobs(none, 4, None).into_values().unwrap(), Vec::<u32>::new());
        let jobs: Vec<Job<u32>> =
            vec![Box::new(|_: &CancelToken| 1), Box::new(|_: &CancelToken| 2)];
        assert_eq!(run_jobs(jobs, 64, None).into_values().unwrap(), vec![1, 2]);
    }

    #[test]
    fn boxed_heterogeneous_jobs_run() {
        let a = 3u64;
        let jobs: Vec<Job<u64>> =
            vec![Box::new(move |_: &CancelToken| a + 1), Box::new(|_: &CancelToken| 40)];
        assert_eq!(run_jobs(jobs, 2, None).into_values().unwrap(), vec![4, 40]);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        assert_eq!(run_jobs(vec![|_: &CancelToken| 7u8], 0, None).into_values().unwrap(), vec![7]);
    }

    #[test]
    fn panicking_job_is_isolated_from_its_siblings() {
        quiet_injected_panics();
        for threads in [1, 2, 4] {
            let jobs: Vec<Job<u64>> = (0..6u64)
                .map(|i| -> Job<u64> {
                    if i == 2 {
                        Box::new(|_: &CancelToken| panic!("injected panic: job 2"))
                    } else {
                        Box::new(move |_: &CancelToken| i * 10)
                    }
                })
                .collect();
            let results = run_jobs(jobs, threads, None).results;
            assert_eq!(results.len(), 6);
            for (i, result) in results.iter().enumerate() {
                if i == 2 {
                    assert_eq!(
                        result,
                        &Err(JobError::Panicked("injected panic: job 2".into())),
                        "threads={threads}"
                    );
                } else {
                    assert_eq!(result, &Ok(i as u64 * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn into_values_reports_the_first_failure_by_submission_index() {
        quiet_injected_panics();
        let jobs: Vec<Job<u32>> = vec![
            Box::new(|_: &CancelToken| 1),
            Box::new(|_: &CancelToken| panic!("injected panic: a")),
            Box::new(|_: &CancelToken| panic!("injected panic: b")),
            Box::new(|_: &CancelToken| 4),
        ];
        match run_jobs(jobs, 2, None).into_values() {
            Err(SimError::JobFailed { pair, cause }) => {
                assert_eq!(pair, "job 1");
                assert_eq!(cause, "panicked: injected panic: a");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_times_out_a_cooperative_stall() {
        let jobs: Vec<_> = (0..3)
            .map(|i| {
                move |token: &CancelToken| {
                    if i == 1 {
                        // Stall far past the deadline, but poll the token.
                        let until = Instant::now() + Duration::from_secs(30);
                        while Instant::now() < until && !token.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    i
                }
            })
            .collect();
        let outcome = run_jobs(jobs, 2, Some(Duration::from_millis(50)));
        assert_eq!(outcome.results[0], Ok(0));
        assert_eq!(outcome.results[1], Err(JobError::TimedOut));
        assert_eq!(outcome.results[2], Ok(2));
        assert!(outcome.orphaned.is_empty());
    }

    #[test]
    fn single_worker_with_deadline_still_supervises() {
        let jobs: Vec<_> = (0..2)
            .map(|i| {
                move |token: &CancelToken| {
                    if i == 0 {
                        while !token.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    i
                }
            })
            .collect();
        let outcome = run_jobs(jobs, 1, Some(Duration::from_millis(50)));
        assert_eq!(outcome.results[0], Err(JobError::TimedOut));
        assert_eq!(outcome.results[1], Ok(1));
    }

    #[test]
    fn job_error_displays() {
        assert_eq!(JobError::Panicked("boom".into()).to_string(), "panicked: boom");
        assert_eq!(JobError::TimedOut.to_string(), "timed out");
        assert_eq!(JobError::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn bad_thread_count_warns_and_falls_back() {
        // `std::env` is process-global; restore the caller's value so
        // CI runs pinning CMP_BENCH_THREADS are not perturbed.
        let saved = std::env::var(THREADS_ENV).ok();
        let capture = cmp_obs::Capture::install();
        std::env::set_var(THREADS_ENV, "three");
        let n = default_threads();
        assert!(n >= 1, "fallback must be usable");
        assert!(capture.contains("var=CMP_BENCH_THREADS"), "{:?}", capture.lines());
        assert!(capture.contains("value=three"), "{:?}", capture.lines());
        std::env::set_var(THREADS_ENV, "0");
        assert!(default_threads() >= 1);
        assert!(capture.contains("value=0"), "{:?}", capture.lines());
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }
}
