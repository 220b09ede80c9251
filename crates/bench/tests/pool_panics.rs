//! Property tests (vendored proptest shim) for the worker pool's
//! panic isolation: with panics injected at *random* positions and
//! random thread counts,
//!
//! * every non-panicking job still returns its result, in submission
//!   order — one bad job never takes siblings or the batch down;
//! * every panicking job is reported exactly once, as
//!   [`JobError::Panicked`] carrying its own payload (not a sibling's,
//!   and not `N` cascaded reports from a poisoned queue).

use std::sync::Once;

use proptest::prelude::*;

use cmp_bench::pool::{run_jobs, CancelToken};
use cmp_bench::JobError;

/// Silences the default panic hook for the panics this suite injects
/// on purpose (real failures still print).
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
            if !msg.contains("injected panic") {
                prev(info);
            }
        }));
    });
}

fn dies(mask: u64, i: usize) -> bool {
    mask >> (i % 64) & 1 == 1
}

/// The orphan path is unreachable through the public batch API (the
/// receiver provably outlives every worker), so the pool exposes
/// [`cmp_bench::pool::record_orphan`] for direct exercise: the
/// warning must flow through the capture-able log sink (not a bare
/// `eprintln!`) and the index must land in the registry.
#[test]
fn orphan_warning_reaches_the_capture_sink() {
    use std::sync::Mutex;
    let orphans: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let capture = cmp_obs::Capture::install();
    cmp_bench::pool::record_orphan(&orphans, 7);
    let lines = capture.lines();
    assert!(capture.contains("orphaned pool job"), "{lines:?}");
    assert!(capture.contains("index=7"), "{lines:?}");
    assert!(
        lines.iter().filter(|l| l.contains("orphaned pool job")).all(|l| l.starts_with("[warn ")),
        "{lines:?}"
    );
    assert_eq!(*orphans.lock().unwrap(), vec![7]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn surviving_jobs_return_in_submission_order(
        n in 1usize..25,
        mask in any::<u64>(),
        threads in 1usize..9,
    ) {
        quiet_injected_panics();
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                move |_: &CancelToken| {
                    if dies(mask, i) {
                        panic!("injected panic #{i}");
                    }
                    i * 10 + 1
                }
            })
            .collect();
        let results = run_jobs(jobs, threads, None).results;
        prop_assert_eq!(results.len(), n, "one slot per job, always");
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(v) => {
                    prop_assert!(!dies(mask, i), "job {} should have panicked", i);
                    prop_assert_eq!(*v, i * 10 + 1, "slot {} out of submission order", i);
                }
                Err(JobError::Panicked(msg)) => {
                    prop_assert!(dies(mask, i), "job {} was not armed to panic", i);
                    // The captured payload is this job's own, so the
                    // panic is attributed once and to the right slot.
                    prop_assert_eq!(msg, &format!("injected panic #{i}"));
                }
                Err(other) => prop_assert!(false, "job {} unexpected error {:?}", i, other),
            }
        }
    }
}
