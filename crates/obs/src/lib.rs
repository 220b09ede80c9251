#![warn(missing_docs)]

//! Observability for the CMP-NuRAPID reproduction: structured
//! leveled logging, a process-global metrics registry (monotonic
//! counters and power-of-two histograms), and phase-scoped timing
//! spans.
//!
//! The whole layer is **off by default** and enabled by setting the
//! [`ENV_VAR`] environment variable (`CMP_OBS=1`) or calling
//! [`set_enabled`]. The design contract is *zero perturbation*: the
//! layer observes the simulation, it never participates in it.
//! Counters and spans touch only their own atomics — no simulator
//! state, no RNG draws, no simulated cycles — so a run with
//! observability enabled produces byte-identical figures to a run
//! without it (the `cmp-bench` golden suite enforces this).
//!
//! Disabled cost: every increment path starts with one relaxed atomic
//! load and an early return, `#[inline]` so the check lands in the
//! caller. Enabled, a metric is one set of relaxed atomics. Nothing
//! is counted per simulated access: the simulator adds its `sim.*`,
//! `cache.l2.*` and `bus.*` counters once per run from the run's
//! result, so the L2 organizations and the bus carry no
//! instrumentation at all.
//!
//! # Logging
//!
//! [`log!`], [`error!`], [`warn!`], [`info!`], and [`debug!`] emit
//! one structured line with a level, the `module_path!` target, a
//! format-string message, and trailing `key=value` fields:
//!
//! ```
//! let size = 3;
//! cmp_obs::warn!("batch shrunk unexpectedly", size = size, limit = 8);
//! // stderr: [warn rust_out] batch shrunk unexpectedly size=3 limit=8
//! ```
//!
//! Warnings and errors always print (they replace bare `eprintln!`
//! sites); `info`/`debug` lines only flow when the layer is enabled.
//! Each line is formatted into a thread-local buffer first and
//! written to stderr in a single call, so lines from concurrent
//! workers never interleave mid-line. Tests install a [`Capture`] to
//! assert on emitted lines (while one is installed, nothing reaches
//! stderr).
//!
//! # Metrics
//!
//! Names are dot-separated, prefixed by the subsystem that owns them
//! — the registry is process-global, so the prefix is the namespace:
//! `sim.*` (simulator core), `cache.*` / `bus.*` / `coherence.*`
//! (memory-system detail), `sweep.*` / `pool.*` / `journal.*`
//! (batch engine), `serve.*` (the service layer, including the TCP
//! front door's `serve.conn_shed` / `serve.conn_timeouts`), and
//! `shard.*` (the OS-process shard supervisor: spawns, restarts,
//! watchdog and chaos kills, exit signals, journal resumes,
//! quarantines).
//!
//! Declare a counter or histogram as a `static` next to the code it
//! observes; it registers itself in the process-global registry on
//! first use and shows up in [`snapshot`]:
//!
//! ```
//! use cmp_obs::Counter;
//! static LOOKUPS: Counter = Counter::new("demo.lookups");
//! cmp_obs::set_enabled(true);
//! LOOKUPS.inc();
//! assert!(cmp_obs::snapshot().counters.iter().any(|c| c.name == "demo.lookups"));
//! ```
//!
//! # Spans
//!
//! [`span!`] opens a phase-scoped timing span tied to a per-call-site
//! static; the guard records elapsed wall-clock nanoseconds on drop:
//!
//! ```
//! cmp_obs::set_enabled(true);
//! {
//!     let _span = cmp_obs::span!("demo.phase");
//!     // ... the timed phase ...
//! }
//! assert_eq!(cmp_obs::snapshot().spans.iter().filter(|s| s.name == "demo.phase").count(), 1);
//! ```

mod env;
mod log;
mod metrics;
mod span;

pub use crate::env::{env_parse, env_parse_valid};
pub use crate::log::{log_emit, log_enabled, Capture, Level};
pub use crate::metrics::{Counter, CounterSnapshot, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use crate::span::{SpanGuard, SpanSnapshot, SpanStat};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable that switches the layer on (`CMP_OBS=1`; any
/// non-empty value other than `0` counts).
pub const ENV_VAR: &str = "CMP_OBS";

/// Tri-state cache of the enabled flag: 0 = not yet read from the
/// environment, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether the observability layer is on. The first call reads
/// [`ENV_VAR`]; afterwards this is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_enabled(),
        v => v == 2,
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var(ENV_VAR)
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the layer on or off, overriding [`ENV_VAR`]. Process-global
/// (tests and report binaries use it; the simulator never does).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A point-in-time copy of every registered metric, sorted by name
/// within each kind. Plain data: safe to serialize, diff, or ship to
/// a report.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<CounterSnapshot>,
    /// Power-of-two histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Timing spans.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// The value of the named counter, if it has registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }
}

/// Snapshots every metric that has registered so far (a metric
/// registers on its first increment while the layer is enabled).
pub fn snapshot() -> Snapshot {
    let reg = metrics::registry();
    let mut counters: Vec<CounterSnapshot> = reg.counters.iter().map(|c| c.snap()).collect();
    let mut histograms: Vec<HistogramSnapshot> = reg.histograms.iter().map(|h| h.snap()).collect();
    let mut spans: Vec<SpanSnapshot> = reg.spans.iter().map(|s| s.snap()).collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot { counters, histograms, spans }
}

/// Zeroes every registered metric (registrations are kept). Tests
/// isolate themselves with this; metrics are process-global, so two
/// concurrently running tests that reset and assert on absolute
/// values must serialize themselves.
pub fn reset_metrics() {
    let reg = metrics::registry();
    for c in reg.counters.iter() {
        c.reset();
    }
    for h in reg.histograms.iter() {
        h.reset();
    }
    for s in reg.spans.iter() {
        s.reset();
    }
}

/// Metrics and the enabled flag are process-global; every unit test
/// that toggles the flag or increments a metric holds this lock so
/// the harness's parallel scheduling cannot interleave them. Each
/// test still uses its own uniquely named statics.
#[cfg(test)]
pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_lazily_and_accumulate() {
        let _guard = flag_lock();
        static HITS: Counter = Counter::new("test.hits");
        set_enabled(false);
        HITS.inc();
        assert_eq!(HITS.get(), 0, "disabled increments must be no-ops");
        assert_eq!(snapshot().counter("test.hits"), None, "no registration while disabled");
        set_enabled(true);
        HITS.add(3);
        HITS.inc();
        assert_eq!(HITS.get(), 4);
        assert_eq!(snapshot().counter("test.hits"), Some(4));
    }

    #[test]
    fn histogram_buckets_and_extremes() {
        let _guard = flag_lock();
        static LAT: Histogram = Histogram::new("test.latency");
        set_enabled(true);
        for v in [0u64, 1, 2, 3, 900, u64::MAX] {
            LAT.record(v);
        }
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "test.latency").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 1, "value 0 lands in bucket 0");
        assert_eq!(h.buckets[1], 1, "value 1 lands in bucket 1");
        assert_eq!(h.buckets[2], 2, "values 2..=3 land in bucket 2");
        assert_eq!(h.buckets[10], 1, "value 900 has 10 significant bits");
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1, "huge values clamp to the last bucket");
        assert_eq!(h.sum, 0u64.wrapping_add(1 + 2 + 3 + 900).wrapping_add(u64::MAX));
    }

    #[test]
    fn spans_record_on_drop() {
        let _guard = flag_lock();
        set_enabled(true);
        for _ in 0..3 {
            let _span = span!("test.span");
        }
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "test.span").unwrap();
        assert_eq!(s.count, 3);
        assert!(s.max_ns <= s.total_ns);
    }

    #[test]
    fn disabled_spans_do_not_register() {
        let _guard = flag_lock();
        set_enabled(false);
        {
            let _span = span!("test.disabled-span");
        }
        set_enabled(true);
        assert!(!snapshot().spans.iter().any(|s| s.name == "test.disabled-span"));
    }

    #[test]
    fn warnings_reach_the_capture_sink() {
        let _guard = flag_lock();
        let capture = Capture::install();
        let path = "/tmp/x";
        warn!("journaling disabled: {path}", records = 7usize);
        let lines = capture.lines();
        assert!(capture.contains("journaling disabled: /tmp/x"), "{lines:?}");
        assert!(capture.contains("records=7"), "{lines:?}");
        assert!(lines.iter().all(|l| l.starts_with("[warn ")), "{lines:?}");
    }

    #[test]
    fn info_lines_are_gated_on_enabled() {
        let _guard = flag_lock();
        set_enabled(false);
        let capture = Capture::install();
        info!("invisible");
        assert!(capture.lines().iter().all(|l| !l.contains("invisible")));
        set_enabled(true);
        info!("visible now");
        assert!(capture.contains("visible now"));
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _guard = flag_lock();
        static EPHEMERAL: Counter = Counter::new("test.reset-me");
        set_enabled(true);
        EPHEMERAL.add(9);
        assert_eq!(snapshot().counter("test.reset-me"), Some(9));
        reset_metrics();
        assert_eq!(snapshot().counter("test.reset-me"), Some(0));
    }
}
