//! Monotonic counters, power-of-two histograms, and the process-wide
//! registry both (plus spans) report into.
//!
//! Each metric is one set of relaxed atomics. No metric fires on
//! every simulated access: the simulator's counters are added once
//! per run from its `RunResult`, `coherence.c_transitions` fires only
//! when a block joins the C state, and the batch and service layers
//! count per job or per request, so one shared cache line per metric
//! costs nothing measurable. The disabled path is one relaxed load
//! and an early return.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::span::SpanStat;

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket
/// `b` (1..) holds values with `b` significant bits, i.e. the range
/// `2^(b-1) ..= 2^b - 1`; everything wider clamps into the last
/// bucket.
pub const HIST_BUCKETS: usize = 16;

/// Everything registered so far. Metrics are `static`s scattered
/// across crates; each adds itself here on first use, so a snapshot
/// only ever reports metrics that were actually touched.
pub(crate) struct Registry {
    pub(crate) counters: Vec<&'static Counter>,
    pub(crate) histograms: Vec<&'static Histogram>,
    pub(crate) spans: Vec<&'static SpanStat>,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { counters: Vec::new(), histograms: Vec::new(), spans: Vec::new() });

pub(crate) fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonic event counter. Declare as a `static` next to the code
/// it observes; increments are relaxed atomics and compile to an
/// early return while the layer is disabled.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter with a dotted taxonomy name
    /// (`"cache.l2.hits"`).
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `n` (no-op while the layer is disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register_slow();
        }
    }

    /// Adds 1 (no-op while the layer is disabled).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value. A concurrent read may miss in-flight
    /// increments.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snap(&self) -> CounterSnapshot {
        CounterSnapshot { name: self.name.to_string(), value: self.get() }
    }

    #[cold]
    fn register_slow(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.push(self);
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// The counter's dotted taxonomy name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A histogram over `u64` samples with power-of-two buckets (see
/// [`HIST_BUCKETS`]) plus exact count/sum/min/max. Lock-free: every
/// field is an independent relaxed atomic, so a concurrent snapshot
/// may be torn across fields by a few in-flight samples — fine for
/// reporting, never consulted by the simulation.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram with a dotted taxonomy name.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one sample (no-op while the layer is disabled). The
    /// sum wraps on overflow rather than poisoning the hot path.
    #[inline]
    pub fn record(&'static self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register_slow();
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index of a sample: its bit length, clamped to the last
    /// bucket.
    fn bucket(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snap(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    #[cold]
    fn register_slow(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().histograms.push(self);
        }
    }
}

/// Point-in-time state of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The histogram's dotted taxonomy name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Upper bound of the value range the `q`-quantile sample falls
    /// in (`q` in `0.0..=1.0`), e.g. `percentile(0.99)` for a p99.
    ///
    /// Buckets are powers of two, so the answer is the bucket's upper
    /// edge — an overestimate by at most 2×, which is the right
    /// fidelity for a latency report built from 16 buckets. Exact at
    /// the extremes: an empty histogram reports 0 and the last bucket
    /// reports the true maximum sample.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match i {
                    0 => 0,
                    _ if i == HIST_BUCKETS - 1 => self.max,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket((1 << 14) - 1), 14);
        assert_eq!(Histogram::bucket(1 << 14), 15);
        assert_eq!(Histogram::bucket(u64::MAX), 15);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut snap = HistogramSnapshot {
            name: "test.p".into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        };
        assert_eq!(snap.percentile(0.99), 0, "empty histogram");
        // 90 samples of value 3 (bucket 2), 10 samples of ~900
        // (bucket 10): p50 lands in bucket 2, p99 in bucket 10.
        snap.buckets[2] = 90;
        snap.buckets[10] = 10;
        snap.count = 100;
        snap.max = 900;
        assert_eq!(snap.percentile(0.50), 3);
        assert_eq!(snap.percentile(0.99), (1 << 10) - 1);
        // The last bucket reports the true max.
        snap.buckets[HIST_BUCKETS - 1] = 1;
        snap.count = 101;
        snap.max = u64::MAX;
        assert_eq!(snap.percentile(1.0), u64::MAX);
    }

    /// Concurrent increments from many threads are never lost: the
    /// counter total and the histogram's count, sum, min and max are
    /// exact after the threads join.
    #[test]
    fn concurrent_increments_are_not_lost() {
        static HITS: Counter = Counter::new("test.concurrent.counter");
        static SAMPLES: Histogram = Histogram::new("test.concurrent.histogram");
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        let _guard = crate::flag_lock();
        crate::set_enabled(true);
        // Released together, so the increments overlap.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        HITS.inc();
                        SAMPLES.record(t * OPS + i);
                    }
                });
            }
        });
        assert_eq!(HITS.get(), THREADS * OPS, "counter lost increments");
        let snap = SAMPLES.snap();
        let n = THREADS * OPS;
        assert_eq!(snap.count, n, "histogram lost samples");
        assert_eq!(snap.sum, n * (n - 1) / 2, "histogram sum");
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, n - 1);
        assert_eq!(snap.buckets.iter().sum::<u64>(), n, "every sample in one bucket");
    }

    #[test]
    fn empty_histogram_snapshot_reports_zero_min() {
        static EMPTY: Histogram = Histogram::new("test.empty");
        let snap = EMPTY.snap();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
    }
}
