//! Monotonic counters, power-of-two histograms, and the process-wide
//! registry both (plus spans) report into.
//!
//! Both metric kinds are **sharded**: a metric is a small fixed array
//! of cache-line-aligned slots, and each thread hashes to one slot by
//! a round-robin id assigned on first touch. Hot counters like
//! `cache.l2.accesses` fire once per simulated access on every
//! worker; with a single `AtomicU64` those increments all contend on
//! one cache line and an enabled observability layer visibly
//! flattens parallel-sweep scaling. With shards, concurrent workers
//! land on different lines and an increment costs the same at 16
//! threads as at 1. Reads ([`Counter::get`], snapshots) fold the
//! shards — reporting is rare, increments are hot. The disabled path
//! is unchanged: one relaxed load and an early return, before any
//! shard is touched.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::span::SpanStat;

/// Number of shards per metric. Enough that a full complement of
/// workers rarely collides, small enough that folding a snapshot and
/// the per-static footprint stay trivial.
pub const METRIC_SHARDS: usize = 8;

/// The calling thread's shard slot: a round-robin id assigned on
/// first touch, reduced mod [`METRIC_SHARDS`]. `try_with` so a
/// metric fired during thread-local teardown degrades to shard 0
/// instead of panicking.
#[inline]
fn shard_index() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % METRIC_SHARDS;
    }
    SHARD.try_with(|s| *s).unwrap_or(0)
}

/// One cache line's worth of counter state, aligned so neighbouring
/// shards never share a line (the whole point of sharding).
#[repr(align(64))]
struct CounterShard {
    value: AtomicU64,
}

impl CounterShard {
    const fn new() -> Self {
        CounterShard { value: AtomicU64::new(0) }
    }
}

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
/// it observes; increments are relaxed atomics on a per-thread shard
/// (see the module docs) and compile to an early return while the
/// layer is disabled.
pub struct Counter {
    name: &'static str,
    shards: [CounterShard; METRIC_SHARDS],
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter with a dotted taxonomy name
    /// (`"cache.l2.hits"`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            shards: [const { CounterShard::new() }; METRIC_SHARDS],
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` (no-op while the layer is disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.shards[shard_index()].value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register_slow();
        }
    }

    /// Adds 1 (no-op while the layer is disabled).
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value: the fold of every shard. A concurrent read may
    /// miss in-flight increments (same as the unsharded counter).
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.value.load(Ordering::Relaxed)).sum()
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.value.store(0, Ordering::Relaxed);
        }
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

/// One shard of histogram state: buckets plus exact
/// count/sum/min/max, aligned so shards never share a cache line.
#[repr(align(64))]
struct HistogramShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramShard {
    const fn new() -> Self {
        HistogramShard {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A histogram over `u64` samples with power-of-two buckets (see
/// [`HIST_BUCKETS`]) plus exact count/sum/min/max. Lock-free and
/// sharded per thread (see the module docs): every field is an
/// independent relaxed atomic, so a concurrent snapshot may be torn
/// across fields by a few in-flight samples — fine for reporting,
/// never consulted by the simulation.
pub struct Histogram {
    name: &'static str,
    shards: [HistogramShard; METRIC_SHARDS],
    registered: AtomicBool,
}

impl Histogram {
    /// An empty histogram with a dotted taxonomy name.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            shards: [const { HistogramShard::new() }; METRIC_SHARDS],
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
        let shard = &self.shards[shard_index()];
        shard.buckets[Self::bucket(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.min.fetch_min(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
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
        for s in &self.shards {
            s.reset();
        }
    }

    pub(crate) fn snap(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut buckets = [0u64; HIST_BUCKETS];
        for shard in &self.shards {
            let shard_count = shard.count.load(Ordering::Relaxed);
            if shard_count == 0 {
                continue;
            }
            count += shard_count;
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            min = min.min(shard.min.load(Ordering::Relaxed));
            max = max.max(shard.max.load(Ordering::Relaxed));
            for (slot, b) in buckets.iter_mut().zip(&shard.buckets) {
                *slot += b.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            buckets,
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

    /// Structural form of the "counter hot path does not serialize"
    /// check: concurrent workers land on distinct cache lines, so no
    /// increment contends with another thread's. Deterministic, unlike
    /// a wall-clock ratio; a counter collapsed onto one atomic (or one
    /// shard) fails it.
    #[test]
    fn concurrent_threads_increment_distinct_aligned_shards() {
        use std::collections::BTreeSet;
        use std::sync::Barrier;

        assert_eq!(std::mem::align_of::<CounterShard>(), 64, "one shard per cache line");
        assert_eq!(std::mem::size_of::<CounterShard>(), 64);

        static SPREAD: Counter = Counter::new("test.shard-spread");
        const OPS: u64 = 10_000;
        let _guard = crate::flag_lock();
        crate::set_enabled(true);
        // Fresh threads, released together: each takes its shard slot
        // on first touch while all the others are alive.
        let barrier = Barrier::new(METRIC_SHARDS);
        let slots: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..METRIC_SHARDS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let slot = shard_index();
                        for _ in 0..OPS {
                            SPREAD.inc();
                        }
                        slot
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        let distinct: BTreeSet<usize> = slots.iter().copied().collect();
        assert_eq!(distinct.len(), METRIC_SHARDS, "threads shared a shard: {slots:?}");
        for &slot in &slots {
            assert_eq!(
                SPREAD.shards[slot].value.load(Ordering::Relaxed),
                OPS,
                "shard {slot} holds exactly its own thread's increments",
            );
        }
        assert_eq!(SPREAD.get(), METRIC_SHARDS as u64 * OPS, "no increment lost");
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
