//! Deterministic random-number generation for reproducible experiments.
//!
//! The workload generators and the random replacement choices in the
//! distance-replacement policy (paper Section 3.3.2) all draw from this
//! generator. It is a self-contained xoshiro256**-style PRNG seeded via
//! SplitMix64, so a given seed produces byte-identical experiment
//! results on every platform and toolchain — a property external RNG
//! crates do not guarantee across versions.

/// A small, fast, deterministic PRNG (xoshiro256**).
///
/// # Example
///
/// ```
/// use cmp_mem::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed, expanding it with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { state: [next(), next(), next(), next()] }
    }

    /// Derives an independent child generator; used to give each core
    /// and each workload region its own stream.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        // Lemire's multiply-shift rejection method: unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[0, bound)` as a `usize`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform floating-point value in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Picks an index according to a table of weights.
    ///
    /// Sums the slice on every call; hot paths that draw from a fixed
    /// table repeatedly should build a [`WeightedTable`] once instead.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "weights must be nonempty with positive sum");
        pick_weighted_with_total(self, weights, total)
    }
}

/// The shared selection loop of [`Rng::pick_weighted`] and
/// [`WeightedTable::pick`]: one `gen_f64` draw scaled by `total`,
/// then sequential subtraction.
///
/// Deliberately *not* a cumulative-CDF binary search: `draw - w0 < w1`
/// and `draw < w0 + w1` round differently in floating point, and the
/// golden suite pins the exact draw-to-index mapping. Precomputing
/// `total` is the only part of the call that can be hoisted without
/// changing results bit-for-bit.
#[inline]
fn pick_weighted_with_total(rng: &mut Rng, weights: &[f64], total: f64) -> usize {
    let mut draw = rng.gen_f64() * total;
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

/// A weighted-choice table with its total precomputed, for hot paths
/// that draw from the same weights on every trace step.
///
/// Picks are bit-identical to calling [`Rng::pick_weighted`] with the
/// same slice: the total is computed once at construction with the
/// same left-to-right summation, and the per-draw comparison loop is
/// shared code.
///
/// # Example
///
/// ```
/// use cmp_mem::{Rng, WeightedTable};
///
/// let table = WeightedTable::new(&[1.0, 2.0, 7.0]);
/// let mut a = Rng::new(9);
/// let mut b = Rng::new(9);
/// assert_eq!(table.pick(&mut a), b.pick_weighted(&[1.0, 2.0, 7.0]));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedTable {
    /// Builds the table, summing the weights once.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "weights must be nonempty with positive sum");
        WeightedTable { weights: weights.to_vec(), total }
    }

    /// Number of weights in the table.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the table has no weights (never: construction
    /// rejects an empty slice).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Picks an index, consuming one `gen_f64` draw — the same draw
    /// and the same index [`Rng::pick_weighted`] would produce.
    #[inline]
    pub fn pick(&self, rng: &mut Rng) -> usize {
        pick_weighted_with_total(rng, &self.weights, self.total)
    }
}

/// Number of acceleration buckets for a [`Zipf`] sampler over `n`
/// ranks. Always a power of two, so `u * buckets` and `k / buckets`
/// are exact in floating point (only the exponent changes) and the
/// bucket bracketing proof in [`Zipf::sample`] holds bitwise. Scaled
/// to ~4x the support so the average bucket spans less than one rank
/// and most draws resolve with a single CDF probe; capped so the
/// index stays a fraction of the CDF's own footprint.
fn zipf_buckets(n: usize) -> usize {
    (4 * n).next_power_of_two().clamp(1024, 65_536)
}

/// A Zipf(θ) sampler over `0..n`, used to model skewed block
/// popularity inside the synthetic workload working sets.
///
/// Uses the classic inverse-CDF table; construction is `O(n)` and
/// sampling is a binary search bracketed by a quantile bucket index,
/// so the common draw touches a handful of cache lines instead of
/// walking the whole table.
///
/// # Example
///
/// ```
/// use cmp_mem::{Rng, Zipf};
///
/// let mut rng = Rng::new(7);
/// let zipf = Zipf::new(1000, 0.8);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Shared, interned tables: building them is `O(n)` with a `powf`
    /// per rank, and the experiment sweeps construct the same
    /// distributions once per (workload, organization) pair, so
    /// `new` memoizes per `(n, theta)` process-wide.
    tables: std::sync::Arc<ZipfTables>,
}

/// The immutable lookup tables behind a [`Zipf`].
#[derive(Debug)]
struct ZipfTables {
    cdf: Vec<f64>,
    /// `bucket[k]` is the first index `i` with `cdf[i] >= k / B`
    /// where `B = bucket.len() - 1`; `bucket[B]` is `cdf.len()`. For
    /// a draw `u` in `[k/B, (k+1)/B)` the answer lies in
    /// `[bucket[k], bucket[k+1]]`, which narrows the binary search to
    /// the few entries a bucket spans.
    bucket: Vec<u32>,
    /// `B` as a float, the exact power-of-two scale from a draw to
    /// its bucket index.
    bucket_scale: f64,
}

/// Intern-pool storage: built tables keyed by `(n, theta.to_bits())`.
///
/// A `RwLock` rather than a `Mutex`: once the handful of distinct
/// distributions a sweep uses exist, every `Zipf::new` on every
/// worker is a read-lock + `Arc` clone, and readers never serialize
/// each other. (The old `Mutex` made parallel sweeps *slower* than
/// sequential ones: every worker constructing its workload queued on
/// one lock, and on a miss the `O(n)` `powf` table build ran while
/// the lock was held, stalling the whole fan-out.)
type ZipfPool =
    std::sync::RwLock<std::collections::HashMap<(usize, u64), std::sync::Arc<ZipfTables>>>;

/// The process-wide [`ZipfTables`] intern pool. The distinct
/// distributions a process builds are bounded by the workload
/// profiles, so the pool stays small.
fn zipf_pool() -> &'static ZipfPool {
    static POOL: std::sync::OnceLock<ZipfPool> = std::sync::OnceLock::new();
    POOL.get_or_init(Default::default)
}

/// Number of distinct `(n, theta)` distributions currently interned.
/// Exposed for the scaling-regression suite, which prewarms the pool
/// and then asserts that hammering [`Zipf::new`] from many threads
/// stays on the shared read path.
pub fn zipf_interned_distributions() -> usize {
    zipf_pool().read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
}

impl Zipf {
    /// Builds a sampler for ranks `0..n` with skew `theta >= 0`
    /// (`theta == 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf support must be nonempty");
        assert!(theta >= 0.0 && theta.is_finite(), "Zipf theta must be finite and nonnegative");
        use std::sync::PoisonError;
        let key = (n, theta.to_bits());
        // Read-mostly fast path: concurrent workers constructing the
        // same workload share the read lock and never serialize.
        {
            let pool = zipf_pool().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(tables) = pool.get(&key) {
                return Zipf { tables: tables.clone() };
            }
        }
        // Miss: build the tables with no lock held (the `O(n)` `powf`
        // walk must not stall other workers), then publish under the
        // write lock. If another thread raced us to the same key its
        // tables win — both builds are deterministic and identical,
        // only the duplicate work is discarded.
        let built = std::sync::Arc::new(ZipfTables::build(n, theta));
        let mut pool = zipf_pool().write().unwrap_or_else(PoisonError::into_inner);
        let tables = pool.entry(key).or_insert(built).clone();
        Zipf { tables }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.tables.cdf.len()
    }

    /// `true` when the support has no ranks (never: construction
    /// rejects `n == 0`, but the answer is computed, not asserted).
    pub fn is_empty(&self) -> bool {
        self.tables.cdf.is_empty()
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    ///
    /// Consumes one `gen_f64` draw and returns the first rank whose
    /// CDF value is `>= u` (clamped to the last rank) — the same
    /// draw-to-rank mapping as a full binary search over the CDF,
    /// just restricted to the bucket the draw lands in: `u >= k/B`
    /// puts the answer at or after `bucket[k]`, and `u < (k+1)/B`
    /// puts it at or before `bucket[k+1]`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        let t = &*self.tables;
        let k = ((u * t.bucket_scale) as usize).min(t.bucket.len() - 2);
        let mut lo = t.bucket[k] as usize;
        let mut hi = (t.bucket[k + 1] as usize).min(t.cdf.len() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if t.cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl ZipfTables {
    /// Computes the CDF and its bucket index for `(n, theta)`.
    fn build(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        // One forward walk fills every bucket's lower bound (the CDF
        // is non-decreasing, so the pointers only move right).
        let buckets = zipf_buckets(n);
        let mut bucket = Vec::with_capacity(buckets + 1);
        let mut i = 0usize;
        for k in 0..=buckets {
            let q = k as f64 / buckets as f64;
            while i < n && cdf[i] < q {
                i += 1;
            }
            bucket.push(i as u32);
        }
        ZipfTables { cdf, bucket, bucket_scale: buckets as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = Rng::new(55);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = Rng::new(77);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::new(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut rng = Rng::new(21);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.pick_weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        // Roughly 10% / 20% / 70%.
        assert!((counts[0] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }

    /// Serializes the tests that touch the process-wide Zipf pool. A
    /// test holding the pool's read lock must not overlap another
    /// test's first insert: a queued writer blocks new readers, which
    /// would stall the held-lock test for reasons that have nothing
    /// to do with the read path under test.
    fn pool_tests_serialized() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Structural check that the warm `Zipf::new` path shares the
    /// pool with other readers: while this thread holds the pool's
    /// read lock, another thread's `Zipf::new` of an interned
    /// distribution must complete. A read path that took the write
    /// lock (or a `Mutex`) would block until the guard drops, and the
    /// generous timeout turns that into a deterministic failure
    /// instead of a ns-per-op ratio.
    #[test]
    fn warm_zipf_new_proceeds_while_a_reader_holds_the_pool() {
        let _serial = pool_tests_serialized();
        let (n, theta) = (4096, 0.9);
        let _warm = Zipf::new(n, theta);
        let held = zipf_pool().read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(Zipf::new(n, theta).len());
        });
        let outcome = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        worker.join().expect("worker thread");
        assert_eq!(outcome, Ok(n), "warm Zipf::new blocked behind a held read lock");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let _serial = pool_tests_serialized();
        let mut rng = Rng::new(31);
        let zipf = Zipf::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "got {c}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let _serial = pool_tests_serialized();
        let mut rng = Rng::new(41);
        let zipf = Zipf::new(100, 1.0);
        let mut low = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if zipf.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // Under Zipf(1.0) over 100 ranks, the top-10 mass is ~56%.
        assert!(low as f64 / DRAWS as f64 > 0.45, "got {low}");
    }

    #[test]
    fn zipf_bucketed_search_matches_full_binary_search() {
        let _serial = pool_tests_serialized();
        // The bucket index must not change a single draw: compare
        // against the pre-optimization full binary search over the
        // same CDF, across sizes that straddle the bucket count.
        for (n, theta, seed) in
            [(1, 0.9, 1u64), (7, 0.0, 2), (100, 1.0, 3), (1_023, 0.7, 4), (13_000, 0.9, 5)]
        {
            let zipf = Zipf::new(n, theta);
            let mut a = Rng::new(seed);
            let mut b = Rng::new(seed);
            for _ in 0..5_000 {
                let fast = zipf.sample(&mut a);
                let u = b.gen_f64();
                let cdf = &zipf.tables.cdf;
                let slow = match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
                {
                    Ok(i) => i,
                    Err(i) => i.min(cdf.len() - 1),
                };
                assert_eq!(fast, slow, "n={n} theta={theta} u={u}");
            }
        }
    }

    #[test]
    fn zipf_single_rank() {
        let _serial = pool_tests_serialized();
        let mut rng = Rng::new(5);
        let zipf = Zipf::new(1, 1.2);
        assert_eq!(zipf.sample(&mut rng), 0);
        assert_eq!(zipf.len(), 1);
        assert!(!zipf.is_empty());
    }

    #[test]
    fn weighted_table_matches_pick_weighted_exactly() {
        let weights = [0.5, 0.14, 0.36];
        let table = WeightedTable::new(&weights);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        let mut a = Rng::new(0x15CA);
        let mut b = Rng::new(0x15CA);
        for _ in 0..10_000 {
            assert_eq!(table.pick(&mut a), b.pick_weighted(&weights));
        }
        // The generators consumed identical draw sequences.
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn weighted_table_rejects_zero_sum() {
        let _ = WeightedTable::new(&[0.0, 0.0]);
    }
}
