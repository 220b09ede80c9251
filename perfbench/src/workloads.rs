//! The benchmark's workloads: which (workload, organization) pairs
//! each one runs, at what sizing, and how its inputs follow from the
//! seed.

use cmp_bench::{figures, Json, ScenarioSpec, WorkloadId};
use cmp_latency::LatencyBook;
use cmp_mem::Rng;
use cmp_sim::{try_multithreaded_workload, OrgKind, RunConfig, RunResult};
use cmp_trace::{MixWorkload, TraceSource};

/// Every workload, in the order the one-command mode runs them.
pub const NAMES: [&str; 4] = ["paper4", "capacity4", "cores64", "serve_zipf"];

/// Seed the one-command mode uses.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning: the benchmark's sizes were chosen on other
/// seeds, so a run on this one checks they were not fitted to a seed.
pub const HELDOUT_SEED: u64 = 20_261_017;

/// Derives the `i`-th input seed of a workload from the run's seed
/// (kept below 2^53 so it survives a JSON number unchanged).
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    rng.next_u64() >> 11
}

/// Where a pair's reference stream comes from.
#[derive(Clone, Debug)]
pub enum Source {
    /// A Table 3 workload or Table 2 mix by name, on the paper machine.
    Catalog(&'static str),
    /// A scenario spec on its own machine.
    Spec(Box<ScenarioSpec>),
}

/// A computation generic over the concrete generator type.
pub trait WithSource {
    /// What the computation returns.
    type Out;
    /// Runs the computation on a freshly built generator.
    fn call<W: TraceSource>(self, workload: W) -> Self::Out;
}

/// One (workload, organization) pair with its sizing and seed.
#[derive(Clone, Debug)]
pub struct SimPair {
    /// Stream source.
    pub source: Source,
    /// L2 organization.
    pub org: OrgKind,
    /// Sizing and seed.
    pub cfg: RunConfig,
}

impl SimPair {
    /// `workload/org` for messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload_name(), self.org.name())
    }

    /// The workload name results carry.
    pub fn workload_name(&self) -> &str {
        match &self.source {
            Source::Catalog(name) => name,
            Source::Spec(spec) => &spec.name,
        }
    }

    /// The machine's latency book.
    pub fn book(&self) -> LatencyBook {
        match &self.source {
            Source::Catalog(_) => LatencyBook::paper(),
            Source::Spec(spec) => spec.book(),
        }
    }

    /// The machine's total L2 bytes.
    pub fn l2_bytes(&self) -> usize {
        match &self.source {
            Source::Catalog(_) => cmp_mem::L2_TOTAL_BYTES,
            Source::Spec(spec) => spec.l2_bytes(),
        }
    }

    /// Builds the pair's generator and hands it to `f`.
    pub fn with_source<F: WithSource>(&self, f: F) -> F::Out {
        let seed = self.cfg.seed;
        match &self.source {
            Source::Catalog(name) => match MixWorkload::table2(name, seed) {
                Some(mix) => f.call(mix),
                None => {
                    f.call(try_multithreaded_workload(name, seed).expect("catalog names are valid"))
                }
            },
            Source::Spec(spec) => f.call(spec.workload(seed)),
        }
    }

    /// Runs `workload` through the public monomorphized entry on this
    /// pair's machine — the entry every sweep and the service use.
    pub fn run<W: TraceSource>(&self, workload: W) -> RunResult {
        cmp_sim::run_workload_mono_with(
            workload,
            self.org,
            &self.cfg,
            &self.book(),
            self.l2_bytes(),
        )
    }

    /// The same pair with another organization.
    pub fn with_org(&self, org: OrgKind) -> SimPair {
        SimPair { org, ..self.clone() }
    }

    /// The pair as a serve `run` request line.
    pub fn request(&self, id: &str) -> String {
        let mut req = Json::obj();
        req.set("type", Json::Str("run".into()));
        req.set("id", Json::Str(id.into()));
        match &self.source {
            Source::Catalog(name) => {
                req.set("workload", Json::Str((*name).into()));
                req.set("org", Json::Str(self.org.name().into()));
                req.set("warmup-accesses", Json::Num(self.cfg.warmup_accesses as f64));
                req.set("measure-accesses", Json::Num(self.cfg.measure_accesses as f64));
                req.set("seed", Json::Num(self.cfg.seed as f64));
            }
            Source::Spec(spec) => {
                let mut spec = spec.clone();
                spec.org = self.org;
                spec.warmup_accesses = Some(self.cfg.warmup_accesses);
                spec.measure_accesses = Some(self.cfg.measure_accesses);
                spec.seed = Some(self.cfg.seed);
                req.set("spec", spec.to_json());
            }
        }
        req.compact()
    }
}

/// A simulation workload: its pairs and their latency limit.
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The pairs, in run order.
    pub pairs: Vec<SimPair>,
    /// A pair whose best time exceeds this misses its latency limit:
    /// twice the p99 of the pairs' best times measured on a 2-vCPU
    /// Xeon host (see `perfbench/README.md`), so only a pair that got
    /// about twice as slow misses it.
    pub pair_limit_ms: f64,
}

/// `paper4`: the 51 unique pairs of every paper figure, 4 cores, quick
/// sizing.
fn paper4(seed: u64) -> SimWorkload {
    let cfg = RunConfig::sized(20_000, 40_000, derive_seed(seed, 0));
    let mut seen = std::collections::HashSet::new();
    let pairs = figures::pairs::all()
        .into_iter()
        .filter(|p| seen.insert(*p))
        .map(|(w, org)| {
            let name = match w {
                WorkloadId::Multithreaded(n) | WorkloadId::Mix(n) => n,
                WorkloadId::Spec(_) => unreachable!("figure pairs are catalog pairs"),
            };
            SimPair { source: Source::Catalog(name), org, cfg }
        })
        .collect();
    SimWorkload { name: "paper4", pairs, pair_limit_ms: 32.0 }
}

/// `capacity4`: OLTP with a private working set far beyond the 8 MB L2
/// and weak hot-window reuse, so replacement, writeback and NuRAPID
/// demotion run.
pub fn capacity4_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::defaults("capacity4");
    spec.base = "oltp".into();
    spec.working_set_blocks = Some(40_000);
    spec.hot_fraction = Some(0.8);
    spec
}

fn capacity4(seed: u64) -> SimWorkload {
    let cfg = RunConfig::sized(100_000, 200_000, derive_seed(seed, 0));
    let spec = capacity4_spec();
    let pairs = [OrgKind::Shared, OrgKind::Private, OrgKind::Snuca, OrgKind::Nurapid]
        .into_iter()
        .map(|org| SimPair { source: Source::Spec(Box::new(spec.clone())), org, cfg })
        .collect();
    SimWorkload { name: "capacity4", pairs, pair_limit_ms: 370.0 }
}

/// `cores64`: OLTP on 64 cores, all sharing, 128 MB of simulated L2.
pub fn cores64_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::defaults("cores64");
    spec.cores = 64;
    spec.sharing_degree = 64;
    spec.base = "oltp".into();
    spec
}

fn cores64(seed: u64) -> SimWorkload {
    let cfg = RunConfig::sized(10_000, 20_000, derive_seed(seed, 0));
    let spec = cores64_spec();
    let pairs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid]
        .into_iter()
        .map(|org| SimPair { source: Source::Spec(Box::new(spec.clone())), org, cfg })
        .collect();
    SimWorkload { name: "cores64", pairs, pair_limit_ms: 1_080.0 }
}

/// The simulation workload called `name`, if it is one.
pub fn sim_workload(name: &str, seed: u64) -> Option<SimWorkload> {
    match name {
        "paper4" => Some(paper4(seed)),
        "capacity4" => Some(capacity4(seed)),
        "cores64" => Some(cores64(seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper4_has_the_51_unique_figure_pairs() {
        let w = paper4(DEFAULT_SEED);
        assert_eq!(w.pairs.len(), 51);
    }

    #[test]
    fn seeds_are_deterministic_distinct_and_json_safe() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        for i in 0..64 {
            assert!(derive_seed(HELDOUT_SEED, i) < 1 << 53);
        }
    }
}
