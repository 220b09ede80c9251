//! Audited runs and deterministic replay.
//!
//! [`run_workload_audited`] wraps any runner organization in an
//! [`AuditedOrg`] and drives it through the full [`System`] (L1s,
//! instruction gaps, bus) — shadow-model checking on every L2 access,
//! structural audits at the configured cadence, scheduled fault
//! injection. If the run records violations, the outcome carries a
//! [`ReplayArtifact`] naming the first one.
//!
//! [`run_replay`] is the other half of the loop: given an artifact
//! (typically parsed from a report line), it rebuilds the exact same
//! run — organization, workload, seed, sizing, fault schedule — and
//! verifies that the same check fires at the same access index. The
//! whole stack is deterministic, so a non-reproducing artifact means
//! the artifact is stale, not that the bug is flaky.

use cmp_audit::{
    AuditConfig, AuditViolation, AuditedOrg, InjectionLog, ReplayArtifact, ViolationLog,
};

use crate::error::SimError;
use crate::runner::{build_org, count_run, workload_by_name, OrgKind, RunConfig};
use crate::system::{RunResult, System};

/// Everything an audited run produces.
#[derive(Clone, Debug)]
pub struct AuditedRunOutcome {
    /// The measurement-phase statistics, exactly as an unaudited run
    /// would report them.
    pub result: RunResult,
    /// Violations recorded across the whole run (warm-up included).
    pub violations: ViolationLog,
    /// Faults actually injected (the schedule may name indices the
    /// run never reached).
    pub injections: InjectionLog,
    /// Replay artifact for the first violation, if any.
    pub artifact: Option<ReplayArtifact>,
}

impl AuditedRunOutcome {
    /// `true` when the run finished without a single violation.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `workload` (a Table 3 name or a Table 2 mix name) on `kind`
/// under the audit harness.
///
/// Fault indices in `audit.faults` (and the audit cadence) count *L2
/// accesses* — the references the L1s let through, typically a few
/// percent of the core-side stream — not per-core references.
pub fn run_workload_audited(
    workload: &str,
    kind: OrgKind,
    cfg: &RunConfig,
    audit: AuditConfig,
) -> Result<AuditedRunOutcome, SimError> {
    let w = workload_by_name(workload, cfg.seed)?;
    let audited = AuditedOrg::new(build_org(kind), audit.clone(), workload, cfg.seed);
    let violations = audited.log();
    let injections = audited.injections();
    let mut sys = System::new(w, Box::new(audited));
    let result = sys.run_measured(cfg.warmup_accesses, cfg.measure_accesses);
    count_run(&result);
    let artifact = violations.first().map(|v| {
        let mut art = ReplayArtifact::from_violation(
            &v,
            cfg.warmup_accesses,
            cfg.measure_accesses,
            audit.audit_every,
            &audit.faults,
        );
        // The violation records `CacheOrg::name`, which collapses the
        // NuRAPID ablations; the artifact must name the exact kind.
        art.org = kind.name().to_string();
        art
    });
    Ok(AuditedRunOutcome { result, violations, injections, artifact })
}

/// What a replay observed.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// `true` when the replay recorded the artifact's violation —
    /// same check at the same access index.
    pub reproduced: bool,
    /// First violation the replay recorded, if any.
    pub violation: Option<AuditViolation>,
}

/// Re-executes the run an artifact describes and checks it reproduces
/// the recorded violation.
pub fn run_replay(artifact: &ReplayArtifact) -> Result<ReplayOutcome, SimError> {
    let kind = OrgKind::from_name(&artifact.org)
        .ok_or_else(|| SimError::UnknownOrg(artifact.org.clone()))?;
    let cfg = RunConfig::sized(artifact.warmup, artifact.measure, artifact.seed);
    let mut audit = AuditConfig::checking(artifact.audit_every);
    audit.faults = artifact.faults.clone();
    let outcome = run_workload_audited(&artifact.workload, kind, &cfg, audit)?;
    let violation = outcome.violations.first();
    let reproduced = violation.as_ref().is_some_and(|v| artifact.matches(v));
    Ok(ReplayOutcome { reproduced, violation })
}
