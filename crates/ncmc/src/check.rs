//! The checker driver: maps lint verdicts to properties + schedule
//! domains, runs exploration, shrinks witnesses, emits certificates.
//!
//! This is the second judge the tentpole wires behind `nclint`: a
//! static verdict (replay hazard, non-atomic RMW, cross-kernel alias,
//! unguarded overflow) becomes a *dynamic* obligation — either the
//! checker finds a schedule that actually exhibits the hazard (a
//! machine-found, shrunk, replayable counterexample) or it proves the
//! hazard absent within stated bounds (a certificate). Static analysis
//! says "this could go wrong"; the checker answers "here is how" or
//! "not within these bounds, it can't".

use crate::cert::Certificate;
use crate::explore::{explore, minimal_witness, ExploreOptions, Property, Reduction, Stats};
use crate::schedule::{Schedule, Step};
use crate::system::{Domain, System};
use ncl_ir::lint::LintCode;
use std::collections::BTreeSet;

/// The property class a check instantiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PropertyKind {
    /// Terminal observation ∈ {loss-free serial executions}.
    Serializable,
    /// Terminal observation == the canonical delivery order's.
    OrderInvariant,
    /// No watched cell ever strictly decreases.
    NoRegression,
}

impl PropertyKind {
    /// Stable property name (certificates, reports).
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::Serializable => "serializable",
            PropertyKind::OrderInvariant => "order-invariant",
            PropertyKind::NoRegression => "no-regression",
        }
    }
}

/// The schedule-domain plan for one lint code: which property the
/// verdict asserts, quantified over which fault classes. `None` means
/// the code is not schedule-checkable ([`LintCode::schedule_checkable`]
/// must agree — `resource-overrun` is about table capacity, not
/// schedules).
pub fn plan_for(code: LintCode) -> Option<(PropertyKind, Domain)> {
    match code {
        LintCode::ReplayUnsafe | LintCode::ReplayUnsafeNoFilter => {
            Some((PropertyKind::Serializable, Domain::DUP_DROP))
        }
        LintCode::NonAtomicRmw => Some((PropertyKind::Serializable, Domain::SPLIT_ONLY)),
        LintCode::CrossKernelAlias => Some((PropertyKind::OrderInvariant, Domain::ORDER_ONLY)),
        LintCode::UnguardedOverflow => Some((PropertyKind::NoRegression, Domain::ORDER_ONLY)),
        LintCode::ResourceOverrun => None,
    }
}

/// One model-checking obligation: a property over a scenario.
#[derive(Clone, Debug)]
pub struct Check {
    /// The lint code being judged, or `None` for whole-program
    /// convergence.
    pub code: Option<LintCode>,
    /// Kernel (or kernel set) label for reports.
    pub kernel: String,
    /// Property class.
    pub kind: PropertyKind,
    /// Fault classes quantified over.
    pub domain: Domain,
    /// Register arrays to watch for regression
    /// ([`PropertyKind::NoRegression`] only).
    pub watch: Vec<String>,
}

impl Check {
    /// The obligation for a lint verdict, or `None` when the code is
    /// not schedule-checkable.
    pub fn for_lint(code: LintCode, kernel: &str, watch: Vec<String>) -> Option<Check> {
        let (kind, domain) = plan_for(code)?;
        Some(Check {
            code: Some(code),
            kernel: kernel.to_string(),
            kind,
            domain,
            watch,
        })
    }

    /// The whole-program convergence obligation: under loss,
    /// duplication, reordering and stage splits, every complete
    /// execution must land in a loss-free serial state.
    pub fn convergence(kernels: &str) -> Check {
        Check {
            code: None,
            kernel: kernels.to_string(),
            kind: PropertyKind::Serializable,
            domain: Domain::FULL,
            watch: Vec::new(),
        }
    }

    /// Property name for reports (`convergence` when not tied to a
    /// lint code).
    pub fn property_name(&self) -> &'static str {
        if self.code.is_none() {
            "convergence"
        } else {
            self.kind.name()
        }
    }
}

/// A shrunk, replayable counterexample.
#[derive(Clone, Debug)]
pub struct WitnessReport {
    /// The canonical minimal violating schedule.
    pub schedule: Schedule,
    /// Pipeline entries in the schedule (the length metric compared
    /// against hand-written witnesses).
    pub deliveries: usize,
    /// Observable state the schedule ends in.
    pub got: Vec<u64>,
    /// The serial reference observations the property allowed (empty
    /// for `no-regression`).
    pub expected: Vec<Vec<u64>>,
}

/// The verdict of one check.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The hazard is real: a minimal schedule exhibiting it.
    Witness(WitnessReport),
    /// The hazard is absent within the stated bounds.
    Certificate(Certificate),
    /// The state cap was hit before the space was covered; neither a
    /// witness nor a certificate.
    Inconclusive {
        /// States visited before truncation.
        states: u64,
    },
}

impl Outcome {
    /// Whether this outcome is a counterexample.
    pub fn is_witness(&self) -> bool {
        matches!(self, Outcome::Witness(_))
    }

    /// Whether this outcome is a bounded-absence certificate.
    pub fn is_certificate(&self) -> bool {
        matches!(self, Outcome::Certificate(_))
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self {
            Outcome::Witness(w) => format!(
                "WITNESS ({} steps, {} deliveries)",
                w.schedule.len(),
                w.deliveries
            ),
            Outcome::Certificate(c) => format!(
                "certified absent within bounds ({} states, {} schedules)",
                c.stats.states, c.stats.schedules
            ),
            Outcome::Inconclusive { states } => {
                format!("inconclusive (state cap hit after {states} states)")
            }
        }
    }
}

/// The result of running one check.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Verdict.
    pub outcome: Outcome,
    /// Exploration counters (the discovery run's, not the shrink's).
    pub stats: Stats,
}

/// Runs one check over a prepared system.
///
/// The scenario (windows, control-register values, watch arrays) must
/// already be encoded in `sys`; this drives reference computation,
/// exploration, shrinking and certification.
pub fn run_check(
    sys: &mut System,
    program: &str,
    check: &Check,
    reduction: Reduction,
    order_seed: Option<u64>,
) -> CheckResult {
    if !check.watch.is_empty() {
        sys.watch(&check.watch);
    }
    let (property, refs) = build_property(sys, check);
    let exploration = explore(
        sys,
        check.domain,
        &property,
        ExploreOptions {
            reduction,
            order_seed,
            stop_at_first: true,
        },
    );
    let outcome = if exploration.witness.is_some() {
        // Shrink to the canonical minimal schedule; the discovery
        // witness is only evidence that one exists.
        match minimal_witness(sys, check.domain, &property) {
            Some(schedule) => {
                let init = sys.initial();
                let final_state = sys.exec_all(&init, &schedule);
                Outcome::Witness(WitnessReport {
                    deliveries: schedule.deliveries(),
                    got: sys.observe(&final_state),
                    expected: refs.clone(),
                    schedule,
                })
            }
            // The DFS found a witness but BFS hit the cap before
            // reproducing one: report honestly rather than emit a
            // non-canonical schedule.
            None => Outcome::Inconclusive {
                states: exploration.stats.states,
            },
        }
    } else if exploration.complete {
        Outcome::Certificate(Certificate {
            program: program.to_string(),
            code: check.code.map(|c| c.name().to_string()),
            kernel: check.kernel.clone(),
            property: check.property_name().to_string(),
            windows: sys.windows().len(),
            bounds: sys.bounds(),
            reduction: reduction.name(),
            stats: exploration.stats,
            serial_states: refs.len(),
        })
    } else {
        Outcome::Inconclusive {
            states: exploration.stats.states,
        }
    };
    CheckResult {
        outcome,
        stats: exploration.stats,
    }
}

/// Builds the concrete property (computing serial references where the
/// kind needs them) and returns the reference list for reporting.
fn build_property(sys: &mut System, check: &Check) -> (Property, Vec<Vec<u64>>) {
    match check.kind {
        PropertyKind::NoRegression => (Property::NoRegression, Vec::new()),
        PropertyKind::Serializable => {
            let refs = sys.serial_references();
            let set: BTreeSet<Vec<u64>> = refs.iter().cloned().collect();
            (Property::InSet(set), refs)
        }
        PropertyKind::OrderInvariant => {
            let refs = sys.serial_references();
            let canonical = refs.first().cloned().unwrap_or_default();
            (Property::Equals(canonical.clone()), vec![canonical])
        }
    }
}

/// A replayed schedule asks for a step that is not enabled where it
/// stands: edited by hand, or minted against another scenario or domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplayError {
    /// 1-based line of the step in the rendered schedule (a corpus
    /// file's comment and blank lines are not counted).
    pub line: usize,
    /// The step that could not be taken.
    pub step: Step,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (line, step) = (self.line, self.step.render());
        write!(f, "schedule line {line}: `{step}` is not enabled")
    }
}

impl std::error::Error for ReplayError {}

/// Replays a schedule against a prepared system and reports whether it
/// violates the check's property — corpus regression: a committed
/// counterexample must keep failing on the kernel it was minted
/// against. Each step must be [`System::enabled`] under the check's
/// domain, so a misfit is an error, not a panic in [`System::exec`].
pub fn replay_violates(
    sys: &mut System,
    check: &Check,
    schedule: &Schedule,
) -> Result<bool, ReplayError> {
    if !check.watch.is_empty() {
        sys.watch(&check.watch);
    }
    let (property, _) = build_property(sys, check);
    let mut st = sys.initial();
    for (i, &step) in schedule.steps.iter().enumerate() {
        if !sys.enabled(&st, check.domain).contains(&step) {
            return Err(ReplayError { line: i + 1, step });
        }
        st = sys.exec(&st, step);
    }
    Ok(property.violated(sys, &st, check.domain))
}

/// The corpus file name for a shrunk witness:
/// `<code>__<kernel>__<hash16>.schedule`. The hash covers the schedule
/// body only (not provenance comments), so re-discovered duplicates of
/// the same schedule dedup to the same file name.
pub fn corpus_file_name(code: Option<LintCode>, kernel: &str, schedule: &Schedule) -> String {
    let code = code.map(|c| c.name().to_string());
    format!(
        "{}__{}__{}.schedule",
        code.as_deref().unwrap_or("convergence"),
        kernel,
        schedule.hash16()
    )
}

/// Renders a corpus entry: provenance header (comments, ignored by the
/// parser and the schedule hash) + the schedule body.
pub fn corpus_entry(
    program: &str,
    code: Option<LintCode>,
    kernel: &str,
    property: &str,
    w: &WitnessReport,
) -> String {
    let code = code.map(|c| c.name().to_string());
    format!(
        "# ncmc counterexample: {} on kernel {} (program {})\n\
         # property: {}; deliveries: {}; schedule hash: {}\n\
         {}",
        code.as_deref().unwrap_or("convergence"),
        kernel,
        program,
        property,
        w.deliveries,
        w.schedule.hash16(),
        w.schedule.render()
    )
}
