//! Schedule-space exploration: bounded DFS with optional state dedup
//! and sleep-set DPOR, plus the canonical BFS used to shrink witnesses.
//!
//! ## Reductions
//!
//! * [`Reduction::Naive`] — exhaustive enumeration of every schedule in
//!   the domain. Ground truth (and the baseline E15 measures prune
//!   ratios against), exponential in interleavings.
//! * [`Reduction::Dedup`] — prunes re-entry into states already visited
//!   (keyed by [`crate::System::hash`]). Sound because the system is
//!   deterministic: the subtree below a state depends only on the state.
//! * [`Reduction::Dpor`] — dedup plus sleep-set partial-order
//!   reduction with *dynamic* commutation: two steps are independent at
//!   a state iff executing them in both orders is possible and lands in
//!   the identical full-state hash. Sleep sets carry already-explored
//!   steps into sibling branches so commuting permutations are explored
//!   once. Soundness note: a visited entry records the sleep set it was
//!   explored under, and a revisit is only pruned when some recorded
//!   sleep set is a **subset** of the current one (the prior visit
//!   explored a superset of the successors this visit would).
//!
//! All three must — and, by the identity tests in this crate, do —
//! agree on the verdict and on the set of reachable terminal
//! observations.

use crate::schedule::{Schedule, Step};
use crate::system::{Domain, SysState, System};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// How aggressively exploration prunes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reduction {
    /// Every schedule, no pruning.
    Naive,
    /// Visited-state dedup.
    Dedup,
    /// Dedup + sleep-set DPOR with dynamic commutation.
    Dpor,
}

impl Reduction {
    /// Stable lowercase name (certificates, metrics).
    pub fn name(self) -> &'static str {
        match self {
            Reduction::Naive => "naive",
            Reduction::Dedup => "dedup",
            Reduction::Dpor => "dpor",
        }
    }
}

/// The property a schedule domain is checked against.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Property {
    /// Every complete terminal observation must be one of these (the
    /// serial reference set — "serializability" of the fault domain).
    InSet(BTreeSet<Vec<u64>>),
    /// Every complete terminal observation must equal this one (order
    /// invariance: all orders must agree with the canonical order).
    Equals(Vec<u64>),
    /// No watched register cell may ever strictly decrease (monotonic
    /// accumulators; a decrease is an unguarded wrap).
    NoRegression,
}

impl Property {
    /// Whether `st` violates the property (for terminal-style
    /// properties this is only meaningful — and only true — when `st`
    /// is terminal and complete).
    pub fn violated(&self, sys: &System, st: &SysState, domain: Domain) -> bool {
        match self {
            Property::NoRegression => st.regressed,
            Property::InSet(refs) => {
                sys.terminal(st, domain) && sys.complete(st) && !refs.contains(&sys.observe(st))
            }
            Property::Equals(target) => {
                sys.terminal(st, domain) && sys.complete(st) && sys.observe(st) != *target
            }
        }
    }

    fn any_state(&self) -> bool {
        matches!(self, Property::NoRegression)
    }
}

/// Exploration counters. These are the honesty data of a certificate:
/// how much of the space was actually walked, and how much each
/// reduction saved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// DFS node entries.
    pub states: u64,
    /// Steps executed along explored paths (excludes commutation
    /// probes).
    pub edges: u64,
    /// Terminal states reached.
    pub terminals: u64,
    /// Maximal schedules enumerated (every path that ran to a terminal
    /// or was cut by dedup counts the work actually done; this counts
    /// completed ones).
    pub schedules: u64,
    /// Branches cut by the visited set.
    pub dedup_hits: u64,
    /// Steps skipped because they were in the sleep set.
    pub sleep_skips: u64,
    /// Steps executed to probe commutation (DPOR only). Every probe
    /// executes — nothing remembers an answer — so this is the search's
    /// cost beside `edges`, not part of what was explored.
    pub probe_execs: u64,
}

/// Exploration options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploreOptions {
    /// Pruning mode.
    pub reduction: Reduction,
    /// When set, the DFS visits enabled steps in a deterministic
    /// pseudo-random order derived from this seed instead of canonical
    /// order. Verdicts and shrunk witnesses must not depend on it —
    /// that is exactly what the shrink-determinism proptest checks.
    pub order_seed: Option<u64>,
    /// Stop as soon as one violation is found (the checker then shrinks
    /// it with [`minimal_witness`]); `false` explores the entire
    /// bounded space regardless.
    pub stop_at_first: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            reduction: Reduction::Dpor,
            order_seed: None,
            stop_at_first: true,
        }
    }
}

/// The result of one exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// A violating schedule, if any was found (not necessarily
    /// minimal — shrink with [`minimal_witness`]).
    pub witness: Option<Schedule>,
    /// All complete terminal observations reached.
    pub terminal_obs: BTreeSet<Vec<u64>>,
    /// Counters.
    pub stats: Stats,
    /// `true` when the bounded space was fully explored (no state-cap
    /// truncation); only then is the absence of a witness a
    /// certificate.
    pub complete: bool,
}

struct Explorer<'a> {
    sys: &'a mut System,
    domain: Domain,
    property: &'a Property,
    opts: ExploreOptions,
    max_states: usize,
    /// State hash → the sleep sets it was explored under ([`admit`]).
    visited: HashMap<u128, Vec<Box<[Step]>>>,
    witness: Option<Schedule>,
    terminal_obs: BTreeSet<Vec<u64>>,
    stats: Stats,
    truncated: bool,
    rng: SplitMix,
}

/// Explores the bounded schedule space of `sys` under `domain`,
/// checking `property`.
pub fn explore(
    sys: &mut System,
    domain: Domain,
    property: &Property,
    opts: ExploreOptions,
) -> Exploration {
    let max_states = sys.bounds().max_states;
    let init = sys.initial();
    let mut ex = Explorer {
        sys,
        domain,
        property,
        opts,
        max_states,
        visited: HashMap::new(),
        witness: None,
        terminal_obs: BTreeSet::new(),
        stats: Stats::default(),
        truncated: false,
        rng: SplitMix::new(opts.order_seed.unwrap_or(0)),
    };
    if opts.reduction != Reduction::Naive {
        ex.visited.insert(ex.sys.hash(&init), vec![Box::default()]);
    }
    let mut path = Vec::new();
    ex.dfs(&init, &[], &mut path);
    Exploration {
        witness: ex.witness,
        terminal_obs: ex.terminal_obs,
        stats: ex.stats,
        complete: !ex.truncated,
    }
}

impl Explorer<'_> {
    fn done(&self) -> bool {
        self.truncated || (self.opts.stop_at_first && self.witness.is_some())
    }

    fn record_witness(&mut self, path: &[Step]) {
        if self.witness.is_none() {
            self.witness = Some(Schedule::new(path.to_vec()));
        }
    }

    /// `sleep` is sorted, like every list of enabled steps.
    fn dfs(&mut self, st: &SysState, sleep: &[Step], path: &mut Vec<Step>) {
        if self.done() {
            return;
        }
        self.stats.states += 1;
        if self.visited.len() >= self.max_states || self.stats.states as usize >= self.max_states {
            self.truncated = true;
            return;
        }
        if self.property.any_state() && self.property.violated(self.sys, st, self.domain) {
            self.record_witness(path);
            return;
        }
        let enabled = self.sys.enabled(st, self.domain);
        if enabled.is_empty() {
            self.stats.terminals += 1;
            self.stats.schedules += 1;
            if self.sys.complete(st) {
                self.terminal_obs.insert(self.sys.observe(st));
            }
            if self.property.violated(self.sys, st, self.domain) {
                self.record_witness(path);
            }
            return;
        }
        let mut order = enabled.clone();
        if self.opts.order_seed.is_some() {
            let salt = self.rng.next();
            shuffle(&mut order, salt);
        }
        let dpor = self.opts.reduction == Reduction::Dpor;
        let mut done_steps: Vec<Step> = Vec::new();
        for &a in &order {
            if self.done() {
                return;
            }
            if dpor && sleep.binary_search(&a).is_ok() {
                self.stats.sleep_skips += 1;
                continue;
            }
            let next = self.sys.exec(st, a);
            self.stats.edges += 1;
            let mut child_sleep: Vec<Step> = Vec::new();
            if dpor {
                // Slept steps are skipped above, so the two halves of
                // the chain are disjoint and sorting is all it takes.
                for x in sleep.iter().chain(&done_steps).copied() {
                    if x != a && enabled.binary_search(&x).is_ok() && self.independent(st, x, a) {
                        child_sleep.push(x);
                    }
                }
                child_sleep.sort_unstable();
            }
            if self.opts.reduction != Reduction::Naive {
                let h = self.sys.hash(&next);
                if !admit(self.visited.entry(h).or_default(), &child_sleep) {
                    self.stats.dedup_hits += 1;
                    done_steps.push(a);
                    continue;
                }
            }
            path.push(a);
            self.dfs(&next, &child_sleep, path);
            path.pop();
            done_steps.push(a);
        }
    }

    /// Dynamic commutation: `x` and `y` are independent at `st` iff
    /// both orders are executable and land in the same full-state hash.
    /// Probed afresh on every call: a memo keyed on the full-state
    /// hash saved 3–4% of the executions and outweighed `visited`.
    fn independent(&mut self, st: &SysState, x: Step, y: Step) -> bool {
        let sx = self.sys.exec(st, x);
        self.stats.probe_execs += 1;
        if !self.sys.enabled(&sx, self.domain).contains(&y) {
            return false;
        }
        let sy = self.sys.exec(st, y);
        self.stats.probe_execs += 1;
        if !self.sys.enabled(&sy, self.domain).contains(&x) {
            return false;
        }
        let sxy = self.sys.exec(&sx, y);
        let syx = self.sys.exec(&sy, x);
        self.stats.probe_execs += 2;
        self.sys.hash(&sxy) == self.sys.hash(&syx)
    }
}

/// Whether sorted `a` ⊆ sorted `b`, in one merge walk.
fn subset(a: &[Step], b: &[Step]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.find(|y| *y >= x) == Some(x))
}

/// Records a visit under `sleep` in a state's `records`, unless a
/// recorded visit already slept on no more (`false`: prune the revisit).
/// Recorded supersets of `sleep` are dropped: whatever they would prune
/// later, `sleep` prunes too.
fn admit(records: &mut Vec<Box<[Step]>>, sleep: &[Step]) -> bool {
    if records.iter().any(|r| subset(r, sleep)) {
        return false;
    }
    records.retain(|r| !subset(sleep, r));
    records.push(sleep.into());
    true
}

/// The canonical minimal witness: the lexicographically smallest (in
/// [`Step`] order) among the shortest violating schedules, found by BFS
/// over the deduped state graph expanding successors in canonical
/// order. Deterministic by construction — it never depends on how the
/// witness was originally discovered, which is what makes shrunk
/// corpus entries byte-stable.
pub fn minimal_witness(sys: &mut System, domain: Domain, property: &Property) -> Option<Schedule> {
    let max_states = sys.bounds().max_states;
    let init = sys.initial();
    let mut seen: HashSet<u128> = HashSet::new();
    seen.insert(sys.hash(&init));
    let mut queue = VecDeque::from([init]);
    // The BFS tree: the state dequeued `n`-th (the initial state is
    // 0th) was first reached from the `links[n - 1].0`-th by the step
    // `links[n - 1].1`.
    let mut links: Vec<(u32, Step)> = Vec::new();
    let mut node = 0u32;
    while let Some(st) = queue.pop_front() {
        if property.violated(sys, &st, domain) {
            let mut steps = Vec::new();
            while node != 0 {
                let (parent, step) = links[node as usize - 1];
                steps.push(step);
                node = parent;
            }
            steps.reverse();
            return Some(Schedule::new(steps));
        }
        if seen.len() >= max_states {
            return None;
        }
        for a in sys.enabled(&st, domain) {
            let next = sys.exec(&st, a);
            if seen.insert(sys.hash(&next)) {
                links.push((node, a));
                queue.push_back(next);
            }
        }
        node += 1;
    }
    None
}

/// SplitMix64 — the crate-local deterministic stream used only to
/// permute exploration order in the shrink-determinism tests.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn shuffle(xs: &mut [Step], seed: u64) {
    let mut rng = SplitMix::new(seed);
    for i in (1..xs.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Step = Step::Deliver(0);
    const B: Step = Step::DeliverResp(1);
    const C: Step = Step::Tick;

    #[test]
    fn subset_walks_sorted_slices() {
        assert!(subset(&[], &[]));
        assert!(subset(&[], &[A]));
        assert!(!subset(&[A], &[]));
        assert!(subset(&[A, C], &[A, B, C]));
        assert!(subset(&[B], &[A, B, C]));
        assert!(subset(&[A, B, C], &[A, B, C]));
        assert!(!subset(&[A, B], &[A, C]));
        assert!(!subset(&[A, B, C], &[A, C]));
        assert!(!subset(&[C], &[A, B]));
    }

    #[test]
    fn visited_records_stay_an_antichain() {
        let mut records: Vec<Box<[Step]>> = Vec::new();
        assert!(admit(&mut records, &[A, B]));
        // Covered by the recorded visit: pruned, nothing recorded.
        assert!(!admit(&mut records, &[A, B, C]));
        assert_eq!(records, [Box::from([A, B])]);
        // A smaller sleep set explores more: admitted, and it replaces
        // the superset ...
        assert!(admit(&mut records, &[A]));
        assert_eq!(records, [Box::from([A])]);
        // ... without losing anything the superset pruned.
        assert!(!admit(&mut records, &[A, B, C]));
        assert!(!admit(&mut records, &[A, B]));
        // Incomparable sets sit side by side.
        assert!(admit(&mut records, &[B, C]));
        assert_eq!(records.len(), 2);
        // The empty set covers every revisit.
        assert!(admit(&mut records, &[]));
        assert_eq!(records, [Box::from([])]);
        assert!(!admit(&mut records, &[C]));
    }
}
