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
//!   reduction: two steps are independent at a state iff executing them
//!   in both orders is possible and lands in the identical state. The
//!   step kinds decide most pairs structurally (`System::commutes`: a
//!   pipeline step against a response, a drop or a tick, two drops
//!   under the budget, responses to different hosts); the rest — two
//!   pipeline steps, a response delivery against a tick, two responses
//!   to one host — are probed by executing both orders and comparing
//!   the two states with `==`; a probe takes the successors the search
//!   has already built from the parent state instead of executing them
//!   again. Sleep sets carry already-explored
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
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// How aggressively exploration prunes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reduction {
    /// Every schedule, no pruning.
    Naive,
    /// Visited-state dedup.
    Dedup,
    /// Dedup + sleep-set DPOR: commutation decided from the step kinds
    /// where they decide it, and by an exact execution probe otherwise.
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
    /// Steps executed to probe commutation (DPOR only). Only the pairs
    /// the step kinds leave open are probed, which cut this count about
    /// sevenfold on the shipped apps, and a probe executes only the
    /// successors the search has not already built from the same parent
    /// (the two crossed steps, plus the first step of a pair inherited
    /// through the sleep set). Nothing remembers an answer, so this is
    /// the search's cost beside `edges`, not part of what was explored.
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
    /// Spent states, whose buffers the next successors are written into
    /// ([`exec_recycled`]).
    spare: Vec<SysState>,
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
        spare: Vec::new(),
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
        let mut order = Cow::Borrowed(&enabled[..]);
        if self.opts.order_seed.is_some() {
            let salt = self.rng.next();
            shuffle(order.to_mut(), salt);
        }
        let dpor = self.opts.reduction == Reduction::Dpor;
        // Each explored step beside its successor, for the probes of the
        // later siblings.
        let mut done: Vec<(Step, SysState)> = Vec::with_capacity(order.len());
        for &a in order.iter() {
            if self.done() {
                return;
            }
            if dpor && sleep.binary_search(&a).is_ok() {
                self.stats.sleep_skips += 1;
                continue;
            }
            let next = exec_recycled(self.sys, &mut self.spare, st, a);
            self.stats.edges += 1;
            let mut child_sleep: Vec<Step> = Vec::new();
            if dpor {
                // Slept steps are skipped above, so the two halves of
                // the chain are disjoint and sorting is all it takes.
                let slept = sleep.iter().map(|&x| (x, None));
                let explored = done.iter().map(|(x, sx)| (*x, Some(sx)));
                for (x, sx) in slept.chain(explored) {
                    if x != a
                        && enabled.binary_search(&x).is_ok()
                        && self.independent(st, (x, sx), (a, &next))
                    {
                        child_sleep.push(x);
                    }
                }
                child_sleep.sort_unstable();
            }
            if self.opts.reduction != Reduction::Naive {
                let h = self.sys.hash(&next);
                if !admit(self.visited.entry(h).or_default(), &child_sleep) {
                    self.stats.dedup_hits += 1;
                    done.push((a, next));
                    continue;
                }
            }
            path.push(a);
            self.dfs(&next, &child_sleep, path);
            path.pop();
            done.push((a, next));
        }
        self.spare.extend(done.into_iter().map(|(_, s)| s));
    }

    /// Whether `x` and `y` commute at `st`: [`System::commutes`] where
    /// the step kinds decide it, else the [`probe`] over the successors
    /// already built (`y`'s always is; `x`'s when it was explored here
    /// rather than inherited through the sleep set). No answer is
    /// remembered: a memo keyed on the full-state hash saved 3–4% of the
    /// executions and outweighed `visited`. Debug builds probe every
    /// rule answer afresh too, without counting it.
    fn independent(
        &mut self,
        st: &SysState,
        (x, sx): (Step, Option<&SysState>),
        (y, sy): (Step, &SysState),
    ) -> bool {
        if let Some(rule) = self.sys.commutes(st, x, y) {
            debug_assert_eq!(
                rule,
                probe(self.sys, st, self.domain, x, y).0,
                "commutation rule disagrees with the probe on {x:?} and {y:?}"
            );
            return rule;
        }
        let spare = &mut self.spare;
        let (independent, execs) =
            probe_from(self.sys, spare, st, self.domain, (x, sx), (y, Some(sy)));
        self.stats.probe_execs += execs;
        independent
    }
}

/// Dynamic commutation: whether both orders of `x` and `y` are
/// executable at `st` and land in the identical state, with the number
/// of steps it took to find out.
fn probe(sys: &mut System, st: &SysState, domain: Domain, x: Step, y: Step) -> (bool, u64) {
    probe_from(sys, &mut Vec::new(), st, domain, (x, None), (y, None))
}

/// [`probe`], given `exec(st, x)` and `exec(st, y)` where the caller
/// already has them; only the steps it executes are counted. The states
/// it builds are written into `spare` ones and handed back there.
fn probe_from(
    sys: &mut System,
    spare: &mut Vec<SysState>,
    st: &SysState,
    domain: Domain,
    (x, sx): (Step, Option<&SysState>),
    (y, sy): (Step, Option<&SysState>),
) -> (bool, u64) {
    let mut execs = 0;
    let mut independent = false;
    let sx = successor(sys, spare, st, x, sx, &mut execs);
    if sys.enabled(&sx, domain).contains(&y) {
        let sy = successor(sys, spare, st, y, sy, &mut execs);
        if sys.enabled(&sy, domain).contains(&x) {
            let xy = exec_recycled(sys, spare, &sx, y);
            let yx = exec_recycled(sys, spare, &sy, x);
            independent = xy == yx;
            execs += 2;
            spare.extend([xy, yx]);
        }
        recycle(spare, sy);
    }
    recycle(spare, sx);
    (independent, execs)
}

/// `exec(st, step)`: the `cached` successor when there is one, else
/// executed and counted in `execs`. Reuse is sound because `exec` is
/// deterministic, which debug builds check on every reuse.
fn successor<'a>(
    sys: &mut System,
    spare: &mut Vec<SysState>,
    st: &SysState,
    step: Step,
    cached: Option<&'a SysState>,
    execs: &mut u64,
) -> Cow<'a, SysState> {
    match cached {
        Some(s) => {
            debug_assert!(
                *s == sys.exec(st, step),
                "the successor cached for {step:?} differs from a fresh exec"
            );
            Cow::Borrowed(s)
        }
        None => {
            *execs += 1;
            Cow::Owned(exec_recycled(sys, spare, st, step))
        }
    }
}

/// Hands a successor [`successor`] built back to `spare`.
fn recycle(spare: &mut Vec<SysState>, s: Cow<'_, SysState>) {
    if let Cow::Owned(s) = s {
        spare.push(s);
    }
}

/// `exec(st, step)`, written into a spent state from `spare` when there
/// is one ([`System::exec_into`]).
fn exec_recycled(
    sys: &mut System,
    spare: &mut Vec<SysState>,
    st: &SysState,
    step: Step,
) -> SysState {
    match spare.pop() {
        Some(mut out) => {
            sys.exec_into(st, step, &mut out);
            out
        }
        None => sys.exec(st, step),
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
    use crate::system::Bounds;
    use crate::testutil::{rmw_pipeline, two_sender_windows, windows, KernelShape};

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

    /// Which of [`System::commutes`]' rules decides a pair, restated by
    /// step kind alone.
    fn rule(x: Step, y: Step) -> &'static str {
        use Step::*;
        match (x.min(y), x.max(y)) {
            (DropData(_) | DropResp(_), DropData(_) | DropResp(_)) => "drop x drop",
            (Split(..), Split(..)) => "split x split",
            (Deliver(_) | Split(..) | Resume, DeliverResp(_) | DropResp(_) | Tick) => {
                "pipeline x response, response drop or tick"
            }
            (Deliver(_) | Split(..), DropData(_)) => "deliver or split x data drop",
            (Resume | DeliverResp(_), DropData(_)) | (DropData(_) | DropResp(_), Tick) => {
                "resume or response x data drop, drop x tick"
            }
            (DeliverResp(_), DropResp(_)) => "response x response drop",
            (DeliverResp(_), DeliverResp(_)) => "response x response",
            (x, y) => panic!("no rule decides {x:?} and {y:?}"),
        }
    }

    #[test]
    fn commutation_rules_agree_with_the_probe_at_every_reachable_state() {
        let two_drops = Bounds {
            max_drops: 2,
            ..Bounds::default()
        };
        let fixtures = [
            (
                KernelShape::Accumulate,
                windows(&[10, 20]),
                Bounds::default(),
            ),
            (KernelShape::Overwrite, windows(&[10, 20]), two_drops),
            (
                KernelShape::Accumulate,
                two_sender_windows(&[10, 20]),
                two_drops,
            ),
        ];
        let mut decided = BTreeSet::new();
        for (shape, wins, bounds) in fixtures {
            let mut sys = System::new(rmw_pipeline(shape), wins, bounds);
            let init = sys.initial();
            let mut seen = HashSet::from([sys.hash(&init)]);
            let mut queue = VecDeque::from([init]);
            while let Some(st) = queue.pop_front() {
                let enabled = sys.enabled(&st, Domain::FULL);
                for &x in &enabled {
                    for &y in enabled.iter().filter(|&&y| y != x) {
                        let answer = sys.commutes(&st, x, y);
                        assert_eq!(answer, sys.commutes(&st, y, x), "{x:?}, {y:?}");
                        if let Some(answer) = answer {
                            let probed = probe(&mut sys, &st, Domain::FULL, x, y).0;
                            assert_eq!(answer, probed, "{x:?}, {y:?} at {st:?}");
                            decided.insert((rule(x, y), answer));
                        }
                    }
                    let next = sys.exec(&st, x);
                    if seen.insert(sys.hash(&next)) {
                        queue.push_back(next);
                    }
                }
            }
        }
        let every_branch = BTreeSet::from([
            ("drop x drop", true),
            ("drop x drop", false),
            ("split x split", false),
            ("pipeline x response, response drop or tick", true),
            ("deliver or split x data drop", true),
            ("deliver or split x data drop", false),
            ("resume or response x data drop, drop x tick", true),
            ("response x response drop", true),
            ("response x response drop", false),
            ("response x response", true),
        ]);
        assert_eq!(decided, every_branch);
    }
}
