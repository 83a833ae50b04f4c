#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # ncl-and — the Abstract Network Description
//!
//! The AND (paper §3.2) is the programmer's declarative view of their
//! application's functional components: an *overlay* of labelled hosts
//! and switches with logical connectivity. Kernels and switch memory
//! reference AND labels through `_at_("label")`; `_bcast()` targets the
//! executing location's fan-out set ([`Overlay::bcast_targets`]);
//! `_pass("label")` forwards towards a labelled component.
//!
//! This crate provides:
//!
//! * [`parse`] — the AND file format (line-based, `#` comments), with
//!   one line per node (`host <label>`, `hosts <prefix> <n>`,
//!   `switch <label>`, `server <label>`) or per link (`link <a> <b>`,
//!   where `prefix*` matches every label with that prefix):
//!
//!   ```text
//!   # AllReduce: workers around one ToR switch
//!   hosts  worker 4        # worker1..worker4
//!   switch s1
//!   link   worker* s1      # every worker to s1
//!   ```
//!
//!   A `server` is a kernel location on the host side of the fabric: a
//!   machine hung off a switch that runs the location's kernels in
//!   software on the windows addressed to it. The same program placed
//!   `_at_("s1")` aggregates in the ToR under `switch s1`, and in a
//!   parameter server under `switch tor`, `server s1`, `link s1 tor`;
//!
//! * [`Overlay`] — the validated overlay graph with label→id
//!   assignment (the ids `location.id` reads and `_pass(label)`
//!   encodes; servers are numbered with the switches);
//! * [`embed`](Overlay::embed) — mapping the overlay onto a physical
//!   topology (the paper defers this to systems like HIRE; we implement
//!   a distance-minimizing greedy embedding for E7).

use c3::{HostId, Label, NodeId, SwitchId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// The kind of an overlay node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AndKind {
    /// An end host.
    Host,
    /// A programmable switch.
    Switch,
    /// A server: a kernel location on the host side of the fabric,
    /// numbered with the switches and run by the software switch.
    Server,
}

impl AndKind {
    /// Whether kernels and switch memory can be placed here: a switch
    /// or a server.
    pub fn is_location(self) -> bool {
        self != AndKind::Host
    }

    /// The kind of physical node this one occupies: a server is a host
    /// machine.
    fn machine(self) -> AndKind {
        match self {
            AndKind::Server => AndKind::Host,
            kind => kind,
        }
    }
}

/// One overlay node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AndNode {
    /// The AND label.
    pub label: Label,
    /// Host, switch or server.
    pub kind: AndKind,
    /// Numeric id, dense and assigned in declaration order: hosts count
    /// from 1, and switches and servers share a second count from 1.
    pub id: u16,
}

impl AndNode {
    /// The network node this overlay node deploys as: a location, switch
    /// or server, is a switch node.
    pub fn node_id(&self) -> NodeId {
        match self.kind {
            AndKind::Host => NodeId::Host(HostId(self.id)),
            AndKind::Switch | AndKind::Server => NodeId::Switch(SwitchId(self.id)),
        }
    }
}

/// A parsed and validated overlay.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Overlay {
    /// Nodes in declaration order.
    pub nodes: Vec<AndNode>,
    /// Undirected edges as node-index pairs.
    pub edges: Vec<(usize, usize)>,
}

/// AND parse/validation errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AndError {
    /// Malformed line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Duplicate label.
    Duplicate {
        /// The label.
        label: String,
    },
    /// Edge references an unknown label.
    UnknownLabel {
        /// 1-based line number.
        line: usize,
        /// The label.
        label: String,
    },
    /// The overlay is not connected.
    Disconnected,
    /// Two hosts linked directly (windows are processed by on-path
    /// switches; host-host overlay edges bypass INC and are almost
    /// always a mistake).
    HostToHost {
        /// First host.
        a: String,
        /// Second host.
        b: String,
    },
    /// The overlay cannot embed into the physical topology.
    EmbedFailed {
        /// Why.
        reason: String,
    },
}

impl fmt::Display for AndError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AndError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            AndError::Duplicate { label } => write!(f, "duplicate label '{label}'"),
            AndError::UnknownLabel { line, label } => {
                write!(f, "line {line}: unknown label '{label}'")
            }
            AndError::Disconnected => write!(f, "overlay is not connected"),
            AndError::HostToHost { a, b } => write!(
                f,
                "hosts '{a}' and '{b}' are linked directly; windows need an \
                 on-path switch to be processed"
            ),
            AndError::EmbedFailed { reason } => write!(f, "embedding failed: {reason}"),
        }
    }
}

impl std::error::Error for AndError {}

/// Parses an AND file.
pub fn parse(source: &str) -> Result<Overlay, AndError> {
    let mut overlay = Overlay::default();
    let mut by_label: HashMap<String, usize> = HashMap::new();
    let mut next_host = 0u16;
    let mut next_switch = 0u16;
    let mut pending_links: Vec<(usize, String, String)> = Vec::new();

    let add_node = |overlay: &mut Overlay,
                    by_label: &mut HashMap<String, usize>,
                    label: String,
                    kind: AndKind,
                    next_host: &mut u16,
                    next_switch: &mut u16|
     -> Result<(), AndError> {
        if by_label.contains_key(&label) {
            return Err(AndError::Duplicate { label });
        }
        let next = match kind {
            AndKind::Host => next_host,
            AndKind::Switch | AndKind::Server => next_switch,
        };
        *next += 1;
        by_label.insert(label.clone(), overlay.nodes.len());
        overlay.nodes.push(AndNode {
            label: Label::new(label),
            kind,
            id: *next,
        });
        Ok(())
    };

    for (ln, raw) in source.lines().enumerate() {
        let line = ln + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut parts = text.split_whitespace();
        let cmd = parts.next().expect("nonempty");
        let args: Vec<&str> = parts.collect();
        match (cmd, args.as_slice()) {
            ("host" | "switch" | "server", [name]) => {
                let kind = match cmd {
                    "host" => AndKind::Host,
                    "switch" => AndKind::Switch,
                    _ => AndKind::Server,
                };
                add_node(
                    &mut overlay,
                    &mut by_label,
                    name.to_string(),
                    kind,
                    &mut next_host,
                    &mut next_switch,
                )?
            }
            ("hosts", [prefix, count]) => {
                let n: usize = count.parse().map_err(|_| AndError::Syntax {
                    line,
                    message: format!("bad count '{count}'"),
                })?;
                for i in 1..=n {
                    add_node(
                        &mut overlay,
                        &mut by_label,
                        format!("{prefix}{i}"),
                        AndKind::Host,
                        &mut next_host,
                        &mut next_switch,
                    )?;
                }
            }
            ("link", [a, b]) => {
                pending_links.push((line, a.to_string(), b.to_string()));
            }
            _ => {
                return Err(AndError::Syntax {
                    line,
                    message: format!(
                        "expected 'host <name>', 'switch <name>', 'server <name>', \
                         'hosts <prefix> <n>' or 'link <a> <b>', found '{text}'"
                    ),
                })
            }
        }
    }

    // Resolve links, expanding `prefix*` wildcards.
    for (line, a, b) in pending_links {
        let resolve = |pat: &str| -> Result<Vec<usize>, AndError> {
            if let Some(prefix) = pat.strip_suffix('*') {
                let matches: Vec<usize> = overlay
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.label.as_str().starts_with(prefix))
                    .map(|(i, _)| i)
                    .collect();
                if matches.is_empty() {
                    return Err(AndError::UnknownLabel {
                        line,
                        label: pat.to_string(),
                    });
                }
                Ok(matches)
            } else {
                by_label
                    .get(pat)
                    .map(|&i| vec![i])
                    .ok_or(AndError::UnknownLabel {
                        line,
                        label: pat.to_string(),
                    })
            }
        };
        for ai in resolve(&a)? {
            for bi in resolve(&b)? {
                if ai != bi {
                    overlay.edges.push((ai.min(bi), ai.max(bi)));
                }
            }
        }
    }
    overlay.edges.sort_unstable();
    overlay.edges.dedup();
    overlay.validate()?;
    Ok(overlay)
}

impl Overlay {
    /// Validates connectivity and the no-host-to-host rule.
    pub fn validate(&self) -> Result<(), AndError> {
        for &(a, b) in &self.edges {
            if self.nodes[a].kind == AndKind::Host && self.nodes[b].kind == AndKind::Host {
                return Err(AndError::HostToHost {
                    a: self.nodes[a].label.to_string(),
                    b: self.nodes[b].label.to_string(),
                });
            }
        }
        if self.nodes.len() > 1 {
            let mut seen = vec![false; self.nodes.len()];
            let mut q = VecDeque::from([0usize]);
            seen[0] = true;
            let mut count = 1;
            while let Some(x) = q.pop_front() {
                for peer in self.neighbours(x) {
                    if !seen[peer] {
                        seen[peer] = true;
                        count += 1;
                        q.push_back(peer);
                    }
                }
            }
            if count != self.nodes.len() {
                return Err(AndError::Disconnected);
            }
        }
        Ok(())
    }

    /// Finds a node by label.
    pub fn node(&self, label: &str) -> Option<&AndNode> {
        self.nodes.iter().find(|n| n.label.as_str() == label)
    }

    /// All switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = &AndNode> {
        self.nodes.iter().filter(|n| n.kind == AndKind::Switch)
    }

    /// All kernel locations, switches and servers, in declaration order.
    pub fn locations(&self) -> impl Iterator<Item = &AndNode> {
        self.nodes.iter().filter(|n| n.kind.is_location())
    }

    /// All host nodes.
    pub fn hosts(&self) -> impl Iterator<Item = &AndNode> {
        self.nodes.iter().filter(|n| n.kind == AndKind::Host)
    }

    /// The indices of a node's overlay neighbours, in declaration order.
    fn neighbours(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter_map(move |&(a, b)| {
            if a == idx {
                Some(b)
            } else if b == idx {
                Some(a)
            } else {
                None
            }
        })
    }

    /// The `_bcast()` fan-out set of a location, in declaration order. A
    /// switch reaches its overlay neighbours. A server reaches the hosts
    /// of its rack: the host neighbours of the switches it links to,
    /// each once.
    pub fn bcast_targets(&self, label: &str) -> Vec<&AndNode> {
        let Some(idx) = self.nodes.iter().position(|n| n.label.as_str() == label) else {
            return vec![];
        };
        let mut targets: Vec<usize> = if self.nodes[idx].kind == AndKind::Server {
            self.neighbours(idx)
                .filter(|&s| self.nodes[s].kind == AndKind::Switch)
                .flat_map(|s| self.neighbours(s))
                .filter(|&h| self.nodes[h].kind == AndKind::Host)
                .collect()
        } else {
            self.neighbours(idx).collect()
        };
        targets.sort_unstable();
        targets.dedup();
        targets.into_iter().map(|i| &self.nodes[i]).collect()
    }

    /// Label → numeric id map (for `_pass(label)` encoding).
    pub fn label_ids(&self) -> HashMap<Label, u16> {
        self.nodes
            .iter()
            .map(|n| (n.label.clone(), n.node_id().to_wire()))
            .collect()
    }

    /// Embeds the overlay into a physical topology: assigns each overlay
    /// node a distinct physical node of its machine kind (a server takes
    /// a host), greedily
    /// minimizing the summed physical path length over overlay edges.
    ///
    /// Returns `overlay index → physical index`.
    pub fn embed(&self, phys: &PhysTopology) -> Result<Vec<usize>, AndError> {
        let want = |kind| {
            self.nodes
                .iter()
                .filter(|n| n.kind.machine() == kind)
                .count()
        };
        let (want_switches, want_hosts) = (want(AndKind::Switch), want(AndKind::Host));
        let have_switches = phys.nodes.iter().filter(|k| **k == AndKind::Switch).count();
        let have_hosts = phys.nodes.iter().filter(|k| **k == AndKind::Host).count();
        if want_switches > have_switches || want_hosts > have_hosts {
            return Err(AndError::EmbedFailed {
                reason: format!(
                    "overlay needs {want_hosts} hosts / {want_switches} switches; \
                     physical offers {have_hosts} / {have_switches}"
                ),
            });
        }
        let dist = phys.all_pairs_distances();
        let n = self.nodes.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut used: HashSet<usize> = HashSet::new();
        // Order overlay nodes by degree (most constrained first).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.neighbours(i).count()));
        for &ov in &order {
            let kind = self.nodes[ov].kind.machine();
            // Choose the free physical node minimizing distance to the
            // already-placed neighbours.
            let mut best: Option<(u64, usize)> = None;
            for (pi, pk) in phys.nodes.iter().enumerate() {
                if *pk != kind || used.contains(&pi) {
                    continue;
                }
                let mut cost = 0u64;
                let mut feasible = true;
                for peer in self.neighbours(ov) {
                    if let Some(pp) = assignment[peer] {
                        match dist[pi][pp] {
                            Some(d) => cost += d as u64,
                            None => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                if best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, pi));
                }
            }
            match best {
                Some((_, pi)) => {
                    assignment[ov] = Some(pi);
                    used.insert(pi);
                }
                None => {
                    return Err(AndError::EmbedFailed {
                        reason: format!("no feasible physical node for '{}'", self.nodes[ov].label),
                    })
                }
            }
        }
        let mut assignment: Vec<usize> = assignment
            .into_iter()
            .map(|a| a.expect("assigned"))
            .collect();
        self.refine_embedding(phys, &dist, &mut assignment, &mut used);
        Ok(assignment)
    }

    /// Local search: relocate each overlay node to any free same-kind
    /// physical node when that lowers the total cost; iterate to a
    /// fixpoint (bounded).
    fn refine_embedding(
        &self,
        phys: &PhysTopology,
        dist: &[Vec<Option<u32>>],
        assignment: &mut [usize],
        used: &mut HashSet<usize>,
    ) {
        let node_cost = |ov: usize, at: usize, assignment: &[usize]| -> u64 {
            self.neighbours(ov)
                .map(|peer| dist[at][assignment[peer]].unwrap_or(u32::MAX) as u64)
                .sum()
        };
        for _ in 0..16 {
            let mut improved = false;
            for ov in 0..self.nodes.len() {
                let kind = self.nodes[ov].kind.machine();
                let cur = assignment[ov];
                let cur_cost = node_cost(ov, cur, assignment);
                let mut best = (cur_cost, cur);
                for (pi, pk) in phys.nodes.iter().enumerate() {
                    if *pk != kind || used.contains(&pi) {
                        continue;
                    }
                    let c = node_cost(ov, pi, assignment);
                    if c < best.0 {
                        best = (c, pi);
                    }
                }
                if best.1 != cur {
                    used.remove(&cur);
                    used.insert(best.1);
                    assignment[ov] = best.1;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Total physical path length of an embedding (the E7 quality
    /// metric).
    pub fn embedding_cost(&self, phys: &PhysTopology, assignment: &[usize]) -> u64 {
        let dist = phys.all_pairs_distances();
        self.edges
            .iter()
            .map(|&(a, b)| dist[assignment[a]][assignment[b]].unwrap_or(u32::MAX) as u64)
            .sum()
    }
}

/// A physical topology for embedding experiments.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhysTopology {
    /// Node kinds by index.
    pub nodes: Vec<AndKind>,
    /// Undirected edges.
    pub edges: Vec<(usize, usize)>,
}

impl PhysTopology {
    /// A k=2 spine-leaf fabric: `spines` spine switches, `leaves` leaf
    /// switches (full bipartite), `hosts_per_leaf` hosts per leaf.
    pub fn spine_leaf(spines: usize, leaves: usize, hosts_per_leaf: usize) -> Self {
        let mut t = PhysTopology::default();
        for _ in 0..spines {
            t.nodes.push(AndKind::Switch);
        }
        for l in 0..leaves {
            let leaf = t.nodes.len();
            t.nodes.push(AndKind::Switch);
            for s in 0..spines {
                t.edges.push((s, leaf));
            }
            let _ = l;
            for _ in 0..hosts_per_leaf {
                let h = t.nodes.len();
                t.nodes.push(AndKind::Host);
                t.edges.push((leaf, h));
            }
        }
        t
    }

    /// BFS hop distances between all node pairs.
    fn all_pairs_distances(&self) -> Vec<Vec<Option<u32>>> {
        let n = self.nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![vec![]; n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut out = vec![vec![None; n]; n];
        #[allow(clippy::needless_range_loop)] // `s` indexes two dimensions
        for s in 0..n {
            let mut q = VecDeque::from([s]);
            out[s][s] = Some(0);
            while let Some(x) = q.pop_front() {
                for &y in &adj[x] {
                    if out[s][y].is_none() {
                        out[s][y] = Some(out[s][x].expect("visited") + 1);
                        q.push_back(y);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALLREDUCE_AND: &str = "
# AllReduce: four workers around one ToR
hosts  worker 4
switch s1
link   worker* s1
";

    #[test]
    fn parse_allreduce_overlay() {
        let o = parse(ALLREDUCE_AND).unwrap();
        assert_eq!(o.hosts().count(), 4);
        assert_eq!(o.switches().count(), 1);
        assert_eq!(o.edges.len(), 4);
        assert_eq!(o.node("worker1").unwrap().kind, AndKind::Host);
        assert_eq!(o.node("s1").unwrap().kind, AndKind::Switch);
    }

    #[test]
    fn bcast_neighbours() {
        let o = parse(ALLREDUCE_AND).unwrap();
        let n = o.bcast_targets("s1");
        assert_eq!(n.len(), 4);
        assert!(n.iter().all(|x| x.kind == AndKind::Host));
    }

    #[test]
    fn label_ids_disjoint() {
        let o = parse(ALLREDUCE_AND).unwrap();
        let ids = o.label_ids();
        let mut seen: Vec<u16> = ids.values().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ids.len());
        // Switch ids carry the wire bit.
        assert!(ids[&Label::new("s1")] & 0x8000 != 0);
    }

    #[test]
    fn kvs_two_tier() {
        let src = "
hosts  client 3
switch s1
host   server
link   client* s1
link   server s1
";
        let o = parse(src).unwrap();
        assert_eq!(o.hosts().count(), 4);
        assert_eq!(o.bcast_targets("s1").len(), 4);
    }

    /// The parameter-server placement of E1: the same `s1`, now a
    /// server hung off a plain ToR.
    const PS_AND: &str = "
hosts  worker 3
switch tor
server s1
link   worker* tor
link   s1 tor
";

    #[test]
    fn servers_are_locations_numbered_with_the_switches() {
        let o = parse(PS_AND).unwrap();
        let s1 = o.node("s1").unwrap();
        assert_eq!((s1.kind, s1.id), (AndKind::Server, 2));
        assert_eq!(o.node("tor").unwrap().id, 1);
        assert_eq!(s1.node_id(), NodeId::Switch(SwitchId(2)));
        assert_eq!(o.label_ids()[&Label::new("s1")], 2 | 0x8000);
        let locations: Vec<&str> = o.locations().map(|n| n.label.as_str()).collect();
        assert_eq!(locations, ["tor", "s1"]);
        assert_eq!(o.switches().count(), 1);
        assert_eq!(o.hosts().count(), 3);
    }

    #[test]
    fn a_server_bcasts_to_its_rack() {
        let o = parse(PS_AND).unwrap();
        let rack: Vec<&str> = o
            .bcast_targets("s1")
            .iter()
            .map(|n| n.label.as_str())
            .collect();
        assert_eq!(rack, ["worker1", "worker2", "worker3"]);
        // A switch keeps its overlay neighbours, the server among them.
        assert_eq!(o.bcast_targets("tor").len(), 4);
    }

    #[test]
    fn a_server_embeds_on_a_host_machine() {
        let o = parse(PS_AND).unwrap();
        let phys = PhysTopology::spine_leaf(1, 1, 4);
        let assignment = o.embed(&phys).unwrap();
        let s1 = o
            .nodes
            .iter()
            .position(|n| n.kind == AndKind::Server)
            .unwrap();
        assert_eq!(phys.nodes[assignment[s1]], AndKind::Host);
        assert_eq!(o.embedding_cost(&phys, &assignment), 4);
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = parse("host a\nhost a").unwrap_err();
        assert!(matches!(err, AndError::Duplicate { .. }));
    }

    #[test]
    fn unknown_link_target_rejected() {
        let err = parse("host a\nswitch s\nlink a t").unwrap_err();
        assert!(matches!(err, AndError::UnknownLabel { .. }));
    }

    #[test]
    fn disconnected_rejected() {
        let err = parse("host a\nswitch s\nhost b\nlink a s").unwrap_err();
        assert_eq!(err, AndError::Disconnected);
    }

    #[test]
    fn host_to_host_rejected() {
        let err = parse("host a\nhost b\nlink a b").unwrap_err();
        assert!(matches!(err, AndError::HostToHost { .. }));
    }

    #[test]
    fn syntax_error_reported_with_line() {
        let err = parse("host a\nfrobnicate x").unwrap_err();
        assert!(matches!(err, AndError::Syntax { line: 2, .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let o = parse("# header\n\nhost a # trailing\nswitch s\nlink a s\n").unwrap();
        assert_eq!(o.nodes.len(), 2);
    }

    #[test]
    fn embed_into_spine_leaf() {
        let o = parse(ALLREDUCE_AND).unwrap();
        let phys = PhysTopology::spine_leaf(2, 4, 4);
        let assignment = o.embed(&phys).unwrap();
        // Kinds respected.
        for (ov, &pi) in assignment.iter().enumerate() {
            assert_eq!(o.nodes[ov].kind, phys.nodes[pi]);
        }
        // Distinct physical nodes.
        let mut a = assignment.clone();
        a.sort_unstable();
        a.dedup();
        assert_eq!(a.len(), assignment.len());
        // The greedy embedding should co-locate the workers under the
        // chosen switch: cost = #edges when all workers sit on the
        // switch's own leaf... with 4 hosts per leaf and the ToR mapped
        // to their leaf, every edge is 1 hop.
        let cost = o.embedding_cost(&phys, &assignment);
        assert_eq!(cost, 4, "expected 1 hop per worker, got cost {cost}");
    }

    #[test]
    fn embed_fails_when_too_small() {
        let o = parse(ALLREDUCE_AND).unwrap();
        let phys = PhysTopology::spine_leaf(1, 1, 2); // only 2 hosts
        assert!(matches!(o.embed(&phys), Err(AndError::EmbedFailed { .. })));
    }

    #[test]
    fn spine_leaf_distances() {
        let phys = PhysTopology::spine_leaf(2, 2, 1);
        let d = phys.all_pairs_distances();
        // Host under leaf A to host under leaf B: host-leaf-spine-leaf-host = 4.
        let hosts: Vec<usize> = phys
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == AndKind::Host)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(d[hosts[0]][hosts[1]], Some(4));
    }
}
