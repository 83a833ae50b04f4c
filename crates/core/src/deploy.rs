//! Deployment: AND overlay → network (paper Fig. 3c), simulated or over
//! real UDP sockets.
//!
//! *"a mechanism that maps the overlay network of the AND file into a
//! physical network and allocates network resources accordingly is
//! assumed to be in place. This mechanism places application components
//! to physical devices and ensures connectivity by populating routing
//! tables appropriately."* — [`deploy_opts`] is that mechanism for the
//! simulated testbed, and [`deploy_udp`] for loopback sockets (the same
//! network, bound with [`NetworkBuilder::bind_udp`]): the identity
//! mapping (one physical node per overlay node, one link per overlay
//! edge), each switch loaded with the engine for its compiled module,
//! `_bcast()` fan-out and `_pass(label)` targets resolved from the
//! overlay. [`crate::deploy_tenants`] places several programs on one
//! simulated fabric; every entry point goes through the same lint
//! gate (`lint_gate`), the same model-check gate (`mc_gate`), the same
//! engine selection (`switch_engine`, the only place a [`SwitchBackend`]
//! becomes an engine) and the same fabric builder (`build_fabric`).

use crate::fastpath::FastPathSwitch;
use crate::mc::{model_check_switch, McConfig, McReport};
use crate::nclc::CompiledProgram;
use c3::{HostId, IdMap, Label, NodeId, SwitchId};
use ncl_and::{AndKind, AndNode, Overlay};
use ncl_ir::CompiledKernel;
use nctel::{Registry, Scope, ScopeEvent, SnapshotReason, WindowKey};
use netsim::{
    FastDatapath, HostApp, KernelTelemetry, LinkSpec, Network, NetworkBuilder, SwitchCfg,
    SwitchTelemetry,
};
use pisa::{Pipeline, ResourceModel};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which switch engine a deployment loads into the simulated switches
/// ([`DeployOptions::backend`]). The choice ends at deployment: it picks
/// the engine's constructor, and each switch then holds that engine in
/// its one [`netsim::SwitchCfg::engine`] slot, behind the
/// [`FastDatapath`] interface every engine implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SwitchBackend {
    /// The modeled PISA pipeline (resource-checked, recirculation-aware)
    /// — the default, and the engine all resource experiments use.
    #[default]
    Pisa,
    /// The software switch ([`FastPathSwitch`]): the linear micro-op
    /// programs nclc lowered for the location
    /// ([`CompiledProgram::switch_kernels`]), with fused element-wise
    /// runs executing as width-monomorphic lane loops over the packed
    /// register arrays (the ncvec tier, compiled with AVX2 on detecting
    /// hosts, portable lanes elsewhere). A run that does not pack falls
    /// back to the scalar micro-op loops, bit-identically. No backend
    /// lowers at deploy time. In steady state a switch hop allocates
    /// nothing: each verdict is encoded into the frame received before.
    Simd,
}

/// A deployed program: the runnable network plus name resolution.
pub struct Deployment {
    /// The network, on simulated links or real UDP sockets.
    pub net: Network,
    /// AND label → simulated node.
    pub nodes: HashMap<Label, NodeId>,
    /// Per-switch model-checking reports, when
    /// [`DeployOptions::model_check`] ran (empty otherwise).
    pub mc_reports: Vec<McReport>,
}

/// Deployment failures.
#[derive(Debug)]
pub enum DeployError {
    /// No application supplied for a host label.
    MissingApp {
        /// The host label.
        label: String,
    },
    /// A compiled pipeline failed to load (resource model mismatch).
    Load {
        /// The switch label.
        label: String,
        /// The loader's report.
        error: String,
    },
    /// The lint gate denied a switch module at deployment time. The
    /// compiler already runs this gate; it re-runs here (with the
    /// program's own lint configuration) so a hazardous module cannot
    /// reach a simulated switch even when a [`CompiledProgram`] is
    /// assembled or altered by hand.
    Lint {
        /// The switch label.
        label: String,
        /// The offending kernels (sorted, deduplicated) — so a denial
        /// in a multi-kernel module names the code at fault, not just
        /// the module.
        kernels: Vec<String>,
        /// The version the denied module would have deployed as (the
        /// 1-based module index, matching
        /// [`deployed_versions`]) — so operators can tell *which*
        /// submission of a kernel was refused.
        version: u16,
        /// The denied findings.
        diagnostics: Vec<ncl_ir::lint::LintDiagnostic>,
    },
    /// The model-check gate ([`DeployOptions::model_check`]) found a
    /// schedule under which the switch diverges from every loss-free
    /// serial execution — the deployment would compute wrong answers
    /// under a concrete loss/dup/reorder pattern, so it is refused.
    ModelCheck {
        /// The switch label.
        label: String,
        /// The kernel set the convergence scenario exercised.
        kernel: String,
        /// The shrunk counterexample schedule (ncmc schedule syntax).
        schedule: String,
    },
    /// [`deploy_udp`] could not bind a node's loopback socket.
    Bind(std::io::Error),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::MissingApp { label } => {
                write!(f, "no application for host '{label}'")
            }
            DeployError::Load { label, error } => {
                write!(f, "pipeline for '{label}' failed to load: {error}")
            }
            DeployError::Lint {
                label,
                kernels,
                version,
                diagnostics,
            } => {
                writeln!(
                    f,
                    "lint denied deployment of kernel{} {} (version {version}) to '{label}':",
                    if kernels.len() == 1 { "" } else { "s" },
                    kernels.join(", "),
                )?;
                write!(f, "{}", ncl_ir::lint::render(diagnostics))
            }
            DeployError::ModelCheck {
                label,
                kernel,
                schedule,
            } => {
                writeln!(
                    f,
                    "model check refused deployment of {kernel} to '{label}': \
                     a schedule diverges from every loss-free serial execution:"
                )?;
                write!(f, "{schedule}")
            }
            DeployError::Bind(e) => write!(f, "binding a loopback UDP socket failed: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Deployment configuration for [`deploy_opts`] and
/// [`crate::deploy_tenants`]. The defaults are a clean fabric of
/// [`LinkSpec::default`] links, the modeled PISA pipeline under
/// [`ResourceModel::default`], a private registry, no scope and no
/// model check — override fields with struct-update syntax:
/// `DeployOptions { backend: SwitchBackend::Simd, ..Default::default() }`.
pub struct DeployOptions {
    /// Link parameters applied to every overlay edge (unless
    /// overridden).
    pub link_spec: LinkSpec,
    /// Per-link overrides by AND label pair, order-insensitive:
    /// `("worker1", "s1", spec)` configures exactly that edge, in both
    /// directions. This is the fault-injection knob — drop or duplicate
    /// on one known link while the rest of the fabric stays clean, then
    /// check the diagnosis engine blames the right link.
    pub link_overrides: Vec<(String, String, LinkSpec)>,
    /// Switch engine.
    pub backend: SwitchBackend,
    /// Metrics registry shared with the caller.
    pub registry: Arc<Registry>,
    /// ncscope event sink, wired into the network (link drops, switch
    /// executions) and notified on deploy-time lint denials.
    pub scope: Option<Scope>,
    /// PISA resource model for pipeline loading.
    pub model: ResourceModel,
    /// When set, every switch module is model-checked before loading
    /// (DESIGN.md §4.13): each schedule-checkable lint warning is
    /// adjudicated (witness or bounded-absence certificate, recorded in
    /// [`Deployment::mc_reports`]) and a convergence *witness* refuses
    /// the deployment with [`DeployError::ModelCheck`] — the static
    /// gate stops hazardous code, this one stops divergent code.
    pub model_check: Option<McConfig>,
}

impl Default for DeployOptions {
    fn default() -> Self {
        DeployOptions {
            link_spec: LinkSpec::default(),
            link_overrides: Vec::new(),
            backend: SwitchBackend::Pisa,
            registry: Arc::new(Registry::new()),
            scope: None,
            model: ResourceModel::default(),
            model_check: None,
        }
    }
}

/// The expected switch path of a window sent from host label `from` to
/// host label `to`: the wire ids of the switches along the overlay's
/// shortest path, in traversal order. This is the `expected_path` input
/// of the diagnosis engine's last-witness inference
/// ([`nctel::scope::analysis`]) — the deployment maps overlay edges
/// 1:1 onto physical links, so the AND shortest path *is* the route.
pub fn and_switch_path(program: &CompiledProgram, from: &str, to: &str) -> Vec<u16> {
    let nodes = &program.overlay.nodes;
    let Some(src) = nodes.iter().position(|n| n.label.as_str() == from) else {
        return Vec::new();
    };
    let Some(dst) = nodes.iter().position(|n| n.label.as_str() == to) else {
        return Vec::new();
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for &(a, b) in &program.overlay.edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut prev: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut seen = vec![false; nodes.len()];
    let mut q = VecDeque::from([src]);
    seen[src] = true;
    while let Some(x) = q.pop_front() {
        if x == dst {
            break;
        }
        for &peer in &adj[x] {
            if !seen[peer] {
                seen[peer] = true;
                prev[peer] = Some(x);
                q.push_back(peer);
            }
        }
    }
    if !seen[dst] {
        return Vec::new();
    }
    let mut path = Vec::new();
    let mut at = dst;
    while let Some(p) = prev[at] {
        at = p;
        path.push(at);
    }
    path.reverse(); // src first; src itself is path[0], drop it below
    path.into_iter()
        .skip(1)
        .chain(std::iter::once(dst))
        .filter(|&i| nodes[i].kind == AndKind::Switch)
        .map(|i| NodeId::Switch(SwitchId(nodes[i].id)).to_wire())
        .collect()
}

/// The version a single-program deployment gives the module at `label`:
/// its 1-based index among the program's versioned modules (0 when the
/// label has none).
fn module_version(program: &CompiledProgram, label: &str) -> u16 {
    program
        .modules
        .iter()
        .position(|(l, _)| l.as_str() == label)
        .map_or(0, |i| i as u16 + 1)
}

/// The kernel versions this program deploys, per `(switch wire id,
/// kernel id)` — the diagnosis engine's reference for flagging stale
/// hop records after a redeploy ([`nctel::scope::analysis`]).
pub fn deployed_versions(program: &CompiledProgram) -> BTreeMap<(u16, u16), u16> {
    let mut out = BTreeMap::new();
    for (label, module) in &program.modules {
        let Some(n) = program.overlay.node(label.as_str()) else {
            continue;
        };
        if n.kind != AndKind::Switch {
            continue;
        }
        let wire = NodeId::Switch(SwitchId(n.id)).to_wire();
        let version = module_version(program, label.as_str());
        for k in &module.kernels {
            if let Some(&id) = program.kernel_ids.get(&k.name) {
                out.insert((wire, id), version);
            }
        }
    }
    out
}

/// The deploy-time lint gate for the module `program` places on switch
/// `n`: a module carrying denied hazards never reaches a simulated
/// switch, whichever engine runs it and whichever entry point deploys
/// it. A denial counts `deploy.lint_denied`, emits a `LintDenied` scope
/// event, snapshots the scope's flight recorder, and names the
/// offending kernels and the refused `version`.
pub(crate) fn lint_gate(
    program: &CompiledProgram,
    n: &AndNode,
    version: u16,
    registry: &Registry,
    scope: Option<&Scope>,
) -> Result<(), DeployError> {
    let lint_denied = registry.counter("deploy.lint_denied");
    let Some(module) = program.module(n.label.as_str()) else {
        return Ok(());
    };
    let diags = ncl_ir::lint::lint_module(module, &program.lint_config);
    let (deny, _) = ncl_ir::lint::partition(diags);
    if deny.is_empty() {
        return Ok(());
    }
    lint_denied.inc();
    if let Some(scope) = scope {
        let wire = NodeId::Switch(SwitchId(n.id)).to_wire();
        scope.emit(
            0,
            wire,
            WindowKey::new(0, 0, 0),
            ScopeEvent::LintDenied { switch: wire },
        );
        scope.flight_record(SnapshotReason::LintDenied, 0, Some(registry), &[]);
    }
    let mut kernels: Vec<String> = deny.iter().map(|d| d.kernel.clone()).collect();
    kernels.sort();
    kernels.dedup();
    Err(DeployError::Lint {
        label: n.label.to_string(),
        kernels,
        version,
        diagnostics: deny,
    })
}

/// The deploy-time model-check gate for the module `program` places on
/// switch `n`, when `cfg` asks for one (DESIGN.md §4.13): every
/// schedule-checkable lint warning and the convergence obligation are
/// adjudicated against the compiled pipeline. A convergence witness
/// means a concrete fault schedule computes a wrong answer, so the
/// module is refused with the schedule in hand. Counts
/// `deploy.mc_checked` per checked module and `deploy.mc_denied` per
/// refusal; returns the report (`None` when unchecked).
pub(crate) fn mc_gate(
    program: &CompiledProgram,
    n: &AndNode,
    cfg: Option<&McConfig>,
    registry: &Registry,
) -> Result<Option<McReport>, DeployError> {
    // Registered before the early return, so both entry points show the
    // same counters whether or not a check was asked for.
    let mc_checked = registry.counter("deploy.mc_checked");
    let mc_denied = registry.counter("deploy.mc_denied");
    let label = n.label.as_str();
    let Some(cfg) = cfg.filter(|_| program.module(label).is_some()) else {
        return Ok(None);
    };
    let report = model_check_switch(program, label, cfg).map_err(|e| DeployError::Load {
        label: label.to_string(),
        error: e.to_string(),
    })?;
    mc_checked.inc();
    if let Some(conv) = report.convergence() {
        if let ncmc::Outcome::Witness(w) = &conv.result.outcome {
            mc_denied.inc();
            return Err(DeployError::ModelCheck {
                label: label.to_string(),
                kernel: conv.kernel.clone(),
                schedule: w.schedule.render(),
            });
        }
    }
    Ok(Some(report))
}

/// Builds the engine `backend` names for `program` at switch `label`:
/// the modeled PISA pipeline, loaded under `model`, or the software
/// switch over the kernels nclc lowered for the location
/// ([`CompiledProgram::switch_kernels`]) — no engine for a label without
/// a switch build. This is the only place a [`SwitchBackend`] becomes an
/// engine; everything after it sees one [`FastDatapath`]. Alongside
/// come the static hop-record fields every engine stamps identically —
/// the given kernel `version`, PISA `stages` from the backend's resource
/// report, and the lowered kernel's interpreter-equivalent step count
/// (`uops`). `uops` deliberately counts interpreter steps, not physical
/// micro-ops: fused vector runs cover many steps in one op and the ncvec
/// SIMD tier covers them in a handful of lane iterations, so the step
/// count is the only number every engine can report identically. A
/// pipeline the model cannot hold is a [`DeployError::Load`].
pub(crate) fn switch_engine(
    backend: SwitchBackend,
    program: &CompiledProgram,
    label: &str,
    version: u16,
    model: ResourceModel,
) -> Result<SwitchLoad, DeployError> {
    let engine: Option<Box<dyn FastDatapath>> = match (backend, program.switch(label)) {
        (SwitchBackend::Simd, _) => FastPathSwitch::from_program(program, label)
            .map(|fp| Box::new(fp) as Box<dyn FastDatapath>),
        (SwitchBackend::Pisa, Some(c)) => Some(Box::new(
            Pipeline::load(c.pipeline.clone(), model).map_err(|e| DeployError::Load {
                label: label.to_string(),
                error: e.to_string(),
            })?,
        )),
        (SwitchBackend::Pisa, None) => None,
    };
    let stages = program
        .switch(label)
        .map_or(0, |c| c.report.stages_used as u16);
    let telemetry = |(&id, k): (&u16, &Arc<CompiledKernel>)| {
        (
            id,
            KernelTelemetry {
                version,
                stages,
                uops: k.interp_steps() as u32,
            },
        )
    };
    let kernels = program.kernels_at(label).into_iter().flatten();
    Ok(SwitchLoad {
        engine,
        kernels: Some(kernels.map(telemetry).collect()),
    })
}

/// What an entry point loads onto one switch of the fabric.
pub(crate) struct SwitchLoad {
    /// The switch engine; `None` makes a plain forwarder.
    pub engine: Option<Box<dyn FastDatapath>>,
    /// Per-kernel static hop-record fields; `None` leaves the switch
    /// passing telemetry sections through unstamped.
    pub kernels: Option<IdMap<u16, KernelTelemetry>>,
}

/// The options of [`DeployOptions`] that shape the fabric itself,
/// whatever runs on it.
pub(crate) struct FabricOptions<'a> {
    pub link_spec: LinkSpec,
    pub link_overrides: &'a [(String, String, LinkSpec)],
    pub registry: &'a Arc<Registry>,
    pub scope: Option<&'a Scope>,
}

/// Maps `overlay` onto a network topology, the identity mapping: one
/// node per overlay node in AND declaration order (so netsim ids equal
/// AND ids), one link per overlay edge. `host_app` supplies each host's
/// application and `switch_load` each switch's engine; the first error
/// either returns stops the build. `label_ids` resolves `_pass(label)`
/// targets. Counts `deploy.hosts_loaded` / `deploy.switches_loaded` on
/// the registry, which [`Network::metrics`] exposes after the build.
/// The caller picks the substrate: [`NetworkBuilder::build`] or
/// [`NetworkBuilder::bind_udp`].
pub(crate) fn build_fabric<E>(
    overlay: &Overlay,
    label_ids: &HashMap<Label, u16>,
    opts: FabricOptions<'_>,
    mut host_app: impl FnMut(&AndNode) -> Result<Box<dyn HostApp>, E>,
    mut switch_load: impl FnMut(&AndNode) -> Result<SwitchLoad, E>,
) -> Result<(NetworkBuilder, HashMap<Label, NodeId>), E> {
    let FabricOptions {
        link_spec,
        link_overrides,
        registry,
        scope,
    } = opts;
    let hosts_loaded = registry.counter("deploy.hosts_loaded");
    let switches_loaded = registry.counter("deploy.switches_loaded");
    let mut b = NetworkBuilder::new();
    b.with_metrics(registry.clone());
    if let Some(scope) = scope {
        b.with_scope(scope);
    }
    // `_pass(label)` targets: every labelled node.
    let labels: HashMap<u16, NodeId> = label_ids
        .values()
        .map(|&wire| (wire, NodeId::from_wire(wire)))
        .collect();
    let mut nodes: HashMap<Label, NodeId> = HashMap::new();
    for n in &overlay.nodes {
        match n.kind {
            AndKind::Host => {
                let id = b.add_host(host_app(n)?);
                hosts_loaded.inc();
                debug_assert_eq!(id, HostId(n.id), "AND/netsim host id agreement");
                nodes.insert(n.label.clone(), NodeId::Host(id));
            }
            AndKind::Switch => {
                let load = switch_load(n)?;
                let wire = NodeId::Switch(SwitchId(n.id)).to_wire();
                let id = b.add_switch(SwitchCfg {
                    engine: load.engine,
                    labels: labels.clone(),
                    // `_bcast()`: overlay neighbours of this switch.
                    bcast: overlay
                        .neighbours(n.label.as_str())
                        .iter()
                        .map(|peer| match peer.kind {
                            AndKind::Host => NodeId::Host(HostId(peer.id)),
                            AndKind::Switch => NodeId::Switch(SwitchId(peer.id)),
                        })
                        .collect(),
                    telemetry: load.kernels.map(|kernels| SwitchTelemetry {
                        switch_id: wire,
                        kernels,
                    }),
                });
                switches_loaded.inc();
                debug_assert_eq!(id, SwitchId(n.id), "AND/netsim switch id agreement");
                nodes.insert(n.label.clone(), NodeId::Switch(id));
            }
        }
    }
    for &(a, bidx) in &overlay.edges {
        let (la, lb) = (&overlay.nodes[a].label, &overlay.nodes[bidx].label);
        let spec = link_overrides
            .iter()
            .find(|(x, y, _)| {
                (x == la.as_str() && y == lb.as_str()) || (x == lb.as_str() && y == la.as_str())
            })
            .map_or(link_spec, |(_, _, s)| *s);
        b.link(nodes[la], nodes[lb], spec);
    }
    Ok((b, nodes))
}

/// Deploys a compiled program: `apps` supplies one application per AND
/// host label; `opts` picks links, switch engine, registry, scope and
/// the optional model-check gate (see [`DeployOptions`];
/// `DeployOptions::default()` is a clean fabric on the modeled PISA
/// pipeline). Each switch passes the lint gate, then the model-check
/// gate, then loads. A lint denial emits a `LintDenied` event and
/// snapshots the scope's flight recorder before returning the error, so
/// the refusal is diagnosable from the artifact alone. The simulator's
/// counters and the gate outcomes (`deploy.hosts_loaded`,
/// `deploy.switches_loaded`, `deploy.lint_denied`, `deploy.mc_*`) land
/// on `opts.registry`.
pub fn deploy_opts(
    program: &CompiledProgram,
    apps: HashMap<String, Box<dyn HostApp>>,
    opts: DeployOptions,
) -> Result<Deployment, DeployError> {
    deploy_on(program, apps, opts, |b| Ok(b.build()))
}

/// [`deploy_opts`] over real UDP: the same gates, engines and fabric,
/// with every node on its own non-blocking loopback socket (ephemeral
/// port) instead of a simulated link. [`Network::run_until`] then runs
/// on the wall clock, single-threaded; the links' [`LinkSpec`] loss and
/// duplication still apply, their timing does not. A socket that cannot
/// bind is a [`DeployError::Bind`].
pub fn deploy_udp(
    program: &CompiledProgram,
    apps: HashMap<String, Box<dyn HostApp>>,
    opts: DeployOptions,
) -> Result<Deployment, DeployError> {
    deploy_on(program, apps, opts, |b| {
        b.bind_udp(Ipv4Addr::LOCALHOST.into())
            .map_err(DeployError::Bind)
    })
}

/// The body of [`deploy_opts`] and [`deploy_udp`]; `finish` turns the
/// built topology into the network.
fn deploy_on(
    program: &CompiledProgram,
    mut apps: HashMap<String, Box<dyn HostApp>>,
    opts: DeployOptions,
    finish: impl FnOnce(NetworkBuilder) -> Result<Network, DeployError>,
) -> Result<Deployment, DeployError> {
    let DeployOptions {
        link_spec,
        link_overrides,
        backend,
        registry,
        scope,
        model,
        model_check,
    } = opts;
    let mut mc_reports = Vec::new();
    let (builder, nodes) = build_fabric(
        &program.overlay,
        &program.label_ids,
        FabricOptions {
            link_spec,
            link_overrides: &link_overrides,
            registry: &registry,
            scope: scope.as_ref(),
        },
        |n| {
            apps.remove(n.label.as_str())
                .ok_or_else(|| DeployError::MissingApp {
                    label: n.label.to_string(),
                })
        },
        |n| {
            let label = n.label.as_str();
            let version = module_version(program, label);
            lint_gate(program, n, version, &registry, scope.as_ref())?;
            mc_reports.extend(mc_gate(program, n, model_check.as_ref(), &registry)?);
            switch_engine(backend, program, label, version, model)
        },
    )?;
    Ok(Deployment {
        net: finish(builder)?,
        nodes,
        mc_reports,
    })
}

impl Deployment {
    /// The node for an AND label.
    pub fn node(&self, label: &str) -> NodeId {
        self.nodes[&Label::new(label)]
    }

    /// The switch id for an AND label.
    pub fn switch(&self, label: &str) -> SwitchId {
        self.node(label).as_switch().expect("label names a switch")
    }

    /// The host id for an AND label.
    pub fn host(&self, label: &str) -> HostId {
        self.node(label).as_host().expect("label names a host")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlPlane;
    use crate::nclc::{compile, CompileConfig};
    use crate::runtime::{NclHost, OutInvocation, TypedArray};
    use c3::{ScalarType, Value};

    const ALLREDUCE: &str = r#"
#define DATA_LEN 16
#define WIN_LEN 4
_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN/WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    if (window.last) *done = true;
}
"#;
    const AND: &str = "hosts worker 3\nswitch s1\nlink worker* s1\n";

    /// The paper's Fig. 4 running end to end on the simulated network:
    /// three workers, in-network aggregation, broadcast of results.
    /// Runs under either switch engine; the assertions are identical —
    /// the system-level differential check between the PISA model and
    /// the software switch.
    fn run_allreduce(backend: SwitchBackend) {
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        let program = compile(ALLREDUCE, AND, &cfg).expect("compiles");
        let kid = program.kernel_ids["allreduce"];

        let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        for w in 1..=3u16 {
            let mut host = NclHost::new(&program);
            // Worker w contributes the array [w, w, ..., w].
            let data: Vec<i32> = vec![w as i32; 16];
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&data)],
                // Destination routes through s1; the kernel bcasts or
                // drops before it ever arrives.
                dest: NodeId::Host(HostId(w % 3 + 1)),
                start: 0,
                gap: 0,
            })
            .unwrap();
            host.bind_incoming(
                &program,
                "allreduce",
                "result",
                &[(ScalarType::I32, 16), (ScalarType::Bool, 1)],
            )
            .unwrap();
            host.done_on_flag(kid, 1);
            apps.insert(format!("worker{w}"), Box::new(host));
        }
        let mut dep = deploy_opts(
            &program,
            apps,
            DeployOptions {
                backend,
                ..Default::default()
            },
        )
        .expect("deploys");

        // Control plane: nworkers = 3, the same deferred ops on either
        // engine.
        let cp = ControlPlane::new(program.switch("s1").unwrap());
        let s1 = dep.switch("s1");
        let engine = dep.net.switch_fastpath_mut(s1).unwrap();
        assert!(cp.ctrl_wr(engine, "nworkers", Value::u32(3)));

        dep.net.run();

        // Every worker holds the element-wise sum 1+2+3 = 6.
        for w in 1..=3u16 {
            let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker app");
            assert!(host.done_at.is_some(), "worker {w} never completed");
            let mem = host.memory(kid).unwrap();
            for i in 0..16 {
                assert_eq!(
                    mem.arrays[0].get(i),
                    Value::i32(6),
                    "worker {w} element {i}"
                );
            }
        }
        // The switch aggregated 12 windows (3 workers × 4) and
        // broadcast 4 of them.
        let stats = dep.net.switch_stats(s1).unwrap();
        assert_eq!(stats.ncp_processed, 12);
        assert_eq!(stats.broadcast, 4);
        assert_eq!(stats.kernel_drops, 8);
        // Ingress at the switch ≈ 3× what one worker sent — the INC
        // bandwidth win E1 measures.
        assert!(dep.net.node_ingress_bytes(NodeId::Switch(s1)) > 0);
    }

    #[test]
    fn allreduce_full_system() {
        run_allreduce(SwitchBackend::Pisa);
    }

    /// Same workload, same assertions, software switch — fused vector
    /// runs execute through width-specialized lane loops (or AVX2).
    #[test]
    fn allreduce_full_system_simd() {
        run_allreduce(SwitchBackend::Simd);
    }

    /// The deploy-time lint gate is independent of the compile-time one:
    /// escalating a lint level on an already-compiled program (the
    /// hand-altered-artifact scenario) keeps the module off the switch.
    #[test]
    fn lint_denied_module_cannot_deploy() {
        use crate::nclc::{LintCode, LintLevel};
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        let mut program = compile(ALLREDUCE, AND, &cfg).expect("compiles under default levels");
        // ALLREDUCE has no replay filter, so its RMWs warn by default;
        // deny them after the fact.
        program
            .lint_config
            .levels
            .insert(LintCode::ReplayUnsafeNoFilter, LintLevel::Deny);
        let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        for w in 1..=3u16 {
            apps.insert(format!("worker{w}"), Box::new(NclHost::new(&program)));
        }
        match deploy_opts(&program, apps, DeployOptions::default()) {
            Err(DeployError::Lint {
                label,
                kernels,
                version,
                diagnostics,
            }) => {
                assert_eq!(label, "s1");
                // The denial names the offending kernel and the version
                // that was refused, not just the module.
                assert_eq!(kernels, vec!["allreduce".to_string()]);
                assert_eq!(version, 1);
                assert!(diagnostics
                    .iter()
                    .all(|d| d.code == LintCode::ReplayUnsafeNoFilter));
                assert!(!diagnostics.is_empty());
            }
            Err(other) => panic!("expected lint denial, got {other:?}"),
            Ok(_) => panic!("expected lint denial, but deployment succeeded"),
        }
    }

    #[test]
    fn missing_app_rejected() {
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        let program = compile(ALLREDUCE, AND, &cfg).unwrap();
        let apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        assert!(matches!(
            deploy_opts(&program, apps, DeployOptions::default()),
            Err(DeployError::MissingApp { .. })
        ));
    }
}
