//! Multi-tenant deployment: several compiled programs, one fabric.
//!
//! [`deploy_tenants`] is the shared-fabric counterpart of
//! [`crate::deploy_opts`], built from the same parts — one lint gate,
//! one engine selection, one fabric builder ([`crate::deploy`]) — with
//! admission in front and a mux on every switch: each tenant brings
//! its own compiled program (with a private kernel-id range via
//! [`crate::nclc::CompileConfig::kernel_id_base`]) and its own host
//! applications; the fabric — the AND overlay, identical across
//! tenants — is built **once**, with every shared switch running a
//! [`TenantMux`] that dispatches windows to the owning tenant's
//! datapath. Before anything touches the simulator, every tenant passes
//! through the ncsched [`AdmissionController`]: the per-switch
//! [`ModuleEstimate`]s — what each pipeline nclc built for the tenant
//! uses — are bin-packed against the chip model, the tenant's quota,
//! and what earlier tenants already hold. A tenant that does not fit is **not** an error — it is left
//! off the fabric and reported in [`MultiDeployment::rejections`] as a
//! machine-readable [`CostReport`] naming the violated budget, while
//! the admitted tenants deploy normally (E14's rejection leg).
//!
//! Hitless upgrades ride the same path:
//! [`MultiDeployment::begin_upgrade`] admission-checks the new version
//! with the old still resident (dual reservation), gates it,
//! installs it on every switch atomically with the drain-set snapshot
//! (the NCP-R in-flight keys, [`crate::runtime::NclHost::in_flight_keys`]),
//! and hands back the [`Upgrade`] ticket; once the caller has observed
//! every drain window acked ([`Upgrade::acked`]),
//! [`MultiDeployment::finish_upgrade`] retires the old version and
//! returns its resources to the pool.
//!
//! Only the software switch ([`SwitchBackend::Simd`]) multiplexes. The
//! modeled PISA pipeline cannot host two independently compiled
//! programs in one pipeline object, so [`SwitchBackend::Pisa`] is
//! rejected up front.

use crate::deploy::{
    build_fabric, lint_gate, mc_gate, switch_engine, DeployError, DeployOptions, FabricOptions,
    SwitchBackend, SwitchLoad,
};
use crate::mc::McConfig;
use crate::mux::TenantMux;
use crate::nclc::{CompiledProgram, ModuleEstimate};
use crate::runtime::NclHost;
use crate::watch::{FabricWatch, FabricWatchParts};
use c3::{HostId, IdMap, Label, NodeId, SwitchId};
use ncl_and::AndKind;
use ncsched::{AdmissionController, AdmissionError, CostReport, TenantSpec, Upgrade};
use nctel::{Registry, Scope};
use netsim::{FastDatapath, HostApp, HostCtx, Network, Packet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;

/// Why a tenant's engine always loads: [`deploy_tenants`] refuses
/// [`SwitchBackend::Pisa`], and the software switch has no resource
/// check to fail.
const SOFTWARE_LOADS: &str = "the software switch loads without a resource check";

/// One tenant's submission to [`deploy_tenants`].
pub struct TenantDeploy {
    /// Identity and resource quota (checked at admission).
    pub spec: TenantSpec,
    /// The tenant's compiled program. Must target the same AND overlay
    /// as every other tenant and use a disjoint kernel-id range.
    pub program: CompiledProgram,
    /// Host applications by AND host label. Each host label belongs to
    /// at most one tenant; hosts no tenant claims idle.
    pub apps: HashMap<String, Box<dyn HostApp>>,
}

/// Failures of [`deploy_tenants`] and the upgrade entry points.
///
/// Capacity shortfalls are *not* here — a tenant that fails admission
/// at deploy time is reported in [`MultiDeployment::rejections`] while
/// the rest of the fabric deploys. These are structural errors the
/// caller must fix.
#[derive(Debug)]
pub enum MultiDeployError {
    /// `deploy_tenants` with an empty tenant list.
    NoTenants,
    /// [`SwitchBackend::Pisa`] cannot multiplex tenants (module docs).
    UnsupportedBackend,
    /// A tenant's program targets a different AND overlay.
    OverlayMismatch {
        /// The offending tenant.
        tenant: String,
    },
    /// Two tenants' programs share a kernel id — kernel-id ranges route
    /// windows, so they must be disjoint
    /// ([`crate::nclc::CompileConfig::kernel_id_base`]).
    KernelIdOverlap {
        /// First claimant.
        a: String,
        /// Second claimant.
        b: String,
        /// The contested kernel id.
        kernel: u16,
    },
    /// Two tenants supplied an application for the same host.
    HostClaimed {
        /// The host label.
        label: String,
        /// First claimant.
        a: String,
        /// Second claimant.
        b: String,
    },
    /// A tenant supplied an application for a label that is not a host
    /// in the overlay.
    UnknownHost {
        /// The offending tenant.
        tenant: String,
        /// The unknown label.
        label: String,
    },
    /// A deploy-time gate refused a tenant module. The inner error
    /// says which gate and names the refused code: the lint gate's
    /// [`DeployError::Lint`] (offending kernels and refused version) or
    /// the model-check gate's [`DeployError::ModelCheck`] (kernel and
    /// counterexample schedule).
    Gate {
        /// The offending tenant.
        tenant: String,
        /// The underlying denial.
        source: DeployError,
    },
    /// A controller operation failed (upgrade lifecycle misuse, or an
    /// upgrade's new version rejected for capacity).
    Admission {
        /// The tenant involved.
        tenant: String,
        /// The underlying controller error.
        source: AdmissionError,
    },
    /// An upgrade's new program changed the tenant's kernel-id set;
    /// in-place upgrades must keep ids stable so in-flight windows
    /// still route.
    KernelIdsChanged {
        /// The offending tenant.
        tenant: String,
    },
}

impl std::fmt::Display for MultiDeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiDeployError::NoTenants => write!(f, "no tenants to deploy"),
            MultiDeployError::UnsupportedBackend => {
                write!(
                    f,
                    "the PISA pipeline backend cannot multiplex tenants; use the software switch"
                )
            }
            MultiDeployError::OverlayMismatch { tenant } => {
                write!(f, "tenant '{tenant}' targets a different AND overlay")
            }
            MultiDeployError::KernelIdOverlap { a, b, kernel } => {
                write!(f, "tenants '{a}' and '{b}' both claim kernel id {kernel}")
            }
            MultiDeployError::HostClaimed { label, a, b } => {
                write!(f, "tenants '{a}' and '{b}' both claim host '{label}'")
            }
            MultiDeployError::UnknownHost { tenant, label } => {
                write!(f, "tenant '{tenant}' claims unknown host '{label}'")
            }
            MultiDeployError::Gate { tenant, source } => {
                write!(f, "tenant '{tenant}': {source}")
            }
            MultiDeployError::Admission { tenant, source } => {
                write!(f, "tenant '{tenant}': {source}")
            }
            MultiDeployError::KernelIdsChanged { tenant } => {
                write!(
                    f,
                    "tenant '{tenant}' upgrade changes its kernel-id set; ids must be stable"
                )
            }
        }
    }
}

impl std::error::Error for MultiDeployError {}

/// A host application that does nothing — installed on hosts no
/// admitted tenant claims, so the shared fabric still builds.
struct IdleApp;

impl HostApp for IdleApp {
    fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: &Packet) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Book-keeping for one admitted tenant.
struct AdmittedTenant {
    name: String,
    /// The tenant's kernel-id set (routing identity on every mux).
    kernel_ids: BTreeSet<u16>,
    /// Host labels this tenant's applications run on.
    hosts: Vec<(String, HostId)>,
    /// Switch labels this tenant's program occupies.
    switches: Vec<String>,
}

/// A deployed multi-tenant fabric (see module docs).
pub struct MultiDeployment {
    /// The simulated network.
    pub net: Network,
    /// AND label → simulated node.
    pub nodes: HashMap<Label, NodeId>,
    /// The live admission controller: committed reservations, quotas,
    /// per-switch usage. Future `admit`/`release` calls against it keep
    /// accounting while the fabric runs.
    pub controller: AdmissionController,
    /// Tenants that failed admission at deploy time, in submission
    /// order, each with the cost report naming the violated budget.
    pub rejections: Vec<Box<CostReport>>,
    backend: SwitchBackend,
    /// The model-check gate every upgrade passes, as deployed.
    model_check: Option<McConfig>,
    tenants: Vec<AdmittedTenant>,
    /// `(switch wire, kernel id)` → deployed version; updated on
    /// upgrade switchover.
    versions: BTreeMap<(u16, u16), u16>,
}

/// Deploys several tenants onto one shared fabric (module docs).
/// Admitted tenants run; rejected tenants land in
/// [`MultiDeployment::rejections`] with cost reports. `opts.backend`
/// must be the software switch. Every tenant module passes the same
/// lint and model-check gates as under [`crate::deploy_opts`].
pub fn deploy_tenants(
    tenants: Vec<TenantDeploy>,
    opts: DeployOptions,
) -> Result<MultiDeployment, MultiDeployError> {
    let DeployOptions {
        link_spec,
        link_overrides,
        backend,
        registry,
        scope,
        model,
        model_check,
    } = opts;
    if tenants.is_empty() {
        return Err(MultiDeployError::NoTenants);
    }
    if backend == SwitchBackend::Pisa {
        return Err(MultiDeployError::UnsupportedBackend);
    }
    let overlay = tenants[0].program.overlay.clone();
    let label_ids = tenants[0].program.label_ids.clone();
    for t in &tenants[1..] {
        if t.program.overlay != overlay {
            return Err(MultiDeployError::OverlayMismatch {
                tenant: t.spec.name.clone(),
            });
        }
    }
    // Kernel-id ranges route windows on shared switches: disjoint or bust.
    let mut id_owner: BTreeMap<u16, &str> = BTreeMap::new();
    for t in &tenants {
        let ids: BTreeSet<u16> = t.program.kernel_ids.values().copied().collect();
        for id in ids {
            if let Some(prev) = id_owner.insert(id, t.spec.name.as_str()) {
                if prev != t.spec.name {
                    return Err(MultiDeployError::KernelIdOverlap {
                        a: prev.to_string(),
                        b: t.spec.name.clone(),
                        kernel: id,
                    });
                }
            }
        }
    }
    // Host claims: at most one tenant per host label.
    let mut host_owner: BTreeMap<&str, &str> = BTreeMap::new();
    for t in &tenants {
        for label in t.apps.keys() {
            let known = overlay
                .nodes
                .iter()
                .any(|n| n.kind == AndKind::Host && n.label.as_str() == label.as_str());
            if !known {
                return Err(MultiDeployError::UnknownHost {
                    tenant: t.spec.name.clone(),
                    label: label.clone(),
                });
            }
            if let Some(prev) = host_owner.insert(label.as_str(), t.spec.name.as_str()) {
                if prev != t.spec.name {
                    return Err(MultiDeployError::HostClaimed {
                        label: label.clone(),
                        a: prev.to_string(),
                        b: t.spec.name.clone(),
                    });
                }
            }
        }
    }

    let admitted_ctr = registry.counter("deploy.tenants_admitted");
    let rejected_ctr = registry.counter("deploy.tenants_rejected");

    // Lint and model-check gates, per tenant, per switch module — with
    // kernel + version identity in the denial (the would-be first
    // deployment is v1).
    let mc = model_check.as_ref();
    for t in &tenants {
        gate_all(&t.program, 1, mc, &registry, scope.as_ref()).map_err(|source| {
            MultiDeployError::Gate {
                tenant: t.spec.name.clone(),
                source,
            }
        })?;
    }

    // Admission: bin-pack each tenant, in submission order, against the
    // chip model, its quota, and what earlier tenants already hold.
    // Rejection is not an error — the tenant just stays off the fabric.
    let mut controller = AdmissionController::new(model);
    let mut rejections = Vec::new();
    let mut admitted: Vec<TenantDeploy> = Vec::new();
    for t in tenants {
        match controller.admit(&t.spec, &switch_estimates(&t.program)) {
            Ok(_) => {
                admitted_ctr.inc();
                admitted.push(t);
            }
            Err(AdmissionError::Rejected(report)) => {
                rejected_ctr.inc();
                rejections.push(report);
            }
            Err(source) => {
                return Err(MultiDeployError::Admission {
                    tenant: t.spec.name.clone(),
                    source,
                })
            }
        }
    }

    // Build the shared fabric once; muxes hold the admitted tenants.
    // Apps move out of the submissions as hosts are built.
    let mut claims: HashMap<String, (usize, Box<dyn HostApp>)> = HashMap::new();
    for (ti, t) in admitted.iter_mut().enumerate() {
        claims.extend(t.apps.drain().map(|(label, app)| (label, (ti, app))));
    }
    let mut hosts_of: Vec<Vec<(String, HostId)>> = vec![Vec::new(); admitted.len()];
    let mut switches_of: Vec<Vec<String>> = vec![Vec::new(); admitted.len()];
    let mut versions = BTreeMap::new();
    let built = build_fabric::<Infallible>(
        &overlay,
        // Every tenant shares the overlay, so `_pass(label)` targets agree.
        &label_ids,
        FabricOptions {
            link_spec,
            link_overrides: &link_overrides,
            registry: &registry,
            scope: scope.as_ref(),
        },
        |n| {
            let label = n.label.as_str();
            Ok(match claims.remove(label) {
                Some((ti, app)) => {
                    hosts_of[ti].push((label.to_string(), HostId(n.id)));
                    app
                }
                None => Box::new(IdleApp),
            })
        },
        |n| {
            let label = n.label.as_str();
            let wire = NodeId::Switch(SwitchId(n.id)).to_wire();
            let mut mux = TenantMux::new();
            let mut tel_kernels = IdMap::default();
            for (ti, t) in admitted.iter().enumerate() {
                let version = 1u16;
                let load = switch_engine(backend, &t.program, label, version, model);
                let load = load.expect(SOFTWARE_LOADS);
                let (Some(dp), Some(kernels)) = (load.engine, load.kernels) else {
                    continue;
                };
                let ids: BTreeSet<u16> = t.program.kernel_ids.values().copied().collect();
                mux.add_tenant(&t.spec.name, ids, dp, version);
                switches_of[ti].push(label.to_string());
                versions.extend(kernels.keys().map(|&kid| ((wire, kid), version)));
                tel_kernels.extend(kernels);
            }
            let occupied = !mux.tenants().is_empty();
            Ok(SwitchLoad {
                engine: occupied.then(|| Box::new(mux) as Box<dyn FastDatapath>),
                kernels: occupied.then_some(tel_kernels),
            })
        },
    );
    let (net, nodes) = match built {
        Ok((builder, nodes)) => (builder.build(), nodes),
        Err(never) => match never {},
    };
    let book = admitted
        .iter()
        .zip(hosts_of)
        .zip(switches_of)
        .map(|((t, hosts), switches)| AdmittedTenant {
            name: t.spec.name.clone(),
            kernel_ids: t.program.kernel_ids.values().copied().collect(),
            hosts,
            switches,
        })
        .collect();
    Ok(MultiDeployment {
        net,
        nodes,
        controller,
        rejections,
        backend,
        model_check,
        tenants: book,
        versions,
    })
}

/// Per-switch resource figures of a program, keyed for the controller.
fn switch_estimates(program: &CompiledProgram) -> BTreeMap<String, ModuleEstimate> {
    program
        .estimates
        .iter()
        .map(|(l, e)| (l.to_string(), e.clone()))
        .collect()
}

/// Runs the deploy-time gates over every switch module of `program`,
/// which would deploy as `version`: the lint gate ([`lint_gate`]), then
/// the model-check gate ([`mc_gate`]) when `model_check` asks for it.
fn gate_all(
    program: &CompiledProgram,
    version: u16,
    model_check: Option<&McConfig>,
    registry: &Registry,
    scope: Option<&Scope>,
) -> Result<(), DeployError> {
    program
        .overlay
        .nodes
        .iter()
        .filter(|n| n.kind == AndKind::Switch)
        .try_for_each(|n| {
            lint_gate(program, n, version, registry, scope)?;
            mc_gate(program, n, model_check, registry).map(drop)
        })
}

impl MultiDeployment {
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

    /// Admitted tenant names, in submission order.
    pub fn tenants(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// The kernel versions currently deployed, per `(switch wire id,
    /// kernel id)` — same shape as [`crate::deployed_versions`], kept
    /// live across upgrades (the diagnosis engine's reference for
    /// stale-version hop records).
    pub fn deployed_versions(&self) -> BTreeMap<(u16, u16), u16> {
        self.versions.clone()
    }

    /// The tenant mux on a switch, for targeted control-plane writes
    /// ([`TenantMux::ctrl_for`]) or post-run inspection. `None` when no
    /// tenant occupies the switch.
    pub fn mux_mut(&mut self, label: &str) -> Option<&mut TenantMux> {
        let id = self.switch(label);
        self.net
            .switch_fastpath_mut(id)?
            .as_any_mut()
            .downcast_mut::<TenantMux>()
    }

    /// Registers every admitted tenant's [`NclHost`] counters on `reg`
    /// under `{tenant, host}`-labeled names (e.g.
    /// `ncpr.sender.acked{tenant="a",host="worker1"}`), feeding the
    /// nctel Prometheus/JSON exporters per-tenant series. Hosts whose
    /// application is not an [`NclHost`] are skipped.
    pub fn export_tenant_metrics(&self, reg: &Registry) {
        for t in &self.tenants {
            for (label, hid) in &t.hosts {
                if let Some(host) = self.net.host_app::<NclHost>(*hid) {
                    host.export_metrics(reg, &[("tenant", &t.name), ("host", label)]);
                }
            }
        }
    }

    /// Binds an [`ncwatch`] streaming health engine to this deployment
    /// (DESIGN.md §4.14). The returned [`crate::watch::FabricWatch`]
    /// knows every admitted tenant's hosts and every fabric switch;
    /// drive it with [`crate::watch::FabricWatch::run_watched`] or call
    /// [`crate::watch::FabricWatch::tick`] on your own cadence.
    ///
    /// Conveniences applied here:
    /// * `cfg.diagnosis.deployed_versions` is filled from the live
    ///   version map (kept current by upgrades that completed before
    ///   this call);
    /// * when `cfg.slos` is empty, each admitted tenant gets the
    ///   default guard objectives — unknown-kernel == 0 and a
    ///   retransmit-rate ceiling of 500‰;
    /// * every deploy-time admission rejection is minted as a tick-0
    ///   `admission` incident carrying the cost report.
    ///
    /// `scope` is the event ring triggered diagnoses read; pass the
    /// same scope the deployment was built with (or `None` to diagnose
    /// from window traces alone).
    pub fn watch(&self, mut cfg: ncwatch::WatchConfig, scope: Option<Scope>) -> FabricWatch {
        cfg.diagnosis.deployed_versions = self.versions.clone();
        if cfg.slos.is_empty() {
            for t in &self.tenants {
                cfg.slos.push(ncwatch::SloSpec::new(
                    &format!("{}.unknown_kernel", t.name),
                    &t.name,
                    ncwatch::Objective::UnknownKernelZero,
                ));
                cfg.slos.push(ncwatch::SloSpec::new(
                    &format!("{}.retransmit_rate", t.name),
                    &t.name,
                    ncwatch::Objective::RetransmitCeiling { max_per_mille: 500 },
                ));
            }
        }
        let tenants = self
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.hosts.clone()))
            .collect();
        let mut switches: Vec<(String, SwitchId)> = self
            .nodes
            .iter()
            .filter_map(|(label, node)| Some((label.as_str().to_string(), node.as_switch()?)))
            .collect();
        switches.sort();
        let mut fw = FabricWatch::new(FabricWatchParts {
            config: cfg,
            tenants,
            switches,
            scope,
        });
        for report in &self.rejections {
            fw.engine_mut()
                .admission_incident(0, &report.tenant, &report.render_json());
        }
        fw
    }

    /// Starts a hitless upgrade of `tenant` to `new_program`: admission
    /// (dual reservation, old + new resident), the deploy-time gates,
    /// then an atomic switchover on every occupied switch — the drain keys
    /// (`(kernel, seq)` windows in flight on NCP-R at this instant,
    /// from [`NclHost::in_flight_keys`]) keep routing to the old
    /// version, everything else to the new one. Returns the ticket;
    /// feed it acks ([`Upgrade::acked`]) and call
    /// [`MultiDeployment::finish_upgrade`] once complete.
    pub fn begin_upgrade(
        &mut self,
        tenant: &str,
        new_program: &CompiledProgram,
        drain: Vec<(u16, u32)>,
    ) -> Result<Upgrade, MultiDeployError> {
        let ti = self
            .tenants
            .iter()
            .position(|t| t.name == tenant)
            .ok_or_else(|| MultiDeployError::Admission {
                tenant: tenant.to_string(),
                source: AdmissionError::UnknownTenant {
                    tenant: tenant.to_string(),
                },
            })?;
        let new_ids: BTreeSet<u16> = new_program.kernel_ids.values().copied().collect();
        if new_ids != self.tenants[ti].kernel_ids {
            return Err(MultiDeployError::KernelIdsChanged {
                tenant: tenant.to_string(),
            });
        }
        let (upgrade, _plan) = self
            .controller
            .begin_upgrade(
                tenant,
                &switch_estimates(new_program),
                drain.iter().copied(),
            )
            .map_err(|source| MultiDeployError::Admission {
                tenant: tenant.to_string(),
                source,
            })?;
        let registry = self.net.metrics().clone();
        let new_version = upgrade.new_version;
        let model_check = self.model_check.as_ref();
        if let Err(source) = gate_all(new_program, new_version, model_check, &registry, None) {
            self.controller
                .abort_upgrade(tenant)
                .expect("upgrade just began");
            return Err(MultiDeployError::Gate {
                tenant: tenant.to_string(),
                source,
            });
        }
        let drain_set: BTreeSet<(u16, u32)> = drain.into_iter().collect();
        let switch_labels = self.tenants[ti].switches.clone();
        let model = *self.controller.model();
        for label in &switch_labels {
            let load = switch_engine(self.backend, new_program, label, new_version, model);
            let load = load.expect(SOFTWARE_LOADS);
            let (Some(dp), Some(kernels)) = (load.engine, load.kernels) else {
                continue;
            };
            let installed = self
                .mux_mut(label)
                .map(|m| m.begin_upgrade(tenant, dp, new_version, drain_set.clone()))
                .unwrap_or(false);
            debug_assert!(installed, "mux slot exists for every occupied switch");
            // Static telemetry follows the *new* version; windows the
            // old version executes during the drain are stamped by the
            // mux's verdict version instead.
            let wire = NodeId::Switch(self.switch(label)).to_wire();
            let sid = self.switch(label);
            if let Some(tel) = self.net.switch_telemetry_mut(sid) {
                for (kid, kt) in kernels {
                    self.versions.insert((wire, kid), new_version);
                    tel.kernels.insert(kid, kt);
                }
            }
        }
        Ok(upgrade)
    }

    /// Retires the old version of a **fully drained** upgrade: every
    /// mux drops the old datapath, the controller returns its
    /// reservation to the pool. Errors (and changes nothing) while
    /// drain windows remain.
    pub fn finish_upgrade(&mut self, upgrade: &Upgrade) -> Result<(), MultiDeployError> {
        self.controller
            .finish_upgrade(upgrade)
            .map_err(|source| MultiDeployError::Admission {
                tenant: upgrade.tenant().to_string(),
                source,
            })?;
        let tenant = upgrade.tenant().to_string();
        let labels: Vec<String> = self
            .tenants
            .iter()
            .find(|t| t.name == tenant)
            .map(|t| t.switches.clone())
            .unwrap_or_default();
        for label in labels {
            if let Some(m) = self.mux_mut(&label) {
                m.finish_upgrade(&tenant);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::allreduce_source;
    use crate::control::ControlPlane;
    use crate::nclc::{compile, CompileConfig};
    use crate::runtime::{OutInvocation, TypedArray};
    use c3::{ScalarType, Value};

    /// Six workers, one shared switch: tenant A runs on worker1-3,
    /// tenant B on worker4-6.
    const AND6: &str = "hosts worker 6\nswitch s1\nlink worker* s1\n";

    fn tenant_program(base: u16) -> CompiledProgram {
        let src = allreduce_source(16, 4);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![4]);
        cfg.masks.insert("result".into(), vec![4]);
        cfg.kernel_id_base = base;
        compile(&src, AND6, &cfg).expect("compiles")
    }

    /// Hosts `lo..=hi` running the allreduce workload of one tenant,
    /// each contributing `[w, w, ...]`, with NCP-R reliability on.
    fn tenant_apps(
        program: &CompiledProgram,
        lo: u16,
        hi: u16,
    ) -> HashMap<String, Box<dyn HostApp>> {
        let kid = program.kernel_ids["allreduce"];
        let n = hi - lo + 1;
        let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        for w in lo..=hi {
            let mut host = NclHost::new(program);
            host.enable_reliability(Default::default());
            let data: Vec<i32> = vec![w as i32; 16];
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&data)],
                dest: NodeId::Host(HostId((w - lo + 1) % n + lo)),
                start: 0,
                gap: 0,
            })
            .unwrap();
            host.bind_incoming(
                program,
                "allreduce",
                "result",
                &[(ScalarType::I32, 16), (ScalarType::Bool, 1)],
            )
            .unwrap();
            host.done_on_flag(kid, 1);
            apps.insert(format!("worker{w}"), Box::new(host));
        }
        apps
    }

    fn two_tenants() -> Vec<TenantDeploy> {
        let pa = tenant_program(0);
        let pb = tenant_program(100);
        let apps_a = tenant_apps(&pa, 1, 3);
        let apps_b = tenant_apps(&pb, 4, 6);
        vec![
            TenantDeploy {
                spec: TenantSpec::new("tenant-a"),
                program: pa,
                apps: apps_a,
            },
            TenantDeploy {
                spec: TenantSpec::new("tenant-b"),
                program: pb,
                apps: apps_b,
            },
        ]
    }

    fn set_nworkers(dep: &mut MultiDeployment, tenant: &str, n: u32) {
        // Every tenant compiles the same source, so one build names the
        // control variable's copies for all of them.
        let program = tenant_program(0);
        let cp = ControlPlane::new(program.switch("s1").expect("s1 compiled"));
        let mux = dep.mux_mut("s1").expect("s1 is multiplexed");
        for op in cp.ctrl_wr_ops("nworkers", Value::u32(n)) {
            assert!(mux.ctrl_for(tenant, &op));
        }
    }

    fn assert_tenant_sums(dep: &netsim::Network, program_kid: u16, lo: u16, hi: u16, sum: i32) {
        for w in lo..=hi {
            let host = dep.host_app::<NclHost>(HostId(w)).expect("worker app");
            assert!(host.done_at.is_some(), "worker {w} never completed");
            let mem = host.memory(program_kid).unwrap();
            for i in 0..16 {
                assert_eq!(mem.arrays[0].get(i), Value::i32(sum), "worker {w} elem {i}");
            }
        }
    }

    /// Two tenants, one switch: both allreduces complete with their own
    /// sums, the mux keeps their state separate, and the per-tenant
    /// metric export labels every series.
    #[test]
    fn two_tenants_share_one_switch() {
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(two_tenants(), opts).expect("deploys");
        assert_eq!(dep.tenants(), vec!["tenant-a", "tenant-b"]);
        assert!(dep.rejections.is_empty());
        set_nworkers(&mut dep, "tenant-a", 3);
        set_nworkers(&mut dep, "tenant-b", 3);
        dep.net.run();
        // Tenant A sums 1+2+3 = 6; tenant B sums 4+5+6 = 15.
        assert_tenant_sums(&dep.net, 1, 1, 3, 6);
        assert_tenant_sums(&dep.net, 101, 4, 6, 15);
        let s1 = dep.switch("s1");
        let stats = dep.net.switch_stats(s1).unwrap();
        assert_eq!(stats.ncp_processed, 24, "12 windows per tenant");
        assert_eq!(stats.unknown_kernel, 0);
        // Per-tenant labeled export: both tenants' series, disjoint.
        let reg = Registry::new();
        dep.export_tenant_metrics(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("tenant=\"tenant-a\""), "{text}");
        assert!(text.contains("tenant=\"tenant-b\""), "{text}");
        assert!(
            reg.counter_value("ncpr.sender.acked{tenant=\"tenant-a\",host=\"worker1\"}")
                .unwrap()
                > 0
        );
        // Admission accounting survives the run.
        assert_eq!(dep.controller.tenant_version("tenant-a"), Some(1));
        let usage = dep.controller.usage("s1");
        assert!(usage.stages > 0 && usage.sram_bytes > 0);
    }

    /// An over-quota tenant is rejected pre-deploy with a cost report
    /// naming the violated budget; the others run unaffected.
    #[test]
    fn over_budget_tenant_rejected_with_cost_report() {
        let mut tenants = two_tenants();
        // Tenant B's quota cannot fit even one stage.
        tenants[1].spec = ncsched::TenantSpec::with_quota(
            "tenant-b",
            ncsched::TenantQuota::new(0, usize::MAX, usize::MAX),
        );
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(tenants, opts).expect("deploys");
        assert_eq!(dep.tenants(), vec!["tenant-a"]);
        assert_eq!(dep.rejections.len(), 1);
        let report = &dep.rejections[0];
        assert_eq!(report.tenant, "tenant-b");
        assert_eq!(report.budget, ncsched::BudgetKind::TenantQuota);
        assert_eq!(report.limit, 0);
        let json = report.render_json();
        assert!(json.contains("\"budget\":\"tenant_quota\""), "{json}");
        assert!(json.contains("\"resource\":\"stages\""), "{json}");
        // Tenant A still completes; tenant B's hosts idle.
        set_nworkers(&mut dep, "tenant-a", 3);
        dep.net.run();
        assert_tenant_sums(&dep.net, 1, 1, 3, 6);
        assert!(dep.net.host_app::<NclHost>(HostId(4)).is_none());
    }

    /// A live upgrade mid-run: the drain-set snapshot keeps in-flight
    /// windows on v1, fresh windows run v2, nothing is lost, and the
    /// version map flips once the drain completes.
    #[test]
    fn hitless_upgrade_drains_and_reclaims() {
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(two_tenants(), opts).expect("deploys");
        set_nworkers(&mut dep, "tenant-a", 3);
        set_nworkers(&mut dep, "tenant-b", 3);
        // Run just long enough for windows to be in flight.
        dep.net.run_until(2_000);
        let drain = dep
            .net
            .host_app::<NclHost>(HostId(1))
            .expect("worker1")
            .in_flight_keys();
        let mut upgrade = dep
            .begin_upgrade("tenant-a", &tenant_program(0), drain.clone())
            .expect("upgrade admits");
        assert_eq!(upgrade.old_version, 1);
        assert_eq!(upgrade.new_version, 2);
        // The switchover flipped the static version map already.
        assert_eq!(
            dep.deployed_versions()[&(dep.switch("s1").0 | 0x8000, 1)],
            2
        );
        dep.net.run();
        assert_tenant_sums(&dep.net, 1, 1, 3, 6);
        assert_tenant_sums(&dep.net, 101, 4, 6, 15);
        let stats = dep.net.switch_stats(dep.switch("s1")).unwrap();
        assert_eq!(stats.unknown_kernel, 0);
        // Every drain window was retired by the run (NCP-R acked them);
        // feed the acks to the ticket and reclaim.
        assert!(dep
            .net
            .host_app::<NclHost>(HostId(1))
            .unwrap()
            .in_flight_keys()
            .is_empty());
        for (k, s) in drain {
            upgrade.acked(k, s);
        }
        assert!(upgrade.is_complete());
        dep.finish_upgrade(&upgrade).expect("reclaims");
        assert!(!dep.mux_mut("s1").unwrap().is_draining("tenant-a"));
        assert_eq!(dep.controller.tenant_version("tenant-a"), Some(2));
    }

    /// Structural misuse is a hard error, not a rejection.
    #[test]
    fn structural_errors_are_hard() {
        let opts = || DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        assert!(matches!(
            deploy_tenants(Vec::new(), opts()),
            Err(MultiDeployError::NoTenants)
        ));
        // PISA cannot multiplex.
        assert!(matches!(
            deploy_tenants(
                two_tenants(),
                DeployOptions {
                    backend: SwitchBackend::Pisa,
                    ..DeployOptions::default()
                }
            ),
            Err(MultiDeployError::UnsupportedBackend)
        ));
        // Overlapping kernel-id ranges.
        let pa = tenant_program(0);
        let pb = tenant_program(0);
        let apps_a = tenant_apps(&pa, 1, 3);
        let apps_b = tenant_apps(&pb, 4, 6);
        let clash = vec![
            TenantDeploy {
                spec: TenantSpec::new("a"),
                program: pa,
                apps: apps_a,
            },
            TenantDeploy {
                spec: TenantSpec::new("b"),
                program: pb,
                apps: apps_b,
            },
        ];
        assert!(matches!(
            deploy_tenants(clash, opts()),
            Err(MultiDeployError::KernelIdOverlap { kernel: 1, .. })
        ));
        // Two tenants claiming one host.
        let pa = tenant_program(0);
        let pb = tenant_program(100);
        let apps_a = tenant_apps(&pa, 1, 3);
        let apps_b = tenant_apps(&pb, 3, 5);
        let clash = vec![
            TenantDeploy {
                spec: TenantSpec::new("a"),
                program: pa,
                apps: apps_a,
            },
            TenantDeploy {
                spec: TenantSpec::new("b"),
                program: pb,
                apps: apps_b,
            },
        ];
        assert!(matches!(
            deploy_tenants(clash, opts()),
            Err(MultiDeployError::HostClaimed { .. })
        ));
    }

    /// One builder, one set of gates: a single program deployed through
    /// `deploy_opts` and as the only tenant of `deploy_tenants` yields
    /// the same node map, kernel versions and `deploy.*` counters — a
    /// denied module is refused with the same lint error, and a module
    /// the model-check gate refuses is refused with the same
    /// counterexample and the same gate counters.
    #[test]
    fn one_tenant_fabric_matches_deploy_opts() {
        use crate::deploy::{deploy_opts, deployed_versions};
        use crate::nclc::{LintCode, LintLevel};
        use std::sync::Arc;
        let opts = || DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let one_tenant = |program: CompiledProgram| {
            vec![TenantDeploy {
                spec: TenantSpec::new("only"),
                apps: tenant_apps(&program, 1, 6),
                program,
            }]
        };
        let program = tenant_program(0);
        let single = deploy_opts(&program, tenant_apps(&program, 1, 6), opts()).expect("deploys");
        let multi = deploy_tenants(one_tenant(tenant_program(0)), opts()).expect("deploys");
        assert_eq!(single.nodes, multi.nodes);
        assert_eq!(deployed_versions(&program), multi.deployed_versions());
        for name in [
            "deploy.hosts_loaded",
            "deploy.switches_loaded",
            "deploy.lint_denied",
        ] {
            let (a, b) = (single.net.metrics(), multi.net.metrics());
            assert!(a.counter_value(name).is_some(), "{name} missing");
            assert_eq!(a.counter_value(name), b.counter_value(name), "{name}");
        }
        // The switch stamps the same static hop-record fields either way.
        let s1 = single.switch("s1");
        let (mut single, mut multi) = (single, multi);
        let tel = |net: &mut Network| {
            let t = net.switch_telemetry_mut(s1).expect("stamps");
            let kernels: BTreeMap<u16, (u16, u16, u32)> = t
                .kernels
                .iter()
                .map(|(&id, k)| (id, (k.version, k.stages, k.uops)))
                .collect();
            (t.switch_id, kernels)
        };
        assert_eq!(tel(&mut single.net), tel(&mut multi.net));

        // Deny the module after the fact (the hand-altered artifact).
        let mut denied = tenant_program(0);
        denied
            .lint_config
            .levels
            .insert(LintCode::ReplayUnsafeNoFilter, LintLevel::Deny);
        let lint_parts = |e: DeployError| match e {
            DeployError::Lint {
                label,
                kernels,
                version,
                diagnostics,
            } => (label, kernels, version, diagnostics.len()),
            other => panic!("expected a lint denial, got {other:?}"),
        };
        let single = match deploy_opts(&denied, tenant_apps(&denied, 1, 6), opts()) {
            Err(e) => lint_parts(e),
            Ok(_) => panic!("denied module deployed"),
        };
        let multi = match deploy_tenants(one_tenant(denied), opts()) {
            Err(MultiDeployError::Gate { source, .. }) => lint_parts(source),
            Err(other) => panic!("expected a lint denial, got {other:?}"),
            Ok(_) => panic!("denied module deployed"),
        };
        assert_eq!(single, multi);
        assert_eq!(single.1, vec!["allreduce".to_string()]);

        // Ask for the model-check gate: the unfiltered AllReduce diverges
        // under a loss/dup schedule, so neither entry point deploys it.
        let mc_opts = |registry: &Arc<Registry>| DeployOptions {
            model_check: Some(McConfig::default()),
            registry: Arc::clone(registry),
            ..opts()
        };
        let mc_parts = |e: DeployError| match e {
            DeployError::ModelCheck {
                label,
                kernel,
                schedule,
            } => (label, kernel, schedule),
            other => panic!("expected a model-check refusal, got {other:?}"),
        };
        let counters = |r: &Registry| {
            [
                "deploy.lint_denied",
                "deploy.mc_checked",
                "deploy.mc_denied",
            ]
            .map(|name| r.counter_value(name))
        };
        let (reg_single, reg_multi) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        let program = tenant_program(0);
        let apps = tenant_apps(&program, 1, 6);
        let single = match deploy_opts(&program, apps, mc_opts(&reg_single)) {
            Err(e) => mc_parts(e),
            Ok(_) => panic!("divergent module deployed"),
        };
        let multi = match deploy_tenants(one_tenant(program), mc_opts(&reg_multi)) {
            Err(MultiDeployError::Gate { source, .. }) => mc_parts(source),
            Err(other) => panic!("expected a model-check refusal, got {other:?}"),
            Ok(_) => panic!("divergent module deployed"),
        };
        assert_eq!(single, multi);
        assert_eq!((single.0.as_str(), single.1.as_str()), ("s1", "allreduce"));
        assert_eq!(counters(&reg_single), counters(&reg_multi));
        assert_eq!(counters(&reg_single), [Some(0), Some(1), Some(1)]);
    }

    /// An upgrade that changes the kernel-id set is refused before it
    /// touches the controller or any switch.
    #[test]
    fn upgrade_with_new_kernel_ids_is_refused() {
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(two_tenants(), opts).expect("deploys");
        let moved = tenant_program(50);
        assert!(matches!(
            dep.begin_upgrade("tenant-a", &moved, Vec::new()),
            Err(MultiDeployError::KernelIdsChanged { .. })
        ));
        assert_eq!(dep.controller.tenant_version("tenant-a"), Some(1));
    }

    /// An upgrade passes the model-check gate the fabric was deployed
    /// with: a replay-filtered v1 deploys, an unfiltered v2 that a
    /// duplicate would double-add into is refused and leaves v1 in
    /// place, and a filtered v2 goes ahead.
    #[test]
    fn upgrade_refused_by_the_model_check_gate() {
        let filtered = || {
            let mut cfg = CompileConfig::default();
            cfg.masks.insert("allreduce".into(), vec![4]);
            cfg.masks.insert("result".into(), vec![4]);
            let filter = crate::nclc::ReplayFilter {
                senders: 4,
                slots: 4,
            };
            cfg.replay_filters.insert("allreduce".into(), filter);
            compile(&allreduce_source(16, 4), AND6, &cfg).expect("compiles")
        };
        let program = filtered();
        let tenants = vec![TenantDeploy {
            spec: TenantSpec::new("tenant-a"),
            apps: tenant_apps(&program, 1, 3),
            program,
        }];
        // No stage splits: duplicates alone tell the two programs apart,
        // and the filtered one certifies in a fraction of the space.
        let mut mc = McConfig::default();
        mc.bounds.max_splits = 0;
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            model_check: Some(mc),
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(tenants, opts).expect("the filtered v1 certifies");
        match dep.begin_upgrade("tenant-a", &tenant_program(0), Vec::new()) {
            Err(MultiDeployError::Gate {
                source: DeployError::ModelCheck { label, .. },
                ..
            }) => assert_eq!(label, "s1"),
            Err(other) => panic!("expected a model-check refusal, got {other:?}"),
            Ok(_) => panic!("the unfiltered v2 was installed"),
        }
        assert_eq!(dep.controller.tenant_version("tenant-a"), Some(1));
        let upgrade = dep.begin_upgrade("tenant-a", &filtered(), Vec::new());
        assert_eq!(upgrade.expect("the filtered v2 certifies").new_version, 2);
    }

    /// The streaming watch rides a healthy two-tenant run without a
    /// single incident (no false positives), while its default SLOs and
    /// per-component detectors are armed and evaluating every tick.
    #[test]
    fn healthy_run_stays_incident_free_under_watch() {
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let mut dep = deploy_tenants(two_tenants(), opts).expect("deploys");
        set_nworkers(&mut dep, "tenant-a", 3);
        set_nworkers(&mut dep, "tenant-b", 3);
        let cfg = ncwatch::WatchConfig {
            tick_ns: 500,
            ..ncwatch::WatchConfig::default()
        };
        let mut fw = dep.watch(cfg, None);
        // Default guard SLOs were installed per tenant.
        assert_eq!(fw.engine().trackers().len(), 4);
        let fired = fw.run_watched(&mut dep.net, 30_000);
        dep.net.run();
        assert_tenant_sums(&dep.net, 1, 1, 3, 6);
        assert_tenant_sums(&dep.net, 101, 4, 6, 15);
        assert!(fired.is_empty(), "healthy run fired: {fired:?}");
        assert!(fw.engine().incidents().is_empty());
        assert!(fw.engine().ticks() >= 10, "watch actually evaluated");
        assert!(fw.engine().health_summary().contains("no incidents"));
    }

    /// A deploy-time admission rejection surfaces as a tick-0 incident
    /// carrying the machine-readable cost report.
    #[test]
    fn admission_rejection_becomes_incident() {
        let mut tenants = two_tenants();
        tenants[1].spec = ncsched::TenantSpec::with_quota(
            "tenant-b",
            ncsched::TenantQuota::new(0, usize::MAX, usize::MAX),
        );
        let opts = DeployOptions {
            backend: SwitchBackend::Simd,
            ..DeployOptions::default()
        };
        let dep = deploy_tenants(tenants, opts).expect("deploys");
        let fw = dep.watch(ncwatch::WatchConfig::default(), None);
        let incidents = fw.engine().incidents();
        assert_eq!(incidents.len(), 1);
        let i = &incidents[0];
        assert_eq!(i.kind, "admission");
        assert_eq!(i.tenant, "tenant-b");
        assert_eq!(i.tick, 0);
        assert!(i.suspected.contains("admission"));
        let (k, v) = &i.exemplars[0];
        assert_eq!(k, "cost_report");
        assert!(v.contains("\"budget\":\"tenant_quota\""), "{v}");
        // The report round-trips through its canonical JSON.
        let back = ncwatch::IncidentReport::parse(&i.render_json()).unwrap();
        assert_eq!(&back, i);
    }
}
