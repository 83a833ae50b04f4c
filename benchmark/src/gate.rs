//! `ctl_gate`: the control path a user waits on before any window
//! moves — frontend → lowering → lint → estimate → backend → model
//! check → admission.
//!
//! One *pass* compiles from source the three data-workload programs,
//! compiles and model-checks E15's three shapes, and submits E14's four
//! tenants to `deploy_tenants`. Every verdict has a known answer.

use crate::compile::{chip, compile_program, staged, StageTimes};
use crate::fabric::{kvs_value, reliable_cfg, KVS_SLOTS, KVS_WORDS, WORKERS};
use crate::inputs::{kvs_schedules, Zipf};
use crate::trace::Tracer;
use ncl::core::apps::{allreduce_source, kvs_source, KvsClient, KvsServer};
use ncl::core::deploy::{DeployOptions, SwitchBackend};
use ncl::core::mc::{model_check_switch, McConfig, McReport};
use ncl::core::nclc::{CompileConfig, CompiledProgram, LintCode, LintLevel, ReplayFilter};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::core::{deploy_tenants, ControlPlane, TenantDeploy};
use ncl::model::{HostId, NodeId, ScalarType};
use ncl::ncsched::{AdmissionController, AdmissionError, BudgetKind, TenantQuota, TenantSpec};
use ncl::netsim::HostApp;
use rand::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// A program to compile: source, AND, configuration.
pub struct Source {
    /// What it is, for messages.
    pub name: &'static str,
    src: String,
    and: &'static str,
    cfg: CompileConfig,
}

impl Source {
    fn compile(&self) -> CompiledProgram {
        compile_program(&self.src, self.and, &self.cfg)
    }
}

fn ar_source(
    name: &'static str,
    and: &'static str,
    elements: usize,
    win: usize,
    filter_senders: Option<u16>,
    model: ncl::pisa::ResourceModel,
) -> Source {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = model;
    if let Some(senders) = filter_senders {
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders,
                slots: (elements / win) as u16,
            },
        );
    }
    Source {
        name,
        src: allreduce_source(elements, win),
        and,
        cfg,
    }
}

fn kvs_src(
    name: &'static str,
    and: &'static str,
    server: u16,
    slots: usize,
    words: usize,
    model: ncl::pisa::ResourceModel,
) -> Source {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, words as u16, 1]);
    cfg.model = model;
    Source {
        name,
        src: kvs_source(server, slots, words),
        and,
        cfg,
    }
}

const AR4_AND: &str = "hosts worker 4\nswitch s1\nlink worker* s1\n";
const KVS4_AND: &str = "hosts client 4\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
const MC_AR_AND: &str = "hosts worker 2\nswitch s1\nlink worker* s1\n";
const MC_KVS_AND: &str =
    "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
/// E14's fabric: workers 1-6, clients 7-8, server 9, one switch.
const TENANT_AND: &str = "hosts worker 6\nhosts client 2\nhost server\n\
                          switch s1\nlink worker* s1\nlink client* s1\nlink server s1\n";
const TENANT_SERVER: u16 = 9;
const TENANT_KEYS: u64 = 64;
const TENANT_ELEMS: usize = 16;

/// The compile chain at workload size: `ar_w64`, `ar_w1024`,
/// `kvs_zipf`.
pub fn workload_sources() -> Vec<Source> {
    let filter = Some(WORKERS as u16);
    vec![
        ar_source("ar_w64", AR4_AND, 16_384, 64, filter, chip()),
        ar_source("ar_w1024", AR4_AND, 65_536, 1_024, filter, chip()),
        kvs_src("kvs_zipf", KVS4_AND, 5, KVS_SLOTS, KVS_WORDS, chip()),
    ]
}

/// E15's three model-check shapes, each with whether its convergence
/// obligation must be certified (`true`) or must yield a witness.
pub fn mc_sources() -> Vec<(Source, bool)> {
    let model = ncl::pisa::ResourceModel::default();
    let mut unfiltered = ar_source("mc-allreduce-unfiltered", MC_AR_AND, 8, 4, None, model);
    unfiltered
        .cfg
        .lint_levels
        .insert(LintCode::ReplayUnsafeNoFilter, LintLevel::Warn);
    vec![
        (
            ar_source("mc-allreduce-filtered", MC_AR_AND, 8, 4, Some(4), model),
            true,
        ),
        (unfiltered, false),
        (kvs_src("mc-kvs", MC_KVS_AND, 3, 4, 2, model), true),
    ]
}

/// One tenant's program source and quota.
struct TenantPlan {
    name: &'static str,
    source: Source,
    quota: Option<TenantQuota>,
}

fn tenant_plans() -> Vec<TenantPlan> {
    let ar = |name, base| {
        let mut s = ar_source(name, TENANT_AND, TENANT_ELEMS, 4, None, chip());
        s.cfg.kernel_id_base = base;
        s
    };
    let mut kvs = kvs_src(
        "kvs",
        TENANT_AND,
        TENANT_SERVER,
        TENANT_KEYS as usize,
        KVS_WORDS,
        chip(),
    );
    kvs.cfg.kernel_id_base = 200;
    vec![
        TenantPlan {
            name: "ar-a",
            source: ar("ar-a", 0),
            quota: None,
        },
        TenantPlan {
            name: "ar-b",
            source: ar("ar-b", 100),
            quota: None,
        },
        TenantPlan {
            name: "kvs",
            source: kvs,
            quota: None,
        },
        // A valid program under a zero-stage quota: admission must
        // reject it with a cost report, not an error.
        TenantPlan {
            name: "greedy",
            source: ar("greedy", 300),
            quota: Some(TenantQuota::new(0, usize::MAX, usize::MAX)),
        },
    ]
}

fn tenant_spec(plan: &TenantPlan) -> TenantSpec {
    match plan.quota {
        Some(q) => TenantSpec::with_quota(plan.name, q),
        None => TenantSpec::new(plan.name),
    }
}

fn ar_tenant_apps(
    program: &CompiledProgram,
    lo: u16,
    hi: u16,
    rng: &mut StdRng,
) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["allreduce"];
    let n = hi - lo + 1;
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in lo..=hi {
        let mut host = NclHost::new(program);
        host.enable_reliability(Default::default());
        let data: Vec<i32> = (0..TENANT_ELEMS).map(|_| rng.gen()).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId((w - lo + 1) % n + lo)),
            start: 0,
            gap: 0,
        })
        .expect("arrays match the compiled window spec");
        host.bind_incoming(
            program,
            "allreduce",
            "result",
            &[(ScalarType::I32, TENANT_ELEMS), (ScalarType::Bool, 1)],
        )
        .expect("result is paired with allreduce");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    apps
}

fn kvs_tenant_apps(
    program: &CompiledProgram,
    rng: &mut StdRng,
) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["query"];
    let zipf = Zipf::new(TENANT_KEYS, 1.1);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for (c, schedule) in kvs_schedules(rng, &zipf, 2, 60, 0.02)
        .into_iter()
        .enumerate()
    {
        let mut client = KvsClient::new(
            NodeId::Host(HostId(TENANT_SERVER)),
            HostId(TENANT_SERVER),
            kid,
            KVS_WORDS,
            schedule,
        );
        client.enable_retransmit(reliable_cfg());
        apps.insert(format!("client{}", c + 1), Box::new(client));
    }
    let control = ControlPlane::new(program.switch("s1").expect("kvs cache module"));
    let mut server = KvsServer::new(kid, KVS_WORDS, None, Some(control), TENANT_KEYS as usize);
    for k in 1..=TENANT_KEYS {
        server.store.insert(k, kvs_value(k, KVS_WORDS));
    }
    apps.insert("server".into(), Box::new(server));
    apps
}

/// The answers a pass produced, in a form a checker can compare with
/// the known ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdicts {
    /// Workload programs that compiled with a switch module.
    pub compiled: Vec<&'static str>,
    /// Per model-check shape: `(name, conclusive, convergence
    /// certified)`.
    pub model_checks: Vec<(&'static str, bool, bool)>,
    /// Tenants on the fabric, in admission order.
    pub admitted: Vec<String>,
    /// `(tenant, budget)` of every rejection.
    pub rejected: Vec<(String, String)>,
}

/// Gate verdicts that differ from their known answers. One verdict per
/// compiled program, per model-check shape and per tenant: ten a pass.
pub fn failed_verdicts(v: &Verdicts) -> u64 {
    let mut failed = 0;
    for name in ["ar_w64", "ar_w1024", "kvs_zipf"] {
        failed += u64::from(!v.compiled.contains(&name));
    }
    for (source, certified) in mc_sources() {
        // The unfiltered accumulator diverges under an RTO duplicate:
        // its report is conclusive and its convergence item a witness.
        let want = (source.name, true, certified);
        failed += u64::from(!v.model_checks.contains(&want));
    }
    for name in ["ar-a", "ar-b", "kvs"] {
        failed += u64::from(!v.admitted.iter().any(|t| t == name));
    }
    let greedy = (
        "greedy".to_string(),
        BudgetKind::TenantQuota.as_str().to_string(),
    );
    failed += u64::from(v.rejected != [greedy]);
    failed
}

/// Gate verdicts per pass.
pub const VERDICTS_PER_PASS: u64 = 10;

/// Wall time of one pass's steps, ms, plus the checker's own counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTimes {
    /// The three workload compiles.
    pub compile_ms: f64,
    /// Compiling and model-checking each of the three shapes.
    pub shape_ms: [f64; 3],
    /// Of that, inside `model_check_switch`.
    pub mc_ms: [f64; 3],
    /// Building the tenants' host applications.
    pub tenant_build_ms: f64,
    /// `deploy_tenants`.
    pub tenant_deploy_ms: f64,
    /// The whole pass.
    pub pass_ms: f64,
    /// States the model checker explored.
    pub mc_states: u64,
    /// Maximal schedules the model checker completed.
    pub mc_schedules: u64,
}

impl PassTimes {
    /// The pass's steps in order: workload compiles, the three shapes,
    /// tenant build, tenant deploy. They cover the pass.
    pub fn steps(&self) -> [f64; 6] {
        let [a, b, c] = self.shape_ms;
        [
            self.compile_ms,
            a,
            b,
            c,
            self.tenant_build_ms,
            self.tenant_deploy_ms,
        ]
    }
}

/// Inputs that persist across passes: the tenants' compiled programs
/// (a pass clones them, as a resubmission would reuse its artifacts).
pub struct Gate {
    tenants: Vec<(TenantSpec, CompiledProgram)>,
    rng_seed: u64,
}

impl Gate {
    /// Compiles the four tenants' programs.
    pub fn set_up(rng: &mut StdRng) -> Gate {
        let tenants = tenant_plans()
            .iter()
            .map(|p| (tenant_spec(p), p.source.compile()))
            .collect();
        Gate {
            tenants,
            rng_seed: rng.gen(),
        }
    }

    fn submissions(&self) -> Vec<TenantDeploy> {
        // Tenant inputs are redrawn identically every pass: the gate's
        // cost does not depend on them, its verdicts must not.
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        self.tenants
            .iter()
            .map(|(spec, program)| {
                let apps = match spec.name.as_str() {
                    "ar-a" => ar_tenant_apps(program, 1, 3, &mut rng),
                    "ar-b" => ar_tenant_apps(program, 4, 6, &mut rng),
                    "kvs" => kvs_tenant_apps(program, &mut rng),
                    _ => HashMap::new(),
                };
                TenantDeploy {
                    spec: spec.clone(),
                    program: program.clone(),
                    apps,
                }
            })
            .collect()
    }

    /// The warm-up of a set-up: everything a pass does except the
    /// model check, which is four fifths of a pass and whose cost does
    /// not depend on what ran before it.
    pub fn warm_up(&self) {
        for s in workload_sources() {
            s.compile();
        }
        deploy_tenants(self.submissions(), Self::deploy_options())
            .expect("the four-tenant submission is structurally sound");
    }

    fn deploy_options() -> DeployOptions {
        DeployOptions {
            backend: SwitchBackend::Simd,
            model: chip(),
            ..DeployOptions::default()
        }
    }

    /// Runs one pass under spans on `t` and returns its verdicts and
    /// times.
    pub fn pass(&self, t: &Tracer) -> (Verdicts, PassTimes) {
        t.begin_job();
        let mut times = PassTimes::default();
        let mut verdicts = None;
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        let ((), pass_ns) = t.span("bench", "pass", || {
            let (compiled, ns) = t.span("core.nclc", "compile_workloads", || {
                workload_sources()
                    .iter()
                    .filter(|s| s.compile().module("s1").is_some())
                    .map(|s| s.name)
                    .collect()
            });
            times.compile_ms = ns_ms(ns);

            let mut model_checks = Vec::new();
            for (i, (source, _)) in mc_sources().into_iter().enumerate() {
                let ((), ns) = t.span("core.mc", "check_shape", || {
                    let (program, _) = t.span("core.nclc", "compile", || source.compile());
                    let (report, ns): (McReport, u64) =
                        t.span("ncmc", "model_check_switch", || {
                            model_check_switch(&program, "s1", &McConfig::default())
                                .expect("the model checker runs on benchmark programs")
                        });
                    times.mc_ms[i] = ns_ms(ns);
                    for item in &report.items {
                        times.mc_states += item.result.stats.states;
                        times.mc_schedules += item.result.stats.schedules;
                    }
                    let certified = report
                        .convergence()
                        .is_some_and(|c| c.result.outcome.is_certificate());
                    model_checks.push((source.name, report.conclusive(), certified));
                });
                times.shape_ms[i] = ns_ms(ns);
            }

            let (submissions, ns) = t.span("core.runtime", "tenant_build", || self.submissions());
            times.tenant_build_ms = ns_ms(ns);
            let (dep, ns) = t.span("core.tenants", "deploy_tenants", || {
                deploy_tenants(submissions, Self::deploy_options())
                    .expect("the four-tenant submission is structurally sound")
            });
            times.tenant_deploy_ms = ns_ms(ns);
            verdicts = Some(Verdicts {
                compiled,
                model_checks,
                admitted: dep.tenants().iter().map(|t| t.to_string()).collect(),
                rejected: dep
                    .rejections
                    .iter()
                    .map(|r| (r.tenant.clone(), r.budget.as_str().to_string()))
                    .collect(),
            });
        });
        times.pass_ms = ns_ms(pass_ns);
        (verdicts.expect("set inside the pass span"), times)
    }

    /// Admission alone, outside `deploy_tenants`: the four tenants
    /// against a fresh controller. Returns ms.
    pub fn admit_ms(&self) -> f64 {
        let start = Instant::now();
        let mut controller = AdmissionController::new(chip());
        for (spec, program) in &self.tenants {
            let estimates: BTreeMap<String, _> = program
                .estimates
                .iter()
                .map(|(label, e)| (label.to_string(), e.clone()))
                .collect();
            match controller.admit(spec, &estimates) {
                Ok(_) | Err(AdmissionError::Rejected(_)) => {}
                Err(e) => panic!("admission failed structurally: {e}"),
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Stage-by-stage compile times summed over the six programs a
    /// pass compiles.
    pub fn compile_stages(&self) -> StageTimes {
        let mut total = StageTimes::default();
        let mc = mc_sources();
        for s in workload_sources().iter().chain(mc.iter().map(|(s, _)| s)) {
            total.add(&staged(&s.src, s.and, &s.cfg));
        }
        total
    }
}
