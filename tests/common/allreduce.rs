//! The Fig. 4 AllReduce on a one-switch star — the one scenario the
//! NCP-R, telemetry and ncscope system tests (and the E10–E12 gates
//! among them) all run, with every knob they turn, on simulated links
//! or over real UDP sockets.

// Each test target includes this module via `#[path]` and uses only
// the helpers its own scenarios need.
#![allow(dead_code)]

use ncl::core::apps::allreduce_source;
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, deploy_udp, DeployOptions, Deployment};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram, ReplayFilter};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::reliable::ReliableConfig;
use ncl::nctel::{Scope, WindowTrace};
use ncl::netsim::{HostApp, LinkSpec};
use ncl::pisa::ResourceModel;
use std::collections::HashMap;

/// One run's knobs. Worker `w` of `1..=n` contributes `w` in every one
/// of its `data_len` int32 elements, in windows of `win`.
pub struct ArScenario {
    pub n: usize,
    pub data_len: usize,
    pub win: usize,
    /// NCP-R transport settings (`filter_slots` is filled in); `None`
    /// is fire-and-forget with no replay filter in the switch.
    pub reliable: Option<ReliableConfig>,
    pub link: LinkSpec,
    /// Per-link fault injection by AND label pair.
    pub overrides: Vec<(String, String, LinkSpec)>,
    /// Telemetry sampling rate; 0.0 leaves telemetry off.
    pub sampling: f64,
    /// The ncscope event log, attached to every layer when present.
    pub scope: Option<Scope>,
    /// Chip profile the program is compiled for and deployed on.
    pub model: ResourceModel,
    /// Deploy over real loopback UDP sockets (`deploy_udp`) instead of
    /// simulated links; the link model's loss and duplication still
    /// apply, and NCP-R timers run on the wall clock. Such a deployment
    /// is run with [`deploy_allreduce`] and a wall-clock deadline.
    pub udp: bool,
}

impl Default for ArScenario {
    fn default() -> Self {
        ArScenario {
            n: 4,
            data_len: 64,
            win: 8,
            reliable: Some(ReliableConfig::default()),
            link: LinkSpec::default(),
            overrides: Vec::new(),
            sampling: 0.0,
            scope: None,
            model: ResourceModel::default(),
            udp: false,
        }
    }
}

/// Compiles, deploys and runs one scenario to quiescence.
pub fn run_allreduce(sc: ArScenario) -> (CompiledProgram, Deployment) {
    let (program, mut dep) = deploy_allreduce(sc);
    dep.net.run();
    (program, dep)
}

/// Compiles and deploys one scenario, `nworkers` written; nothing run.
pub fn deploy_allreduce(sc: ArScenario) -> (CompiledProgram, Deployment) {
    let slots = sc.data_len / sc.win;
    let src = allreduce_source(sc.data_len, sc.win);
    let and = format!("hosts worker {}\nswitch s1\nlink worker* s1\n", sc.n);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![sc.win as u16]);
    cfg.masks.insert("result".into(), vec![sc.win as u16]);
    cfg.model = sc.model;
    if sc.reliable.is_some() {
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: 8,
                slots: slots as u16,
            },
        );
    }
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=sc.n as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = vec![w as i32; sc.data_len];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % sc.n as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, sc.data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        if let Some(rcfg) = sc.reliable {
            host.enable_reliability(ReliableConfig {
                filter_slots: slots,
                ..rcfg
            });
        }
        if sc.sampling > 0.0 {
            host.enable_telemetry(sc.sampling, 1024);
        }
        if let Some(scope) = &sc.scope {
            host.enable_scope(scope);
        }
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let opts = DeployOptions {
        link_spec: sc.link,
        link_overrides: sc.overrides,
        scope: sc.scope,
        model: sc.model,
        ..DeployOptions::default()
    };
    let deploy = if sc.udp { deploy_udp } else { deploy_opts };
    let mut dep = deploy(&program, apps, opts).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(sc.n as u32),
    );
    (program, dep)
}

fn workers(dep: &Deployment, n: usize) -> impl Iterator<Item = &NclHost> {
    (1..=n as u16).map(|w| dep.net.host_app::<NclHost>(HostId(w)).unwrap())
}

/// Completion time of a run every worker must have finished: the
/// latest `done_at` across workers `1..=n`, simulated ns.
pub fn completion(dep: &Deployment, n: usize) -> u64 {
    let done = |host: &NclHost| {
        host.done_at
            .unwrap_or_else(|| panic!("every worker must complete: {:?}", host.sender_stats()))
    };
    workers(dep, n).map(done).max().unwrap()
}

/// Windows retransmitted across workers `1..=n` of an NCP-R run.
pub fn retransmits(dep: &Deployment, n: usize) -> u64 {
    workers(dep, n)
        .map(|host| {
            host.sender_stats()
                .expect("reliability enabled")
                .retransmits
        })
        .sum()
}

/// Windows abandoned across workers `1..=n` of an NCP-R run.
pub fn abandoned(dep: &Deployment, n: usize) -> u64 {
    workers(dep, n)
        .map(|host| host.sender_stats().expect("reliability enabled").abandoned)
        .sum()
}

/// Drains the receiver-assembled window traces of workers `1..=n`.
pub fn take_traces(dep: &mut Deployment, n: usize) -> Vec<WindowTrace> {
    let mut traces = Vec::new();
    for w in 1..=n as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).unwrap();
        traces.extend(host.take_traces());
    }
    traces
}
