//! # ncl-bench — the experiment harness
//!
//! One bench target per experiment in EXPERIMENTS.md (E1–E8). Two kinds
//! of measurement coexist:
//!
//! * **simulated metrics** (completion time, latency, server load,
//!   bytes on the wire) — read off the deterministic network simulation
//!   and printed as paper-style tables;
//! * **wall-clock metrics** (compiler speed, codec throughput, simulator
//!   packet rate) — measured with Criterion.
//!
//! Shared helpers live here: workload generators and the common
//! deployment shapes.

use c3::{HostId, NodeId, ScalarType, Value};
use ncl_core::apps::{
    allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer, PsServer, PsWorker,
};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions, Deployment, SwitchBackend};
use ncl_core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::{HostApp, LinkSpec, NetworkBuilder, SwitchCfg, Time};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Results of one AllReduce run.
#[derive(Clone, Copy, Debug)]
pub struct AllReduceResult {
    /// Completion time (max across workers), ns.
    pub completion: Time,
    /// Bytes offered to links in total.
    pub bytes_on_wire: u64,
    /// Bytes into the aggregation point (switch or PS host).
    pub aggregator_ingress: u64,
}

/// Compiles the Fig. 4 program for `nworkers`/`elements`/`win`.
pub fn allreduce_program(nworkers: usize, elements: usize, win: usize) -> CompiledProgram {
    let src = allreduce_source(elements, win);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    compile(&src, &and, &cfg).expect("allreduce compiles")
}

/// Runs the in-network AllReduce (E1, INC arm).
pub fn run_allreduce_inc(nworkers: usize, elements: usize, win: usize) -> AllReduceResult {
    let program = allreduce_program(nworkers, elements, win);
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep: Deployment =
        deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let completion = (1..=nworkers as u16)
        .map(|w| {
            dep.net
                .host_app::<NclHost>(HostId(w))
                .expect("worker")
                .done_at
                .expect("completed")
        })
        .max()
        .expect("workers exist");
    AllReduceResult {
        completion,
        bytes_on_wire: dep.net.stats().bytes_sent,
        aggregator_ingress: dep.net.node_ingress_bytes(NodeId::Switch(s1)),
    }
}

/// Runs the in-network AllReduce end to end on an explicit switch
/// engine, returning the simulated metrics plus the host wall-clock the
/// simulation took, in milliseconds (E13's end-to-end comparison: the
/// deterministic simulation makes the *simulated* results bit-identical
/// across engines, so the wall-clock difference is purely the execution
/// tier's processing cost).
///
/// Unlike E1's [`run_allreduce_inc`], the chip model is lifted
/// (stages/ops/PHV) so the wide windows where the ncvec SIMD tier earns
/// its keep stay compilable; this bench measures the software tiers,
/// not chip fit.
pub fn run_allreduce_e2e(
    nworkers: usize,
    elements: usize,
    win: usize,
    backend: SwitchBackend,
) -> (AllReduceResult, f64) {
    let src = allreduce_source(elements, win);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model.stages = 64;
    cfg.model.ops_per_stage = 8192;
    cfg.model.phv_header_bytes = 1 << 14;
    cfg.model.phv_metadata_bytes = 1 << 14;
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep: Deployment = deploy_opts(
        &program,
        apps,
        DeployOptions {
            backend,
            model: cfg.model,
            ..Default::default()
        },
    )
    .expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    let nw = Value::u32(nworkers as u32);
    match backend {
        SwitchBackend::Pisa => {
            cp.ctrl_wr(dep.net.switch_pipeline_mut(s1).unwrap(), "nworkers", nw);
        }
        _ => {
            let fp = dep.net.switch_fastpath_mut(s1).unwrap();
            for op in cp.ctrl_wr_ops("nworkers", nw) {
                assert!(fp.ctrl(&op), "ctrl write lands");
            }
        }
    }
    let t = std::time::Instant::now();
    dep.net.run();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let completion = (1..=nworkers as u16)
        .map(|w| {
            dep.net
                .host_app::<NclHost>(HostId(w))
                .expect("worker")
                .done_at
                .expect("completed")
        })
        .max()
        .expect("workers exist");
    (
        AllReduceResult {
            completion,
            bytes_on_wire: dep.net.stats().bytes_sent,
            aggregator_ingress: dep.net.node_ingress_bytes(NodeId::Switch(s1)),
        },
        wall_ms,
    )
}

/// Runs the parameter-server baseline (E1, host arm).
pub fn run_allreduce_ps(nworkers: usize, elements: usize, win: usize) -> AllReduceResult {
    let mut b = NetworkBuilder::new();
    let ps_node = NodeId::Host(HostId(nworkers as u16 + 1));
    let mut worker_ids = Vec::new();
    for w in 1..=nworkers as u16 {
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        let id = b.add_host(Box::new(PsWorker::new(ps_node, data, win)));
        worker_ids.push(NodeId::Host(id));
    }
    let ps = b.add_host(Box::new(PsServer::new(worker_ids)));
    let sw = b.add_switch(SwitchCfg::default());
    for w in 1..=nworkers as u16 + 1 {
        b.link(HostId(w), sw, LinkSpec::default());
    }
    let mut net = b.build();
    net.run();
    let completion = (1..=nworkers as u16)
        .map(|w| {
            net.host_app::<PsWorker>(HostId(w))
                .expect("worker")
                .done_at
                .expect("completed")
        })
        .max()
        .expect("workers");
    AllReduceResult {
        completion,
        bytes_on_wire: net.stats().bytes_sent,
        aggregator_ingress: net.node_ingress_bytes(NodeId::Host(ps)),
    }
}

/// Results of one NCP-R reliable AllReduce run (E10).
#[derive(Clone, Copy, Debug)]
pub struct ReliableResult {
    /// Completion time (max across workers), ns.
    pub completion: Time,
    /// Bytes offered to links in total (incl. retransmissions + ACKs).
    pub bytes_on_wire: u64,
    /// Result payload bytes delivered to hosts (goodput numerator).
    pub payload_bytes: u64,
    /// Total windows retransmitted across workers.
    pub retransmits: u64,
    /// Duplicates suppressed by the in-switch replay filter.
    pub switch_dups: u64,
}

/// Runs the Fig. 4 AllReduce with NCP-R enabled (E10): replay filter in
/// the switch, reliable window transport on every worker. `link`
/// carries the loss/duplication/reorder knobs under test.
pub fn run_allreduce_reliable(
    nworkers: usize,
    elements: usize,
    win: usize,
    link: LinkSpec,
) -> ReliableResult {
    use ncl_core::nclc::ReplayFilter;
    use ncp::ReliableConfig;
    let slots = elements / win;
    let src = allreduce_source(elements, win);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: nworkers as u16,
            slots: slots as u16,
        },
    );
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    // The transport tuned to the bench topology: RTO a few× the loaded
    // RTT (µs-scale links) instead of the conservative wall-clock
    // default, and an initial window deep enough to keep the switch
    // pipeline busy from the first flight.
    let rcfg = ReliableConfig {
        filter_slots: slots,
        cwnd: 64,
        max_cwnd: 256,
        rto: 500_000,
        max_rto: 8_000_000,
        ..ReliableConfig::default()
    };
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        host.enable_reliability(rcfg);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep: Deployment = deploy_opts(
        &program,
        apps,
        DeployOptions {
            link_spec: link,
            ..Default::default()
        },
    )
    .expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let mut completion = 0;
    let mut retransmits = 0;
    for w in 1..=nworkers as u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker");
        completion = completion.max(host.done_at.expect("completed under NCP-R"));
        retransmits += host
            .sender_stats()
            .expect("reliability enabled")
            .retransmits;
    }
    ReliableResult {
        completion,
        bytes_on_wire: dep.net.stats().bytes_sent,
        payload_bytes: (nworkers * elements * 4) as u64,
        retransmits,
        switch_dups: dep.net.switch_dup_suppressed(s1),
    }
}

/// Results of one KVS run (E2).
#[derive(Clone, Copy, Debug)]
pub struct KvsResult {
    /// Mean GET latency, ns.
    pub mean_latency: f64,
    /// p99 GET latency, ns.
    pub p99_latency: u64,
    /// Operations the server handled.
    pub server_ops: u64,
    /// Cache hit rate over GETs.
    pub hit_rate: f64,
    /// GETs completed.
    pub gets: usize,
}

/// A Zipf(s) sampler over `1..=n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) + 1) as u64
    }
}

/// Runs the KVS workload (E2). `cache_slots = 0` disables the cache
/// (server-only baseline).
pub fn run_kvs(
    nclients: usize,
    ops_per_client: usize,
    skew: f64,
    keyspace: u64,
    cache_slots: usize,
    val_words: usize,
) -> KvsResult {
    run_kvs_on(
        nclients,
        ops_per_client,
        skew,
        keyspace,
        cache_slots,
        val_words,
        SwitchBackend::Pisa,
    )
    .0
}

/// [`run_kvs`] on an explicit switch engine, also returning the host
/// wall-clock of the simulation in milliseconds (the E13 end-to-end
/// comparison across execution tiers).
#[allow(clippy::too_many_arguments)]
pub fn run_kvs_on(
    nclients: usize,
    ops_per_client: usize,
    skew: f64,
    keyspace: u64,
    cache_slots: usize,
    val_words: usize,
    backend: SwitchBackend,
) -> (KvsResult, f64) {
    let with_cache = cache_slots > 0;
    let slots = cache_slots.max(8);
    let server_id = (nclients + 1) as u16;
    let src = kvs_source(server_id, slots, val_words);
    let and = format!(
        "hosts client {nclients}\nswitch s1\nhost server\nlink client* s1\nlink server s1\n"
    );
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, val_words as u16, 1]);
    let program = compile(&src, &and, &cfg).expect("kvs compiles");
    let kernel = program.kernel_ids["query"];
    let control = with_cache.then(|| ControlPlane::new(program.switch("s1").unwrap()));

    let zipf = Zipf::new(keyspace, skew);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for c in 1..=nclients as u16 {
        let mut rng = StdRng::seed_from_u64(c as u64 * 6271);
        let schedule: Vec<KvsOp> = (0..ops_per_client)
            .map(|i| KvsOp {
                at: (i as u64) * 150_000 + c as u64 * 900,
                key: zipf.sample(&mut rng),
                put: rng.gen::<f64>() < 0.02,
            })
            .collect();
        apps.insert(
            format!("client{c}"),
            Box::new(KvsClient::new(
                NodeId::Host(HostId(server_id)),
                HostId(server_id),
                kernel,
                val_words,
                schedule,
            )),
        );
    }
    let mut server = KvsServer::new(kernel, val_words, None, control, slots);
    for k in 1..=keyspace {
        server.store.insert(k, KvsClient::value_for(k, val_words));
    }
    apps.insert("server".into(), Box::new(server));
    let mut stripped = program.clone();
    if !with_cache {
        stripped.switches.clear();
    }
    let mut dep = deploy_opts(
        &stripped,
        apps,
        DeployOptions {
            backend,
            ..Default::default()
        },
    )
    .expect("deploys");
    if with_cache {
        let s1 = dep.switch("s1");
        dep.net
            .host_app_mut::<KvsServer>(HostId(server_id))
            .expect("server")
            .cache_switch = Some(s1);
    }
    let t = std::time::Instant::now();
    dep.net.run();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut lat = Vec::new();
    let mut hits = 0usize;
    for c in 1..=nclients as u16 {
        let client = dep.net.host_app::<KvsClient>(HostId(c)).expect("client");
        assert_eq!(client.corrupt, 0, "corrupt GET responses");
        for s in &client.samples {
            if !s.put {
                lat.push(s.latency);
                if s.from_cache {
                    hits += 1;
                }
            }
        }
    }
    lat.sort_unstable();
    let gets = lat.len();
    (
        KvsResult {
            mean_latency: lat.iter().sum::<u64>() as f64 / gets.max(1) as f64,
            p99_latency: lat
                .get(gets.saturating_sub(1) * 99 / 100)
                .copied()
                .unwrap_or(0),
            server_ops: dep
                .net
                .host_app::<KvsServer>(HostId(server_id))
                .expect("server")
                .served,
            hit_rate: hits as f64 / gets.max(1) as f64,
            gets,
        },
        wall_ms,
    )
}

/// Pretty table separator for bench output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Results of one telemetry-enabled AllReduce run (E11).
#[derive(Clone, Debug)]
pub struct TelemetryResult {
    /// Completion time (max across workers), ns.
    pub completion: Time,
    /// Bytes offered to links in total (incl. hop-record sections).
    pub bytes_on_wire: u64,
    /// Window traces assembled across all workers.
    pub traces: u64,
    /// Hop records across all traces.
    pub hop_records: u64,
    /// The run's metrics registries rendered as JSON (the CI artifact):
    /// the simulator registry plus worker 1's host registry.
    pub metrics_json: String,
}

/// Runs the Fig. 4 AllReduce with in-band window telemetry enabled
/// (E11): every worker flags `sampling` of its outgoing windows, the
/// switch stamps a 32-byte hop record on each, and receivers assemble
/// the traces. Identical deployment shape to [`run_allreduce_inc`], so
/// the completion-time delta between the two *is* the telemetry cost.
pub fn run_allreduce_telemetry(
    nworkers: usize,
    elements: usize,
    win: usize,
    sampling: f64,
    model: &pisa::ResourceModel,
) -> TelemetryResult {
    let src = allreduce_source(elements, win);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = *model;
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        host.enable_telemetry(sampling, 65_536);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep: Deployment = deploy_opts(
        &program,
        apps,
        DeployOptions {
            model: *model,
            ..Default::default()
        },
    )
    .expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let completion = (1..=nworkers as u16)
        .map(|w| {
            dep.net
                .host_app::<NclHost>(HostId(w))
                .expect("worker")
                .done_at
                .expect("completed")
        })
        .max()
        .expect("workers exist");
    let mut traces = 0u64;
    let mut hop_records = 0u64;
    let mut worker1_json = String::from("{}");
    for w in 1..=nworkers as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        if w == 1 {
            worker1_json = host.metrics().render_json();
        }
        for t in host.take_traces() {
            traces += 1;
            hop_records += t.hops.len() as u64;
        }
    }
    let metrics_json = format!(
        "{{\"sim\":{},\"worker1\":{}}}",
        dep.net.metrics().render_json(),
        worker1_json
    );
    TelemetryResult {
        completion,
        bytes_on_wire: dep.net.stats().bytes_sent,
        traces,
        hop_records,
        metrics_json,
    }
}

/// Results of one scoped (ncscope-recording) reliable AllReduce run.
#[derive(Clone, Debug)]
pub struct ScopedResult {
    /// Completion time (max across workers that completed), ns; 0 when
    /// no worker completed (e.g. a dead link made every sender give
    /// up).
    pub completion: Time,
    /// Result payload bytes delivered to hosts (goodput numerator).
    pub payload_bytes: u64,
    /// Windows retransmitted across workers.
    pub retransmits: u64,
    /// Windows abandoned across workers.
    pub abandoned: u64,
    /// Scope events emitted over the run (0 with recording off).
    pub events_logged: u64,
    /// Receiver-assembled window traces across workers.
    pub traces: Vec<nctel::WindowTrace>,
}

/// Runs the Fig. 4 AllReduce with NCP-R *and* optionally the ncscope
/// event log attached to every layer (E12 / the ncscope overhead
/// gate). `scope = None` is the recording-off baseline — identical
/// deployment, zero event emission. `link_overrides` is the
/// fault-injection knob: per-link specs by AND label pair (e.g. kill
/// exactly `worker1 <-> s1` and let the diagnosis engine name it).
#[allow(clippy::too_many_arguments)]
pub fn run_allreduce_scoped(
    nworkers: usize,
    elements: usize,
    win: usize,
    link: LinkSpec,
    link_overrides: Vec<(String, String, LinkSpec)>,
    sampling: f64,
    scope: Option<&nctel::Scope>,
    model: &pisa::ResourceModel,
) -> ScopedResult {
    use ncl_core::deploy::{deploy_opts, DeployOptions};
    use ncl_core::nclc::ReplayFilter;
    use ncp::ReliableConfig;
    let slots = elements / win;
    let src = allreduce_source(elements, win);
    let and = format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = *model;
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: nworkers as u16,
            slots: slots as u16,
        },
    );
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    let rcfg = ReliableConfig {
        filter_slots: slots,
        cwnd: 64,
        max_cwnd: 256,
        rto: 500_000,
        max_rto: 8_000_000,
        ..ReliableConfig::default()
    };
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % nworkers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        host.enable_reliability(rcfg);
        if sampling > 0.0 {
            host.enable_telemetry(sampling, 65_536);
        }
        if let Some(scope) = scope {
            host.enable_scope(scope);
        }
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let opts = DeployOptions {
        link_spec: link,
        link_overrides,
        scope: scope.cloned(),
        model: *model,
        ..DeployOptions::default()
    };
    let mut dep: Deployment = deploy_opts(&program, apps, opts).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let mut completion = 0;
    let mut retransmits = 0;
    let mut abandoned = 0;
    let mut traces = Vec::new();
    for w in 1..=nworkers as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        completion = completion.max(host.done_at.unwrap_or(0));
        let stats = host.sender_stats().expect("reliability enabled");
        retransmits += stats.retransmits;
        abandoned += stats.abandoned;
        traces.extend(host.take_traces());
    }
    ScopedResult {
        completion,
        payload_bytes: (nworkers * elements * 4) as u64,
        retransmits,
        abandoned,
        events_logged: scope.map(|s| s.logged()).unwrap_or(0),
        traces,
    }
}
