//! The netsim-hosted workloads: allreduce (Fig. 4) in four shapes and
//! the Zipf KVS (Fig. 5).
//!
//! A *job* is what a caller submits and waits for: build fresh host
//! applications, deploy them with the compiled program onto a simulated
//! fabric, run the simulation to quiescence, check every result against
//! the answer the benchmark computed itself. Jobs run one at a time.

use crate::compile::{chip, compile_program, staged, StageTimes};
use crate::inputs::{allreduce_input, kvs_schedules, ArInput, Zipf};
use crate::trace::{Tap, TimedHost, Tracer};
use ncl::core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl::core::deploy::{deploy_opts, DeployOptions, Deployment, SwitchBackend};
use ncl::core::nclc::{CompileConfig, CompiledProgram, ReplayFilter};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::core::ControlPlane;
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::codec::decode_window;
use ncl::ncp::ReliableConfig;
use ncl::nctel::Scope;
use ncl::netsim::{HostApp, LinkSpec};
use rand::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Allreduce workers per job.
pub const WORKERS: usize = 4;
/// Input sets generated per run; jobs cycle through them.
const INPUT_POOL: usize = 4;

/// The NCP-R transport tuned to the simulated fabric (µs-scale links),
/// as E10 runs it.
pub fn reliable_cfg() -> ReliableConfig {
    ReliableConfig {
        cwnd: 64,
        max_cwnd: 256,
        rto: 500_000,
        max_rto: 8_000_000,
        ..ReliableConfig::default()
    }
}

/// The `ar_w64_storm` fault mix, applied to every link.
pub fn storm_link() -> LinkSpec {
    LinkSpec {
        loss: 0.02,
        dup_every: 50,
        jitter_every: 7,
        jitter: 20_000,
        ..LinkSpec::default()
    }
}

/// Wall time of one job's phases, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTimes {
    /// Building the host applications.
    pub build_ns: u64,
    /// `deploy_opts` plus control-plane writes.
    pub deploy_ns: u64,
    /// `net.run()`.
    pub run_ns: u64,
    /// Checking the results.
    pub check_ns: u64,
    /// The whole job, checking included.
    pub job_ns: u64,
}

/// What one job did, read back after the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobFacts {
    /// Host-injected windows.
    pub attempted: u64,
    /// Windows whose result was wrong or never arrived.
    pub failed: u64,
    /// Simulated time until the last host was done, ns.
    pub sim_completion_ns: u64,
    /// `sim.bytes_sent`.
    pub wire_bytes: u64,
    /// Payload bytes the applications asked to have delivered.
    pub useful_bytes: u64,
    /// `sim.events`.
    pub events: u64,
    /// `sim.link_drops`.
    pub link_drops: u64,
    /// Windows that executed a kernel at the switch.
    pub switch_windows: u64,
    /// NCP-R retransmissions over all hosts.
    pub retransmits: u64,
    /// Duplicates suppressed at host edges and by the switch filter.
    pub dups_suppressed: u64,
    /// Windows NCP-R gave up on.
    pub abandoned: u64,
    /// ncscope events logged / lost to ring wrap.
    pub scope_logged: u64,
    /// ncscope events lost to ring wrap.
    pub scope_dropped: u64,
    /// Window traces assembled from hop records.
    pub traces: u64,
    /// KVS cache evictions (the workload is shaped to have none).
    pub cache_evictions: u64,
    /// Host callbacks made by the simulator (traced runs only).
    pub host_calls: u64,
    /// Wall time inside host callbacks, ns (traced runs only).
    pub host_busy_ns: u64,
}

/// One finished job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Job {
    /// Phase times.
    pub times: JobTimes,
    /// Counts and simulated-time facts.
    pub facts: JobFacts,
}

/// How a job is observed.
#[derive(Clone)]
pub struct Observe {
    /// Job-level spans always land here.
    pub tracer: Rc<Tracer>,
    /// Time every host callback too (the traced run).
    pub time_hosts: bool,
}

impl Observe {
    fn host_tracer(&self) -> Option<Rc<Tracer>> {
        self.time_hosts.then(|| self.tracer.clone())
    }
}

/// A netsim workload after set-up: compiled, inputs generated.
pub trait Fabric {
    /// Runs job number `j`.
    fn run_job(&self, j: usize, obs: &Observe) -> Job;
    /// The compiled program (for the standalone layer replays).
    fn program(&self) -> &CompiledProgram;
    /// Stage-by-stage compile times of this workload's program.
    fn compile_stages(&self) -> StageTimes;
}

/// Runs the common job skeleton under spans: build, deploy, run, check.
fn job_skeleton(
    obs: &Observe,
    build: impl FnOnce() -> HashMap<String, Box<dyn HostApp>>,
    deploy: impl FnOnce(HashMap<String, Box<dyn HostApp>>) -> Deployment,
    check: impl FnOnce(&mut Deployment, &mut JobFacts),
) -> Job {
    let t = &obs.tracer;
    t.begin_job();
    let mut times = JobTimes::default();
    let mut facts = JobFacts::default();
    let ((), job_ns) = t.span("bench", "job", || {
        let (apps, build_ns) = t.span("core.runtime", "host_build", build);
        let (mut dep, deploy_ns) = t.span("core.deploy", "deploy", || deploy(apps));
        let (_, run_ns) = t.span("netsim", "run", || dep.net.run());
        times.build_ns = build_ns;
        times.deploy_ns = deploy_ns;
        times.run_ns = run_ns;
        let ((), check_ns) = t.span("bench", "check", || {
            let s = dep.net.stats();
            facts.wire_bytes = s.bytes_sent;
            facts.events = s.events;
            facts.link_drops = s.link_drops;
            check(&mut dep, &mut facts);
        });
        times.check_ns = check_ns;
    });
    times.job_ns = job_ns;
    (facts.host_busy_ns, facts.host_calls) = t.host_totals();
    Job { times, facts }
}

/// Shape of one allreduce workload.
#[derive(Clone, Copy, Debug)]
pub struct ArShape {
    /// `i32` elements per worker.
    pub elements: usize,
    /// Elements per window.
    pub win: usize,
    /// NCP-R on: replay filter compiled in, `enable_reliability` on
    /// every worker.
    pub reliable: bool,
    /// Lossy, duplicating, reordering links with full recording on.
    pub storm: bool,
}

/// A compiled allreduce workload with its generated inputs.
pub struct ArFabric {
    shape: ArShape,
    src: String,
    cfg: CompileConfig,
    program: CompiledProgram,
    inputs: Vec<ArInput>,
    /// Record hop records and ncscope events (storm only). The traced
    /// run turns this off for some jobs to price the recording.
    pub recording: Cell<bool>,
}

const AR_AND: &str = "hosts worker 4\nswitch s1\nlink worker* s1\n";

impl ArFabric {
    /// Compiles the program and generates the input pool.
    pub fn set_up(shape: ArShape, rng: &mut StdRng) -> ArFabric {
        let src = allreduce_source(shape.elements, shape.win);
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("allreduce".into(), vec![shape.win as u16]);
        cfg.masks.insert("result".into(), vec![shape.win as u16]);
        cfg.model = chip();
        if shape.reliable {
            cfg.replay_filters.insert(
                "allreduce".into(),
                ReplayFilter {
                    senders: WORKERS as u16,
                    slots: (shape.elements / shape.win) as u16,
                },
            );
        }
        let program = compile_program(&src, AR_AND, &cfg);
        let inputs = (0..INPUT_POOL)
            .map(|_| allreduce_input(rng, WORKERS, shape.elements))
            .collect();
        ArFabric {
            shape,
            src,
            cfg,
            program,
            inputs,
            recording: Cell::new(shape.storm),
        }
    }

    /// Windows each worker injects per job.
    pub fn windows_per_worker(&self) -> usize {
        self.shape.elements / self.shape.win
    }

    /// The NCP-R configuration the workers run: the fabric tuning
    /// with the replay filter sized to the job.
    pub fn reliable_cfg(&self) -> ReliableConfig {
        ReliableConfig {
            filter_slots: self.windows_per_worker(),
            ..reliable_cfg()
        }
    }

    /// The workload's shape.
    pub fn shape(&self) -> ArShape {
        self.shape
    }

    /// The input set job `j` uses.
    pub fn input(&self, j: usize) -> &ArInput {
        &self.inputs[j % self.inputs.len()]
    }

    fn build(
        &self,
        input: &ArInput,
        obs: &Observe,
        scope: Option<&Scope>,
    ) -> HashMap<String, Box<dyn HostApp>> {
        let kid = self.program.kernel_ids["allreduce"];
        let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        for w in 1..=WORKERS as u16 {
            let mut host = NclHost::new(&self.program);
            host.out(OutInvocation {
                kernel: "allreduce".into(),
                arrays: vec![TypedArray::from_i32(&input.data[w as usize - 1])],
                dest: NodeId::Host(HostId(w % WORKERS as u16 + 1)),
                start: 0,
                gap: 0,
            })
            .expect("arrays match the compiled window spec");
            host.bind_incoming(
                &self.program,
                "allreduce",
                "result",
                &[
                    (ScalarType::I32, self.shape.elements),
                    (ScalarType::Bool, 1),
                ],
            )
            .expect("result is paired with allreduce");
            host.done_on_flag(kid, 1);
            if self.shape.reliable {
                host.enable_reliability(self.reliable_cfg());
            }
            if let Some(scope) = scope {
                host.enable_telemetry(1.0, 4096);
                host.enable_scope(scope);
            }
            apps.insert(
                format!("worker{w}"),
                TimedHost::boxed(host, obs.host_tracer(), None),
            );
        }
        apps
    }

    fn deploy(&self, apps: HashMap<String, Box<dyn HostApp>>, scope: Option<&Scope>) -> Deployment {
        let mut dep = deploy_opts(
            &self.program,
            apps,
            DeployOptions {
                link_spec: if self.shape.storm {
                    storm_link()
                } else {
                    LinkSpec::default()
                },
                backend: SwitchBackend::Simd,
                model: chip(),
                scope: scope.cloned(),
                ..DeployOptions::default()
            },
        )
        .expect("the benchmark program deploys");
        let cp = ControlPlane::new(self.program.switch("s1").expect("s1 is compiled"));
        let s1 = dep.switch("s1");
        let fp = dep.net.switch_fastpath_mut(s1).expect("software switch");
        for op in cp.ctrl_wr_ops("nworkers", Value::u32(WORKERS as u32)) {
            assert!(fp.ctrl(&op), "nworkers write lands");
        }
        dep
    }

    fn check(
        &self,
        input: &ArInput,
        dep: &mut Deployment,
        scope: Option<&Scope>,
        facts: &mut JobFacts,
    ) {
        let kid = self.program.kernel_ids["allreduce"];
        let nwin = self.windows_per_worker();
        let s1 = dep.switch("s1");
        facts.attempted = (WORKERS * nwin) as u64;
        facts.useful_bytes = (WORKERS * self.shape.elements * 4) as u64;
        facts.switch_windows = dep.net.switch_stats(s1).map_or(0, |s| s.ncp_processed);
        facts.dups_suppressed = dep.net.switch_dup_suppressed(s1);
        for w in 1..=WORKERS as u16 {
            let host = dep
                .net
                .host_app_mut::<NclHost>(HostId(w))
                .expect("every worker is an NclHost");
            let hdata: Vec<i32> = host
                .memory(kid)
                .map(|m| m.arrays[0].iter().map(|v| v.bits() as i32).collect())
                .unwrap_or_default();
            // `done_at` is set once the done flag arrived and, under
            // NCP-R, every tracked window was retired. A window added
            // twice or never shows in the sums: inputs span all of i32.
            let completed = host.done_at.is_some();
            facts.failed += failed_windows(&input.expected, &hdata, self.shape.win, completed);
            facts.sim_completion_ns = facts
                .sim_completion_ns
                .max(host.done_at.unwrap_or(u64::MAX));
            if let Some(s) = host.sender_stats() {
                facts.retransmits += s.retransmits;
                facts.abandoned += s.abandoned;
            }
            if let Some(r) = host.receiver_stats() {
                facts.dups_suppressed += r.duplicates;
            }
            facts.traces += host.take_traces().len() as u64;
        }
        if let Some(scope) = scope {
            facts.scope_logged = scope.logged();
            facts.scope_dropped = scope.dropped();
        }
    }
}

/// Windows of one worker whose delivered result differs from the
/// benchmark's own sum. A worker that never completed fails all of
/// them.
pub fn failed_windows(expected: &[i32], got: &[i32], win: usize, completed: bool) -> u64 {
    let nwin = expected.len() / win;
    if !completed || got.len() != expected.len() {
        return nwin as u64;
    }
    expected
        .chunks(win)
        .zip(got.chunks(win))
        .filter(|(e, g)| e != g)
        .count() as u64
}

impl Fabric for ArFabric {
    fn run_job(&self, j: usize, obs: &Observe) -> Job {
        let input = self.input(j);
        let scope = self.recording.get().then(|| Scope::new(65_536));
        job_skeleton(
            obs,
            || self.build(input, obs, scope.as_ref()),
            |apps| self.deploy(apps, scope.as_ref()),
            |dep, facts| self.check(input, dep, scope.as_ref(), facts),
        )
    }

    fn program(&self) -> &CompiledProgram {
        &self.program
    }

    fn compile_stages(&self) -> StageTimes {
        staged(&self.src, AR_AND, &self.cfg)
    }
}

/// KVS clients per job.
pub const KVS_CLIENTS: usize = 4;
/// Operations per client per job.
pub const KVS_OPS: usize = 5_000;
/// Distinct keys.
pub const KVS_KEYS: u64 = 10_000;
/// Switch cache slots.
pub const KVS_SLOTS: usize = 64;
/// 32-bit words per value.
pub const KVS_WORDS: usize = 8;
/// Server-side GETs before a key is cached. At Zipf(1.1) over 10,000
/// keys and 20,000 operations about 45 keys get this hot, so the
/// 64-slot cache fills with the hot set and never evicts: an eviction
/// reassigns a slot while its `Valid` bit still vouches for the old
/// key's value, and a GET in that gap returns the wrong value — the
/// second KVS race this benchmark steers clear of (see `kvs_schedules`
/// for the first).
pub const KVS_HOT_THRESHOLD: u32 = 48;
const KVS_SERVER: u16 = KVS_CLIENTS as u16 + 1;
const KVS_AND: &str = "hosts client 4\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";

/// The value the benchmark stores under `key` and therefore expects
/// every GET of `key` to return.
pub fn kvs_value(key: u64, words: usize) -> Vec<u32> {
    (0..words as u64)
        .map(|i| key.wrapping_mul(2_654_435_761).wrapping_add(i) as u32)
        .collect()
}

/// A compiled KVS workload with its generated schedules.
pub struct KvsFabric {
    src: String,
    cfg: CompileConfig,
    program: CompiledProgram,
    /// `schedules[pool][client]`.
    schedules: Vec<Vec<Vec<KvsOp>>>,
}

impl KvsFabric {
    /// Compiles the program and draws the schedule pool.
    pub fn set_up(rng: &mut StdRng) -> KvsFabric {
        let src = kvs_source(KVS_SERVER, KVS_SLOTS, KVS_WORDS);
        let mut cfg = CompileConfig::default();
        cfg.masks
            .insert("query".into(), vec![1, KVS_WORDS as u16, 1]);
        cfg.model = chip();
        let program = compile_program(&src, KVS_AND, &cfg);
        let zipf = Zipf::new(KVS_KEYS, 1.1);
        let schedules = (0..INPUT_POOL)
            .map(|_| kvs_schedules(rng, &zipf, KVS_CLIENTS, KVS_OPS, 0.02))
            .collect();
        KvsFabric {
            src,
            cfg,
            program,
            schedules,
        }
    }

    /// The per-client schedules job `j` uses.
    pub fn schedules(&self, j: usize) -> &[Vec<KvsOp>] {
        &self.schedules[j % self.schedules.len()]
    }

    /// The server's wire id.
    pub fn server_id(&self) -> u16 {
        KVS_SERVER
    }
}

/// Operations of one client left without a correct response: each
/// schedule entry needs a reply carrying its key and the stored value.
pub fn failed_kvs_ops(schedule: &[KvsOp], received: &[Vec<u8>]) -> u64 {
    let mut ok = vec![false; schedule.len()];
    for payload in received {
        let Ok(w) = decode_window(payload) else {
            continue;
        };
        let Some(op) = schedule.get(w.seq as usize) else {
            continue;
        };
        if w.chunks.len() != 3 || w.chunks[1].data.len() != KVS_WORDS * 4 {
            continue;
        }
        let key = w.chunks[0].get(ScalarType::U64, 0).bits();
        let value: Vec<u32> = (0..KVS_WORDS)
            .map(|i| w.chunks[1].get(ScalarType::U32, i).bits() as u32)
            .collect();
        if key == op.key && value == kvs_value(op.key, KVS_WORDS) {
            ok[w.seq as usize] = true;
        }
    }
    ok.iter().filter(|&&b| !b).count() as u64
}

impl Fabric for KvsFabric {
    fn run_job(&self, j: usize, obs: &Observe) -> Job {
        let schedules = self.schedules(j);
        let kernel = self.program.kernel_ids["query"];
        let taps: Vec<Tap> = (0..KVS_CLIENTS)
            .map(|_| Rc::new(RefCell::new(Vec::with_capacity(KVS_OPS))))
            .collect();
        let build = || {
            let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
            for c in 1..=KVS_CLIENTS as u16 {
                let mut client = KvsClient::new(
                    NodeId::Host(HostId(KVS_SERVER)),
                    HostId(KVS_SERVER),
                    kernel,
                    KVS_WORDS,
                    schedules[c as usize - 1].clone(),
                );
                client.enable_retransmit(reliable_cfg());
                apps.insert(
                    format!("client{c}"),
                    TimedHost::boxed(
                        client,
                        obs.host_tracer(),
                        Some(taps[c as usize - 1].clone()),
                    ),
                );
            }
            let control = ControlPlane::new(self.program.switch("s1").expect("s1 is compiled"));
            let mut server = KvsServer::new(kernel, KVS_WORDS, None, Some(control), KVS_SLOTS);
            server.hot_threshold = KVS_HOT_THRESHOLD;
            for k in 1..=KVS_KEYS {
                server.store.insert(k, kvs_value(k, KVS_WORDS));
            }
            apps.insert(
                "server".into(),
                TimedHost::boxed(server, obs.host_tracer(), None),
            );
            apps
        };
        let deploy = |apps| {
            let mut dep = deploy_opts(
                &self.program,
                apps,
                DeployOptions {
                    backend: SwitchBackend::Simd,
                    model: chip(),
                    ..DeployOptions::default()
                },
            )
            .expect("the benchmark program deploys");
            let s1 = dep.switch("s1");
            dep.net
                .host_app_mut::<KvsServer>(HostId(KVS_SERVER))
                .expect("server app")
                .cache_switch = Some(s1);
            dep
        };
        let check = |dep: &mut Deployment, facts: &mut JobFacts| {
            let s1 = dep.switch("s1");
            facts.attempted = (KVS_CLIENTS * KVS_OPS) as u64;
            facts.useful_bytes = facts.attempted * (8 + KVS_WORDS as u64 * 4 + 1);
            facts.switch_windows = dep.net.switch_stats(s1).map_or(0, |s| s.ncp_processed);
            facts.sim_completion_ns = dep.net.now();
            facts.cache_evictions = dep
                .net
                .host_app::<KvsServer>(HostId(KVS_SERVER))
                .map_or(0, |s| s.evictions);
            for c in 1..=KVS_CLIENTS as u16 {
                let client = dep
                    .net
                    .host_app::<KvsClient>(HostId(c))
                    .expect("every client is a KvsClient");
                let schedule = &schedules[c as usize - 1];
                let exactly_once = client.samples.len() == schedule.len()
                    && client.outstanding() == 0
                    && client.corrupt == 0;
                facts.failed += if exactly_once {
                    failed_kvs_ops(schedule, &taps[c as usize - 1].borrow())
                } else {
                    schedule.len() as u64
                };
                facts.retransmits += client.retransmits();
            }
        };
        job_skeleton(obs, build, deploy, check)
    }

    fn program(&self) -> &CompiledProgram {
        &self.program
    }

    fn compile_stages(&self) -> StageTimes {
        staged(&self.src, KVS_AND, &self.cfg)
    }
}
