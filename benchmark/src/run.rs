//! One measured run of one workload: set-up, the timed phase, the
//! metrics. With tracing off the run produces the end-to-end metrics;
//! the traced run produces the per-layer metrics from host-callback
//! timing and the standalone replays in [`crate::layers`].

use crate::alloc::peak_rss_mb;
use crate::compile::StageTimes;
use crate::fabric::{ArFabric, ArShape, Fabric, Job, KvsFabric, Observe};
use crate::gate::{failed_verdicts, Gate, PassTimes, VERDICTS_PER_PASS};
use crate::layers::{
    hop_costs, host_send_costs, netsim_costs, recording_costs, reliable_costs, tier_costs,
    HopCosts, SwitchStream,
};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, undisturbed};
use crate::trace::{chrome_trace, Span, Tracer};
use crate::udp::{socket_costs, RttRing, UdpFabric, UdpSetup, Until, CHUNK_OPS, SLOTS};
use ncl::core::runtime::TypedArray;
use ncl::core::FastPathSwitch;
use ncl::ir::lint::lint_module;
use ncl::model::ScalarType;
use ncl::netsim::LinkSpec;
use rand::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Smoke size: one set-up, one warm-up job.
    pub smoke: bool,
}

/// What a run found.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind the figures (jobs, passes or ops).
    pub samples: u64,
}

impl RunResult {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Set-ups per plain run; `setup_s` is the undisturbed one's time.
const SETUPS: usize = 3;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn budget(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// Runs `set_up` [`SETUPS`] times (once for smoke and traced runs),
/// keeps the last result and returns it with the set-up time.
fn repeated_set_up<T>(times: usize, mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut durations = Vec::new();
    let mut last = None;
    for _ in 0..times {
        // Drop the previous set-up first, so two are never alive at
        // once and peak RSS stays that of one.
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up());
        durations.push(secs(t.elapsed()));
    }
    (last.expect("at least one set-up"), undisturbed(&durations))
}

/// Median of a count over jobs.
fn med(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

/// Undisturbed value of a timing over jobs.
fn quiet(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    undisturbed(&jobs.iter().map(f).collect::<Vec<_>>())
}

fn run_jobs(fabric: &dyn Fabric, obs: &Observe, first: usize, span: Duration) -> Vec<Job> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || start.elapsed() < span {
        jobs.push(fabric.run_job(first + jobs.len(), obs));
    }
    jobs
}

/// Runs the `variants` of a job in turn, round after round, until
/// `span` is spent, and returns each variant's jobs. Taking turns
/// spreads any drift of the host over all variants alike, so their
/// timings can be subtracted.
fn run_in_turns(span: Duration, mut variants: Vec<&mut dyn FnMut(usize) -> Job>) -> Vec<Vec<Job>> {
    let start = Instant::now();
    let mut jobs = vec![Vec::new(); variants.len()];
    let mut round = 0;
    while round == 0 || start.elapsed() < span {
        for (v, out) in variants.iter_mut().zip(&mut jobs) {
            out.push(v(round));
        }
        round += 1;
    }
    jobs
}

fn end_to_end(r: &mut RunResult, setup_s: f64, ops_per_s: f64, deploy_ms: f64, job_ms: f64) {
    let ok = 1.0 - r.failed as f64 / r.attempted.max(1) as f64;
    let values = [
        setup_s,
        ops_per_s,
        deploy_ms,
        job_ms,
        peak_rss_mb().unwrap_or(0.0),
        ok,
    ];
    for (m, v) in END_TO_END.iter().zip(values) {
        r.put(m.name, v);
    }
}

fn zero_layers(r: &mut RunResult) {
    for m in &PER_LAYER {
        r.put(m.name, 0.0);
    }
}

fn put_stages(r: &mut RunResult, st: &StageTimes) {
    r.put("ncl-lang.frontend_ms", st.frontend_ms);
    r.put("ncl-ir.lower_ms", st.lower_ms);
    r.put("ncl-ir.optimize_ms", st.optimize_ms);
    r.put("ncl-ir.lint_ms", st.lint_ms);
    r.put("ncl-p4.estimate_ms", st.estimate_ms);
    r.put("ncl-p4.backend_ms", st.backend_ms);
    r.put("ncl-ir.uops_per_kernel", st.uops / st.kernels.max(1.0));
    r.put("ncl-p4.p4_lines", st.p4_lines);
}

fn put_hop(r: &mut RunResult, h: &HopCosts) {
    r.put("core.fastpath.process_ns_per_window", h.process_ns);
    r.put("ncp.codec.decode_ns_per_window", h.decode_ns);
    r.put("ncl-ir.exec.kernel_ns_per_window", h.kernel_ns);
    r.put("ncp.codec.encode_ns_per_window", h.encode_ns);
    r.put("core.fastpath.glue_ns_per_window", h.glue_ns);
    r.put("core.fastpath.allocs_per_window", h.allocs);
    r.put("core.fastpath.alloc_bytes_per_window", h.alloc_bytes);
}

/// Undisturbed one of five timings of `f`, ms.
fn timed_ms(mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t.elapsed()) * 1e3
        })
        .collect();
    undisturbed(&v)
}

/// The two deploy-time steps that can be called standalone: the lint
/// re-gate and the fast-path build. Returns `(lint ms, build ms)`.
fn deploy_parts(program: &ncl::core::nclc::CompiledProgram) -> (f64, f64) {
    let module = program.module("s1").expect("s1 has a module");
    let lint = timed_ms(|| drop(lint_module(module, &program.lint_config)));
    let build = timed_ms(|| drop(FastPathSwitch::from_program_with(program, "s1", true)));
    (lint, build)
}

fn write_trace(workload: &str, spans: &[Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let path = format!("{dir}/trace-{workload}.json");
    // The trace file is a by-product for Perfetto; failing to write it
    // (read-only checkout) must not fail the measurement.
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome_trace(spans)))
    {
        eprintln!("ncbench: cannot write {path}: {e}");
    }
}

enum Netsim {
    Ar(ArFabric),
    Kvs(KvsFabric),
}

impl Netsim {
    fn fabric(&self) -> &dyn Fabric {
        match self {
            Netsim::Ar(f) => f,
            Netsim::Kvs(f) => f,
        }
    }
}

fn netsim_shape(workload: &str) -> Option<(Option<ArShape>, usize)> {
    // (shape, warm-up jobs); `None` shape is the KVS.
    let ar = |elements, win, reliable, storm| {
        Some(ArShape {
            elements,
            win,
            reliable,
            storm,
        })
    };
    Some(match workload {
        "ar_w1024" => (ar(65_536, 1_024, true, false), 2),
        "ar_w64" => (ar(16_384, 64, true, false), 5),
        "ar_w64_raw" => (ar(16_384, 64, false, false), 10),
        "ar_w64_storm" => (ar(16_384, 64, true, true), 5),
        "kvs_zipf" => (None, 3),
        _ => return None,
    })
}

fn run_netsim(args: &RunArgs, shape: Option<ArShape>, warmups: usize) -> RunResult {
    let warmups = if args.smoke { 1 } else { warmups };
    let plain = Observe {
        tracer: Tracer::new(),
        time_hosts: false,
    };
    let set_up = || {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let net = match shape {
            Some(s) => Netsim::Ar(ArFabric::set_up(s, &mut rng)),
            None => Netsim::Kvs(KvsFabric::set_up(&mut rng)),
        };
        for j in 0..warmups {
            net.fabric().run_job(j, &plain);
        }
        net
    };
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };
    let (net, setup_s) = repeated_set_up(setups, set_up);
    let mut r = RunResult::default();

    if !args.trace {
        let jobs = run_jobs(net.fabric(), &plain, warmups, budget(args.seconds, 1.0));
        r.attempted = jobs.iter().map(|j| j.facts.attempted).sum();
        r.failed = jobs.iter().map(|j| j.facts.failed).sum();
        r.samples = jobs.len() as u64;
        let ok_per_job = med(&jobs, |j| (j.facts.attempted - j.facts.failed) as f64);
        end_to_end(
            &mut r,
            setup_s,
            ok_per_job / (quiet(&jobs, |j| ms(j.times.run_ns)) / 1e3),
            quiet(&jobs, |j| ms(j.times.build_ns + j.times.deploy_ns)),
            quiet(&jobs, |j| ms(j.times.job_ns)),
        );
        return r;
    }

    // Traced run. The plain jobs give the untraced job time the tracing
    // overhead is measured against.
    zero_layers(&mut r);
    let traced_obs = Observe {
        tracer: Tracer::new(),
        time_hosts: true,
    };
    let mut run_plain = |j| net.fabric().run_job(warmups + j, &plain);
    let mut run_traced = |j| net.fabric().run_job(warmups + j, &traced_obs);
    // Storm only: the same lossy job with hop records and the ncscope
    // ring off prices the recording.
    let storm = match &net {
        Netsim::Ar(f) if f.shape().storm => Some(f),
        _ => None,
    };
    let mut run_unrecorded = |j| {
        let f = storm.expect("only scheduled for the storm");
        f.recording.set(false);
        let job = f.run_job(warmups + j, &plain);
        f.recording.set(true);
        job
    };
    let mut variants: Vec<&mut dyn FnMut(usize) -> Job> = vec![&mut run_plain, &mut run_traced];
    if storm.is_some() {
        variants.push(&mut run_unrecorded);
    }
    let mut turns = run_in_turns(budget(args.seconds, 0.5), variants).into_iter();
    let (untraced, jobs) = (turns.next().expect("plain"), turns.next().expect("traced"));
    let plain_ms = quiet(&untraced, |j| ms(j.times.job_ns));
    r.attempted = jobs.iter().map(|j| j.facts.attempted).sum();
    r.failed = jobs.iter().map(|j| j.facts.failed).sum();
    r.samples = jobs.len() as u64;
    write_trace(&args.workload, &traced_obs.tracer.spans());

    let fabric = net.fabric();
    let program = fabric.program();
    put_stages(&mut r, &fabric.compile_stages());

    let (lint_ms, build_ms) = deploy_parts(program);
    let deploy_ms = quiet(&jobs, |j| ms(j.times.deploy_ns));
    r.put(
        "core.runtime.host_build_ms",
        quiet(&jobs, |j| ms(j.times.build_ns)),
    );
    r.put("core.deploy.lint_regate_ms", lint_ms);
    r.put("core.fastpath.build_ms", build_ms);
    r.put(
        "core.deploy.other_ms",
        (deploy_ms - lint_ms - build_ms).max(0.0),
    );

    let (stream, arrays, kernel, reliable, link, with_tiers) = match &net {
        Netsim::Ar(f) => {
            let s = f.shape();
            (
                SwitchStream::allreduce(f, 0),
                vec![TypedArray::from_i32(&f.input(0).data[0])],
                "allreduce",
                s.reliable
                    .then(|| (f.reliable_cfg(), f.windows_per_worker() as u32)),
                if s.storm {
                    crate::fabric::storm_link()
                } else {
                    LinkSpec::default()
                },
                s.win == 1_024,
            )
        }
        Netsim::Kvs(f) => {
            let ops = &f.schedules(0)[0];
            let keys: Vec<u64> = ops.iter().map(|o| o.key).collect();
            let vals = vec![0u32; ops.len() * crate::fabric::KVS_WORDS];
            let flags = TypedArray {
                elem: ScalarType::Bool,
                bytes: ops.iter().map(|o| u8::from(o.put)).collect(),
            };
            (
                SwitchStream::kvs(f, 0),
                vec![
                    TypedArray::from_u64(&keys),
                    TypedArray::from_u32(&vals),
                    flags,
                ],
                "query",
                Some((crate::fabric::reliable_cfg(), ops.len() as u32)),
                LinkSpec::default(),
                true,
            )
        }
    };
    let hop = hop_costs(program, &stream, budget(args.seconds, 0.16));
    put_hop(&mut r, &hop);
    if with_tiers {
        // The reference tiers are slow; a prefix that still covers
        // whole aggregation rounds keeps their replay in budget.
        let t = tier_costs(program, &stream.prefix(256), budget(args.seconds, 0.09));
        r.put("ncl-ir.interp.kernel_ns_per_window", t.interp_kernel_ns);
        r.put(
            "ncl-ir.exec.scalar_kernel_ns_per_window",
            t.scalar_kernel_ns,
        );
        r.put("pisa.pipeline.process_ns_per_window", t.pisa_process_ns);
    }

    let windows = med(&jobs, |j| j.facts.attempted as f64);
    let host_busy_ms = quiet(&jobs, |j| ms(j.facts.host_busy_ns));
    r.put("core.runtime.host_busy_ms_per_job", host_busy_ms);
    r.put(
        "core.runtime.host_ns_per_window",
        host_busy_ms * 1e6 / windows,
    );
    let (split_ns, encode_ns) =
        host_send_costs(program, kernel, &arrays, budget(args.seconds, 0.04));
    r.put("c3.window.split_ns_per_window", split_ns);
    r.put("ncp.codec.host_encode_ns_per_window", encode_ns);

    // With NCP-R off the machines are never built, so there is nothing
    // to replay and both read 0.
    if let Some((cfg, n)) = reliable {
        let (sender_ns, receiver_ns) = reliable_costs(cfg, n, budget(args.seconds, 0.04));
        r.put("ncp.reliable.sender_ns_per_window", sender_ns);
        // The KVS client runs the sender only (responses are the acks).
        if matches!(net, Netsim::Ar(_)) {
            r.put("ncp.reliable.receiver_ns_per_window", receiver_ns);
        }
    }
    r.put(
        "ncp.reliable.retransmits_per_job",
        med(&jobs, |j| j.facts.retransmits as f64),
    );
    r.put(
        "ncp.reliable.dups_suppressed_per_job",
        med(&jobs, |j| j.facts.dups_suppressed as f64),
    );
    r.put(
        "ncp.reliable.abandoned_per_job",
        med(&jobs, |j| j.facts.abandoned as f64),
    );
    r.put(
        "netsim.link_drops_per_job",
        med(&jobs, |j| j.facts.link_drops as f64),
    );

    let events = med(&jobs, |j| j.facts.events as f64);
    let self_ms = quiet(&jobs, |j| {
        ms(j.times.run_ns)
            - ms(j.facts.host_busy_ns)
            - j.facts.switch_windows as f64 * hop.process_ns / 1e6
    });
    let frame = stream.payloads.first().map_or(64, Vec::len);
    let (queue_ns, link_ns) = netsim_costs(link, frame, budget(args.seconds, 0.04));
    r.put(
        "core.fastpath.switch_ms_per_job",
        med(&jobs, |j| j.facts.switch_windows as f64) * hop.process_ns / 1e6,
    );
    r.put(
        "netsim.run_ms_per_job",
        quiet(&jobs, |j| ms(j.times.run_ns)),
    );
    r.put("netsim.events_per_job", events);
    r.put("netsim.self_ms_per_job", self_ms);
    r.put("netsim.self_ns_per_event", self_ms * 1e6 / events);
    r.put("netsim.event_queue.ns_per_op", queue_ns);
    r.put("netsim.link.transmit_ns_per_packet", link_ns);
    r.put(
        "netsim.sim_completion_us",
        med(&jobs, |j| j.facts.sim_completion_ns as f64 / 1e3),
    );
    r.put(
        "netsim.wire_overhead_ratio",
        med(&jobs, |j| {
            j.facts.wire_bytes as f64 / j.facts.useful_bytes as f64
        }),
    );

    if let Some(unrecorded) = turns.next() {
        let (emit_ns, stamp_ns) = recording_costs(budget(args.seconds, 0.03));
        r.put("nctel.scope.emit_ns_per_event", emit_ns);
        r.put("nctel.hop.stamp_ns_per_window", stamp_ns);
        r.put(
            "nctel.scope.events_logged_per_job",
            med(&jobs, |j| j.facts.scope_logged as f64),
        );
        r.put(
            "nctel.scope.events_dropped_per_job",
            med(&jobs, |j| j.facts.scope_dropped as f64),
        );
        r.put(
            "nctel.trace.traces_per_job",
            med(&jobs, |j| j.facts.traces as f64),
        );
        let off = quiet(&unrecorded, |j| ms(j.times.job_ns));
        r.put("nctel.recording_overhead_share", (plain_ms - off) / off);
    }

    let traced_ms = quiet(&jobs, |j| ms(j.times.job_ns));
    r.put("bench.jobs_traced", jobs.len() as f64);
    r.put(
        "bench.check_ms_per_job",
        quiet(&jobs, |j| ms(j.times.check_ns)),
    );
    r.put(
        "bench.span_coverage_share",
        med(&jobs, |j| {
            let t = &j.times;
            (t.build_ns + t.deploy_ns + t.run_ns + t.check_ns) as f64 / t.job_ns as f64
        }),
    );
    r.put(
        "bench.trace_overhead_share",
        (traced_ms - plain_ms) / plain_ms,
    );
    r
}

/// Ops in the `udp_w256` warm-up.
const UDP_WARMUP_OPS: u64 = 20_000;

struct UdpRun {
    setup: UdpSetup,
    fabric: UdpFabric,
    deploy_ms: f64,
    rtts: RttRing,
}

fn udp_set_up(args: &RunArgs, mut rtts: RttRing) -> std::io::Result<UdpRun> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let setup = UdpSetup::new(&mut rng);
    let t = Instant::now();
    let mut fabric = UdpFabric::deploy(&setup)?;
    let deploy_ms = secs(t.elapsed()) * 1e3;
    let warmup = if args.smoke {
        UDP_WARMUP_OPS / 20
    } else {
        UDP_WARMUP_OPS
    };
    fabric.run_ops(&setup, Until::Ops(warmup), &mut rtts)?;
    rtts.clear();
    Ok(UdpRun {
        setup,
        fabric,
        deploy_ms,
        rtts,
    })
}

/// Windows per second (two per op) at an undisturbed chunk of the phase;
/// over the whole phase when it was shorter than one chunk.
fn udp_windows_per_s(phase: &crate::udp::Phase) -> f64 {
    let share_ok = phase.ok as f64 / (phase.ok + phase.failed).max(1) as f64;
    if phase.chunk_ns.is_empty() {
        return 2.0 * phase.ok as f64 / (phase.wall_ns as f64 / 1e9);
    }
    let chunk_s = undisturbed(
        &phase
            .chunk_ns
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    2.0 * CHUNK_OPS as f64 * share_ok / chunk_s
}

fn run_udp(args: &RunArgs) -> std::io::Result<RunResult> {
    let mut r = RunResult::default();
    if !args.trace {
        let setups = if args.smoke { 1 } else { SETUPS };
        let mut deploys = Vec::new();
        // One ring for all set-ups: it is the run's largest buffer.
        let mut ring = Some(RttRing::default());
        let (run, setup_s) = repeated_set_up(setups, || {
            let run = udp_set_up(args, ring.take().unwrap_or_default());
            if let Ok(run) = &run {
                deploys.push(run.deploy_ms);
            }
            run
        });
        let mut run = run?;
        let deadline = Instant::now() + budget(args.seconds, 1.0);
        let phase = run
            .fabric
            .run_ops(&run.setup, Until::Deadline(deadline), &mut run.rtts)?;
        r.attempted = phase.ok + phase.failed;
        r.failed = phase.failed;
        r.samples = r.attempted;
        let ops_per_s = udp_windows_per_s(&phase);
        let rtt_ms = undisturbed(&run.rtts.samples_us()) / 1e3;
        end_to_end(&mut r, setup_s, ops_per_s, undisturbed(&deploys), rtt_ms);
        return Ok(r);
    }

    zero_layers(&mut r);
    // Plain and clocked phases take turns on one fabric, so drift of
    // the host lands on both alike.
    let tracer = Tracer::new();
    let mut run = tracer
        .span("ncp.udp", "set_up", || udp_set_up(args, RttRing::default()))
        .0?;
    let mut plain_rtts = RttRing::default();
    let (mut wall_ns, mut timeouts) = (0u64, 0u64);
    for _ in 0..6 {
        for clocked in [false, true] {
            run.fabric.time_switch(clocked);
            let deadline = Instant::now() + budget(args.seconds, 0.05);
            let (ring, name) = if clocked {
                (&mut run.rtts, "clocked_phase")
            } else {
                (&mut plain_rtts, "plain_phase")
            };
            let phase = tracer
                .span("ncp.udp", name, || {
                    run.fabric
                        .run_ops(&run.setup, Until::Deadline(deadline), ring)
                })
                .0?;
            r.attempted += phase.ok + phase.failed;
            r.failed += phase.failed;
            timeouts += phase.timeouts;
            if clocked {
                wall_ns += phase.wall_ns;
            }
        }
    }
    let busy_ns = run.fabric.switch_busy_ns();
    let malformed = run.fabric.malformed();
    r.samples = r.attempted;
    let rtts = run.rtts.samples_us();
    let plain_rtt = undisturbed(&plain_rtts.samples_us());

    let setup = &run.setup;
    put_stages(&mut r, &setup.compile_stages());
    let (_, build_ms) = deploy_parts(&setup.program);
    r.put("core.fastpath.build_ms", build_ms);
    r.put("core.deploy.other_ms", (run.deploy_ms - build_ms).max(0.0));

    // Both workers' frames for a quarter of the slots: whole
    // aggregation rounds, in the order the switch sees them.
    let ext = setup.program.checked.window_ext.size();
    let frames = (0..SLOTS / 4)
        .flat_map(|s| {
            setup
                .windows
                .iter()
                .map(move |w| ncl::ncp::codec::encode_window(&w[s], ext))
        })
        .collect();
    let stream = SwitchStream::from_frames(frames, 2);
    let (hop, _) = tracer.span("core.fastpath", "replay_switch_hop", || {
        hop_costs(&setup.program, &stream, budget(args.seconds, 0.16))
    });
    put_hop(&mut r, &hop);
    let (send_ns, recv_ns) = tracer
        .span("ncp.udp", "replay_socket_pair", || {
            socket_costs(&setup.windows[0][0], budget(args.seconds, 0.08))
        })
        .0?;
    write_trace(&args.workload, &tracer.spans());
    r.put("ncp.udp.send_ns_per_window", send_ns);
    r.put("ncp.udp.recv_ns_per_window", recv_ns);
    r.put("ncp.udp.switch_busy_share", busy_ns as f64 / wall_ns as f64);
    r.put("ncp.udp.malformed", malformed as f64);
    r.put("ncp.udp.op_timeouts", timeouts as f64);
    r.put("ncp.udp.rtt_p50_us", median(&rtts));
    r.put("ncp.udp.rtt_p99_us", percentile(&rtts, 99.0));
    r.put("bench.jobs_traced", rtts.len() as f64);
    // One op is one span-free round trip; the switch thread's two
    // clock reads per window are all the tracing there is.
    r.put("bench.span_coverage_share", 1.0);
    r.put(
        "bench.trace_overhead_share",
        (undisturbed(&rtts) - plain_rtt) / plain_rtt,
    );
    Ok(r)
}

fn run_gate(args: &RunArgs) -> RunResult {
    let set_up = || {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let gate = Gate::set_up(&mut rng);
        gate.warm_up();
        gate
    };
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };
    let (gate, setup_s) = repeated_set_up(setups, set_up);
    let mut r = RunResult::default();
    let share = if args.trace { 0.6 } else { 1.0 };
    let start = Instant::now();
    let tracer = Tracer::new();
    let mut passes: Vec<PassTimes> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget(args.seconds, share) {
        let (verdicts, times) = gate.pass(&tracer);
        r.attempted += VERDICTS_PER_PASS;
        r.failed += failed_verdicts(&verdicts);
        passes.push(times);
    }
    r.samples = passes.len() as u64;
    let over = |f: &dyn Fn(&PassTimes) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    // A 3.5 s pass is rarely undisturbed from end to end and a run
    // holds three of them, so the pass time is built from its steps:
    // each step's undisturbed time over the run's passes, summed.
    let step_ms: Vec<f64> = (0..6)
        .map(|i| undisturbed(&over(&|p| p.steps()[i])))
        .collect();
    let pass_ms: f64 = step_ms.iter().sum();
    if !args.trace {
        let ok_per_pass = (r.attempted - r.failed) as f64 / passes.len() as f64;
        end_to_end(
            &mut r,
            setup_s,
            ok_per_pass / (pass_ms / 1e3),
            step_ms[4] + step_ms[5],
            pass_ms,
        );
        return r;
    }
    zero_layers(&mut r);
    write_trace(&args.workload, &tracer.spans());
    put_stages(&mut r, &gate.compile_stages());
    let admit_ms = undisturbed(&(0..5).map(|_| gate.admit_ms()).collect::<Vec<_>>());
    let mc_ms: f64 = (0..3).map(|i| undisturbed(&over(&|p| p.mc_ms[i]))).sum();
    r.put("core.runtime.host_build_ms", step_ms[4]);
    r.put("core.deploy.other_ms", (step_ms[5] - admit_ms).max(0.0));
    r.put("ncmc.check_ms", mc_ms);
    r.put(
        "ncmc.states_explored",
        median(&over(&|p| p.mc_states as f64)),
    );
    r.put("ncmc.schedules", median(&over(&|p| p.mc_schedules as f64)));
    r.put("ncsched.admit_ms", admit_ms);
    r.put("bench.jobs_traced", passes.len() as f64);
    r.put(
        "bench.span_coverage_share",
        median(&over(&|p| p.steps().iter().sum::<f64>() / p.pass_ms)),
    );
    // A pass is timed by the same handful of clock reads in both runs:
    // there is no untraced variant to subtract.
    r.put("bench.trace_overhead_share", 0.0);
    r
}

/// Runs one workload. `Err` names an unknown workload or an I/O
/// failure of the loopback sockets.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if let Some((shape, warmups)) = netsim_shape(&args.workload) {
        return Ok(run_netsim(args, shape, warmups));
    }
    match args.workload.as_str() {
        "udp_w256" => run_udp(args).map_err(|e| format!("udp_w256: loopback socket: {e}")),
        "ctl_gate" => Ok(run_gate(args)),
        other => Err(format!("unknown workload '{other}'")),
    }
}
