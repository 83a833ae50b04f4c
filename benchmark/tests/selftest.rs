//! Self-tests of the benchmark on smoke-sized jobs: the span account
//! closes, the exact-repeat figures repeat, the clean workloads read
//! zero recovery work, and every correctness checker rejects a
//! deliberately corrupted result.

use ncbench::compile::{compile_program, staged};
use ncbench::fabric::{
    failed_kvs_ops, failed_windows, kvs_value, ArFabric, ArShape, Fabric, JobFacts, KvsFabric,
    Observe, KVS_WORDS,
};
use ncbench::gate::{failed_verdicts, Gate};
use ncbench::layers::{hop_costs, SwitchStream};
use ncbench::run::{run, RunArgs};
use ncbench::spec::{END_TO_END, PER_LAYER};
use ncbench::trace::{self_times, Tracer};
use ncbench::udp::{RttRing, UdpFabric, UdpSetup, Until};
use ncl::core::apps::{KvsClient, KvsOp};
use ncl::core::runtime::TypedArray;
use ncl::model::{HostId, ScalarType};
use ncl::ncp::codec::{decode_window, encode_window};
use rand::prelude::*;
use std::time::Duration;

fn small(reliable: bool, storm: bool) -> ArShape {
    ArShape {
        elements: 2_048,
        win: 64,
        reliable,
        storm,
    }
}

fn observe(time_hosts: bool) -> Observe {
    Observe {
        tracer: Tracer::new(),
        time_hosts,
    }
}

fn facts_of(shape: ArShape, seed: u64) -> JobFacts {
    let fabric = ArFabric::set_up(shape, &mut StdRng::seed_from_u64(seed));
    fabric.run_job(0, &observe(false)).facts
}

#[test]
fn span_self_times_account_for_the_job() {
    let fabric = ArFabric::set_up(small(true, false), &mut StdRng::seed_from_u64(1));
    let obs = observe(true);
    let job = fabric.run_job(0, &obs);
    assert_eq!(job.facts.failed, 0);
    assert!(job.facts.host_calls > 0 && job.facts.host_busy_ns > 0);

    let spans = obs.tracer.spans();
    let own = self_times(&spans);
    let root = spans
        .iter()
        .position(|s| s.name == "job")
        .expect("job span");
    // Whatever the job span does not hand to a child is unaccounted.
    assert!(
        (own[root] as f64) < 0.05 * spans[root].dur_ns() as f64,
        "job self time {} of {}",
        own[root],
        spans[root].dur_ns()
    );
    // Self times partition the job: they sum back to its duration.
    let total: u64 = own.iter().sum();
    assert_eq!(total, spans[root].dur_ns());
    // Host callbacks are children of the run, and their sum is the
    // host-busy figure the layer table uses.
    let run = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("run span");
    let callbacks: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(run))
        .map(|s| s.dur_ns())
        .sum();
    assert_eq!(callbacks, job.facts.host_busy_ns);
    assert!(callbacks <= spans[run].dur_ns());
}

#[test]
fn simulated_figures_repeat_exactly_and_clean_links_need_no_recovery() {
    for shape in [small(true, false), small(false, false), small(true, true)] {
        let (a, b) = (facts_of(shape, 5), facts_of(shape, 5));
        assert_eq!(a, b, "two in-process runs of one seed");
        assert_eq!(a.failed, 0);
        if shape.storm {
            assert!(a.link_drops > 0 && a.retransmits > 0 && a.dups_suppressed > 0);
            assert!(a.scope_logged > 0 && a.traces > 0);
        } else {
            assert_eq!(
                (a.retransmits, a.dups_suppressed, a.abandoned, a.link_drops),
                (0, 0, 0, 0)
            );
            assert_eq!((a.scope_logged, a.traces), (0, 0));
        }
    }
    // Simulated time and wire bytes do not depend on the data at all.
    let (a, b) = (
        facts_of(small(true, false), 5),
        facts_of(small(true, false), 6),
    );
    assert_eq!(
        (a.sim_completion_ns, a.wire_bytes),
        (b.sim_completion_ns, b.wire_bytes)
    );
}

#[test]
fn allreduce_checker_rejects_a_flipped_sum_element() {
    let expected: Vec<i32> = (0..256).collect();
    let mut got = expected.clone();
    assert_eq!(failed_windows(&expected, &got, 64, true), 0);
    got[70] ^= 1;
    assert_eq!(
        failed_windows(&expected, &got, 64, true),
        1,
        "window 1 only"
    );
    assert_eq!(
        failed_windows(&expected, &expected, 64, false),
        4,
        "never completed"
    );
    assert_eq!(
        failed_windows(&expected, &got[..128], 64, true),
        4,
        "short result"
    );
}

fn kvs_reply(fabric: &KvsFabric, seq: u32, key: u64, value: &[u32]) -> Vec<u8> {
    // A reply as the server builds it, from the benchmark's side.
    let mut w = ncbench::layers::host_windows(
        fabric.program(),
        HostId(5),
        "query",
        &[
            TypedArray::from_u64(&[key]),
            TypedArray::from_u32(value),
            TypedArray {
                elem: ScalarType::Bool,
                bytes: vec![0],
            },
        ],
    )
    .remove(0);
    w.seq = seq;
    encode_window(&w, 0)
}

#[test]
fn kvs_checker_rejects_a_wrong_value_and_a_missing_reply() {
    assert_eq!(
        kvs_value(77, KVS_WORDS),
        KvsClient::value_for(77, KVS_WORDS)
    );
    let op = |key| KvsOp {
        at: 0,
        key,
        put: false,
    };
    let schedule = [op(7), op(9)];
    let fabric = KvsFabric::set_up(&mut StdRng::seed_from_u64(1));
    let kvs_reply = |seq, key, value: &[u32]| kvs_reply(&fabric, seq, key, value);
    let good = [
        kvs_reply(0, 7, &kvs_value(7, KVS_WORDS)),
        kvs_reply(1, 9, &kvs_value(9, KVS_WORDS)),
    ];
    assert_eq!(failed_kvs_ops(&schedule, &good), 0);
    let stale = [good[0].clone(), kvs_reply(1, 9, &kvs_value(8, KVS_WORDS))];
    assert_eq!(
        failed_kvs_ops(&schedule, &stale),
        1,
        "key 9 answered with key 8's value"
    );
    assert_eq!(failed_kvs_ops(&schedule, &good[..1]), 1, "no reply to op 1");
    let wrong_key = [good[0].clone(), kvs_reply(1, 8, &kvs_value(8, KVS_WORDS))];
    assert_eq!(failed_kvs_ops(&schedule, &wrong_key), 1);
}

#[test]
fn kvs_job_is_correct_and_never_evicts() {
    for seed in [1, 2, 3] {
        let fabric = KvsFabric::set_up(&mut StdRng::seed_from_u64(seed));
        let facts = fabric.run_job(0, &observe(false)).facts;
        assert_eq!((facts.failed, facts.cache_evictions), (0, 0), "seed {seed}");
        assert_eq!(facts.attempted, 20_000);
        assert!(
            facts.switch_windows > facts.attempted,
            "responses cross the switch too"
        );
    }
}

#[test]
fn gate_verdicts_match_and_a_swapped_verdict_is_rejected() {
    let gate = Gate::set_up(&mut StdRng::seed_from_u64(1));
    let (verdicts, times) = gate.pass(&Tracer::new());
    assert_eq!(failed_verdicts(&verdicts), 0, "{verdicts:?}");
    assert!(times.mc_states > 0 && times.mc_schedules > 0);
    assert!(times.steps().iter().sum::<f64>() <= times.pass_ms);

    let mut swapped = verdicts.clone();
    let filtered = swapped
        .model_checks
        .iter_mut()
        .find(|m| m.0 == "mc-allreduce-filtered")
        .expect("shape present");
    filtered.2 = false; // certified → witness
    assert_eq!(failed_verdicts(&swapped), 1);

    let mut admitted_greedy = verdicts.clone();
    admitted_greedy.rejected.clear();
    admitted_greedy.admitted.push("greedy".into());
    assert_eq!(failed_verdicts(&admitted_greedy), 1);

    let mut lost_tenant = verdicts;
    lost_tenant.admitted.retain(|t| t != "kvs");
    assert_eq!(failed_verdicts(&lost_tenant), 1);
}

#[test]
fn udp_ops_complete_and_a_corrupted_result_is_rejected() {
    let setup = UdpSetup::new(&mut StdRng::seed_from_u64(1));
    let mut fabric = UdpFabric::deploy(&setup).expect("loopback sockets");
    let mut rtts = RttRing::default();
    // More ops than slots, so slots are reused and sums keep growing.
    let phase = fabric
        .run_ops(&setup, Until::Ops(5_000), &mut rtts)
        .expect("loopback I/O");
    assert_eq!((phase.ok, phase.failed, phase.timeouts), (5_000, 0, 0));
    assert_eq!(rtts.samples_us().len(), 5_000);
    assert_eq!(phase.chunk_ns.len(), 4);

    // The sum of slot 3's first use, then one flipped bit.
    let ext = setup.program.checked.window_ext.size();
    let mut w = decode_window(&encode_window(&setup.windows[0][3], ext)).expect("round trip");
    let other = &setup.windows[1][3].chunks[0];
    for i in 0..ncbench::udp::WIN {
        let sum = w.chunks[0].get(ScalarType::I32, i).bits() as i32;
        let sum = sum.wrapping_add(other.get(ScalarType::I32, i).bits() as i32);
        w.chunks[0].set(ScalarType::I32, i, ncl::model::Value::i32(sum));
    }
    assert!(setup.result_ok(&w, 1));
    assert!(!setup.result_ok(&w, 2), "wrong round");
    w.chunks[0].data[5] ^= 0x10;
    assert!(!setup.result_ok(&w, 1), "flipped bit");
}

#[test]
fn allocation_counts_of_the_switch_hop_repeat_exactly() {
    let fabric = ArFabric::set_up(small(true, false), &mut StdRng::seed_from_u64(9));
    let stream = SwitchStream::allreduce(&fabric, 0);
    let budget = Duration::from_millis(20);
    let (a, b) = (
        hop_costs(fabric.program(), &stream, budget),
        hop_costs(fabric.program(), &stream, budget),
    );
    assert_eq!((a.allocs, a.alloc_bytes), (b.allocs, b.alloc_bytes));
    assert!(
        a.allocs > 0.0,
        "the forwarded windows allocate their output buffer"
    );
    assert!(a.process_ns > 0.0 && a.kernel_ns > 0.0 && a.decode_ns > 0.0 && a.encode_ns > 0.0);
}

#[test]
fn staged_compile_is_the_compile_nclc_runs() {
    let src = ncl::core::apps::allreduce_source(4_096, 64);
    let and = "hosts worker 4\nswitch s1\nlink worker* s1\n";
    let mut cfg = ncl::core::nclc::CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![64]);
    cfg.masks.insert("result".into(), vec![64]);
    cfg.model = ncbench::compile::chip();
    let program = compile_program(&src, and, &cfg);
    let st = staged(&src, and, &cfg);
    // Same artifacts out of both routes…
    assert_eq!(st.p4_lines, program.p4_lines() as f64);
    assert_eq!(st.kernels, 1.0, "only `allreduce` lives on the switch");
    // …and every stage nclc times is timed here, to the same order of
    // magnitude (one run each on a shared host: nothing tighter holds).
    let nclc_ms = program.timings.total_ns() as f64 / 1e6;
    let ratio = st.total_ms() / nclc_ms;
    assert!(
        (0.2..5.0).contains(&ratio),
        "staged {} ms vs nclc {nclc_ms} ms",
        st.total_ms()
    );
    for stage in [
        "frontend", "lower", "optimize", "version", "lint", "estimate", "backend",
    ] {
        assert!(
            program.timings.spans().iter().any(|(n, _)| n == stage),
            "nclc lost stage {stage}"
        );
    }
}

#[test]
fn a_smoke_run_prints_every_metric_of_its_kind() {
    for (trace, metrics) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let result = run(&RunArgs {
            workload: "ar_w64_raw".into(),
            seed: 3,
            seconds: 0.2,
            trace,
            smoke: true,
        })
        .expect("known workload");
        assert!(result.attempted > 0 && result.failed == 0);
        for m in metrics {
            let v = result.metrics.get(m.name).copied();
            assert!(v.is_some_and(f64::is_finite), "{} missing", m.name);
        }
        if trace {
            // NCP-R is off: its layer must read zero work.
            for name in [
                "ncp.reliable.sender_ns_per_window",
                "ncp.reliable.receiver_ns_per_window",
                "ncp.reliable.retransmits_per_job",
                "nctel.scope.events_logged_per_job",
            ] {
                assert_eq!(result.metrics[name], 0.0, "{name}");
            }
            assert!(result.metrics["netsim.self_ms_per_job"] > 0.0);
            assert!(result.metrics["bench.span_coverage_share"] > 0.95);
        } else {
            assert!(
                END_TO_END.iter().all(|m| result.metrics[m.name] > 0.0),
                "never 0"
            );
        }
    }
    assert!(run(&RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        smoke: true
    })
    .is_err());
}
