//! Failure injection: packet loss, reordering and duplication against
//! the full system. Without NCP-R the properties are *integrity* ones
//! (lost windows may stall progress but never corrupt results); with
//! NCP-R enabled the properties are *completion* ones — both paper
//! applications must finish under loss + reordering + duplication with
//! results bit-identical to a lossless run, while the compiler-lowered
//! replay filter keeps switch state at single-delivery semantics.

use ncl::core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::fastpath::FastPathSwitch;
use ncl::core::nclc::{compile, CompileConfig, ReplayFilter};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::reliable::ReliableConfig;
use ncl::nctel::Scope;
use ncl::netsim::event::{MILLIS, SECONDS};
use ncl::netsim::{HostApp, LinkSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::UdpSocket;

#[path = "common/allreduce.rs"]
mod allreduce;
#[path = "common/corpus.rs"]
mod corpus;
use allreduce::{
    abandoned, completion, deploy_allreduce, retransmits, run_allreduce, take_traces, ArScenario,
};

#[test]
fn lost_contributions_stall_but_never_corrupt() {
    // Drop every 5th packet on the links: some aggregation slots never
    // fill, so their results are never broadcast — but every broadcast
    // that *does* arrive carries a correct full sum.
    let n = 4usize;
    let data_len = 64usize;
    let win = 8usize;
    let src = allreduce_source(data_len, win);
    let and = format!("hosts worker {n}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = vec![w as i32; data_len];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % n as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let lossy = LinkSpec {
        drop_every: 5,
        ..LinkSpec::default()
    };
    let mut dep = deploy_opts(
        &program,
        apps,
        DeployOptions {
            link_spec: lossy,
            ..Default::default()
        },
    )
    .expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    assert!(dep.net.stats().link_drops > 0, "loss injection must fire");
    // Integrity: every received slot element is either untouched (0) or
    // the exact full sum 1+2+3+4 = 10.
    let expected = (1..=n as i32).sum::<i32>();
    let mut any_received = false;
    for w in 1..=n as u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).unwrap();
        let mem = host.memory(kid).unwrap();
        for i in 0..data_len {
            let v = mem.arrays[0].get(i).as_i128() as i32;
            assert!(
                v == 0 || v == expected,
                "worker {w} element {i} has partial sum {v}"
            );
            any_received |= v == expected;
        }
    }
    assert!(any_received, "some slots should still complete");
}

#[test]
fn kvs_loss_reduces_throughput_not_integrity() {
    let val_words = 4usize;
    let server_id = 2u16;
    let src = kvs_source(server_id, 8, val_words);
    let and = "hosts client 1\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, val_words as u16, 1]);
    let program = compile(&src, and, &cfg).expect("compiles");
    let kernel = program.kernel_ids["query"];

    let mut schedule = vec![KvsOp {
        at: 0,
        key: 4,
        put: true,
    }];
    for i in 1..=30u64 {
        schedule.push(KvsOp {
            at: i * 1_000_000,
            key: 4,
            put: false,
        });
    }
    let nops = schedule.len();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert(
        "client1".into(),
        Box::new(KvsClient::new(
            NodeId::Host(HostId(server_id)),
            HostId(server_id),
            kernel,
            val_words,
            schedule,
        )),
    );
    apps.insert(
        "server".into(),
        Box::new(KvsServer::new(
            kernel,
            val_words,
            None,
            Some(ControlPlane::new(program.switch("s1").unwrap())),
            8,
        )),
    );
    let lossy = LinkSpec {
        drop_every: 7,
        ..LinkSpec::default()
    };
    let mut dep = deploy_opts(
        &program,
        apps,
        DeployOptions {
            link_spec: lossy,
            ..Default::default()
        },
    )
    .expect("deploys");
    let s1 = dep.switch("s1");
    dep.net
        .host_app_mut::<KvsServer>(HostId(server_id))
        .unwrap()
        .cache_switch = Some(s1);
    dep.net.run();
    let client = dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert!(dep.net.stats().link_drops > 0);
    assert!(
        client.samples.len() < nops,
        "some operations should be lost"
    );
    assert!(!client.samples.is_empty(), "some should complete");
    assert_eq!(client.corrupt, 0, "no completed GET may be corrupt");
}

/// The 10% loss + burst + duplication + reordering link used by the
/// NCP-R completion tests. Fully deterministic: probabilistic loss uses
/// per-link seeded PRNGs, the other knobs are counters.
fn hostile_link() -> LinkSpec {
    LinkSpec {
        loss: 0.10,
        burst_len: 2,
        dup_every: 6,
        jitter_every: 5,
        jitter: 30_000,
        ..LinkSpec::default()
    }
}

/// One reliable allreduce run: returns per-worker result memories, the
/// switch's accum/count registers, the replay-filter duplicate count
/// and the total retransmissions.
#[allow(clippy::type_complexity)]
fn run_reliable_allreduce(link: LinkSpec) -> (Vec<Vec<i64>>, Vec<u64>, u64, u64) {
    let sc = ArScenario {
        link,
        ..ArScenario::default()
    };
    let (n, data_len, slots) = (sc.n, sc.data_len, sc.data_len / sc.win);
    let (program, mut dep) = run_allreduce(sc);
    completion(&dep, n); // exactly-once delivery completes on every worker
    let kid = program.kernel_ids["allreduce"];
    let s1 = dep.switch("s1");
    let dups = dep.net.switch_dup_suppressed(s1);
    let memories = (1..=n as u16)
        .map(|w| {
            let mem = dep.net.host_app::<NclHost>(HostId(w)).unwrap().memory(kid);
            let arr = &mem.unwrap().arrays[0];
            (0..data_len).map(|i| arr.get(i).as_i128() as i64).collect()
        })
        .collect();
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let pipe = dep.net.switch_pipeline_mut(s1).unwrap();
    let mut regs = Vec::new();
    for i in 0..data_len {
        regs.push(cp.read_register(pipe, "accum", i).unwrap().bits());
    }
    for i in 0..slots {
        regs.push(cp.read_register(pipe, "count", i).unwrap().bits());
    }
    let rtx = retransmits(&dep, n);
    (memories, regs, dups, rtx)
}

#[test]
fn reliable_allreduce_completes_bit_identical_under_loss() {
    let (clean_mem, clean_regs, clean_dups, clean_rtx) =
        run_reliable_allreduce(LinkSpec::default());
    assert_eq!(clean_dups, 0, "lossless run sees no replays");
    assert_eq!(clean_rtx, 0, "lossless run never retransmits");
    let expected = (1..=4i64).sum::<i64>();
    assert!(clean_mem.iter().all(|m| m.iter().all(|&v| v == expected)));

    let (lossy_mem, lossy_regs, lossy_dups, lossy_rtx) = run_reliable_allreduce(hostile_link());
    // Completion under 10% loss + bursts + duplication + reordering,
    // bit-identical to the lossless run.
    assert_eq!(lossy_mem, clean_mem, "results must be bit-identical");
    assert_eq!(
        lossy_regs, clean_regs,
        "switch state must match single-delivery semantics"
    );
    assert!(lossy_rtx > 0, "loss must force retransmissions");
    assert!(
        lossy_dups > 0,
        "the replay filter must suppress duplicates (retransmits: {lossy_rtx})"
    );
}

/// The E10 AllReduce over real loopback sockets (`deploy_udp`): 32
/// windows per worker under 2% loss on every link, telemetry on every
/// window, and a datagram too short for the src/dst header sent to the
/// switch's socket mid-run. NCP-R timers run on the wall clock, so the
/// RTO is sized for it. Exactly-once holds over sockets: every worker
/// completes with the exact sums, loss forced retransmits and nothing
/// was abandoned, every delivered window carries the hop record s1
/// stamped, and the garbage is dropped and counted once.
#[test]
fn reliable_allreduce_is_exact_over_lossy_udp_sockets() {
    let (n, data_len) = (4, 256);
    let (program, mut dep) = deploy_allreduce(ArScenario {
        n,
        data_len,
        reliable: Some(ReliableConfig {
            rto: 20 * MILLIS,
            max_rto: 200 * MILLIS,
            ..ReliableConfig::default()
        }),
        link: LinkSpec {
            loss: 0.02,
            ..LinkSpec::default()
        },
        sampling: 1.0,
        udp: true,
        ..ArScenario::default()
    });
    dep.net.run_until(2 * MILLIS);
    let s1 = dep.net.udp_addr(dep.node("s1")).unwrap();
    let outside = UdpSocket::bind("127.0.0.1:0").unwrap();
    outside.send_to(&[0xde, 0xad], s1).unwrap();
    dep.net.run_until(30 * SECONDS);

    let malformed = dep.net.metrics().counter_value("sim.udp_malformed");
    assert_eq!(malformed, Some(1));
    completion(&dep, n);
    let kid = program.kernel_ids["allreduce"];
    for w in 1..=n as u16 {
        let mem = dep.net.host_app::<NclHost>(HostId(w)).unwrap().memory(kid);
        let arr = &mem.unwrap().arrays[0];
        for i in 0..data_len {
            assert_eq!(arr.get(i), Value::i32(10), "worker {w} element {i}");
        }
    }
    assert!(retransmits(&dep, n) > 0, "2% loss must force retransmits");
    assert_eq!(abandoned(&dep, n), 0);
    let s1 = dep.node("s1").to_wire();
    let traces = take_traces(&mut dep, n);
    assert!(!traces.is_empty());
    assert!(traces
        .iter()
        .all(|t| t.hops.iter().map(|h| h.switch).eq([s1])));
}

/// The transport tuned to the E10 topology: RTO a few× the loaded RTT
/// (µs-scale links) instead of the conservative wall-clock default,
/// and an initial window deep enough to keep the switch pipeline busy
/// from the first flight.
fn tuned_transport() -> ReliableConfig {
    ReliableConfig {
        cwnd: 64,
        max_cwnd: 256,
        rto: 500_000,
        max_rto: 8_000_000,
        ..ReliableConfig::default()
    }
}

/// E10's acceptance number, in simulated time: NCP-R over clean links
/// (4 workers × 4096 int32) never retransmits, never replays, and
/// costs at most 15% goodput against fire-and-forget. Goodput is
/// payload / completion and the payload is the same on both arms, so
/// the cost is the completion-time stretch.
#[test]
fn reliability_costs_at_most_15_percent_goodput_on_clean_links() {
    let e10 = |reliable| {
        let sc = ArScenario {
            data_len: 4096,
            reliable,
            ..ArScenario::default()
        };
        run_allreduce(sc).1
    };
    let base = completion(&e10(None), 4);
    let mut clean = e10(Some(tuned_transport()));
    assert_eq!(retransmits(&clean, 4), 0, "clean links must not retransmit");
    let s1 = clean.switch("s1");
    let dups = clean.net.switch_dup_suppressed(s1);
    assert_eq!(dups, 0, "clean links must not replay");
    let reliable = completion(&clean, 4);
    let overhead = 100.0 * (1.0 - base as f64 / reliable as f64);
    assert!(
        overhead <= 15.0,
        "NCP-R goodput overhead {overhead:.1}% at 0% loss exceeds the 15% budget \
         ({base} ns fire-and-forget, {reliable} ns reliable)"
    );
}

/// One reliable KVS run: returns the completed `(key, put)` samples,
/// the server's final store, the corrupt count and the retransmissions.
#[allow(clippy::type_complexity)]
fn run_reliable_kvs(link: LinkSpec) -> (Vec<(u64, bool)>, Vec<(u64, Vec<u32>)>, u64, u64) {
    let val_words = 4usize;
    let server_id = 2u16;
    let src = kvs_source(server_id, 8, val_words);
    let and = "hosts client 1\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, val_words as u16, 1]);
    let program = compile(&src, and, &cfg).expect("compiles");
    let kernel = program.kernel_ids["query"];

    let mut schedule = vec![
        KvsOp {
            at: 0,
            key: 4,
            put: true,
        },
        KvsOp {
            at: 0,
            key: 9,
            put: true,
        },
    ];
    for i in 1..=30u64 {
        schedule.push(KvsOp {
            at: i * 1_000_000,
            key: if i % 3 == 0 { 9 } else { 4 },
            put: i == 15, // a mid-stream PUT exercises invalidation too
        });
    }
    let nops = schedule.len();
    let mut client = KvsClient::new(
        NodeId::Host(HostId(server_id)),
        HostId(server_id),
        kernel,
        val_words,
        schedule,
    );
    // A short RTO (well under the 1 ms op spacing) so the initial PUT
    // lands before the first dependent GET even when it is lost.
    client.enable_retransmit(ReliableConfig {
        rto: 200_000,
        max_rto: 1_600_000,
        ..ReliableConfig::default()
    });
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("client1".into(), Box::new(client));
    apps.insert(
        "server".into(),
        Box::new(KvsServer::new(
            kernel,
            val_words,
            None,
            Some(ControlPlane::new(program.switch("s1").unwrap())),
            8,
        )),
    );
    let mut dep = deploy_opts(
        &program,
        apps,
        DeployOptions {
            link_spec: link,
            ..Default::default()
        },
    )
    .expect("deploys");
    let s1 = dep.switch("s1");
    dep.net
        .host_app_mut::<KvsServer>(HostId(server_id))
        .unwrap()
        .cache_switch = Some(s1);
    dep.net.run();
    let client = dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(
        client.samples.len(),
        nops,
        "every operation must complete ({} outstanding, {} retransmits)",
        client.outstanding(),
        client.retransmits()
    );
    let mut samples: Vec<(u64, bool)> = client.samples.iter().map(|s| (s.key, s.put)).collect();
    samples.sort_unstable();
    let retransmits = client.retransmits();
    let corrupt = client.corrupt;
    let server = dep.net.host_app::<KvsServer>(HostId(server_id)).unwrap();
    let mut store: Vec<(u64, Vec<u32>)> =
        server.store.iter().map(|(k, v)| (*k, v.clone())).collect();
    store.sort_unstable();
    (samples, store, corrupt, retransmits)
}

#[test]
fn reliable_kvs_completes_bit_identical_under_loss() {
    let (clean_samples, clean_store, clean_corrupt, clean_rtx) =
        run_reliable_kvs(LinkSpec::default());
    assert_eq!(clean_corrupt, 0);
    assert_eq!(clean_rtx, 0, "lossless run never retransmits");

    let (lossy_samples, lossy_store, lossy_corrupt, lossy_rtx) = run_reliable_kvs(hostile_link());
    assert_eq!(lossy_corrupt, 0, "no completed GET may be corrupt");
    assert_eq!(
        lossy_samples, clean_samples,
        "the completed operation set must be bit-identical"
    );
    assert_eq!(
        lossy_store, clean_store,
        "the server store must be bit-identical"
    );
    assert!(lossy_rtx > 0, "loss must force retransmissions");
}

#[test]
fn reordered_fragments_reassemble() {
    // Multi-packet windows with adversarial fragment ordering (beyond
    // the netsim FIFO model): push fragments in reverse and shuffled
    // orders through the reassembler.
    use ncl::model::{Chunk, KernelId, Window};
    let vals: Vec<u32> = (0..256).collect();
    let w = Window {
        kernel: KernelId(1),
        seq: 3,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: true,
        chunks: vec![Chunk {
            offset: 128,
            data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }],
        ext: vec![],
    };
    let frags = ncl::ncp::codec::fragment_window(&w, 0, 200);
    assert!(frags.len() >= 4);
    for perm in 0..4u64 {
        let mut order: Vec<usize> = (0..frags.len()).collect();
        // Simple deterministic shuffles.
        match perm {
            1 => order.reverse(),
            2 => order.rotate_left(frags.len() / 2),
            3 => {
                order.reverse();
                order.rotate_left(1);
            }
            _ => {}
        }
        let mut r = ncl::ncp::codec::Reassembler::new();
        let mut got = None;
        for &i in &order {
            if let Some(win) = r.push(&frags[i]).unwrap() {
                got = Some(win);
            }
        }
        let got = got.unwrap_or_else(|| panic!("permutation {perm} failed to complete"));
        assert_eq!(got.chunks[0].data, w.chunks[0].data, "permutation {perm}");
        assert_eq!(got.chunks[0].offset, w.chunks[0].offset);
    }
}

#[test]
fn lost_fragment_keeps_window_pending() {
    use ncl::model::{Chunk, KernelId, Window};
    let vals: Vec<u32> = (0..64).collect();
    let w = Window {
        kernel: KernelId(1),
        seq: 0,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
        }],
        ext: vec![],
    };
    let frags = ncl::ncp::codec::fragment_window(&w, 0, 100);
    assert!(frags.len() >= 3);
    let mut r = ncl::ncp::codec::Reassembler::new();
    // Drop the middle fragment.
    for (i, f) in frags.iter().enumerate() {
        if i == 1 {
            continue;
        }
        assert!(r.push(f).unwrap().is_none(), "incomplete window completed");
    }
    assert_eq!(r.pending(), 1);
    // The late fragment finally completes it.
    let got = r.push(&frags[1]).unwrap().expect("completes");
    assert_eq!(got.chunks[0].data, w.chunks[0].data);
}

/// Exactly-once switch execution, callable from both the proptest and
/// the shared-corpus replay: for the given duplication pattern over
/// the worker windows, the compiler-lowered replay filter leaves the
/// source-level switch state identical to a single-delivery run, and
/// counts every suppressed duplicate.
fn check_replay_filter_single_delivery(dups: &[usize]) {
    use ncl::model::{Chunk, KernelId, Window};
    use ncl::netsim::FastDatapath;
    let src = allreduce_source(16, 4);
    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.replay_filters.insert(
        "allreduce".into(),
        ReplayFilter {
            senders: 4,
            slots: 4,
        },
    );
    let program = compile(&src, and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let ext = program.checked.window_ext.size();
    let mut noisy = FastPathSwitch::from_program(&program, "s1").unwrap();
    let mut clean = FastPathSwitch::from_program(&program, "s1").unwrap();
    assert!(noisy.ctrl_wr("nworkers", Value::u32(3)));
    assert!(clean.ctrl_wr("nworkers", Value::u32(3)));
    let window = |worker: u16, seq: u32| Window {
        kernel: KernelId(kid),
        seq,
        sender: HostId(worker),
        from: NodeId::Host(HostId(worker)),
        last: seq == 3,
        chunks: vec![Chunk {
            offset: seq * 16,
            data: (0..4i32)
                .map(|i| worker as i32 * 10 + i)
                .flat_map(|v| v.to_be_bytes())
                .collect(),
        }],
        ext: vec![],
    };
    let mut expected_dups = 0u64;
    for (i, &extra) in dups.iter().enumerate() {
        let worker = (i % 3) as u16 + 1;
        let seq = (i / 3) as u32;
        let bytes = ncl::ncp::codec::encode_window(&window(worker, seq), ext);
        clean.process_window(&bytes).expect("clean processes");
        for _ in 0..=extra {
            noisy.process_window(&bytes).expect("noisy processes");
        }
        expected_dups += extra as u64;
    }
    for i in 0..16 {
        assert_eq!(
            noisy.register_read("accum", i),
            clean.register_read("accum", i),
            "accum[{i}]"
        );
    }
    for i in 0..4 {
        assert_eq!(
            noisy.register_read("count", i),
            clean.register_read("count", i),
            "count[{i}]"
        );
    }
    assert_eq!(noisy.register_prefix_sum("__nclr_dups_"), expected_dups);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replay_filter_preserves_single_delivery_state(
        dups in proptest::collection::vec(0usize..3, 12),
    ) {
        check_replay_filter_single_delivery(&dups);
    }
}

/// Replays this file's section of the shared regression corpus
/// (tests/corpus/shared.proptest-regressions): the pinned duplication
/// patterns — no duplicates (the filter must not suppress first
/// deliveries), every window tripled (maximum pressure on the filter
/// slots), and a mixed schedule — run before any generated case would,
/// exactly as upstream proptest's failure persistence would replay
/// them.
#[test]
fn corpus_duplication_patterns_keep_single_delivery_state() {
    let entries = corpus::entries_for(
        "tests/failure_injection.rs::replay_filter_preserves_single_delivery_state",
    );
    assert!(!entries.is_empty(), "corpus section must not be pruned");
    for e in &entries {
        let dups: Vec<usize> = corpus::list(&e.payload, "dups");
        assert_eq!(dups.len(), 12, "recorded pattern covers 3 workers × 4 seqs");
        check_replay_filter_single_delivery(&dups);
    }
}

/// The unified metrics registry must account for *every* frame under
/// failure injection: the registry counters are the same atomics the
/// legacy `SenderStats`/`ReceiverStats`/`SimStats` snapshots read, so
/// snapshot and registry can never disagree — and the transport-level
/// conservation law `windows_sent = tracked + retransmits` holds
/// exactly (every tracked window gets one first transmission; every
/// retransmit is counted; abandoned windows were already sent).
#[test]
fn metrics_registry_accounts_for_every_frame() {
    let n = 4usize;
    let (_, mut dep) = run_allreduce(ArScenario {
        link: hostile_link(),
        sampling: 1.0,
        ..ArScenario::default()
    });

    // The simulator's registry mirrors its legacy snapshot exactly.
    let sim = dep.net.stats();
    let reg = dep.net.metrics().clone();
    let c = |name: &str| reg.counter_value(name).unwrap_or(0);
    assert_eq!(c("sim.delivered"), sim.delivered);
    assert_eq!(c("sim.link_drops"), sim.link_drops);
    assert_eq!(c("sim.link_dups"), sim.link_dups);
    assert_eq!(c("sim.unroutable"), sim.unroutable);
    assert_eq!(c("sim.events"), sim.events);
    assert_eq!(c("sim.bytes_sent"), sim.bytes_sent);
    assert!(sim.link_drops > 0, "loss injection must fire");
    // The deployment gate counters registered on the same registry.
    assert_eq!(c("deploy.hosts_loaded"), n as u64);
    assert_eq!(c("deploy.switches_loaded"), 1);
    assert_eq!(c("deploy.lint_denied"), 0);

    let mut total_rtx = 0u64;
    for w in 1..=n as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).unwrap();
        assert!(host.done_at.is_some(), "worker {w} completes under loss");
        let sstats = host.sender_stats().expect("reliability enabled");
        let rstats = host.receiver_stats().expect("reliability enabled");
        let hreg = host.metrics().clone();
        let hc = |name: &str| hreg.counter_value(name).unwrap_or(u64::MAX);
        // Registry == snapshot, counter for counter.
        assert_eq!(hc("ncpr.sender.tracked"), sstats.tracked, "worker {w}");
        assert_eq!(hc("ncpr.sender.retransmits"), sstats.retransmits);
        assert_eq!(hc("ncpr.sender.acked"), sstats.acked);
        assert_eq!(hc("ncpr.sender.abandoned"), sstats.abandoned);
        assert_eq!(hc("ncpr.sender.cwnd_cuts"), sstats.cwnd_cuts);
        assert_eq!(hc("ncpr.receiver.delivered"), rstats.delivered);
        assert_eq!(hc("ncpr.receiver.duplicates"), rstats.duplicates);
        assert_eq!(hc("host.windows_sent"), host.windows_sent);
        assert_eq!(hc("host.windows_received"), host.windows_received);
        // Conservation: every frame this host put on the wire is a
        // first transmission of a tracked window or a counted
        // retransmit — nothing leaks, nothing is double-counted.
        assert_eq!(
            host.windows_sent,
            sstats.tracked + sstats.retransmits,
            "worker {w}: sent = tracked + retransmits"
        );
        // Every window counted received was a fresh delivery.
        assert_eq!(host.windows_received, rstats.delivered, "worker {w}");
        // Telemetry at sampling 1.0: every delivered window of the
        // exactly-once run carries an assembled trace.
        let traces = host.take_traces();
        assert_eq!(
            traces.len() as u64,
            host.windows_received,
            "worker {w}: every received window traced"
        );
        assert!(traces.iter().all(|t| t.hops.len() == 1));
        total_rtx += sstats.retransmits;
    }
    assert!(total_rtx > 0, "the hostile link must force retransmissions");
}

/// One reliable allreduce run with the ncscope event log attached to
/// every layer and telemetry at sampling 1.0, with per-link fault
/// injection. Returns the diagnosis (run against the deployed AND path
/// and kernel versions) plus the switch's wire id.
fn run_diagnosed_allreduce(
    overrides: Vec<(String, String, LinkSpec)>,
) -> (ncl::nctel::scope::analysis::Diagnosis, u16) {
    use ncl::core::deploy::{and_switch_path, deployed_versions};
    use ncl::nctel::scope::analysis::{diagnose, DiagnosisConfig};
    let n = 3usize;
    let scope = Scope::new(1 << 15);
    let (program, mut dep) = run_allreduce(ArScenario {
        n,
        overrides,
        sampling: 1.0,
        scope: Some(scope.clone()),
        ..ArScenario::default()
    });
    completion(&dep, n); // every worker completes under NCP-R
    let traces = take_traces(&mut dep, n);
    // The star topology gives every worker pair the same one-switch
    // path, so one lookup serves all senders.
    let expected_path = and_switch_path(&program, "worker1", "worker2");
    assert_eq!(expected_path.len(), 1, "star topology crosses s1 only");
    let s1_wire = expected_path[0];
    let dcfg = DiagnosisConfig {
        expected_path,
        deployed_versions: deployed_versions(&program),
    };
    (diagnose(&scope.decoded(), &traces, &dcfg), s1_wire)
}

/// Ground truth for the tentpole acceptance criterion: for *every*
/// choice of injected single-link deterministic loss, the diagnosis
/// engine must name exactly the injected link as the primary loss
/// locus — from drop-event evidence, with the run still completing
/// under NCP-R.
#[test]
fn diagnosis_names_the_injected_faulty_link() {
    use ncl::nctel::scope::analysis::WindowOutcome;
    for faulty in 1..=3u16 {
        let overrides = vec![(
            format!("worker{faulty}"),
            "s1".to_string(),
            LinkSpec {
                drop_every: 4,
                ..LinkSpec::default()
            },
        )];
        let (d, s1_wire) = run_diagnosed_allreduce(overrides);
        assert!(
            d.count(WindowOutcome::Delivered) > 0,
            "faulty worker{faulty}: NCP-R still delivers"
        );
        assert_eq!(
            d.count(WindowOutcome::Abandoned),
            0,
            "faulty worker{faulty}: nothing abandoned at 25% deterministic loss"
        );
        // Every observed drop touches the injected link's endpoints…
        for (&(from, to), &count) in &d.link_drops {
            assert!(
                (from == faulty && to == s1_wire) || (from == s1_wire && to == faulty),
                "faulty worker{faulty}: unexpected drop row {from:#x} -> {to:#x} ({count})"
            );
        }
        // …and the verdict names exactly that link.
        assert_eq!(
            d.primary_loss_locus(),
            Some((faulty, s1_wire)),
            "faulty worker{faulty}: diagnosis must blame worker{faulty} <-> s1"
        );
        // Deployed-version cross-check: no window raced a redeploy.
        assert!(
            d.verdicts.iter().all(|v| !v.stale_version),
            "no stale kernel versions in a static deployment"
        );
    }
}

/// Duplication (not loss) on one link: the heatmap localizes the
/// suppressions at the switch replay filter, the loss analysis stays
/// silent, and every window still delivers exactly once.
#[test]
fn diagnosis_dup_heatmap_localizes_duplication() {
    use ncl::nctel::scope::analysis::WindowOutcome;
    let overrides = vec![(
        "worker2".to_string(),
        "s1".to_string(),
        LinkSpec {
            dup_every: 3,
            ..LinkSpec::default()
        },
    )];
    let (d, s1_wire) = run_diagnosed_allreduce(overrides);
    assert!(
        d.primary_loss_locus().is_none(),
        "pure duplication must not produce a loss locus"
    );
    assert_eq!(d.count(WindowOutcome::Abandoned), 0);
    assert!(d.count(WindowOutcome::Delivered) > 0);
    let at_switch = d.dup_by_node.get(&s1_wire).copied().unwrap_or(0);
    assert!(
        at_switch > 0,
        "duplicated windows must be suppressed at the s1 replay filter \
         (heatmap: {:?})",
        d.dup_by_node
    );
    // Duplicates never came from the clean workers' access links.
    assert!(
        d.dup_by_node
            .keys()
            .all(|&node| node == s1_wire || node == 2),
        "dup suppressions localize to s1 and the duplicated path \
         (heatmap: {:?})",
        d.dup_by_node
    );
}

/// Scope emission costs zero simulated time (E12): E10's reliable run
/// completes at the same instant with the event log attached to every
/// layer as with it detached.
#[test]
fn recording_does_not_perturb_the_simulation() {
    let e12 = |scope: Option<Scope>| {
        let sc = ArScenario {
            data_len: 4096,
            reliable: Some(tuned_transport()),
            scope,
            ..ArScenario::default()
        };
        completion(&run_allreduce(sc).1, 4)
    };
    let scope = Scope::new(1 << 16);
    assert_eq!(
        e12(Some(scope.clone())),
        e12(None),
        "recording must not perturb the simulation"
    );
    assert!(scope.logged() > 0, "recording arm logged no events");
}

/// E12's flight-recorder gate: `worker1 <-> s1` is dead (deterministic
/// full loss, both directions) under an armed recorder. The
/// abandonment trips a `delivery_timeout` snapshot onto disk; the
/// post-mortem snapshot parses back and the diagnosis over the parsed
/// artifact blames a worker1-side link from drop ground truth alone.
#[test]
fn dead_access_link_trips_the_armed_recorder_and_is_diagnosed_from_the_artifact() {
    use ncl::nctel::scope::analysis::{diagnose, DiagnosisConfig};
    use ncl::nctel::scope::{parse_flight, SnapshotReason};
    let n = 3usize;
    let scope = Scope::new(1 << 16);
    let path = std::env::temp_dir().join(format!("ncscope-flight-{}.json", std::process::id()));
    scope.arm_recorder(&path);
    let dead = LinkSpec {
        drop_every: 1,
        ..LinkSpec::default()
    };
    let (_, mut dep) = run_allreduce(ArScenario {
        n,
        data_len: 256,
        reliable: Some(tuned_transport()),
        overrides: vec![("worker1".into(), "s1".into(), dead)],
        sampling: 1.0,
        scope: Some(scope.clone()),
        ..ArScenario::default()
    });
    assert!(
        abandoned(&dep, n) > 0,
        "a dead access link must exhaust retries"
    );
    assert!(
        scope.recorded() >= 1,
        "abandonment must trigger the flight recorder"
    );
    let armed = std::fs::read_to_string(&path).expect("armed recorder wrote its artifact");
    std::fs::remove_file(&path).ok();
    let armed = parse_flight(&armed).expect("armed artifact round-trips");
    assert_eq!(armed.reason, "delivery_timeout");

    // The in-run trigger fires at the *first* abandonment; snapshot
    // again on demand so the artifact holds the full run.
    let traces = take_traces(&mut dep, n);
    let doc = scope.flight_json(SnapshotReason::OnDemand, dep.net.now(), None, &traces);
    let art = parse_flight(&doc).expect("artifact round-trips");
    assert_eq!(art.traces.len(), traces.len());
    let d = diagnose(&art.events, &art.traces, &DiagnosisConfig::default());
    let (lo, hi) = d.primary_loss_locus().expect("drop ground truth present");
    assert_eq!(lo, 1, "loss locus names worker1 (wire id 1), got h{lo}");
    assert!(
        hi & 0x8000 != 0,
        "loss locus names the switch side, got {hi:#x}"
    );
}
