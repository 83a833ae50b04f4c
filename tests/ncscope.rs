//! ncscope acceptance (DESIGN §4.10): a sampled reliable AllReduce run
//! whose scope snapshot, telemetry traces and compile spans merge into
//! a valid Chrome `trace_event` timeline; the flight-recorder artifact
//! round-trips through the parser into the diagnosis engine; and the
//! live beacon answers the `ncscope --live` query path over real UDP.

use ncl::core::apps::allreduce_source;
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{and_switch_path, deploy_opts, deployed_versions, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::reliable::ReliableConfig;
use ncl::nctel::scope::{analysis, chrome_trace, json, parse_flight, Json, SnapshotReason};
use ncl::nctel::{Scope, WindowTrace};
use ncl::netsim::HostApp;
use std::collections::HashMap;

#[path = "common/allreduce.rs"]
mod allreduce;
use allreduce::{completion, run_allreduce, take_traces, ArScenario};

const NWORKERS: usize = 3;
const DATA_LEN: usize = 64;
const WIN: usize = 8;

/// A clean scoped + telemetry-sampled reliable AllReduce: returns the
/// compiled program, the shared scope, and the assembled window traces.
fn run_sampled_allreduce() -> (CompiledProgram, Scope, Vec<WindowTrace>) {
    let scope = Scope::new(1 << 15);
    let (program, mut dep) = run_allreduce(ArScenario {
        n: NWORKERS,
        data_len: DATA_LEN,
        win: WIN,
        sampling: 1.0,
        scope: Some(scope.clone()),
        ..ArScenario::default()
    });
    completion(&dep, NWORKERS); // every worker completes
    let traces = take_traces(&mut dep, NWORKERS);
    (program, scope, traces)
}

/// E11's acceptance number, in simulated time: on clean links (4
/// workers × 8192 int32, windows of 256 on the 2 KiB-PHV chip profile,
/// where a 1 KiB payload amortizes the fixed 33-byte section) tracing
/// *every* window costs at most 5% goodput against the untraced run —
/// the payload is the same, so the cost is the completion-time stretch.
/// Sampling 1.0 traces every window with exactly one hop record (one
/// on-path switch); 0.5 traces a strict, non-empty subset.
#[test]
fn tracing_every_window_costs_at_most_5_percent_goodput() {
    let (n, data_len, win) = (4usize, 8192usize, 256usize);
    let e11 = |sampling: f64| {
        let (_, mut dep) = run_allreduce(ArScenario {
            n,
            data_len,
            win,
            reliable: None,
            sampling,
            model: ncl::pisa::ResourceModel {
                stages: 48,
                phv_header_bytes: 2048,
                phv_metadata_bytes: 2048,
                ..Default::default()
            },
            ..ArScenario::default()
        });
        (completion(&dep, n), take_traces(&mut dep, n))
    };
    let (base, none) = e11(0.0);
    let (_, half) = e11(0.5);
    let (traced, full) = e11(1.0);
    let nwindows = n * data_len / win;
    assert!(none.is_empty(), "sampling 0.0 traces nothing");
    assert_eq!(full.len(), nwindows, "sampling 1.0 traces every window");
    assert!(
        full.iter().all(|t| t.hops.len() == 1),
        "one on-path switch per trace"
    );
    assert!(
        !half.is_empty() && half.len() < full.len(),
        "sampling 0.5 traces a strict subset"
    );
    let overhead = 100.0 * (1.0 - base as f64 / traced as f64);
    assert!(
        overhead <= 5.0,
        "telemetry goodput overhead {overhead:.2}% exceeds the 5% budget \
         ({base} ns untraced, {traced} ns at sampling 1.0)"
    );
}

/// The tentpole acceptance: the Chrome trace built from compile spans,
/// the scope snapshot and the hop records of a sampled AllReduce run is
/// valid `trace_event` JSON and carries all three layers — compile
/// slices (pid 0), window lifecycles (pid 1), per-hop switch slices
/// (pid 2).
#[test]
fn sampled_allreduce_exports_a_three_layer_chrome_timeline() {
    let (program, scope, traces) = run_sampled_allreduce();
    assert!(!traces.is_empty(), "sampling 1.0 assembles traces");
    let events = scope.decoded();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ncl::nctel::ScopeEvent::WindowSent { .. })),
        "host layer emitted sends"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ncl::nctel::ScopeEvent::SwitchExecuted { .. })),
        "switch layer emitted executions"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ncl::nctel::ScopeEvent::WindowCompleted)),
        "receiver layer emitted completions"
    );

    let doc = chrome_trace(program.timings.spans(), &events, &traces);
    let parsed = json::parse(&doc).expect("valid trace_event JSON");
    let evs = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_u64);
    let cat_of = |e: &Json| e.get("cat").and_then(Json::as_str).map(str::to_string);
    assert!(
        !program.timings.spans().is_empty()
            && evs
                .iter()
                .any(|e| pid_of(e) == Some(0) && cat_of(e).as_deref() == Some("compile")),
        "compile spans present on pid 0"
    );
    let window_slices = evs
        .iter()
        .filter(|e| pid_of(e) == Some(1) && cat_of(e).as_deref() == Some("window"))
        .count();
    // One lifecycle slice per first-sent window: data windows from
    // every worker plus the broadcast result windows.
    assert!(
        window_slices >= NWORKERS * (DATA_LEN / WIN),
        "window lifecycles present on pid 1 (got {window_slices})"
    );
    let switch_slices = evs
        .iter()
        .filter(|e| pid_of(e) == Some(2) && cat_of(e).as_deref() == Some("switch"))
        .count();
    assert_eq!(
        switch_slices,
        traces.iter().map(|t| t.hops.len()).sum::<usize>(),
        "one switch slice per hop record on pid 2"
    );
    // Mandatory trace_event fields on every record.
    for e in evs {
        assert!(e.get("ph").is_some() && e.get("pid").is_some());
    }
}

/// The on-demand flight snapshot of a clean run round-trips through the
/// artifact parser and diagnoses clean: everything delivered, no loss
/// loci, no stale versions against the real deployment facts.
#[test]
fn on_demand_flight_snapshot_diagnoses_clean() {
    let (program, scope, traces) = run_sampled_allreduce();
    let doc = scope.flight_json(SnapshotReason::OnDemand, 0, None, &traces);
    let art = parse_flight(&doc).expect("round-trips");
    assert_eq!(art.reason, "on_demand");
    assert_eq!(art.events.len() as u64, scope.logged() - scope.dropped());
    let dcfg = analysis::DiagnosisConfig {
        expected_path: and_switch_path(&program, "worker1", "worker2"),
        deployed_versions: deployed_versions(&program),
    };
    let d = analysis::diagnose(&art.events, &art.traces, &dcfg);
    assert!(d.count(analysis::WindowOutcome::Delivered) > 0);
    assert_eq!(d.count(analysis::WindowOutcome::Abandoned), 0);
    assert!(d.primary_loss_locus().is_none(), "clean run has no loss");
    assert!(d.verdicts.iter().all(|v| !v.stale_version));
    assert!(d.hops_seen > 0, "hop records fed the latency attribution");
    let report = d.render_report();
    assert!(report.contains("delivered"), "report renders: {report}");
}

/// `diagnose()` invoked programmatically mid-run — the ncwatch incident
/// pipeline's path: every few microseconds of simulated time the scope
/// ring and the hosts' non-draining trace snapshots are handed to the
/// diagnosis engine while the simulation keeps advancing. Snapshots
/// must be internally consistent (no torn events), monotone in
/// coverage, and converge to the end-of-run diagnosis.
#[test]
fn mid_run_diagnosis_is_consistent_while_sim_advances() {
    let slots = DATA_LEN / WIN;
    let src = allreduce_source(DATA_LEN, WIN);
    let and = format!("hosts worker {NWORKERS}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let rcfg = ReliableConfig {
        filter_slots: slots,
        ..ReliableConfig::default()
    };
    let scope = Scope::new(1 << 15);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=NWORKERS as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = vec![w as i32; DATA_LEN];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % NWORKERS as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, DATA_LEN), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        host.enable_reliability(rcfg);
        host.enable_telemetry(1.0, 1024);
        host.enable_scope(&scope);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let opts = DeployOptions {
        scope: Some(scope.clone()),
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(NWORKERS as u32),
    );

    let dcfg = analysis::DiagnosisConfig {
        expected_path: and_switch_path(&program, "worker1", "worker2"),
        deployed_versions: deployed_versions(&program),
    };
    let mut last_events = 0usize;
    let mut last_delivered = 0usize;
    let mut snapshots = 0;
    let mut t = 0u64;
    while t < 400_000 {
        t += 2_000;
        dep.net.run_until(t);
        // Live capture exactly as the incident pipeline takes it: the
        // decoded ring plus non-draining trace snapshots.
        let events = scope.decoded();
        let mut traces = Vec::new();
        for w in 1..=NWORKERS as u16 {
            let host = dep.net.host_app::<NclHost>(HostId(w)).unwrap();
            traces.extend(host.trace_snapshot());
        }
        let d = analysis::diagnose(&events, &traces, &dcfg);
        snapshots += 1;
        assert!(
            d.events_seen >= last_events,
            "event coverage regressed mid-run: {} < {last_events}",
            d.events_seen
        );
        let delivered = d.count(analysis::WindowOutcome::Delivered);
        assert!(
            delivered >= last_delivered,
            "delivered count regressed mid-run: {delivered} < {last_delivered}"
        );
        assert!(d.primary_loss_locus().is_none(), "clean run, no loss");
        last_events = d.events_seen;
        last_delivered = delivered;
        let all_done = (1..=NWORKERS as u16).all(|w| {
            dep.net
                .host_app::<NclHost>(HostId(w))
                .unwrap()
                .done_at
                .is_some()
        });
        if all_done {
            break;
        }
    }
    assert!(snapshots >= 3, "the run spanned several capture points");
    assert!(last_delivered > 0, "mid-run capture saw deliveries");
    // The final mid-run capture converged to the end-of-run view, and
    // the non-draining snapshots left the application's traces intact.
    dep.net.run();
    let mut traces = Vec::new();
    for w in 1..=NWORKERS as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).unwrap();
        assert!(host.done_at.is_some(), "worker {w} completes");
        traces.extend(host.take_traces());
    }
    assert!(!traces.is_empty(), "snapshots did not drain the traces");
    let d = analysis::diagnose(&scope.decoded(), &traces, &dcfg);
    assert!(d.count(analysis::WindowOutcome::Delivered) >= last_delivered);
    assert_eq!(d.count(analysis::WindowOutcome::Abandoned), 0);
}

/// The event ring's seqlock under real contention: writer threads
/// hammer the ring while the main thread repeatedly snapshots and
/// diagnoses. Every decoded event must be internally consistent — a
/// torn slot (one writer's key with another's payload) would break the
/// redundant encoding each writer stamps across all fields.
#[test]
fn concurrent_decode_never_observes_torn_events() {
    use ncl::nctel::{ScopeEvent, WindowKey};
    // Small ring so writers wrap it constantly — maximum slot reuse.
    let scope = Scope::new(256);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (1u16..=4)
        .map(|w| {
            let scope = scope.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seq = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Redundant encoding: node, key and payload all
                    // derive from (w, seq), so any cross-writer or
                    // cross-iteration mix is detectable.
                    scope.emit(
                        (w as u64) << 32 | seq as u64,
                        w,
                        WindowKey::new(w, w, seq),
                        ScopeEvent::SwitchExecuted {
                            switch: 0x8000 | w,
                            version: (seq % 7 + 1) as u16,
                            fwd: 0,
                        },
                    );
                    seq = seq.wrapping_add(1);
                }
            })
        })
        .collect();
    let dcfg = analysis::DiagnosisConfig::default();
    // Wait for the first lap: on a two-core box 200 snapshots can
    // otherwise finish before any writer thread has been scheduled.
    while scope.logged() < 256 {
        std::thread::yield_now();
    }
    // Snapshot until the writers have lapped the ring a further 64
    // times under the reader, and at least 200 times.
    let lapped = scope.logged() + 64 * 256;
    let mut snapshots = 0usize;
    let mut decoded_total = 0usize;
    while snapshots < 200 || scope.logged() < lapped {
        snapshots += 1;
        let events = scope.decoded();
        decoded_total += events.len();
        for e in &events {
            assert_eq!(e.key.sender, e.node, "torn: key/node mismatch");
            assert_eq!(e.key.kernel, e.node, "torn: key halves mixed");
            assert_eq!(
                e.t,
                (e.node as u64) << 32 | e.key.seq as u64,
                "torn: time from a different iteration"
            );
            match e.event {
                ScopeEvent::SwitchExecuted {
                    switch, version, ..
                } => {
                    assert_eq!(switch, 0x8000 | e.node, "torn: payload/key mix");
                    assert_eq!(version as u32, e.key.seq % 7 + 1, "torn: stale payload");
                }
                ref other => panic!("decoded a kind nobody emitted: {other:?}"),
            }
        }
        // The analysis engine accepts every mid-write snapshot.
        let d = analysis::diagnose(&events, &[], &dcfg);
        assert_eq!(d.events_seen, events.len());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert!(decoded_total > 0, "snapshots observed live traffic");
    assert!(
        scope.logged() >= lapped,
        "the ring wrapped under the reader"
    );
}

/// The `ncscope --live` path end to end over real UDP: a beacon serving
/// the run's scope + registry answers the probe with a parseable flight
/// snapshot.
#[test]
fn beacon_serves_live_snapshot_over_udp() {
    let (_, scope, _) = run_sampled_allreduce();
    let registry = std::sync::Arc::new(ncl::nctel::Registry::new());
    registry.counter("test.alive").add(1);
    let beacon = ncl::nctel::scope::beacon::spawn_beacon("127.0.0.1:0", registry, scope)
        .expect("beacon binds loopback");
    let reply = ncl::nctel::scope::beacon::query(beacon.addr(), std::time::Duration::from_secs(5))
        .expect("beacon answers");
    let art = parse_flight(&reply).expect("live snapshot parses");
    assert!(!art.events.is_empty(), "live snapshot carries events");
    let metrics = art.metrics.expect("registry attached");
    assert_eq!(
        metrics.get("test.alive").and_then(Json::as_u64),
        Some(1),
        "registry metrics ride along"
    );
    beacon.shutdown();
}
