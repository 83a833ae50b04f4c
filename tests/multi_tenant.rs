//! E14 — multi-tenant shared fabric: admission control, capacity
//! rejection, and a hitless kernel upgrade (DESIGN §4.12,
//! EXPERIMENTS §E14).
//!
//! Four tenants submit to one fabric: two AllReduce tenants, a
//! NetCache-style KVS tenant, and a deliberately over-quota tenant.
//! The ncsched admission controller admits the first three onto the
//! shared switch (one `TenantMux`, three datapaths) and rejects the
//! fourth with a machine-readable cost report naming the violated
//! budget. Mid-run, tenant `ar-a` is upgraded in place: the NCP-R
//! in-flight snapshot pins draining windows to v1 while fresh windows
//! run v2, and the per-hop version stamps in the window traces prove
//! no window executed the wrong version. The scenario runs on the
//! software switch and must reproduce the pinned E14 outcome.

use ncl::core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl::core::deploy::{DeployOptions, SwitchBackend};
use ncl::core::{
    compile, deploy_tenants, CompileConfig, CompiledProgram, ControlPlane, NclHost, TenantDeploy,
};
use ncl::model::{HostId, NodeId};
use ncl::ncsched::{BudgetKind, TenantQuota, TenantSpec};
use ncl::nctel::scope::analysis::{diagnose, DiagnosisConfig, WindowOutcome};
use ncl::nctel::scope::parse_flight;
use ncl::nctel::{Scope, SnapshotReason, WindowTrace};
use ncl::netsim::HostApp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

#[path = "common/tenants.rs"]
mod tenants;
use tenants::{ar_apps, assert_sums, set_nworkers};

/// Six AllReduce workers, two KVS clients, one KVS server, one shared
/// switch. Host ids follow declaration order: workers 1-6, clients
/// 7-8, server 9.
const AND: &str = "hosts worker 6\nhosts client 2\nhost server\n\
                   switch s1\nlink worker* s1\nlink client* s1\nlink server s1\n";

const SERVER: u16 = 9;
const KVS_OPS: usize = 60;
const KVS_KEYS: u64 = 64;
const VAL_WORDS: usize = 8;
/// Sim time of the upgrade switchover, ns.
const T_UPGRADE: u64 = 2_000;

/// The greedy tenant's rejection, byte for byte: the report names the
/// violated budget, the resource, and the request/limit pair.
const GREEDY_REPORT: &str = "{\"kind\":\"ncsched-cost-report\",\"tenant\":\"greedy\",\
    \"version\":1,\"switch\":\"s1\",\"kernel\":\"allreduce\",\"budget\":\"tenant_quota\",\
    \"resource\":\"stages\",\"requested\":6,\"limit\":0,\"available\":0,\
    \"detail\":\"module needs 6 stages but tenant quota allows 0\"}";

/// The shared chip model: the software switch lifts the Tofino-ish
/// defaults so three tenants fit one pipeline (stage packing is still
/// enforced — the greedy tenant's quota is what rejects it).
fn chip() -> ncl::pisa::ResourceModel {
    ncl::pisa::ResourceModel {
        stages: 64,
        ops_per_stage: 8192,
        phv_header_bytes: 1 << 14,
        phv_metadata_bytes: 1 << 14,
        ..ncl::pisa::ResourceModel::default()
    }
}

fn ar_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.kernel_id_base = base;
    cfg.model = chip();
    compile(&allreduce_source(16, 4), AND, &cfg).expect("allreduce compiles")
}

fn kvs_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, VAL_WORDS as u16, 1]);
    cfg.kernel_id_base = base;
    cfg.model = chip();
    compile(&kvs_source(SERVER, KVS_KEYS as usize, VAL_WORDS), AND, &cfg).expect("kvs compiles")
}

/// Two Zipf(1.1)-driven clients and the preloaded server —
/// deterministic schedules so every tier replays the same operation
/// stream.
fn kvs_apps(program: &CompiledProgram) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["query"];
    let mut cdf: Vec<f64> = (1..=KVS_KEYS)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / (k as f64).powf(1.1);
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for c in 1..=2u16 {
        let mut rng = StdRng::seed_from_u64(c as u64 * 6271);
        let schedule: Vec<KvsOp> = (0..KVS_OPS)
            .map(|i| {
                let u: f64 = rng.gen();
                KvsOp {
                    at: (i as u64) * 150_000 + c as u64 * 900,
                    key: (cdf.partition_point(|&p| p < u) + 1) as u64,
                    put: rng.gen::<f64>() < 0.02,
                }
            })
            .collect();
        apps.insert(
            format!("client{c}"),
            Box::new(KvsClient::new(
                NodeId::Host(HostId(SERVER)),
                HostId(SERVER),
                kid,
                VAL_WORDS,
                schedule,
            )),
        );
    }
    let control = ControlPlane::new(program.switch("s1").expect("kvs cache module"));
    let mut server = KvsServer::new(kid, VAL_WORDS, None, Some(control), KVS_KEYS as usize);
    for k in 1..=KVS_KEYS {
        server.store.insert(k, KvsClient::value_for(k, VAL_WORDS));
    }
    apps.insert("server".into(), Box::new(server));
    apps
}

/// Every simulated outcome of the scenario.
#[derive(Debug, PartialEq, Eq)]
struct TierRun {
    /// Simulated time the fabric went quiet, ns.
    t_end: u64,
    /// Bytes offered to links over the whole run.
    bytes_on_wire: u64,
    ncp_processed: u64,
    drain: usize,
    traced: usize,
    stale_flagged: usize,
    kvs_gets: usize,
    kvs_hits: usize,
    kvs_server_ops: u64,
    rejection_json: String,
}

/// One full scenario on the software switch: deploy four tenants (one
/// rejected), upgrade `ar-a` mid-run, run to completion, verify
/// everything.
fn run_tier() -> TierRun {
    let scope = Scope::new(1 << 16);
    let pa = ar_program(0);
    let pb = ar_program(100);
    let pk = kvs_program(200);
    let tenants = vec![
        TenantDeploy {
            spec: TenantSpec::new("ar-a"),
            apps: ar_apps(&pa, (1, 3), &scope, 16, 0, Default::default()),
            program: pa,
        },
        TenantDeploy {
            spec: TenantSpec::new("ar-b"),
            apps: ar_apps(&pb, (4, 6), &scope, 16, 0, Default::default()),
            program: pb,
        },
        TenantDeploy {
            spec: TenantSpec::new("kvs"),
            apps: kvs_apps(&pk),
            program: pk,
        },
        // The greedy tenant: a valid program under a zero-stage quota.
        // Admission must reject it with a cost report, not an error.
        TenantDeploy {
            spec: TenantSpec::with_quota("greedy", TenantQuota::new(0, usize::MAX, usize::MAX)),
            program: ar_program(300),
            apps: HashMap::new(),
        },
    ];
    let opts = DeployOptions {
        backend: SwitchBackend::Simd,
        scope: Some(scope.clone()),
        model: chip(),
        ..DeployOptions::default()
    };
    let mut dep = deploy_tenants(tenants, opts).expect("structurally sound");

    // Admission: three in, one out, with the budget named.
    assert_eq!(dep.tenants(), vec!["ar-a", "ar-b", "kvs"]);
    assert_eq!(dep.rejections.len(), 1, "exactly the greedy tenant");
    let report = &dep.rejections[0];
    assert_eq!(report.tenant, "greedy");
    assert_eq!(report.budget, BudgetKind::TenantQuota);
    let rejection_json = report.render_json();

    set_nworkers(&mut dep);
    let s1 = dep.switch("s1");
    dep.net
        .host_app_mut::<KvsServer>(HostId(SERVER))
        .expect("server")
        .cache_switch = Some(s1);

    // Run long enough for windows to be in flight, then upgrade ar-a.
    // The drain set is the union of every worker's NCP-R flight keys —
    // any window of a not-yet-retired seq keeps executing v1.
    dep.net.run_until(T_UPGRADE);
    let mut drain: BTreeSet<(u16, u32)> = BTreeSet::new();
    for w in 1..=3u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker");
        drain.extend(host.in_flight_keys());
    }
    let drain: Vec<(u16, u32)> = drain.into_iter().collect();
    let mut upgrade = dep
        .begin_upgrade("ar-a", &ar_program(0), drain.clone())
        .expect("upgrade admits");
    assert_eq!((upgrade.old_version, upgrade.new_version), (1, 2));
    let s1_wire = NodeId::Switch(s1).to_wire();
    assert_eq!(
        dep.deployed_versions()[&(s1_wire, 1)],
        2,
        "static version fact flips at switchover"
    );

    let t_end = dep.net.run();

    // Every tenant's results, untouched by its neighbours or the
    // upgrade: both allreduce sums, and byte-exact KVS values.
    assert_sums(&dep, 16);
    let mut kvs_gets = 0usize;
    let mut kvs_hits = 0usize;
    for c in 1..=2u16 {
        let client = dep
            .net
            .host_app::<KvsClient>(HostId(6 + c))
            .expect("client");
        assert_eq!(client.corrupt, 0, "corrupt KVS responses");
        assert_eq!(client.outstanding(), 0, "unanswered KVS queries");
        for s in client.samples.iter().filter(|s| !s.put) {
            kvs_gets += 1;
            kvs_hits += s.from_cache as usize;
        }
    }
    let kvs_server_ops = dep
        .net
        .host_app::<KvsServer>(HostId(SERVER))
        .expect("server")
        .served;

    let stats = dep.net.switch_stats(s1).expect("switch stats");
    assert_eq!(stats.unknown_kernel, 0, "no window missed its tenant");

    // The hitless proof, from the per-hop version stamps: after the
    // switchover instant, v1 may only execute drained windows, and v2
    // may not appear before it. (`result` windows inherit the seq of
    // the `allreduce` window that produced them.)
    let mut traces: Vec<WindowTrace> = Vec::new();
    let mut abandoned = 0u64;
    for w in 1..=6u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        abandoned += host.sender_stats().expect("reliability on").abandoned;
        traces.extend(host.take_traces());
    }
    let in_drain = |kernel: u16, seq: u32| match kernel {
        1 | 2 => drain.contains(&(1, seq)),
        _ => false,
    };
    let mut wrong_version_hops = 0u64;
    for tr in &traces {
        for h in &tr.hops {
            if !(1..=2).contains(&h.kernel) {
                continue; // other tenants never change version
            }
            let wrong = (h.version == 2 && h.ticks_in < T_UPGRADE)
                || (h.version == 1 && h.ticks_in >= T_UPGRADE && !in_drain(h.kernel, tr.seq));
            if wrong {
                wrong_version_hops += 1;
            }
        }
    }
    assert_eq!(wrong_version_hops, 0, "a window executed the wrong version");
    assert_eq!(abandoned, 0, "NCP-R abandoned windows during the upgrade");

    // The ncscope diagnosis over the same evidence: no unknown-kernel
    // windows, nothing undelivered; windows flagged stale against the
    // *final* version facts are exactly the pre-switchover + drained
    // ones the hop scan already cleared.
    let diag = diagnose(
        &scope.decoded(),
        &traces,
        &DiagnosisConfig {
            expected_path: vec![s1_wire],
            deployed_versions: dep.deployed_versions(),
        },
    );
    assert!(diag.unknown_kernel.is_empty(), "{:?}", diag.unknown_kernel);
    assert!(
        diag.verdicts
            .iter()
            .all(|v| v.outcome != WindowOutcome::Abandoned),
        "diagnosis saw an abandoned window"
    );
    let stale_flagged = diag.verdicts.iter().filter(|v| v.stale_version).count();

    // Drain bookkeeping: the run retired every in-flight window; feed
    // the acks to the ticket and reclaim v1.
    for w in 1..=3u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker");
        assert!(
            host.in_flight_keys().is_empty(),
            "worker {w} still in flight"
        );
    }
    for &(k, s) in &drain {
        upgrade.acked(k, s);
    }
    assert!(upgrade.is_complete(), "drain set fully acked");
    dep.finish_upgrade(&upgrade).expect("reclaims v1");
    assert!(!dep.mux_mut("s1").expect("mux").is_draining("ar-a"));
    assert_eq!(dep.controller.tenant_version("ar-a"), Some(2));

    // Per-tenant series in the Prometheus export: one registry, every
    // host counter labeled with its owning tenant.
    let reg = ncl::nctel::Registry::new();
    dep.export_tenant_metrics(&reg);
    let prom = reg.render_prometheus();
    for tenant in ["ar-a", "ar-b"] {
        assert!(prom.contains(&format!("tenant=\"{tenant}\"")), "{prom}");
    }
    assert!(
        reg.counter_value("ncpr.sender.acked{tenant=\"ar-a\",host=\"worker1\"}")
            .expect("labeled series registered")
            > 0
    );

    // Flight-recorder round trip: the artifact parses back with the
    // run's events and traces intact.
    let flight = scope.flight_record(SnapshotReason::OnDemand, t_end, None, &traces);
    let artifact = parse_flight(&flight).expect("flight artifact parses");
    assert_eq!(artifact.traces.len(), traces.len());
    assert!(artifact.events_logged > 0);

    TierRun {
        t_end,
        bytes_on_wire: dep.net.stats().bytes_sent,
        ncp_processed: stats.ncp_processed,
        drain: drain.len(),
        traced: traces.len(),
        stale_flagged,
        kvs_gets,
        kvs_hits,
        kvs_server_ops,
        rejection_json,
    }
}

/// The simulated outcome on the software switch — window count, drain
/// set, traces, KVS hits and server load, rejection — is the one
/// EXPERIMENTS §E14 tabulates. The switch has one execution tier, so
/// these pinned counts are what every tier must reproduce.
#[test]
fn shared_fabric_outcome_is_identical_on_every_switch_tier() {
    let base = run_tier();
    assert_eq!(
        base,
        TierRun {
            ncp_processed: 216,
            drain: 4,
            traced: 48,
            stale_flagged: 4,
            kvs_gets: 119,
            kvs_hits: 65,
            kvs_server_ops: 55,
            rejection_json: GREEDY_REPORT.to_string(),
            ..base
        }
    );
}
