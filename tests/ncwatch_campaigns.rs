//! E16 — streaming SLO engine, anomaly detection, and auto-captured
//! incident reports (DESIGN §4.14, EXPERIMENTS §E16).
//!
//! Five fault campaigns drive the ncwatch engine against a two-tenant
//! paced AllReduce fabric: a healthy control (zero false positives,
//! watched goodput ≥ 98% of bare), a mid-run degrading link (detected
//! within the tick budget, same suspect as the offline ncscope
//! diagnosis, byte-identical incident log across reruns), a loss burst
//! (right tenant, right link), an over-quota tenant (tick-0 admission
//! incident carrying the cost report) and an e14-style hitless upgrade
//! (fires nothing — an upgrade is not an incident).

use ncl::core::apps::allreduce_source;
use ncl::core::deploy::{DeployOptions, SwitchBackend};
use ncl::core::{
    compile, deploy_tenants, CompileConfig, CompiledProgram, MultiDeployment, NclHost, TenantDeploy,
};
use ncl::model::HostId;
use ncl::ncp::reliable::ReliableConfig;
use ncl::ncsched::{TenantQuota, TenantSpec};
use ncl::nctel::scope::analysis::{diagnose, DiagnosisConfig};
use ncl::nctel::{Scope, WindowTrace};
use ncl::netsim::LinkSpec;
use ncwatch::{link_name, Objective, SloSpec, WatchConfig};
use std::collections::{BTreeSet, HashMap};

#[path = "common/tenants.rs"]
mod tenants;
use tenants::{ar_apps, assert_sums, set_nworkers};

/// Six workers, one switch: tenant `ar-a` on worker1-3, `ar-b` on
/// worker4-6.
const AND: &str = "hosts worker 6\nswitch s1\nlink worker* s1\n";
const DATA_LEN: usize = 256;
const WIN: usize = 4;
/// Pacing gap between windows, ns — stretches each run over many
/// evaluation ticks so the streaming engine sees a real time series.
const GAP: u64 = 1_500;
/// Watch evaluation cadence, simulated ns.
const TICK_NS: u64 = 4_000;
/// Degrading-link fault injection instant, ns.
const T_FAULT: u64 = 40_000;
/// Watched horizon, ns (generous; healthy runs finish well before).
const T_END: u64 = 600_000;
/// Detection-latency gate: first incident within this many ticks of
/// the fault.
const DETECT_BUDGET: u64 = 8;

fn ar_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    cfg.kernel_id_base = base;
    compile(&allreduce_source(DATA_LEN, WIN), AND, &cfg).expect("allreduce compiles")
}

/// A recovery clock scaled to the watched horizon: the stock 2ms RTO
/// would never fire inside the 600μs campaigns, hiding loss from the
/// retransmit-rate SLO entirely.
fn transport() -> ReliableConfig {
    ReliableConfig {
        rto: 12_000,
        max_rto: 48_000,
        ..ReliableConfig::default()
    }
}

/// Builds the two-tenant fabric; `greedy` adds the over-quota tenant.
fn build(overrides: Vec<(String, String, LinkSpec)>, greedy: bool) -> (MultiDeployment, Scope) {
    let scope = Scope::new(1 << 16);
    let pa = ar_program(0);
    let pb = ar_program(100);
    let mut tenants = vec![
        TenantDeploy {
            spec: TenantSpec::new("ar-a"),
            apps: ar_apps(&pa, (1, 3), &scope, DATA_LEN, GAP, transport()),
            program: pa,
        },
        TenantDeploy {
            spec: TenantSpec::new("ar-b"),
            apps: ar_apps(&pb, (4, 6), &scope, DATA_LEN, GAP, transport()),
            program: pb,
        },
    ];
    if greedy {
        tenants.push(TenantDeploy {
            spec: TenantSpec::with_quota("greedy", TenantQuota::new(0, usize::MAX, usize::MAX)),
            program: ar_program(300),
            apps: HashMap::new(),
        });
    }
    let opts = DeployOptions {
        backend: SwitchBackend::Simd,
        scope: Some(scope.clone()),
        link_overrides: overrides,
        ..DeployOptions::default()
    };
    let mut dep = deploy_tenants(tenants, opts).expect("structurally sound");
    set_nworkers(&mut dep);
    (dep, scope)
}

/// The campaign SLO set: a retransmit-rate ceiling and the
/// unknown-kernel guard per tenant.
fn watch_cfg() -> WatchConfig {
    let mut slos = Vec::new();
    for t in ["ar-a", "ar-b"] {
        slos.push(SloSpec::new(
            &format!("{t}.retransmit_rate"),
            t,
            Objective::RetransmitCeiling { max_per_mille: 250 },
        ));
        slos.push(SloSpec::new(
            &format!("{t}.unknown_kernel"),
            t,
            Objective::UnknownKernelZero,
        ));
    }
    WatchConfig {
        tick_ns: TICK_NS,
        slos,
        ..WatchConfig::default()
    }
}

fn worker(dep: &MultiDeployment, w: u16) -> &NclHost {
    dep.net.host_app::<NclHost>(HostId(w)).expect("worker app")
}

/// One clean end-to-end run, with or without the watch attached:
/// windows acked across workers, incidents fired, ticks evaluated.
fn run_healthy(with_watch: bool) -> (u64, usize, u64) {
    let (mut dep, scope) = build(Vec::new(), false);
    let (incidents, ticks) = if with_watch {
        let mut fw = dep.watch(watch_cfg(), Some(scope));
        let fired = fw.run_watched(&mut dep.net, T_END);
        (fired.len(), fw.engine().ticks())
    } else {
        dep.net.run_until(T_END);
        (0, 0)
    };
    dep.net.run();
    assert_sums(&dep, DATA_LEN);
    let acked = (1..=6u16)
        .map(|w| {
            worker(&dep, w)
                .sender_stats()
                .expect("reliability on")
                .acked
        })
        .sum();
    (acked, incidents, ticks)
}

#[test]
fn healthy_run_fires_nothing_and_keeps_its_goodput() {
    let (bare_goodput, _, _) = run_healthy(false);
    let (goodput, incidents, ticks) = run_healthy(true);
    assert_eq!(incidents, 0, "false positives on the healthy run");
    assert!(ticks > 0, "the watch never evaluated");
    assert!(
        goodput * 50 >= bare_goodput * 49,
        "watch cost goodput: {goodput} vs {bare_goodput}"
    );
}

/// The degrading-link campaign: clean until `T_FAULT`, then
/// `worker1<->s1` drops every other frame. Returns the armed log's
/// bytes.
fn run_degrading(tag: &str) -> String {
    let (mut dep, scope) = build(Vec::new(), false);
    let mut fw = dep.watch(watch_cfg(), Some(scope.clone()));
    let log_path = std::env::temp_dir().join(format!(
        "ncwatch-campaigns-{}-{tag}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&log_path).ok();
    fw.engine_mut().arm(&log_path);

    let pre = fw.run_watched(&mut dep.net, T_FAULT);
    assert!(pre.is_empty(), "fired before the fault: {pre:?}");
    let fault_tick = fw.engine().ticks();
    let degraded = LinkSpec {
        drop_every: 2,
        ..LinkSpec::default()
    };
    assert!(
        dep.net
            .set_link_spec(dep.node("worker1"), dep.node("s1"), degraded),
        "link worker1<->s1 exists"
    );
    fw.run_watched(&mut dep.net, T_END);

    let incidents = fw.engine().incidents();
    assert!(!incidents.is_empty(), "degrading link never detected");
    let first = &incidents[0];
    assert!(first.tick >= fault_tick, "incident precedes the fault");
    let detect_ticks = first.tick - fault_tick + 1;
    assert!(
        detect_ticks <= DETECT_BUDGET,
        "detection took {detect_ticks} ticks (budget {DETECT_BUDGET})"
    );

    // The streaming verdict must agree with the offline workflow: feed
    // the same capture through `ncscope`'s diagnosis after the fact.
    let mut traces: Vec<WindowTrace> = Vec::new();
    for w in 1..=6u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        traces.extend(host.take_traces());
    }
    let offline = diagnose(
        &scope.decoded(),
        &traces,
        &DiagnosisConfig {
            expected_path: Vec::new(),
            deployed_versions: dep.deployed_versions(),
        },
    );
    let (lo, hi) = offline
        .primary_loss_locus()
        .expect("offline diagnosis finds the lossy link");
    assert_eq!(
        first.suspected,
        format!("link {}", link_name(lo, hi)),
        "streaming verdict disagrees with offline ncscope diagnosis"
    );
    assert_eq!(first.suspected, "link h1<->s1");

    let jsonl = std::fs::read_to_string(&log_path).expect("armed log written");
    std::fs::remove_file(&log_path).ok();
    assert_eq!(jsonl.lines().count(), incidents.len(), "one line each");
    jsonl
}

#[test]
fn degrading_link_is_detected_in_budget_and_reruns_byte_identically() {
    assert_eq!(
        run_degrading("a"),
        run_degrading("b"),
        "identical runs must mint byte-identical incident logs"
    );
}

/// `worker4<->s1` bursts from t=0; an incident must land on tenant
/// `ar-b` and the right link.
#[test]
fn loss_burst_is_attributed_to_its_tenant_and_link() {
    let burst = LinkSpec {
        drop_every: 4,
        burst_len: 2,
        ..LinkSpec::default()
    };
    let overrides = vec![("worker4".to_string(), "s1".to_string(), burst)];
    let (mut dep, scope) = build(overrides, false);
    let mut fw = dep.watch(watch_cfg(), Some(scope));
    fw.run_watched(&mut dep.net, T_END);
    let expected_link = format!(
        "link {}",
        link_name(dep.node("worker4").to_wire(), dep.node("s1").to_wire())
    );
    let blamed: Vec<_> = fw
        .engine()
        .incidents()
        .iter()
        .map(|i| (i.tenant.as_str(), i.suspected.as_str()))
        .collect();
    assert!(
        blamed.contains(&("ar-b", expected_link.as_str())),
        "no ar-b incident names {expected_link}; got {blamed:?}"
    );
}

/// Rejection at admission surfaces as one incident at tick 0 carrying
/// the machine-readable cost report.
#[test]
fn over_quota_tenant_is_a_tick_zero_admission_incident() {
    let (dep, scope) = build(Vec::new(), true);
    assert_eq!(dep.tenants(), vec!["ar-a", "ar-b"]);
    assert_eq!(dep.rejections.len(), 1, "exactly the greedy tenant");
    let fw = dep.watch(watch_cfg(), Some(scope));
    let incidents = fw.engine().incidents();
    assert_eq!(incidents.len(), 1, "one admission incident");
    let i = &incidents[0];
    assert_eq!((i.kind.as_str(), i.tick), ("admission", 0));
    assert_eq!(i.tenant, "greedy");
    assert!(i.exemplars[0].1.contains("\"budget\":\"tenant_quota\""));
}

/// A hitless e14-style upgrade under the watch fires nothing.
#[test]
fn hitless_upgrade_is_not_an_incident() {
    let (mut dep, scope) = build(Vec::new(), false);
    let mut fw = dep.watch(watch_cfg(), Some(scope));
    fw.run_watched(&mut dep.net, 20_000);
    let mut drain: BTreeSet<(u16, u32)> = BTreeSet::new();
    for w in 1..=3u16 {
        drain.extend(worker(&dep, w).in_flight_keys());
    }
    let drain: Vec<(u16, u32)> = drain.into_iter().collect();
    let mut upgrade = dep
        .begin_upgrade("ar-a", &ar_program(0), drain.clone())
        .expect("upgrade admits");
    fw.run_watched(&mut dep.net, T_END);
    dep.net.run();
    assert_sums(&dep, DATA_LEN);
    for &(k, s) in &drain {
        upgrade.acked(k, s);
    }
    assert!(upgrade.is_complete(), "drain set fully acked");
    dep.finish_upgrade(&upgrade).expect("reclaims v1");
    assert!(fw.engine().ticks() > 0, "the watch never evaluated");
    assert_eq!(
        fw.engine().incidents().len(),
        0,
        "a hitless upgrade is not an incident"
    );
}
