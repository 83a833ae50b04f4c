//! The two-AllReduce-tenant fabric the multi-tenant gates (E14, E16)
//! share: tenant `ar-a` on worker1-3 (kernel ids 1-2, sum 6), `ar-b` on
//! worker4-6 (ids 101-102, sum 15), one multiplexed switch `s1`.

use ncl::core::apps::allreduce_source;
use ncl::core::{
    compile, CompileConfig, CompiledProgram, ControlPlane, MultiDeployment, NclHost, OutInvocation,
    TypedArray,
};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::ncp::reliable::ReliableConfig;
use ncl::nctel::Scope;
use ncl::netsim::HostApp;
use std::collections::HashMap;

/// AllReduce workers `lo..=hi` for one tenant: worker `w` contributes
/// `w` in each of `data_len` elements, one window every `gap` ns, with
/// NCP-R on, full-rate window telemetry (every hop record lands in a
/// trace) and the shared scope attached.
pub fn ar_apps(
    program: &CompiledProgram,
    (lo, hi): (u16, u16),
    scope: &Scope,
    data_len: usize,
    gap: u64,
    rcfg: ReliableConfig,
) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["allreduce"];
    let n = hi - lo + 1;
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in lo..=hi {
        let mut host = NclHost::new(program);
        host.enable_reliability(rcfg);
        host.enable_telemetry(1.0, 65_536);
        host.enable_scope(scope);
        let data: Vec<i32> = vec![w as i32; data_len];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId((w - lo + 1) % n + lo)),
            start: 0,
            gap,
        })
        .expect("valid invocation");
        host.bind_incoming(
            program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    apps
}

/// Tells both tenants' kernels they aggregate three workers each,
/// through the compiled switch's names for `nworkers`. Both tenants
/// compile the AllReduce source, whose switch module names the control
/// variable's copies the same at every array length, so one small
/// build's control plane addresses either tenant.
pub fn set_nworkers(dep: &mut MultiDeployment) {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    let and = "hosts worker 6\nswitch s1\nlink worker* s1\n";
    let program = compile(&allreduce_source(16, 4), and, &cfg).expect("allreduce compiles");
    let cp = ControlPlane::new(program.switch("s1").expect("s1 compiled"));
    for tenant in ["ar-a", "ar-b"] {
        let mux = dep.mux_mut("s1").expect("s1 is multiplexed");
        for op in cp.ctrl_wr_ops("nworkers", Value::u32(3)) {
            assert!(mux.ctrl_for(tenant, &op), "{tenant}: nworkers write routed");
        }
    }
}

/// Every tenant's results, untouched by its neighbour or an upgrade:
/// 1+2+3 = 6 and 4+5+6 = 15 on each of `data_len` elements.
pub fn assert_sums(dep: &MultiDeployment, data_len: usize) {
    for (kid, lo, sum) in [(1u16, 1u16, 6), (101, 4, 15)] {
        for w in lo..lo + 3 {
            let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker app");
            assert!(host.done_at.is_some(), "worker {w} never completed");
            let mem = host.memory(kid).expect("result memory");
            for i in 0..data_len {
                assert_eq!(mem.arrays[0].get(i), Value::i32(sum), "worker {w} elem {i}");
            }
        }
    }
}
