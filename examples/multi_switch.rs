//! Fig. 3c: one NCL program deployed across a two-tier overlay, with
//! per-location kernel roles and the overlay embedded into a larger
//! physical spine-leaf fabric.
//!
//! Edge switches pre-scale sensor readings; the aggregation switch keeps
//! per-sensor maxima and forwards everything to a collector host.
//!
//! ```text
//! cargo run -p ncl-examples --bin multi_switch
//! ```

use c3::{HostId, NodeId, ScalarType, Value};
use ncl_and::{AndKind, PhysTopology};
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::HostApp;
use std::collections::HashMap;

const PROGRAM: &str = r#"
// Aggregation state lives only at the core switch.
_net_ _at_("core") int peak[4] = {0};

// One SPMD kernel, diverging by role (paper: "location-less kernels run
// on all switches in SPMD fashion ... divergent behavior can still be
// expressed").
_net_ _out_ void telemetry(int *reading) {
    if (_here("core")) {
        for (unsigned i = 0; i < window.len; ++i) {
            if (reading[i] > peak[i]) { peak[i] = reading[i]; }
        }
    } else {
        // Edge: normalize raw sensor units (×3 gain).
        for (unsigned i = 0; i < window.len; ++i)
            reading[i] = reading[i] * 3;
    }
}

_net_ _in_ void collect(int *reading, _ext_ int *log, _ext_ int *n) {
    for (unsigned i = 0; i < window.len; ++i)
        log[n[0] * window.len + i] = reading[i];
    n[0] = n[0] + 1;
}
"#;

const AND: &str = "
host sensor1
host sensor2
host collector
switch edge1
switch edge2
switch core
link sensor1 edge1
link sensor2 edge2
link edge1 core
link edge2 core
link collector core
";

fn main() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("telemetry".into(), vec![4]);
    cfg.masks.insert("collect".into(), vec![4]);
    let program = compile(PROGRAM, AND, &cfg).expect("compiles");
    println!("compiled {} switch programs:", program.switches.len());
    for (label, c) in &program.switches {
        println!(
            "  {label}: {} stages, {} P4 lines",
            c.report.stages_used,
            ncl_p4::p4emit::effective_lines(&c.p4_source)
        );
    }

    // Embed the overlay into a 2-spine/4-leaf physical fabric (the
    // deployment mapping the paper assumes, Fig. 3c).
    let phys = PhysTopology::spine_leaf(2, 4, 2);
    let assignment = program.overlay.embed(&phys).expect("embeds");
    let cost = program.overlay.embedding_cost(&phys, &assignment);
    println!("overlay embeds into spine-leaf(2,4,2): total path cost {cost}");
    for (ov, pi) in assignment.iter().enumerate() {
        let node = &program.overlay.nodes[ov];
        let kind = match phys.nodes[*pi] {
            AndKind::Switch => "switch",
            _ => "host",
        };
        println!("  {} → physical {kind} #{pi}", node.label);
    }

    // Run on the (identity-mapped) simulated network.
    let kid = program.kernel_ids["telemetry"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for (si, readings) in [[5i32, 9, 2, 7], [8, 1, 6, 3]].iter().enumerate() {
        let mut sensor = NclHost::new(&program);
        sensor
            .out(OutInvocation {
                kernel: "telemetry".into(),
                arrays: vec![TypedArray::from_i32(readings)],
                dest: NodeId::Host(HostId(3)), // collector
                start: 0,
                gap: 0,
            })
            .unwrap();
        apps.insert(format!("sensor{}", si + 1), Box::new(sensor));
    }
    let mut collector = NclHost::new(&program);
    collector
        .bind_incoming(
            &program,
            "telemetry",
            "collect",
            &[(ScalarType::I32, 16), (ScalarType::I32, 1)],
        )
        .unwrap();
    apps.insert("collector".into(), Box::new(collector));

    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();

    let collector = dep.net.host_app::<NclHost>(dep.host("collector")).unwrap();
    let n = collector.memory(kid).unwrap().arrays[1].get(0).as_i128();
    println!("collector received {n} windows:");
    for w in 0..n as usize {
        let vals: Vec<i64> = (0..4)
            .map(|i| {
                collector.memory(kid).unwrap().arrays[0]
                    .get(w * 4 + i)
                    .as_i128() as i64
            })
            .collect();
        println!("  {vals:?}   (edge-scaled ×3)");
    }
    // Core switch kept element-wise maxima of the scaled readings. The
    // compiler lane-split `peak`; the control plane resolves that.
    let core = dep.switch("core");
    let cp = ncl_core::control::ControlPlane::new(program.switch("core").expect("core program"));
    let pipe = dep.net.switch_pipeline_mut(core).unwrap();
    let peaks: Vec<Value> = (0..4)
        .map(|i| cp.read_register(pipe, "peak", i).unwrap())
        .collect();
    println!("core switch peaks: {peaks:?}");
    assert_eq!(peaks[0], Value::i32(24)); // max(5,8)*3
    assert_eq!(peaks[1], Value::i32(27)); // max(9,1)*3
    println!("ok");
}
