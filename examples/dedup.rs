//! In-network duplicate suppression with a Bloom filter — the stdlib
//! direction the paper sketches in §3.2 ("fast MAT lookups can be
//! exposed as Maps or bloom-filters"), built from the `_hash` builtin
//! (the stage hash unit) and plain switch memory.
//!
//! A sender streams flow records with repeats; the switch drops records
//! whose (two-hash) Bloom signature was already seen, so the collector
//! receives each flow roughly once.
//!
//! ```text
//! cargo run -p ncl-examples --bin dedup
//! ```

use c3::{HostId, NodeId, ScalarType};
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use netsim::HostApp;
use std::collections::HashMap;

const BITS: usize = 1024;

const PROGRAM: &str = r#"
_net_ _at_("s1") bool bloom[1024] = {false};
_net_ _at_("s1") unsigned dropped[1] = {0};

_net_ _out_ void dedup(uint32_t *flow) {
    unsigned h1 = _hash(flow[0], 17) & 1023;
    unsigned h2 = _hash(flow[0], 91) & 1023;
    if (bloom[h1] && bloom[h2]) {
        dropped[0] += 1;
        _drop();
    }
    bloom[h1] = true;
    bloom[h2] = true;
}

_net_ _in_ void collect(uint32_t *flow, _ext_ uint32_t *seen, _ext_ uint32_t *n) {
    seen[n[0] & 4095] = flow[0];
    n[0] = n[0] + 1;
}
"#;

const AND: &str = "host sender\nhost collector\nswitch s1\nlink sender s1\nlink collector s1\n";

fn main() {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("dedup".into(), vec![1]);
    cfg.masks.insert("collect".into(), vec![1]);
    // nclint flags the check-then-act race it cannot prove away: the
    // `dropped` increment is decided by Bloom bits read in an earlier
    // stage, so two same-signature packets racing through the pipeline
    // can both pass before either sets the bits. For a probabilistic
    // dedup that is the accepted failure mode (a Bloom filter already
    // admits false negatives under eviction); downgrade with eyes open.
    use ncl_core::nclc::{LintCode, LintLevel};
    cfg.lint_levels
        .insert(LintCode::NonAtomicRmw, LintLevel::Warn);
    let program = compile(PROGRAM, AND, &cfg).expect("compiles");
    let kid = program.kernel_ids["dedup"];
    let s1c = program.switch("s1").unwrap();
    println!(
        "compiled dedup kernel: {} stages, Bloom filter of {BITS} bits",
        s1c.report.stages_used
    );

    // 64 distinct flows, each sent 4 times (interleaved).
    let distinct = 64u32;
    let repeats = 4u32;
    let mut sender = NclHost::new(&program);
    for r in 0..repeats {
        for f in 0..distinct {
            sender
                .out(OutInvocation {
                    kernel: "dedup".into(),
                    arrays: vec![TypedArray::from_u32(&[0xABC0_0000 + f])],
                    dest: NodeId::Host(HostId(2)),
                    start: (r * distinct + f) as u64 * 1_000,
                    gap: 0,
                })
                .unwrap();
        }
        let _ = r;
    }
    let mut collector = NclHost::new(&program);
    collector
        .bind_incoming(
            &program,
            "dedup",
            "collect",
            &[(ScalarType::U32, 4096), (ScalarType::U32, 1)],
        )
        .unwrap();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    apps.insert("sender".into(), Box::new(sender));
    apps.insert("collector".into(), Box::new(collector));
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    dep.net.run();

    let collector = dep.net.host_app::<NclHost>(HostId(2)).unwrap();
    let delivered = collector.memory(kid).unwrap().arrays[1].get(0).bits();
    let dropped = dep
        .net
        .switch_pipeline_mut(dep.switch("s1"))
        .unwrap()
        .register_read("dropped", 0)
        .unwrap()
        .bits();
    let sent = (distinct * repeats) as u64;
    println!("sent {sent} records ({distinct} distinct × {repeats})");
    println!("switch dropped {dropped} duplicates; collector saw {delivered}");
    let false_positives = distinct as i64 - delivered as i64;
    println!(
        "false-positive suppressions: {false_positives} \
         ({:.1}% with {} bits for {distinct} flows)",
        100.0 * false_positives as f64 / distinct as f64,
        BITS
    );
    assert_eq!(delivered + dropped, sent);
    assert!(
        delivered <= distinct as u64,
        "no duplicate may survive twice"
    );
    assert!(
        delivered as f64 >= distinct as f64 * 0.85,
        "false-positive rate should be small at this load factor"
    );
    println!("ok");
}
