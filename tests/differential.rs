//! Property-based differential testing of the compiler.
//!
//! The correctness argument for nclc: for *generated* kernels and
//! *random* windows, the reference interpreter (direct IR execution) and
//! the compiled PISA pipeline (windows encoded to NCP packets, parsed,
//! pushed through match-action stages, deparsed) must agree on the
//! output window bytes and the forwarding decision — across arithmetic,
//! branching, switch-memory updates and forwarding primitives.

use c3::{Chunk, Forward, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_ir::lower::{lower, LoweringConfig};
use ncl_ir::{Interpreter, SwitchState};
use ncl_p4::codegen::{decode_window_for_test, encode_window_for_test};
use ncl_p4::{compile_module, CompileOptions};
use pisa::{Pipeline, ResourceModel};
use proptest::prelude::*;

#[path = "common/corpus.rs"]
mod corpus;

/// A randomly generated straight-line/branching kernel over one int
/// array parameter and one switch array.
#[derive(Clone, Debug)]
struct GenKernel {
    stmts: Vec<String>,
    src: String,
}

/// Expression atoms over `data[0..w]`, the loop-free subset.
fn gen_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0..4usize).prop_map(|i| format!("data[{i}]")),
        (-20i32..20).prop_map(|c| format!("({c})")),
        Just("window.seq".to_string()),
        Just("(int)window.len".to_string()),
        (0..4usize, 1..64u32).prop_map(|(i, salt)| format!("(int)_hash(data[{i}], {salt})")),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("&"),
                    Just("|"),
                    Just("^")
                ]
            )
                .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
            (inner.clone(), 1..5u32).prop_map(|(a, s)| format!("({a} >> {s})")),
        ]
    })
    .boxed()
}

fn gen_cond() -> BoxedStrategy<String> {
    (
        gen_expr(1),
        gen_expr(1),
        prop_oneof![Just("<"), Just("=="), Just(">"), Just("!=")],
    )
        .prop_map(|(a, b, op)| format!("{a} {op} {b}"))
        .boxed()
}

fn gen_stmt() -> BoxedStrategy<String> {
    prop_oneof![
        (0..4usize, gen_expr(2)).prop_map(|(i, e)| format!("data[{i}] = {e};")),
        (0..8usize, gen_expr(1)).prop_map(|(i, e)| format!("mem[{i}] += {e};")),
        (gen_cond(), 0..4usize, gen_expr(1), 0..4usize, gen_expr(1)).prop_map(
            |(c, i, a, j, b)| format!(
                "if ({c}) {{ data[{i}] = {a}; }} else {{ data[{j}] = {b}; }}"
            )
        ),
        (gen_cond(), 0..8usize, gen_expr(1))
            .prop_map(|(c, i, e)| format!("if ({c}) {{ mem[{i}] = {e}; }}")),
        gen_cond().prop_map(|c| format!("if ({c}) {{ _reflect(); }} else {{ _drop(); }}")),
        // Map lookup (entries installed by the harness on both sides).
        (0..4usize, 0..4usize).prop_map(|(i, j)| format!(
            "if (auto *p = Idx[(uint64_t)data[{i}]]) {{ data[{j}] = (int)*p; }}"
        )),
        // Window-extension traffic.
        gen_expr(1).prop_map(|e| format!("window.tag = (uint16_t)({e});")),
        (0..4usize).prop_map(|i| format!("data[{i}] = (int)window.tag;")),
    ]
    .boxed()
}

fn gen_kernel() -> BoxedStrategy<GenKernel> {
    proptest::collection::vec(gen_stmt(), 1..6)
        .prop_map(|stmts| {
            let body = stmts.join("\n    ");
            let src = format!(
                "_wnd_ struct W {{ uint16_t tag; }};\n\
                 _net_ _at_(\"s1\") ncl::Map<uint64_t, uint8_t, 16> Idx;\n\
                 _net_ _at_(\"s1\") int mem[8] = {{0}};\n\
                 _net_ _out_ void k(int *data) {{\n    {body}\n}}\n"
            );
            GenKernel { stmts, src }
        })
        .boxed()
}

fn gen_window() -> BoxedStrategy<Window> {
    (
        proptest::collection::vec(any::<i32>(), 4),
        0..4u32,
        any::<u16>(),
    )
        .prop_map(|(vals, seq, tag)| {
            let mut w = Window {
                kernel: KernelId(1),
                seq,
                sender: HostId(1),
                from: NodeId::Host(HostId(1)),
                last: false,
                chunks: vec![Chunk {
                    offset: 0,
                    data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
                }],
                ext: vec![],
            };
            w.ext_write(0, Value::new(ScalarType::U16, tag as u64));
            w
        })
        .boxed()
}

/// Installs the same `key → val` map entries on the interpreter state
/// and the compiled pipeline's lookup tables.
fn sync_map_entries(
    state: &mut SwitchState,
    pipe: &mut Pipeline,
    map_tables: &std::collections::HashMap<String, Vec<String>>,
) {
    for key in 0..8u64 {
        let val = Value::new(ScalarType::U8, key.wrapping_mul(3) & 0xFF);
        state.map_insert(ncl_ir::MapId(0), key, val);
        if let Some(tables) = map_tables.get("Idx") {
            for t in tables {
                pipe.table_insert(
                    t,
                    pisa::Entry {
                        patterns: vec![
                            pisa::MatchPattern::exact(1),
                            pisa::MatchPattern::exact(key),
                        ],
                        action: pisa::ActionRef(1),
                        args: vec![val],
                        priority: 0,
                    },
                )
                .expect("inserts");
            }
        }
    }
}

fn fwd_of(code: u8) -> Forward {
    match code {
        1 => Forward::Reflect,
        2 => Forward::Bcast,
        3 => Forward::Drop,
        _ => Forward::Pass,
    }
}

/// The differential property, callable from both the proptest and the
/// shared-corpus replay: interpreter ≡ compiled pipeline on the given
/// kernel source × window sequence, including persistent switch state.
fn check_kernel_vs_interpreter(src: &str, windows: &[Window]) {
    let checked = ncl_lang::frontend(src, "gen.ncl")
        .unwrap_or_else(|d| panic!("frontend: {}\n{}", ncl_lang::diag::render(&d), src));
    let mut module = lower(&checked, &LoweringConfig::with_mask("k", vec![4]))
        .unwrap_or_else(|d| panic!("lower: {}", ncl_lang::diag::render(&d)));
    ncl_ir::passes::optimize(&mut module);
    let mut opts = CompileOptions::default();
    opts.kernel_ids.insert("k".into(), 1);
    let compiled = match compile_module(&module, &ResourceModel::default(), &opts) {
        Ok(c) => c,
        Err(ncl_p4::CompileError::Resources(_)) => {
            // Random kernels may legitimately exceed the chip (e.g.
            // too many stateful micro-ops on one array). Rejection
            // is correct behaviour, not a miscompile.
            return;
        }
        Err(e) => panic!("compile: {e}\n{src}"),
    };
    let map_tables = compiled.map_tables.clone();
    let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).expect("loads");
    let mut state = SwitchState::from_module(&module);
    // Corpus kernels predate the Map prelude and declare no maps; a
    // kernel that looks one up always has lookup tables to fill.
    if !map_tables.is_empty() {
        sync_map_entries(&mut state, &mut pipe, &map_tables);
    }
    let it = Interpreter::default();
    let kir = module.kernel("k").unwrap();
    let ext_total = module.window_ext.size();
    for (wi, w) in windows.iter().enumerate() {
        let mut w_interp = w.clone();
        let fwd_i = it
            .run_outgoing(kir, &mut w_interp, &mut state)
            .expect("interp");
        let pkt = encode_window_for_test(w, ext_total);
        let out = pipe.process(&pkt).expect("pipeline parses");
        let w_pipe = decode_window_for_test(&out.packet, 1, ext_total);
        let mut w_interp_ext = w_interp.ext.clone();
        w_interp_ext.resize(ext_total, 0);
        assert_eq!(
            &w_interp_ext, &w_pipe.ext,
            "ext diverged, window {wi} of kernel:\n{src}"
        );
        assert_eq!(
            fwd_i,
            fwd_of(out.fwd_code),
            "fwd diverged, window {wi} of kernel:\n{src}"
        );
        assert_eq!(
            &w_interp.chunks, &w_pipe.chunks,
            "chunks diverged, window {wi} of kernel:\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Interpreter ≡ compiled pipeline on random kernels × random
    /// windows, including persistent switch state across a window
    /// sequence.
    #[test]
    fn compiled_pipeline_matches_interpreter(
        kernel in gen_kernel(),
        windows in proptest::collection::vec(gen_window(), 1..4),
    ) {
        check_kernel_vs_interpreter(&kernel.src, &windows);
        let _ = kernel.stmts;
    }

    /// NCP encode/decode is the identity over arbitrary windows.
    #[test]
    fn ncp_codec_roundtrip(
        seq in any::<u32>(),
        sender in 1u16..100,
        last in any::<bool>(),
        chunks in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..4
        ),
        ext in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let w = Window {
            kernel: KernelId(3),
            seq,
            sender: HostId(sender),
            from: NodeId::Host(HostId(sender)),
            last,
            chunks: chunks
                .into_iter()
                .map(|(offset, data)| Chunk { offset, data })
                .collect(),
            ext: ext.clone(),
        };
        let bytes = ncp::codec::encode_window(&w, ext.len());
        let back = ncp::codec::decode_window(&bytes).expect("decodes");
        prop_assert_eq!(back, w);
    }

    /// Fragmentation + reassembly is the identity for any window and
    /// any viable MTU.
    #[test]
    fn fragmentation_roundtrip(
        nvals in 1usize..200,
        seed in any::<u32>(),
        mtu in 64usize..600,
    ) {
        let vals: Vec<u32> = (0..nvals as u32).map(|i| i.wrapping_mul(seed)).collect();
        let w = Window {
            kernel: KernelId(1),
            seq: 9,
            sender: HostId(2),
            from: NodeId::Host(HostId(2)),
            last: true,
            chunks: vec![Chunk {
                offset: 16,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        };
        let frags = ncp::codec::fragment_window(&w, 0, mtu);
        for f in &frags {
            prop_assert!(f.len() <= mtu.max(f.len().min(mtu)));
        }
        let mut r = ncp::codec::Reassembler::new();
        let mut got = None;
        for f in &frags {
            got = r.push(f).expect("valid fragments");
        }
        let got = got.expect("completes");
        prop_assert_eq!(&got.chunks[0].data, &w.chunks[0].data);
        prop_assert_eq!(got.chunks[0].offset, w.chunks[0].offset);
        prop_assert_eq!(got.last, w.last);
    }

    /// Window split + reassemble over random masks is the identity.
    #[test]
    fn window_split_identity(
        elems_per_window in 1u16..16,
        nwindows in 1usize..16,
        seed in any::<u64>(),
    ) {
        use c3::{Mask, WindowSpec};
        let total = elems_per_window as usize * nwindows;
        let vals: Vec<u32> = (0..total as u64)
            .map(|i| (i.wrapping_mul(seed) >> 7) as u32)
            .collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_be_bytes()).collect();
        let spec = WindowSpec::new(
            vec![ScalarType::U32],
            Mask::new([elems_per_window]),
        ).expect("valid spec");
        let ws = spec.split(&[&bytes]).expect("splits");
        prop_assert_eq!(ws.len(), nwindows);
        let back = spec.reassemble(&ws, &[bytes.len()]).expect("reassembles");
        prop_assert_eq!(&back[0], &bytes);
    }
}

/// Deterministic regression cases distilled from earlier proptest runs
/// and hand-picked edge cases.
#[test]
fn differential_edge_cases() {
    let cases = [
        // Signed overflow wrapping through the pipeline.
        "_net_ _at_(\"s1\") int mem[8] = {0};\n_net_ _out_ void k(int *data) { data[0] = data[1] * data[2]; }",
        // Shift by data-dependent-looking constant.
        "_net_ _at_(\"s1\") int mem[8] = {0};\n_net_ _out_ void k(int *data) { data[0] = (data[1] >> 3) ^ data[0]; }",
        // Nested branches both writing the same element.
        "_net_ _at_(\"s1\") int mem[8] = {0};\n_net_ _out_ void k(int *data) {\n  if (data[0] > 0) { if (data[1] > 0) { data[2] = 1; } else { data[2] = 2; } } else { data[2] = 3; }\n}",
        // Forwarding decided in a branch, state write in the other.
        "_net_ _at_(\"s1\") int mem[8] = {0};\n_net_ _out_ void k(int *data) {\n  if (data[0] == 0) { mem[0] += 1; _drop(); } else { _reflect(); }\n}",
    ];
    for src in cases {
        let checked = ncl_lang::frontend(src, "edge.ncl").expect("frontend");
        let mut module = lower(&checked, &LoweringConfig::with_mask("k", vec![4])).expect("lower");
        ncl_ir::passes::optimize(&mut module);
        let mut opts = CompileOptions::default();
        opts.kernel_ids.insert("k".into(), 1);
        let compiled = compile_module(&module, &ResourceModel::default(), &opts).expect("compiles");
        let mut pipe = Pipeline::load(compiled.pipeline, ResourceModel::default()).expect("loads");
        let mut state = SwitchState::from_module(&module);
        let it = Interpreter::default();
        let kir = module.kernel("k").unwrap();
        for vals in [
            [i32::MIN, -1, i32::MAX, 0],
            [0, 0, 0, 0],
            [1, -1, 1, -1],
            [7, 1024, -7, 3],
        ] {
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
            let mut wi = w.clone();
            let f = it.run_outgoing(kir, &mut wi, &mut state).unwrap();
            let out = pipe
                .process(&encode_window_for_test(&w, 0))
                .expect("parses");
            let wp = decode_window_for_test(&out.packet, 1, 0);
            assert_eq!(f, fwd_of(out.fwd_code), "{src}\n{vals:?}");
            assert_eq!(wi.chunks, wp.chunks, "{src}\n{vals:?}");
        }
    }
    let _ = Value::u32(0);
}

/// Replays this file's section of the shared regression corpus
/// (tests/corpus/shared.proptest-regressions). Both recorded shrunk
/// kernels exposed real miscompiles once: a data→data copy chain whose
/// second write read the first's stale PHV field, and a double
/// same-cell `+=` followed by a predicated overwrite whose stage
/// fusion dropped one micro-op. They must stay interpreter-identical.
#[test]
fn corpus_kernel_cases_match_interpreter() {
    let entries =
        corpus::entries_for("tests/differential.rs::compiled_pipeline_matches_interpreter");
    let window = |vals: [i32; 4]| Window {
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
    // (corpus hash, kernel body, window payload) — the GenKernel debug
    // payloads in the corpus record exactly these cases; the hash
    // check keeps the hard-coded replay and the file in sync.
    let cases: [(&str, &str, [i32; 4]); 2] = [
        (
            "6b0894be8d6466ae6c1ec024559e65af2675c254416ddaf046586c28762d40a5",
            "data[0] = (data[0] + data[0]);\n    data[0] = data[1];",
            [0, 1, 0, 0],
        ),
        (
            "cd6efca7da8e6ed33e826b5f7a621f86c37be94342a18a240dc7256db7a50f65",
            "mem[5] += data[0];\n    mem[5] += data[0];\n    \
             if (data[0] < data[0]) { mem[5] = data[0]; }",
            [0, 0, 0, 0],
        ),
    ];
    assert_eq!(entries.len(), cases.len(), "corpus section out of sync");
    for (hash, body, vals) in cases {
        assert!(
            entries.iter().any(|e| e.hash == hash),
            "corpus entry {hash} was pruned without removing its replay"
        );
        let src = format!(
            "_net_ _at_(\"s1\") int mem[8] = {{0}};\n\
             _net_ _out_ void k(int *data) {{\n    {body}\n}}\n"
        );
        check_kernel_vs_interpreter(&src, &[window(vals)]);
    }
}

/// The in-band telemetry differential (DESIGN.md §4.9): the same window
/// crossing the same two-switch chain must yield *bit-identical* hop
/// records whether each switch runs the modeled PISA pipeline, the
/// compiled fast-path executor, or the IR interpreter. Everything in a
/// hop record — switch id, kernel id/version, stage count, micro-op
/// count, dup flag, sim-time ticks — comes from deploy-time metadata
/// and simulated time, so a tier that drifted in timing, versioning, or
/// section handling shows up as a byte diff here.
#[test]
fn telemetry_hop_records_identical_across_tiers() {
    use ncl::core::deploy::{deploy_opts, DeployOptions, SwitchBackend};
    use ncl::core::nclc::{compile, CompileConfig};
    use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
    use ncl::netsim::HostApp;
    use std::collections::HashMap;

    let src = r#"
_net_ _at_("agg") int total[1] = {0};
_net_ _out_ void k(int *d) {
    if (_here("edge")) {
        d[0] = d[0] * 2;
    } else {
        total[0] += d[0];
    }
}
_net_ _in_ void recv(int *d, _ext_ int *out) { out[0] = d[0]; }
"#;
    let and = "host h1\nhost h2\nswitch edge\nswitch agg\n\
               link h1 edge\nlink edge agg\nlink agg h2\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    cfg.masks.insert("recv".into(), vec![1]);
    let program = compile(src, and, &cfg).expect("compiles");

    let run = |backend: SwitchBackend| {
        let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
        let mut sender = NclHost::new(&program);
        sender.enable_telemetry(1.0, 64);
        sender
            .out(OutInvocation {
                kernel: "k".into(),
                arrays: vec![TypedArray::from_i32(&[21, 4, -3])],
                dest: NodeId::Host(HostId(2)),
                start: 0,
                gap: 0,
            })
            .unwrap();
        apps.insert("h1".into(), Box::new(sender));
        let mut receiver = NclHost::new(&program);
        receiver.enable_telemetry(1.0, 64);
        receiver
            .bind_incoming(&program, "k", "recv", &[(ScalarType::I32, 1)])
            .unwrap();
        apps.insert("h2".into(), Box::new(receiver));
        let mut dep = deploy_opts(
            &program,
            apps,
            DeployOptions {
                backend,
                ..Default::default()
            },
        )
        .expect("deploys");
        dep.net.run();
        let h2 = dep.net.host_app_mut::<NclHost>(HostId(2)).unwrap();
        let traces = h2.take_traces();
        assert_eq!(traces.len(), 3, "{backend:?}: every window traced");
        traces
    };

    let pisa = run(SwitchBackend::Pisa);
    let fast = run(SwitchBackend::FastPath);
    let simd = run(SwitchBackend::Simd);
    let interp = run(SwitchBackend::Interp);

    for t in &pisa {
        assert_eq!(t.hops.len(), 2, "both on-path switches stamped");
        assert_ne!(t.hops[0].switch, t.hops[1].switch);
        for h in &t.hops {
            assert!(h.version >= 1, "deploy-time version present");
            assert!(h.stages >= 1, "stage count present");
            assert!(h.uops >= 1, "micro-op count present");
            assert!(h.ticks_out > h.ticks_in, "execution takes sim time");
        }
    }
    let encode = |traces: &[ncl::nctel::WindowTrace]| -> Vec<Vec<u8>> {
        traces
            .iter()
            .map(|t| t.hops.iter().flat_map(|h| h.encode()).collect::<Vec<u8>>())
            .collect()
    };
    assert_eq!(
        encode(&pisa),
        encode(&fast),
        "PISA and fast-path hop records diverge"
    );
    assert_eq!(
        encode(&pisa),
        encode(&simd),
        "PISA and SIMD-tier hop records diverge"
    );
    assert_eq!(
        encode(&pisa),
        encode(&interp),
        "PISA and interpreter hop records diverge"
    );
}

/// `process_traced` is `process` plus a trace: on the shipped AllReduce
/// and KVS pipelines every packet's output, every table hit counter and
/// the register file advance identically under both passes.
#[test]
fn traced_pass_matches_the_plain_pass() {
    use ncl::core::apps::{allreduce_source, kvs_source};
    use ncl::core::mc::{scenario_for, McConfig};
    use ncl::core::nclc::{compile, CompileConfig, LintCode};

    let ar_and = "hosts worker 2\nswitch s1\nlink worker* s1\n";
    let kvs_and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut ar_cfg = CompileConfig::default();
    ar_cfg.masks.insert("allreduce".into(), vec![4]);
    ar_cfg.masks.insert("result".into(), vec![4]);
    let mut kvs_cfg = CompileConfig::default();
    kvs_cfg.masks.insert("query".into(), vec![1, 2, 1]);
    let programs = [
        (allreduce_source(8, 4), ar_and, ar_cfg, "allreduce"),
        (kvs_source(3, 4, 2), kvs_and, kvs_cfg, "query"),
    ];
    for (src, and, cfg, kernel) in programs {
        let program = compile(&src, and, &cfg).expect("compiles");
        let code = LintCode::NonAtomicRmw;
        let (sys, _) = scenario_for(&program, "s1", code, kernel, None, &McConfig::default())
            .expect("the scenario builds")
            .expect("schedule-checkable");
        let config = &program.switch("s1").expect("a switch module").pipeline;
        let load = || Pipeline::load(config.clone(), ResourceModel::default()).expect("loads");
        let (mut plain, mut traced) = (load(), load());
        for w in sys.windows().iter().cycle().take(6) {
            let (out, traces) = traced.process_traced(&w.packet).expect("parses");
            assert_eq!(Some(out), plain.process(&w.packet), "{kernel}");
            assert_eq!(traces.len(), plain.stage_count());
            assert_eq!(traced.stats, plain.stats, "{kernel}: hits advance alike");
            assert_eq!(traced.registers(), plain.registers(), "{kernel}");
        }
        assert!(plain.stats.hit_counts.iter().any(|&h| h > 0));
    }
}
