//! Differential testing: one NCL program, every engine nclc compiles
//! it for, bit-identical results.
//!
//! The harness (`tests/common/engines.rs`) runs each program on five
//! engines and compares them after every window — verdict, chunks, ext
//! bytes, and the full register, ctrl and map state:
//! 1. the reference interpreter on the raw lowered IR (the oracle);
//! 2. the interpreter on the optimized, versioned IR;
//! 3. the scalar micro-op fast path (`CompiledKernel::with_simd(false)`);
//! 4. the ncvec SIMD tier;
//! 5. the loaded PISA pipeline, windows encoded to NCP packets, parsed,
//!    pushed through match-action stages and deparsed, its registers
//!    and ctrl copies read back through the lane-bank names.
//!
//! Windows a switch forwards also reach the program's `_in_` kernels on
//! engines 1–4, whose `_ext_` host memory must agree. Here the programs
//! are drawn from one grammar (`tests/common/gen.rs`), with a census of
//! every construct of the grammar reaching all five engines, or pinned
//! as regressions; `tests/fastpath_differential.rs` runs the shipped
//! apps, the fusion edge cases and the step-budget sweeps on the same
//! harness. Codec, fragmentation and window-split identities,
//! deploy-level hop-record parity between PISA and the software switch,
//! and the traced PISA pass close the file.

#[path = "common/corpus.rs"]
mod corpus;
#[path = "common/gen.rs"]
mod gen;

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Window};
use gen::engines::{check_engines, ints, window, Config};
use gen::{case, constructs, gen_case, Shape};
use pisa::{Pipeline, ResourceModel};
use proptest::prelude::*;

/// Every engine agrees with the interpreter on generated programs ×
/// window streams, switch state carried across windows: the 128 cases
/// a `proptest!` property draws from its fixed seed. The same pass
/// takes the census: each construct of the grammar occurs in at least
/// one program that reached all five engines, and most programs fit
/// the chip — a generator that mostly overruns it would test PISA on
/// nothing.
#[test]
fn compiled_pipeline_matches_interpreter() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    const CASES: u32 = 128;
    // Measured 107 of 128 (0.84).
    const PISA_FLOOR: f64 = 0.8;

    let mut runner = TestRunner::deterministic();
    let mut reached = std::collections::BTreeMap::new();
    let mut pisa = 0;
    for _ in 0..CASES {
        let case = gen_case().new_tree(&mut runner).unwrap().current();
        let everywhere = check_engines(&case.src, &case.config, &case.windows).pisa;
        pisa += everywhere as u32;
        for (name, present) in constructs(&case) {
            *reached.entry(name).or_insert(0) += (present && everywhere) as u32;
        }
    }
    let share = pisa as f64 / CASES as f64;
    println!("{pisa} of {CASES} programs reached PISA ({share:.2}); by construct: {reached:?}");
    for (name, n) in &reached {
        assert!(*n > 0, "no program with {name} reached every engine");
    }
    assert!(share >= PISA_FLOOR, "PISA reach {share:.2} < {PISA_FLOOR}");
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
    let windows: Vec<Window> = [
        [i32::MIN, -1, i32::MAX, 0],
        [0, 0, 0, 0],
        [1, -1, 1, -1],
        [7, 1024, -7, 3],
    ]
    .iter()
    .map(|vals| window(0, 1, vec![ints(vals)]))
    .collect();
    for src in cases {
        let out = check_engines(src, &Config::masks(&[("k", &[4])]), &windows);
        assert!(out.pisa, "compiles for the chip: {src}");
    }
}

/// Replays this property's section of the shared regression corpus
/// (tests/corpus/shared.proptest-regressions). The two kernel-body
/// entries exposed PISA miscompiles once: a data→data copy chain whose
/// second write read the first's stale PHV field, and a double
/// same-cell `+=` followed by a predicated overwrite whose stage fusion
/// dropped one micro-op (that kernel no longer fits the chip, so it
/// holds the software engines only). The harness's own entries exposed
/// three PISA faults: a lane split that sent a window past the array's
/// end elsewhere than the interpreter does (`acc[3]` as three one-slot
/// banks read slot 0 for a `seq * 3` that wraps to 2); a stage split
/// that ran a 16-lane predicated copy-out before its predicate (every
/// AllReduce window of 16 or more elements broadcast scrambled sums);
/// and a read written back to its own bank, whose stage allocation
/// never settled instead of being rejected for resources.
#[test]
fn corpus_kernel_cases_match_interpreter() {
    let entries =
        corpus::entries_for("tests/differential.rs::compiled_pipeline_matches_interpreter");
    let present = |hash: &str| {
        assert!(
            entries.iter().any(|e| e.hash == hash),
            "corpus entry {hash} was pruned without removing its replay"
        )
    };
    // (corpus hash, kernel body, window payload, fits the chip) — the
    // GenKernel debug payloads in the corpus record exactly these
    // cases; the hash check keeps the hard-coded replay and the file in
    // sync.
    let bodies: [(&str, &str, [i32; 4], bool); 2] = [
        (
            "6b0894be8d6466ae6c1ec024559e65af2675c254416ddaf046586c28762d40a5",
            "data[0] = (data[0] + data[0]);\n    data[0] = data[1];",
            [0, 1, 0, 0],
            true,
        ),
        (
            "cd6efca7da8e6ed33e826b5f7a621f86c37be94342a18a240dc7256db7a50f65",
            "mem[5] += data[0];\n    mem[5] += data[0];\n    \
             if (data[0] < data[0]) { mem[5] = data[0]; }",
            [0, 0, 0, 0],
            false,
        ),
    ];
    // (corpus hash, width, body, seq, window elements): the arguments
    // of `gen::case` the harness entries record, over `int` elements.
    let each = "for (unsigned i = 0; i < window.len; ++i)";
    let tens: Vec<i32> = (0..16).map(|i| i * 10).collect();
    let generated = [
        (
            "61a1cedf6d496b1dce0d1d6cd269767d2a48e55ec74556307ed18bf63b7ea82c",
            3,
            format!("{each} acc[base + i] += data[i];"),
            1_431_655_766,
            vec![1, 2, 3],
        ),
        (
            "3fb7c872df85edcb19b4dd1ae605130979c9a38879406e3ebfe1b173aeaad05d",
            16,
            format!(
                "{each} acc[base + i] += data[i];\n    if (window.seq == 0) \
                 {{ memcpy(data, &acc[base], window.len * 4); _bcast(); }} else {{ _drop(); }}"
            ),
            0,
            tens.clone(),
        ),
        (
            "5870f55d18016da337cca999adba9f42522aa29420f7366410a34043a1557d8a",
            8,
            format!(
                "{each} data[i] = acc[base + i];\n    memcpy(&acc[base], data, window.len * 4);"
            ),
            0,
            tens[..8].to_vec(),
        ),
    ];
    assert_eq!(
        entries.len(),
        bodies.len() + generated.len(),
        "corpus section out of sync"
    );
    for (hash, body, vals, fits) in bodies {
        present(hash);
        let src = format!(
            "_net_ _at_(\"s1\") int mem[8] = {{0}};\n\
             _net_ _out_ void k(int *data) {{\n    {body}\n}}\n"
        );
        let windows = [window(0, 1, vec![ints(&vals)])];
        let out = check_engines(&src, &Config::masks(&[("k", &[4])]), &windows);
        assert_eq!(out.pisa, fits, "{src}");
    }
    for (hash, width, body, seq, vals) in generated {
        present(hash);
        let shape = Shape {
            elem: ScalarType::I32,
            width,
            slots: 1,
            replay: false,
            incoming: false,
        };
        let c = case(shape, &body, vec![window(seq, 1, vec![ints(&vals)])], 0);
        check_engines(&c.src, &c.config, &c.windows);
    }
}

/// Lane splits at their boundaries, as the accumulate of AllReduce
/// meets them: an array one element past a whole number of windows (a
/// split would pad a bank, a slot no other engine has), a product that
/// wraps into another lane (`seq * 3` over 24 elements), and a product
/// whose wrap the length does not divide (`seq * 8` over 24, split and
/// addressed by the wrapped product), at sequence numbers that wrap
/// them. Only the last fits the chip; the others stay one bank.
#[test]
fn lane_splits_keep_the_index_wrap() {
    let windows: Vec<Window> = [0, 1, 0x5555_5556, 0x2000_0001, u32::MAX]
        .iter()
        .map(|&seq| window(seq, 1, vec![ints(&[1, -2, 3, -4, 5, -6, 7, -8])]))
        .collect();
    for (len, width, fits) in [(5, 4, false), (24, 3, false), (24, 8, true)] {
        let src = format!(
            "_net_ _at_(\"s1\") int acc[{len}] = {{0}};\n\
             _net_ _out_ void k(int *data) {{\n    \
                 unsigned base = window.seq * window.len;\n    \
                 for (unsigned i = 0; i < window.len; ++i) acc[base + i] += data[i];\n\
             }}\n"
        );
        let out = check_engines(&src, &Config::masks(&[("k", &[width])]), &windows);
        assert_eq!(out.pisa, fits, "{src}");
    }
}

proptest! {
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

/// The in-band telemetry differential (DESIGN.md §4.9): the same window
/// crossing the same two-switch chain must yield *bit-identical* hop
/// records whether each switch runs the modeled PISA pipeline or the
/// software switch. Everything in a
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
    let simd = run(SwitchBackend::Simd);

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
        encode(&simd),
        "PISA and software-switch hop records diverge"
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
