//! Property-based differential testing of the compiled fast-path
//! executor.
//!
//! The tree-walking [`Interpreter`] is the semantic oracle; the linear
//! micro-op [`CompiledKernel`] is the optimized engine, run in both of
//! its tiers — the scalar micro-op fast path (`with_simd(false)`) and
//! the ncvec SIMD tier (default). For every example application and for
//! proptest-generated kernels × random windows, all three must agree
//! bit-for-bit: output windows (chunks and extension bytes), forwarding
//! verdicts, persistent switch state (including the replay-filter
//! `__nclr_dups_*` registers) after every window, host memory for
//! incoming kernels, and — under a step-limit sweep — the partial
//! effects left behind when the budget runs out mid-kernel. The packed
//! register lanes get their own sweep over every slot type, chunk type
//! and direction, and the control plane's out-of-range indices are
//! refused identically in every tier.

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_core::apps::{allreduce_source, kvs_source};
use ncl_core::{compile, CompileConfig};
use ncl_ir::ir::Module;
use ncl_ir::lower::{lower, LoweringConfig};
use ncl_ir::{CompiledKernel, ExecScratch, HostMemory, Interpreter, MapId, SwitchState};
use proptest::prelude::*;

#[path = "common/corpus.rs"]
mod corpus;

/// Expression atoms over `data[0..4]`, the loop-free subset.
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
        (gen_cond(), 0..8usize)
            .prop_map(|(c, i)| format!("if ({c}) {{ mem[{i}] += 1; _bcast(); }}")),
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

fn gen_kernel() -> BoxedStrategy<String> {
    proptest::collection::vec(gen_stmt(), 1..7)
        .prop_map(|stmts| {
            let body = stmts.join("\n    ");
            format!(
                "_wnd_ struct W {{ uint16_t tag; }};\n\
                 _net_ _at_(\"s1\") ncl::Map<uint64_t, uint8_t, 16> Idx;\n\
                 _net_ _at_(\"s1\") int mem[8] = {{0}};\n\
                 _net_ _out_ void k(int *data) {{\n    {body}\n}}\n"
            )
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

fn lower_kernel(src: &str, masks: &[(&str, Vec<u16>)]) -> Module {
    let checked = ncl_lang::frontend(src, "gen.ncl")
        .unwrap_or_else(|d| panic!("frontend: {}\n{src}", ncl_lang::diag::render(&d)));
    let lcfg = LoweringConfig {
        masks: masks
            .iter()
            .map(|(n, m)| (n.to_string(), m.clone()))
            .collect(),
        ..LoweringConfig::default()
    };
    let mut module =
        lower(&checked, &lcfg).unwrap_or_else(|d| panic!("lower: {}", ncl_lang::diag::render(&d)));
    ncl_ir::passes::optimize(&mut module);
    module
}

/// Asserts the two persistent states are bit-identical.
macro_rules! assert_states_eq {
    ($a:expr, $b:expr, $ctx:expr) => {
        prop_assert_eq!(&$a.registers, &$b.registers, "registers diverged: {}", $ctx);
        prop_assert_eq!(&$a.ctrls, &$b.ctrls, "ctrls diverged: {}", $ctx);
        prop_assert_eq!(&$a.maps, &$b.maps, "maps diverged: {}", $ctx);
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Scalar fast path ≡ SIMD tier ≡ interpreter on random kernels ×
    /// random window sequences, with persistent switch state carried
    /// across windows.
    #[test]
    fn fastpath_matches_interpreter(
        src in gen_kernel(),
        windows in proptest::collection::vec(gen_window(), 1..5),
    ) {
        let module = lower_kernel(&src, &[("k", vec![4])]);
        let kir = module.kernel("k").unwrap();
        let scalar = CompiledKernel::compile_for(kir, &module).with_simd(false);
        let simd = CompiledKernel::compile_for(kir, &module);
        let mut s_interp = SwitchState::from_module(&module);
        for key in 0..8u64 {
            let val = Value::new(ScalarType::U8, key.wrapping_mul(3) & 0xFF);
            s_interp.map_insert(MapId(0), key, val);
        }
        let mut s_fast = s_interp.clone();
        let mut s_simd = s_interp.clone();
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        for (wi, w) in windows.iter().enumerate() {
            let mut w_i = w.clone();
            let mut w_f = w.clone();
            let mut w_v = w.clone();
            let f_i = it
                .run_outgoing(kir, &mut w_i, &mut s_interp)
                .expect("interp runs");
            let f_f = scalar
                .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
                .expect("fast path runs");
            let f_v = simd
                .run_outgoing(&mut w_v, &mut s_simd, &mut scratch)
                .expect("simd tier runs");
            prop_assert_eq!(&f_i, &f_f, "fwd diverged, window {} of:\n{}", wi, &src);
            prop_assert_eq!(&f_i, &f_v, "simd fwd diverged, window {} of:\n{}", wi, &src);
            prop_assert_eq!(&w_i, &w_f, "window diverged, window {} of:\n{}", wi, &src);
            prop_assert_eq!(&w_i, &w_v, "simd window diverged, window {} of:\n{}", wi, &src);
            assert_states_eq!(
                s_interp,
                s_fast,
                format_args!("window {wi} of:\n{src}")
            );
            assert_states_eq!(
                s_interp,
                s_simd,
                format_args!("simd, window {wi} of:\n{src}")
            );
        }
    }

    /// Fast path ≡ interpreter for incoming kernels writing host memory.
    #[test]
    fn fastpath_matches_interpreter_incoming(
        vals in proptest::collection::vec(any::<i32>(), 4),
        seq in 0..4u32,
        last in any::<bool>(),
    ) {
        let src = allreduce_source(16, 4);
        let module =
            lower_kernel(&src, &[("allreduce", vec![4]), ("result", vec![4])]);
        let kir = module.kernel("result").unwrap();
        let compiled = CompiledKernel::compile(kir);
        let ext = [(ScalarType::I32, 16), (ScalarType::Bool, 1)];
        let mut m_interp = HostMemory::new(&ext);
        let mut m_fast = HostMemory::new(&ext);
        let w = Window {
            kernel: KernelId(2),
            seq,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last,
            chunks: vec![Chunk {
                offset: seq * 16,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        };
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        let mut w_i = w.clone();
        let mut w_f = w;
        it.run_incoming(kir, &mut w_i, &mut m_interp).expect("interp runs");
        compiled
            .run_incoming(&mut w_f, &mut m_fast, &mut scratch)
            .expect("fast path runs");
        prop_assert_eq!(&m_interp.arrays, &m_fast.arrays);
        prop_assert_eq!(&w_i, &w_f);
    }
}

/// Differential harness for ncvec fusion edge cases: compiles the
/// allreduce kernel at window width `win_len` and drives the three
/// tiers (interpreter, scalar fast path, SIMD) with identical window
/// sequences, asserting bit-identical forwarding verdicts, output
/// windows, and switch state after every window.
///
/// `wild_seq` drives one window at an arbitrary sequence number, so
/// the fused runs' masked slot indices (`accum[seq*len + i]`) can wrap
/// the array — the case `ncvec::plan` must detect and decline into the
/// scalar epilogue. `vals` is cycled to fill the window.
fn check_ragged_window(win_len: usize, wild_seq: u32, vals: &[i32]) {
    // Power-of-two array lengths, so accesses lower to the masked ops
    // fusion matches on — the window width alone supplies the
    // raggedness. (The generator's `allreduce_source(4*len, len)` would
    // make the arrays ragged too, defeating fusion outright.)
    let src = r#"
_net_ _at_("s1") int accum[256] = {0};
_net_ _at_("s1") unsigned count[8] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;
_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] % nworkers == 0) {
        memcpy(data, &accum[base], window.len * 4);
        _bcast();
    } else { _drop(); }
}
"#;
    let module = lower_kernel(src, &[("allreduce", vec![win_len as u16])]);
    let kir = module.kernel("allreduce").unwrap();
    let scalar = CompiledKernel::compile_for(kir, &module).with_simd(false);
    let simd = CompiledKernel::compile_for(kir, &module);
    assert!(
        simd.vec_runs() >= 1,
        "win_len {win_len}: the accumulate loop must fuse for this test to bite"
    );
    let mut s_interp = SwitchState::from_module(&module);
    // nworkers := 3, so the third window per slot broadcasts the sums
    // (exercising the reg→win fused run, not just the accumulate).
    s_interp.ctrl_write(ncl_ir::CtrlId(0), Value::u32(3));
    let mut s_fast = s_interp.clone();
    let mut s_simd = s_interp.clone();
    let it = Interpreter::default();
    let mut scratch = ExecScratch::new();
    // Repeating seq 0 accumulates onto non-zero slots; `wild_seq` hits
    // wrapped slot ranges.
    let seqs = [0u32, 1, wild_seq, 0, 0];
    for (wi, &seq) in seqs.iter().enumerate() {
        let w = Window {
            kernel: KernelId(1),
            seq,
            sender: HostId(1 + (wi % 3) as u16),
            from: NodeId::Host(HostId(1 + (wi % 3) as u16)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: (0..win_len)
                    .flat_map(|i| vals[i % vals.len()].to_be_bytes())
                    .collect(),
            }],
            ext: vec![],
        };
        let mut w_i = w.clone();
        let mut w_f = w.clone();
        let mut w_v = w;
        let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp).unwrap();
        let f_f = scalar
            .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
            .unwrap();
        let f_v = simd
            .run_outgoing(&mut w_v, &mut s_simd, &mut scratch)
            .unwrap();
        assert_eq!(f_i, f_f, "scalar fwd, window {wi} (win_len {win_len})");
        assert_eq!(f_i, f_v, "simd fwd, window {wi} (win_len {win_len})");
        assert_eq!(w_i, w_f, "scalar window, window {wi} (win_len {win_len})");
        assert_eq!(w_i, w_v, "simd window, window {wi} (win_len {win_len})");
        assert_eq!(
            s_interp.registers, s_fast.registers,
            "scalar state, window {wi} (win_len {win_len})"
        );
        assert_eq!(
            s_interp.registers, s_simd.registers,
            "simd state, window {wi} (win_len {win_len})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SIMD tier is bit-identical to the scalar fast path and the
    /// interpreter on ragged window widths — every `len % 8` residue,
    /// so lane bodies of every shape get a scalar epilogue — and on
    /// wrapped slot ranges from arbitrary sequence numbers.
    #[test]
    fn simd_tier_matches_on_ragged_windows(
        win_len in 9usize..40,
        wild_seq in any::<u32>(),
        vals in proptest::collection::vec(any::<i32>(), 1..12),
    ) {
        check_ragged_window(win_len, wild_seq, &vals);
    }
}

/// One element-wise loop over a `_net_` array, in each direction the
/// fusion recognises.
#[derive(Clone, Copy, Debug)]
enum RunKind {
    Accumulate,
    RegToWin,
    WinToReg,
}

/// Differential harness for the packed register lanes: a `slot`-typed
/// array and a `chunk`-typed window parameter meet in one element loop
/// of `len` iterations. The three engines first run a window sequence
/// under the full budget (state carried across windows, `wild_seq`
/// wrapping the slot range), then a step-limit sweep over one window;
/// verdict or error, output window and final state must agree
/// everywhere. `data` is the raw chunk payload: it may stop short of
/// `len` elements, mid-element, or carry non-canonical `bool` bytes.
/// `bulk` writes the copies as `memcpy` where the widths allow it (the
/// shape the KVS and allreduce kernels use; the loop and the `memcpy`
/// unroll in different orders).
#[allow(clippy::too_many_arguments)]
fn check_typed_run(
    kind: RunKind,
    slot: ScalarType,
    chunk: ScalarType,
    len: usize,
    wild_seq: u32,
    data: &[u8],
    stride: usize,
    bulk: bool,
) {
    let bulk = bulk && slot.size() == chunk.size();
    let bytes = format!("window.len * {}", slot.size());
    let each = |stmt: &str| format!("for (unsigned i = 0; i < window.len; ++i) {stmt}");
    let body = match kind {
        RunKind::Accumulate => each("arr[base + i] += data[i];"),
        RunKind::RegToWin if bulk => format!("memcpy(data, &arr[base], {bytes});"),
        RunKind::RegToWin => each("data[i] = arr[base + i];"),
        RunKind::WinToReg if bulk => format!("memcpy(&arr[base], data, {bytes});"),
        RunKind::WinToReg => each("arr[base + i] = data[i];"),
    };
    let src = format!(
        "_net_ _at_(\"s1\") {slot} arr[64] = {{1, 0, 1, 1}};\n\
         _net_ _out_ void k({chunk} *data) {{\n\
             unsigned base = window.seq * window.len;\n\
             {body}\n\
             _drop();\n\
         }}\n"
    );
    let ctx = format!("{kind:?} {slot} <- {chunk}, len {len}, bulk {bulk}");
    let module = lower_kernel(&src, &[("k", vec![len as u16])]);
    let kir = module.kernel("k").unwrap();
    let scalar = CompiledKernel::compile_for(kir, &module).with_simd(false);
    let simd = CompiledKernel::compile_for(kir, &module);
    // No integer promotion sits between same-typed 32- and 64-bit
    // operands, so these loops must reach the lane loops, not only the
    // micro-ops.
    // These shapes must reach the lane loops, not only the micro-ops:
    // same-typed copies (as `memcpy`, or the reg→win loop), and
    // accumulates wide enough that no integer promotion sits between
    // the operands.
    let fuses = match kind {
        RunKind::Accumulate => slot.size() >= 4,
        RunKind::RegToWin => true,
        RunKind::WinToReg => bulk,
    };
    if fuses && slot == chunk && len >= 2 {
        assert_eq!(simd.vec_runs(), 1, "{ctx}: the loop must fuse");
    }
    let window = |seq: u32| Window {
        kernel: KernelId(1),
        seq,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: data.to_vec(),
        }],
        ext: vec![],
    };
    let total = simd.interp_steps();
    let full = std::iter::once((total, vec![0, 1, wild_seq, 0]));
    let sweep = (0..total).step_by(stride).map(|limit| (limit, vec![1]));
    for (limit, seqs) in full.chain(sweep) {
        let it = Interpreter { step_limit: limit };
        let scalar = scalar.clone().with_step_limit(limit);
        let simd = simd.clone().with_step_limit(limit);
        let mut s_interp = SwitchState::from_module(&module);
        let mut s_fast = s_interp.clone();
        let mut s_simd = s_interp.clone();
        let mut scratch = ExecScratch::new();
        for seq in seqs {
            let (mut w_i, mut w_f, mut w_v) = (window(seq), window(seq), window(seq));
            let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp);
            let f_f = scalar.run_outgoing(&mut w_f, &mut s_fast, &mut scratch);
            let f_v = simd.run_outgoing(&mut w_v, &mut s_simd, &mut scratch);
            assert_eq!(f_i.is_ok(), limit == total, "{ctx}: limit {limit}/{total}");
            assert_eq!(f_i, f_f, "{ctx}: scalar verdict, limit {limit}, seq {seq}");
            assert_eq!(f_i, f_v, "{ctx}: simd verdict, limit {limit}, seq {seq}");
            assert_eq!(w_i, w_f, "{ctx}: scalar window, limit {limit}, seq {seq}");
            assert_eq!(w_i, w_v, "{ctx}: simd window, limit {limit}, seq {seq}");
            assert_eq!(
                s_interp, s_fast,
                "{ctx}: scalar state, limit {limit}, seq {seq}"
            );
            assert_eq!(
                s_interp, s_simd,
                "{ctx}: simd state, limit {limit}, seq {seq}"
            );
        }
    }
}

fn gen_scalar_type() -> impl Strategy<Value = ScalarType> {
    proptest::sample::select(ScalarType::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Packed lanes are bit-identical to the interpreter for every slot
    /// type × chunk type (equal: the monomorphic lane loops; different:
    /// the cast path) × direction × ragged length × budget.
    #[test]
    fn packed_lanes_match_across_types_directions_and_budgets(
        kind in prop_oneof![
            Just(RunKind::Accumulate),
            Just(RunKind::RegToWin),
            Just(RunKind::WinToReg)
        ],
        slot in gen_scalar_type(),
        other in gen_scalar_type(),
        mixed in any::<bool>(),
        len in 1usize..40,
        wild_seq in any::<u32>(),
        bytes in proptest::collection::vec(any::<u8>(), 40 * 8),
        short in 0usize..12,
        stride in 1usize..9,
        bulk in any::<bool>(),
    ) {
        let chunk = if mixed { other } else { slot };
        let have = (len * chunk.size()).saturating_sub(short);
        check_typed_run(kind, slot, chunk, len, wild_seq, &bytes[..have], stride, bulk);
    }
}

/// Out-of-range control-plane register accesses are refused — no panic,
/// no effect — and identically on the compiled fast path, the
/// interpreter tier and the PISA model: through the backend's lane
/// banks, by source-level name, and at indices whose bank arithmetic
/// would overflow.
#[test]
fn out_of_range_control_plane_indices_are_refused_in_every_tier() {
    use ncl_core::{ControlPlane, FastPathSwitch, InterpSwitch};
    use netsim::{CtrlOp, FastDatapath};
    use pisa::{Pipeline, ResourceModel};

    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    let p = compile(&allreduce_source(16, 4), and, &cfg).expect("compiles");
    let compiled = p.switch("s1").expect("s1 compiled");
    let cp = ControlPlane::new(compiled);
    let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
    let mut fast = FastPathSwitch::from_program(&p, "s1").expect("fast path builds");
    let mut interp = InterpSwitch::from_program(&p, "s1").expect("interp builds");

    let arrays = [("accum", 16usize), ("count", 4)];
    let snapshot = |fast: &FastPathSwitch, interp: &InterpSwitch, pipe: &Pipeline| {
        let mut all = Vec::new();
        for (array, len) in arrays {
            for i in 0..len {
                let v = fast.register_read(array, i);
                assert!(v.is_some(), "{array}[{i}] is in range");
                assert_eq!(v, interp.fastpath().register_read(array, i), "{array}[{i}]");
                assert_eq!(v, cp.read_register(pipe, array, i), "{array}[{i}]");
                all.push(v);
            }
        }
        all
    };
    let before = snapshot(&fast, &interp, &pipe);
    for (array, len) in arrays {
        for idx in [len, len + 1, len * 4 + 3, usize::MAX / 2, usize::MAX] {
            assert_eq!(fast.register_read(array, idx), None, "{array}[{idx}]");
            assert_eq!(interp.fastpath().register_read(array, idx), None);
            assert_eq!(cp.read_register(&pipe, array, idx), None, "{array}[{idx}]");
            let by_source_name = CtrlOp::RegWrite {
                name: array.into(),
                index: idx,
                value: Value::u32(77),
            };
            let mut ops = cp.reg_write_ops(array, idx, Value::u32(77));
            // The bank's own index space, not the source array's.
            ops.extend(
                compiled.lane_banks[array]
                    .iter()
                    .map(|bank| CtrlOp::RegWrite {
                        name: bank.clone(),
                        index: idx,
                        value: Value::u32(77),
                    }),
            );
            for op in &ops {
                assert!(!fast.ctrl(op), "fast path took {op:?}");
                assert!(!interp.ctrl(op), "interp took {op:?}");
                let CtrlOp::RegWrite { name, index, value } = op else {
                    unreachable!("register writes only")
                };
                assert!(
                    !pipe.register_write(name, *index, *value),
                    "pisa took {op:?}"
                );
            }
            assert!(
                !fast.ctrl(&by_source_name),
                "fast path took {by_source_name:?}"
            );
            assert!(
                !interp.ctrl(&by_source_name),
                "interp took {by_source_name:?}"
            );
        }
    }
    assert_eq!(
        snapshot(&fast, &interp, &pipe),
        before,
        "refused writes left no trace"
    );
}

/// Replays this file's section of the shared regression corpus
/// (tests/corpus/shared.proptest-regressions): pinned lane-boundary
/// widths (residues 1 and 7, and an exact multiple of the lane width),
/// a slot-wrapping sequence number, and overflow-prone values.
#[test]
fn corpus_ragged_windows_match_across_tiers() {
    let entries =
        corpus::entries_for("tests/fastpath_differential.rs::simd_tier_matches_on_ragged_windows");
    assert!(!entries.is_empty(), "corpus section must not be pruned");
    for e in &entries {
        let win_len: usize = corpus::num(&e.payload, "win_len");
        let wild_seq: u32 = corpus::num(&e.payload, "wild_seq");
        let vals: Vec<i32> = corpus::list(&e.payload, "vals");
        check_ragged_window(win_len, wild_seq, &vals);
    }
}

/// Element loops whose bodies ncvec cannot pack — a per-element global
/// (ctrl) read interrupting the run, and a slot stride that crosses
/// lanes — still execute bit-identically on the SIMD tier: fusion
/// either declines at compile time or `plan` falls back to the scalar
/// loop at run time, and the differential cannot tell which.
#[test]
fn fusion_declines_on_global_reads_and_lane_crossing_strides() {
    let src_ctrl_read = r#"
_net_ _at_("s1") int acc[32] = {0};
_net_ _at_("s1") _ctrl_ unsigned bias;
_net_ _out_ void k(int *data) {
    for (unsigned i = 0; i < window.len; ++i)
        acc[i] += data[i] + (int)bias;
    _drop();
}
"#;
    let src_stride = r#"
_net_ _at_("s1") int acc[64] = {0};
_net_ _out_ void k(int *data) {
    for (unsigned i = 0; i < window.len; ++i)
        acc[i + i] += data[i];
    _drop();
}
"#;
    for (name, src) in [("ctrl-read", src_ctrl_read), ("stride-2", src_stride)] {
        let module = lower_kernel(src, &[("k", vec![16])]);
        let kir = module.kernel("k").unwrap();
        let scalar = CompiledKernel::compile_for(kir, &module).with_simd(false);
        let simd = CompiledKernel::compile_for(kir, &module);
        let mut s_interp = SwitchState::from_module(&module);
        if name == "ctrl-read" {
            s_interp.ctrl_write(ncl_ir::CtrlId(0), Value::u32(7));
        }
        let mut s_fast = s_interp.clone();
        let mut s_simd = s_interp.clone();
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        for rep in 0..3 {
            let w = Window {
                kernel: KernelId(1),
                seq: rep,
                sender: HostId(1),
                from: NodeId::Host(HostId(1)),
                last: false,
                chunks: vec![Chunk {
                    offset: 0,
                    data: (0..16i32)
                        .flat_map(|i| (i * 0x0101 - 7 + rep as i32).to_be_bytes())
                        .collect(),
                }],
                ext: vec![],
            };
            let mut w_i = w.clone();
            let mut w_f = w.clone();
            let mut w_v = w;
            let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp).unwrap();
            let f_f = scalar
                .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
                .unwrap();
            let f_v = simd
                .run_outgoing(&mut w_v, &mut s_simd, &mut scratch)
                .unwrap();
            assert_eq!(f_i, f_f, "{name}: scalar fwd, rep {rep}");
            assert_eq!(f_i, f_v, "{name}: simd fwd, rep {rep}");
            assert_eq!(w_i, w_f, "{name}: scalar window, rep {rep}");
            assert_eq!(w_i, w_v, "{name}: simd window, rep {rep}");
            assert_eq!(s_interp.registers, s_fast.registers, "{name}: scalar state");
            assert_eq!(s_interp.registers, s_simd.registers, "{name}: simd state");
        }
    }
}

/// KVS cache churn across all three tiers: interleaved client GETs,
/// client PUT invalidations, and server refreshes over the whole
/// keyspace. Both fused `memcpy` runs in the query kernel are
/// CmpBr-guarded with map-derived dynamic bases — the cache-hit value
/// copy-out (reg→win) and the server refresh (win→reg) — so this
/// drives the guarded vector paths the GET-only workloads never reach.
#[test]
fn simd_tier_matches_on_kvs_churn() {
    let src = kvs_source(3, 16, 8);
    let module = lower_kernel(&src, &[("query", vec![1, 8, 1])]);
    let kir = module.kernel("query").unwrap();
    let scalar = CompiledKernel::compile_for(kir, &module).with_simd(false);
    let simd = CompiledKernel::compile_for(kir, &module);
    let mut s_interp = SwitchState::from_module(&module);
    for key in 0..64u64 {
        s_interp.map_insert(MapId(0), key, Value::new(ScalarType::U8, key % 16));
    }
    let mut s_fast = s_interp.clone();
    let mut s_simd = s_interp.clone();
    let it = Interpreter::default();
    let mut scratch = ExecScratch::new();
    let client = NodeId::Host(HostId(1));
    let server = NodeId::Host(HostId(3));
    for step in 0..200u32 {
        let key = (step as u64 * 7 + 3) % 64;
        let (from, update) = match step % 3 {
            0 => (client, false),         // GET
            1 => (server, true),          // refresh
            _ => (client, step % 2 == 1), // PUT or GET
        };
        let w = Window {
            kernel: KernelId(1),
            seq: step,
            sender: HostId(if from == server { 3 } else { 1 }),
            from,
            last: false,
            chunks: vec![
                Chunk {
                    offset: 0,
                    data: key.to_be_bytes().to_vec(),
                },
                Chunk {
                    offset: 0,
                    data: (0..8u32)
                        .flat_map(|i| (key as u32 * 1000 + i + step).to_be_bytes())
                        .collect(),
                },
                Chunk {
                    offset: 0,
                    data: vec![update as u8],
                },
            ],
            ext: vec![],
        };
        let mut w_i = w.clone();
        let mut w_f = w.clone();
        let mut w_v = w;
        let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp).unwrap();
        let f_f = scalar
            .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
            .unwrap();
        let f_v = simd
            .run_outgoing(&mut w_v, &mut s_simd, &mut scratch)
            .unwrap();
        assert_eq!(f_i, f_f, "scalar fwd, step {step} key {key}");
        assert_eq!(f_i, f_v, "simd fwd, step {step} key {key}");
        assert_eq!(w_i, w_f, "scalar window, step {step} key {key}");
        assert_eq!(w_i, w_v, "simd window, step {step} key {key}");
        assert_eq!(
            s_interp.registers, s_fast.registers,
            "scalar state, step {step} key {key}"
        );
        assert_eq!(
            s_interp.registers, s_simd.registers,
            "simd state, step {step} key {key}"
        );
    }
}

/// Step-limit sweep: for every budget from 0 to past the kernel's full
/// interpreter-equivalent cost, the three tiers agree on (a) whether
/// the budget suffices, and (b) the partial window and state effects
/// left behind when it does not. Fused vector runs pre-charge their
/// interpreter-equivalent step count, so exhaustion must land mid-run
/// at the same element the tree-walking oracle stops at.
#[test]
fn step_limit_sweep_leaves_identical_partial_effects() {
    let win_len = 16usize;
    let src = allreduce_source(win_len * 4, win_len);
    let module = lower_kernel(
        &src,
        &[
            ("allreduce", vec![win_len as u16]),
            ("result", vec![win_len as u16]),
        ],
    );
    let kir = module.kernel("allreduce").unwrap();
    let total = CompiledKernel::compile_for(kir, &module).interp_steps();
    assert!(total > 2 * win_len, "sweep must cross both fused runs");
    let w0 = Window {
        kernel: KernelId(1),
        seq: 0,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: (0..win_len as i32)
                .flat_map(|i| (i * 3 - 5).to_be_bytes())
                .collect(),
        }],
        ext: vec![],
    };
    for limit in 0..=total + 2 {
        let it = Interpreter { step_limit: limit };
        let scalar = CompiledKernel::compile_for(kir, &module)
            .with_simd(false)
            .with_step_limit(limit);
        let simd = CompiledKernel::compile_for(kir, &module).with_step_limit(limit);
        let mut s_interp = SwitchState::from_module(&module);
        // nworkers := 1, so a single window takes the completion branch
        // and the broadcast memcpy (the reg→win fused run) also runs.
        s_interp.ctrl_write(ncl_ir::CtrlId(0), Value::u32(1));
        let mut s_fast = s_interp.clone();
        let mut s_simd = s_interp.clone();
        let mut scratch = ExecScratch::new();
        let mut w_i = w0.clone();
        let mut w_f = w0.clone();
        let mut w_v = w0.clone();
        let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp);
        let f_f = scalar.run_outgoing(&mut w_f, &mut s_fast, &mut scratch);
        let f_v = simd.run_outgoing(&mut w_v, &mut s_simd, &mut scratch);
        assert_eq!(f_i, f_f, "scalar verdict, limit {limit}/{total}");
        assert_eq!(f_i, f_v, "simd verdict, limit {limit}/{total}");
        assert_eq!(w_i, w_f, "scalar partial window, limit {limit}/{total}");
        assert_eq!(w_i, w_v, "simd partial window, limit {limit}/{total}");
        assert_eq!(
            s_interp.registers, s_fast.registers,
            "scalar partial state, limit {limit}/{total}"
        );
        assert_eq!(
            s_interp.registers, s_simd.registers,
            "simd partial state, limit {limit}/{total}"
        );
    }
}

/// Deterministic differential over the example applications: the
/// location-versioned modules the deployment actually runs, driven with
/// full workload window sequences.
#[test]
fn fastpath_matches_interpreter_on_example_apps() {
    // AllReduce (Fig. 4): 3 workers × 4 windows, aggregation + bcast.
    let src = allreduce_source(16, 4);
    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    let p = compile(&src, and, &cfg).expect("allreduce compiles");
    let module = p.module("s1").expect("versioned module");
    let kir = module.kernel("allreduce").unwrap();
    let compiled = CompiledKernel::compile_for(kir, module);
    let mut s_interp = SwitchState::from_module(module);
    s_interp.location_id = p.overlay.node("s1").unwrap().id;
    // nworkers := 3 on both sides (ctrl 0 is the only control var).
    s_interp.ctrl_write(ncl_ir::CtrlId(0), Value::u32(3));
    let mut s_fast = s_interp.clone();
    let it = Interpreter::default();
    let mut scratch = ExecScratch::new();
    for seq in 0..4u32 {
        for worker in 1..=3u16 {
            let w = Window {
                kernel: KernelId(p.kernel_ids["allreduce"]),
                seq,
                sender: HostId(worker),
                from: NodeId::Host(HostId(worker)),
                last: seq == 3,
                chunks: vec![Chunk {
                    offset: seq * 16,
                    data: (0..4)
                        .flat_map(|i| (worker as i32 * 100 + i).to_be_bytes())
                        .collect(),
                }],
                ext: vec![],
            };
            let mut w_i = w.clone();
            let mut w_f = w;
            let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp).unwrap();
            let f_f = compiled
                .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
                .unwrap();
            assert_eq!(f_i, f_f, "allreduce fwd, worker {worker} seq {seq}");
            assert_eq!(w_i, w_f, "allreduce window, worker {worker} seq {seq}");
            assert_eq!(s_interp.registers, s_fast.registers);
            assert_eq!(s_interp.ctrls, s_fast.ctrls);
        }
    }

    // KVS (Fig. 5): cached GETs, Put invalidation, server refresh.
    let and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let src = kvs_source(3, 16, 8);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 8, 1]);
    let p = compile(&src, and, &cfg).expect("kvs compiles");
    let module = p.module("s1").expect("versioned module");
    let kir = module.kernel("query").unwrap();
    let compiled = CompiledKernel::compile_for(kir, module);
    let mut s_interp = SwitchState::from_module(module);
    s_interp.location_id = p.overlay.node("s1").unwrap().id;
    for key in 0..8u64 {
        s_interp.map_insert(MapId(0), key * 7, Value::new(ScalarType::U8, key));
    }
    let mut s_fast = s_interp.clone();
    let it = Interpreter::default();
    let mut scratch = ExecScratch::new();
    let query = |key: u64, update: bool, from: NodeId, seq: u32| Window {
        kernel: KernelId(p.kernel_ids["query"]),
        seq,
        sender: HostId(1),
        from,
        last: false,
        chunks: vec![
            Chunk {
                offset: 0,
                data: key.to_be_bytes().to_vec(),
            },
            Chunk {
                offset: 0,
                data: (0..8u32)
                    .flat_map(|i| (key as u32 + i).to_be_bytes())
                    .collect(),
            },
            Chunk {
                offset: 0,
                data: vec![update as u8],
            },
        ],
        ext: vec![],
    };
    let client = NodeId::Host(HostId(1));
    let server = NodeId::Host(HostId(3));
    let trace = [
        query(7, false, client, 0),    // GET, cached but invalid → pass
        query(7, true, server, 1),     // server refresh → drop
        query(7, false, client, 2),    // GET, valid hit → reflect
        query(7, true, client, 3),     // client PUT → invalidate, pass
        query(7, false, client, 4),    // GET after PUT → miss, pass
        query(9999, false, client, 5), // uncached key → pass
    ];
    for (i, w) in trace.iter().enumerate() {
        let mut w_i = w.clone();
        let mut w_f = w.clone();
        let f_i = it.run_outgoing(kir, &mut w_i, &mut s_interp).unwrap();
        let f_f = compiled
            .run_outgoing(&mut w_f, &mut s_fast, &mut scratch)
            .unwrap();
        assert_eq!(f_i, f_f, "kvs fwd, step {i}");
        assert_eq!(w_i, w_f, "kvs window, step {i}");
        assert_eq!(s_interp.registers, s_fast.registers, "kvs state, step {i}");
        assert_eq!(s_interp.maps, s_fast.maps, "kvs maps, step {i}");
    }
}
