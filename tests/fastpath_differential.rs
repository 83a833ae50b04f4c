//! The software switch — its scalar micro-op loops and its SIMD lanes —
//! against the interpreter, and the shipped
//! apps as nclc compiles them, on the one differential harness
//! (`tests/common/engines.rs`, whose five engines
//! `tests/differential.rs` names):
//! - generated programs under step budgets, from "stops within the
//!   first statements" up to "never stops", on the budgeted engines —
//!   the interpreter on the optimized IR, the scalar micro-op loops and
//!   the SIMD lanes — which must agree on whether the budget suffices and on
//!   the partial window and state effects a run leaves behind;
//! - AllReduce's `result` kernel, the host side of the Fig. 4 app:
//!   random sums at random window positions, with and without the
//!   `last` flag, must land in host memory identically;
//! - the example apps over full workload window sequences, built by
//!   `nclc::compile` exactly as deploy loads them;
//! - the ncvec fusion edge cases: ragged window widths, wrapped slot
//!   ranges, packed lanes over every slot and chunk type, a step-limit
//!   sweep, loops fusion must decline, and KVS cache churn;
//! - deferred control-plane ops, through the one engine interface:
//!   out-of-range indices refused identically by the software switch
//!   with and without SIMD lanes and by PISA, and in-range op lists
//!   that land (or not) alike and leave equal verdicts and state.
//!
//! PISA joins every unbudgeted check whose build fits the chip.

#[path = "common/corpus.rs"]
mod corpus;
#[path = "common/gen.rs"]
mod gen;

use c3::{ScalarType, Value, Window};
use gen::engines::{check_engines, ints, window, Config, Program};
use gen::gen_case;
use ncl::core::apps::{allreduce_source, kvs_source};
use ncl::core::nclc::{compile, CompileConfig};
use pisa::{Pipeline, ResourceModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Scalar fast path ≡ SIMD tier ≡ interpreter on generated programs
    /// × window streams under a step budget, switch state carried
    /// across windows.
    #[test]
    fn fastpath_matches_interpreter(
        case in gen_case(),
        limit in prop_oneof![0..64usize, 64..2048usize, Just(1 << 20)],
    ) {
        let mut cfg = case.config.clone();
        cfg.step_limit = Some(limit);
        check_engines(&case.src, &cfg, &case.windows);
    }

    /// Fast path ≡ interpreter for AllReduce's incoming kernel writing
    /// host memory: one worker (`nworkers` = 1), so every window is
    /// broadcast and reaches `result`.
    #[test]
    fn fastpath_matches_interpreter_incoming(
        vals in proptest::collection::vec(any::<i32>(), 4),
        seq in 0..4u32,
        last in any::<bool>(),
    ) {
        let mut cfg = Config::masks(&[("allreduce", &[4]), ("result", &[4])]);
        cfg.ctrls = vec![("nworkers".into(), Value::u32(1))];
        cfg.host_arrays = vec![(ScalarType::I32, 16), (ScalarType::Bool, 1)];
        let mut w = window(seq, 1, vec![ints(&vals)]);
        w.chunks[0].offset = seq * 16;
        w.last = last;
        let out = check_engines(&allreduce_source(16, 4), &cfg, &[w]);
        let host: Vec<Value> = (0..4)
            .map(|i| out.host.arrays[0].get(seq as usize * 4 + i))
            .collect();
        let sums: Vec<Value> = vals.iter().map(|&v| Value::i32(v)).collect();
        prop_assert_eq!(host, sums, "the window's sums reached the host");
        prop_assert_eq!(out.host.arrays[1].get(0), Value::bool(last));
    }
}

/// The ncvec fusion edge cases, on the allreduce kernel at window width
/// `win_len`: three senders, a `nworkers` of 3 so the third window per
/// slot broadcasts the sums (the reg→win fused run, not only the
/// accumulate), seq 0 repeated onto non-zero slots, and one window at
/// `wild_seq` whose masked slot indices (`accum[seq*len + i]`) may wrap
/// the array — the case `ncvec::plan` must detect and decline into the
/// scalar epilogue. `vals` is cycled to fill the window. The power-of-
/// two array lengths lower to the masked ops fusion matches on; the
/// window width alone supplies the raggedness. PISA joins wherever the
/// build fits: `accum` lane-splits only when the window divides it.
fn check_ragged_window(win_len: usize, wild_seq: u32, vals: &[i32]) {
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
    let mut cfg = Config::masks(&[("allreduce", &[win_len as u16])]);
    cfg.ctrls = vec![("nworkers".into(), Value::u32(3))];
    let program = Program::lower(src, &cfg.lowering);
    assert!(
        program.simd("allreduce").vec_runs() >= 1,
        "win_len {win_len}: the accumulate loop must fuse for this test to bite"
    );
    let data: Vec<i32> = (0..win_len).map(|i| vals[i % vals.len()]).collect();
    let windows: Vec<Window> = [0u32, 1, wild_seq, 0, 0]
        .iter()
        .enumerate()
        .map(|(wi, &seq)| window(seq, 1 + (wi % 3) as u16, vec![ints(&data)]))
        .collect();
    program.check(&cfg, &windows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine agrees on ragged window widths — every `len % 8`
    /// residue, so lane bodies of every shape get a scalar epilogue —
    /// and on wrapped slot ranges from arbitrary sequence numbers.
    #[test]
    fn simd_tier_matches_on_ragged_windows(
        win_len in 9usize..40,
        wild_seq in any::<u32>(),
        vals in proptest::collection::vec(any::<i32>(), 1..12),
    ) {
        check_ragged_window(win_len, wild_seq, &vals);
    }
}

/// Replays this property's section of the shared regression corpus:
/// pinned lane-boundary widths (residues 1 and 7, and an exact multiple
/// of the lane width), a slot-wrapping sequence number, and
/// overflow-prone values.
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

/// One element-wise loop over a `_net_` array, in each direction the
/// fusion recognises.
#[derive(Clone, Copy, Debug)]
enum RunKind {
    Accumulate,
    RegToWin,
    WinToReg,
}

/// The packed register lanes: a `slot`-typed array and a `chunk`-typed
/// window parameter meet in one element loop of `len` iterations. The
/// software engines first run a window sequence under the full budget
/// (state carried across windows, `wild_seq` wrapping the slot range),
/// then a step-limit sweep over one window; verdict or error, output
/// window and final state must agree everywhere. `data` is the raw
/// chunk payload: it may stop short of `len` elements, mid-element, or
/// carry non-canonical `bool` bytes — no NCP packet PISA parses, so
/// these runs are software-only throughout. `bulk` writes the copies as
/// `memcpy` where the widths allow it (the shape the KVS and allreduce
/// kernels use; the loop and the `memcpy` unroll in different orders).
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
    let mut cfg = Config::masks(&[("k", &[len as u16])]);
    let program = Program::lower(&src, &cfg.lowering);
    let simd = program.simd("k");
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
    let windows = |seqs: &[u32]| -> Vec<Window> {
        seqs.iter()
            .map(|&s| window(s, 1, vec![data.to_vec()]))
            .collect()
    };
    let total = simd.interp_steps();
    let full = std::iter::once((total, windows(&[0, 1, wild_seq, 0])));
    let sweep = (0..total)
        .step_by(stride)
        .map(|limit| (limit, windows(&[1])));
    for (limit, windows) in full.chain(sweep) {
        cfg.step_limit = Some(limit);
        for (verdict, _) in program.check(&cfg, &windows).outputs {
            assert_eq!(
                verdict.is_ok(),
                limit == total,
                "{ctx}: limit {limit}/{total}"
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

/// Step-limit sweep: for every budget from 0 to past the kernel's full
/// interpreter-equivalent cost, the optimized-IR interpreter and both
/// micro-op tiers agree on (a) whether the budget suffices, and (b) the
/// partial window and state effects left behind when it does not. Fused
/// vector runs pre-charge their interpreter-equivalent step count, so
/// exhaustion must land mid-run at the same element the tree-walking
/// oracle stops at.
#[test]
fn step_limit_sweep_leaves_identical_partial_effects() {
    let win_len = 16u16;
    let src = allreduce_source(win_len as usize * 4, win_len as usize);
    let mut cfg = Config::masks(&[("allreduce", &[win_len]), ("result", &[win_len])]);
    // nworkers := 1, so a single window takes the completion branch and
    // the broadcast memcpy (the reg→win fused run) also runs.
    cfg.ctrls = vec![("nworkers".into(), Value::u32(1))];
    let program = Program::lower(&src, &cfg.lowering);
    let total = program.simd("allreduce").interp_steps();
    assert!(
        total > 2 * win_len as usize,
        "sweep must cross both fused runs"
    );
    let vals: Vec<i32> = (0..win_len as i32).map(|i| i * 3 - 5).collect();
    let w0 = [window(0, 1, vec![ints(&vals)])];
    for limit in 0..=total + 2 {
        cfg.step_limit = Some(limit);
        program.check(&cfg, &w0);
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
    let windows: Vec<Window> = (0..3)
        .map(|rep| {
            let vals: Vec<i32> = (0..16).map(|i| i * 0x0101 - 7 + rep).collect();
            window(rep as u32, 1, vec![ints(&vals)])
        })
        .collect();
    let mut cfg = Config::masks(&[("k", &[16])]);
    check_engines(src_stride, &cfg, &windows);
    cfg.ctrls = vec![("bias".into(), Value::u32(7))];
    check_engines(src_ctrl_read, &cfg, &windows);
}

/// The KVS query kernel with its map (`key → key % 16`, as far as the
/// 16-entry map holds) under cache churn: interleaved client GETs,
/// client PUT invalidations and server refreshes over the whole
/// keyspace. Both fused `memcpy` runs in the query kernel are
/// CmpBr-guarded with map-derived dynamic bases — the cache-hit value
/// copy-out (reg→win) and the server refresh (win→reg) — so this drives
/// the guarded vector paths the GET-only workloads never reach.
#[test]
fn simd_tier_matches_on_kvs_churn() {
    let mut cfg = Config::masks(&[("query", &[1, 8, 1])]);
    cfg.map_entries = (0..64u64)
        .map(|key| ("Idx".into(), key, Value::new(ScalarType::U8, key % 16)))
        .collect();
    let windows: Vec<Window> = (0..200u32)
        .map(|step| {
            let key = (step as u64 * 7 + 3) % 64;
            let (sender, update) = match step % 3 {
                0 => (1, false),         // GET
                1 => (3, true),          // refresh
                _ => (1, step % 2 == 1), // PUT or GET
            };
            let vals: Vec<i32> = (0..8)
                .map(|i| (key as u32 * 1000 + i + step) as i32)
                .collect();
            window(
                step,
                sender,
                vec![key.to_be_bytes().to_vec(), ints(&vals), vec![update as u8]],
            )
        })
        .collect();
    check_engines(&kvs_source(3, 16, 8), &cfg, &windows);
}

/// The example applications through every engine with full workload
/// window sequences, built by `nclc::compile` as deploy loads them.
/// AllReduce (Fig. 4): 3 workers × 4 windows, aggregation and
/// broadcast, and each broadcast through the `result` host kernel into
/// the workers' arrays. KVS (Fig. 5): cached GETs, PUT invalidation,
/// server refresh.
#[test]
fn fastpath_matches_interpreter_on_example_apps() {
    let check = |src: &str, cfg: &Config, windows: &[Window]| {
        Program::compiled(src, &cfg.lowering).check(cfg, windows)
    };
    let mut cfg = Config::masks(&[("allreduce", &[4]), ("result", &[4])]);
    cfg.ctrls = vec![("nworkers".into(), Value::u32(3))];
    cfg.host_arrays = vec![(ScalarType::I32, 16), (ScalarType::Bool, 1)];
    let mut windows = Vec::new();
    for seq in 0..4u32 {
        for worker in 1..=3u16 {
            let vals: Vec<i32> = (0..4).map(|i| worker as i32 * 100 + i).collect();
            let mut w = window(seq, worker, vec![ints(&vals)]);
            w.chunks[0].offset = seq * 16;
            w.last = seq == 3;
            windows.push(w);
        }
    }
    let out = check(&allreduce_source(16, 4), &cfg, &windows);
    assert!(out.pisa, "allreduce fits the chip");
    let sums: Vec<Value> = (0..16).map(|i| Value::i32(600 + 3 * (i % 4))).collect();
    let host: Vec<Value> = (0..16).map(|i| out.host.arrays[0].get(i)).collect();
    assert_eq!(host, sums, "every window's sums reached the host");

    let mut cfg = Config::masks(&[("query", &[1, 8, 1])]);
    cfg.map_entries = (0..8u64)
        .map(|key| ("Idx".into(), key * 7, Value::new(ScalarType::U8, key)))
        .collect();
    let query = |key: u64, update: bool, sender: u16, seq: u32| {
        let vals: Vec<i32> = (0..8).map(|i| key as i32 + i).collect();
        window(
            seq,
            sender,
            vec![key.to_be_bytes().to_vec(), ints(&vals), vec![update as u8]],
        )
    };
    let trace = [
        query(7, false, 1, 0),    // GET, cached but invalid → pass
        query(7, true, 3, 1),     // server refresh → drop
        query(7, false, 1, 2),    // GET, valid hit → reflect
        query(7, true, 1, 3),     // client PUT → invalidate, pass
        query(7, false, 1, 4),    // GET after PUT → miss, pass
        query(9999, false, 1, 5), // uncached key → pass
    ];
    let out = check(&kvs_source(3, 16, 8), &cfg, &trace);
    assert!(out.pisa, "kvs fits the chip");
}

/// Array lengths that are whole windows but no power of two compile
/// and lane-split for the chip, as nclc builds them. AllReduce over 24
/// elements in windows of 8 addresses its slots by `seq * 8` as it
/// wrapped, shifted back, so sequence numbers whose `seq * 8` wraps
/// reach the element every other engine reaches. KVS with 12 cache
/// slots splits on its map's `uint8_t` index, which never wraps.
#[test]
fn whole_window_lengths_that_are_no_power_of_two_reach_the_chip() {
    let mut cfg = Config::masks(&[("allreduce", &[8]), ("result", &[8])]);
    cfg.ctrls = vec![("nworkers".into(), Value::u32(2))];
    cfg.host_arrays = vec![(ScalarType::I32, 24), (ScalarType::Bool, 1)];
    let mut windows = Vec::new();
    for seq in [0, 1, 2, 0x2000_0000, 0x2000_0001, u32::MAX, 5] {
        for worker in 1..=2u16 {
            let vals: Vec<i32> = (0..8).map(|i| worker as i32 * 100 + i).collect();
            windows.push(window(seq, worker, vec![ints(&vals)]));
        }
    }
    let program = Program::compiled(&allreduce_source(24, 8), &cfg.lowering);
    assert!(program.check(&cfg, &windows).pisa, "allreduce over 24 fits");

    let mut cfg = Config::masks(&[("query", &[1, 8, 1])]);
    cfg.map_entries = (0..12u64)
        .map(|key| ("Idx".into(), key * 7, Value::new(ScalarType::U8, key)))
        .collect();
    let windows: Vec<Window> = (0..36u32)
        .map(|step| {
            let key = (step as u64 % 12) * 7;
            let (sender, update) = if step < 12 { (3, true) } else { (1, false) };
            let vals: Vec<i32> = (0..8).map(|i| key as i32 * 10 + i).collect();
            window(
                step,
                sender,
                vec![key.to_be_bytes().to_vec(), ints(&vals), vec![update as u8]],
            )
        })
        .collect();
    let program = Program::compiled(&kvs_source(3, 12, 8), &cfg.lowering);
    assert!(program.check(&cfg, &windows).pisa, "kvs with 12 slots fits");
}

/// Out-of-range control-plane register accesses are refused — no panic,
/// no effect — and identically on the software switch with and without
/// SIMD lanes and on the PISA model, each driven through
/// `FastDatapath::ctrl`: through the backend's lane banks, by
/// source-level name, and at indices whose bank arithmetic would
/// overflow.
#[test]
fn out_of_range_control_plane_indices_are_refused_in_every_tier() {
    use ncl::core::{ControlPlane, FastPathSwitch};
    use ncl::netsim::{CtrlOp, FastDatapath};

    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    let p = compile(&allreduce_source(16, 4), and, &cfg).expect("compiles");
    let compiled = p.switch("s1").expect("s1 compiled");
    let cp = ControlPlane::new(compiled);
    let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
    let mut simd = FastPathSwitch::from_program(&p, "s1").expect("simd tier builds");
    let mut scalar =
        FastPathSwitch::from_program_with(&p, "s1", false).expect("scalar tier builds");

    let arrays = [("accum", 16usize), ("count", 4)];
    let snapshot = |simd: &FastPathSwitch, scalar: &FastPathSwitch, pipe: &Pipeline| {
        let mut all = Vec::new();
        for (array, len) in arrays {
            for i in 0..len {
                let v = simd.register_read(array, i);
                assert!(v.is_some(), "{array}[{i}] is in range");
                assert_eq!(v, scalar.register_read(array, i), "{array}[{i}]");
                assert_eq!(v, cp.read_register(pipe, array, i), "{array}[{i}]");
                all.push(v);
            }
        }
        all
    };
    let before = snapshot(&simd, &scalar, &pipe);
    for (array, len) in arrays {
        for idx in [len, len + 1, len * 4 + 3, usize::MAX / 2, usize::MAX] {
            assert_eq!(simd.register_read(array, idx), None, "{array}[{idx}]");
            assert_eq!(scalar.register_read(array, idx), None);
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
            ops.push(by_source_name);
            for op in &ops {
                assert!(!simd.ctrl(op), "simd tier took {op:?}");
                assert!(!scalar.ctrl(op), "scalar tier took {op:?}");
                assert!(!pipe.ctrl(op), "pisa took {op:?}");
            }
        }
    }
    assert_eq!(
        snapshot(&simd, &scalar, &pipe),
        before,
        "refused writes left no trace"
    );
}

/// Builds `s1` of `p` on every switch engine — the PISA pipeline, the
/// SIMD software switch and its scalar loops — applies `ops` to each
/// through `FastDatapath::ctrl` and runs `windows` through each. Every
/// op must land on all three or on none, and every window must get the
/// same verdict and output window. Returns the engines for state checks
/// and the forwarding codes.
fn ctrl_then_run_alike(
    p: &ncl::core::CompiledProgram,
    ops: &[ncl::netsim::CtrlOp],
    windows: &[Window],
) -> (Pipeline, [ncl::core::FastPathSwitch; 2], Vec<u8>) {
    use ncl::core::FastPathSwitch;
    use ncl::ncp::codec::{decode_window, encode_window};
    use ncl::netsim::FastDatapath;

    let compiled = p.switch("s1").expect("s1 compiled");
    let mut pipe = Pipeline::load(compiled.pipeline.clone(), ResourceModel::default()).unwrap();
    let mut soft = [
        FastPathSwitch::from_program(p, "s1").expect("simd tier builds"),
        FastPathSwitch::from_program_with(p, "s1", false).expect("scalar tier builds"),
    ];
    for op in ops {
        let landed = pipe.ctrl(op);
        for (tier, engine) in ["simd", "scalar"].into_iter().zip(&mut soft) {
            assert_eq!(engine.ctrl(op), landed, "{tier} vs pisa on {op:?}");
        }
    }
    let ext = p.checked.window_ext.size();
    let mut codes = Vec::new();
    for w in windows {
        let bytes = encode_window(w, ext);
        let want = FastDatapath::process(&mut pipe, &bytes).expect("pisa executes");
        for (tier, engine) in ["simd", "scalar"].into_iter().zip(&mut soft) {
            let got = engine.process(&bytes).expect("software switch executes");
            let at = format!("{tier}, sender {} seq {}", w.sender.0, w.seq);
            assert_eq!(got.fwd_code, want.fwd_code, "{at}");
            if want.fwd_code != 3 {
                let got = decode_window(&got.payload).unwrap();
                assert_eq!(got, decode_window(&want.payload).unwrap(), "{at}");
            }
        }
        codes.push(want.fwd_code);
    }
    (pipe, soft, codes)
}

/// One deferred control-op list means the same on every engine. The
/// ops `ControlPlane` emits, by the compiled switch's names, land on
/// PISA, SIMD and scalar alike; ops by source-level name — a control
/// variable, a lane-split array at its source index, a map — and a
/// write past a control copy's one slot land on none. Afterwards the
/// engines give equal verdicts and hold equal registers.
#[test]
fn in_range_control_ops_mean_the_same_on_every_engine() {
    use ncl::core::ControlPlane;
    use ncl::netsim::CtrlOp;

    let reg = |name: &str, index: usize, value: Value| CtrlOp::RegWrite {
        name: name.into(),
        index,
        value,
    };

    // AllReduce: nworkers = 2 through its copies, so the second of two
    // workers broadcasts each slot; the source-name write of 3 would
    // hold every slot back if it landed anywhere.
    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    let p = compile(&allreduce_source(16, 4), and, &cfg).expect("compiles");
    let compiled = p.switch("s1").expect("s1 compiled");
    assert!(
        compiled.lane_banks["accum"].len() > 1,
        "accum is lane-split"
    );
    let cp = ControlPlane::new(compiled);
    let copy = &compiled.ctrl_regs["nworkers"][0];
    let mut ops = cp.ctrl_wr_ops("nworkers", Value::u32(2));
    ops.extend(cp.reg_write_ops("accum", 5, Value::i32(40)));
    ops.extend([
        reg("nworkers", 0, Value::u32(3)),
        reg("accum", 6, Value::i32(50)),
        reg(copy, 1, Value::u32(3)),
    ]);
    let kid = c3::KernelId(p.kernel_ids["allreduce"]);
    let windows: Vec<Window> = (0..4u32)
        .flat_map(|seq| {
            (1..=2u16).map(move |worker| {
                let vals: Vec<i32> = (0..4).map(|i| worker as i32 * 10 + i).collect();
                let mut w = window(seq, worker, vec![ints(&vals)]);
                w.kernel = kid;
                w.chunks[0].offset = seq * 16;
                w
            })
        })
        .collect();
    let (pipe, soft, codes) = ctrl_then_run_alike(&p, &ops, &windows);
    assert_eq!(codes, [3, 2].repeat(4), "the second worker broadcasts");
    for (array, len) in [("accum", 16usize), ("count", 4)] {
        for i in 0..len {
            let want = cp.read_register(&pipe, array, i);
            assert!(want.is_some(), "{array}[{i}] is in range");
            for engine in &soft {
                assert_eq!(engine.register_read(array, i), want, "{array}[{i}]");
            }
        }
    }
    assert_eq!(
        cp.read_register(&pipe, "accum", 5).map(|v| v.bits()),
        Some(40 + 11 + 21),
        "the bank write landed and the workers added to it"
    );

    // A map: an entry by the compiled table names reflects its key;
    // one by the map's source name installs nothing anywhere.
    let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 8> Idx;
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) { _reflect(); }
}
"#;
    let and = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("k".into(), vec![1]);
    let p = compile(src, and, &cfg).expect("compiles");
    let cp = ControlPlane::new(p.switch("s1").expect("s1 compiled"));
    let mut ops = cp.map_insert_ops("Idx", 42, Value::new(ScalarType::U8, 3));
    let by_source_name = cp.map_insert_ops("Idx", 7, Value::new(ScalarType::U8, 4));
    ops.extend(by_source_name.into_iter().map(|op| match op {
        CtrlOp::TableInsert { entry, .. } => CtrlOp::TableInsert {
            table: "Idx".into(),
            entry,
        },
        other => other,
    }));
    let windows: Vec<Window> = [42u64, 7]
        .iter()
        .map(|key| {
            let mut w = window(0, 1, vec![key.to_be_bytes().to_vec()]);
            w.kernel = c3::KernelId(p.kernel_ids["k"]);
            w
        })
        .collect();
    let (_, _, codes) = ctrl_then_run_alike(&p, &ops, &windows);
    assert_eq!(codes, [1, 0], "42 is cached, 7 is not");
}
