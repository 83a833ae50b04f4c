//! The one kernel grammar the differential harness draws from.
//!
//! A [`Case`] is an NCL program placed at switch `s1`, the
//! configuration it compiles and runs under, and a window stream. Every
//! program has an outgoing kernel `k` over one `data` window array and
//! may have an `_in_` kernel `r` writing `_ext_` host arrays. The
//! grammar covers what the shipped apps use:
//! - arithmetic including `/`, `%` and `>>`, branches and locals;
//! - counted loops that unroll, and `data[i]` loops over the window at
//!   widths on both sides of the fusion threshold, with ragged tails;
//! - `int`, `int8_t`, `int16_t` and `int64_t` elements;
//! - a `window.seq * window.len` accumulator long enough to lane-split;
//! - map lookups, `window.tag`, `_ctrl_` reads and `window.replay`
//!   branches under a replay filter;
//! - `_reflect`, `_drop` and `_bcast`.
//!
//! [`constructs`] tells which of them a case contains, so a census can
//! show that each of them reached every engine.

// Each test target includes this module via `#[path]` and uses only
// the strategies its own properties need.
#![allow(dead_code)]

#[path = "engines.rs"]
pub mod engines;

use c3::{ScalarType, Value, Window};
use engines::{window, Config};
use ncl_ir::lower::{LoweringConfig, ReplayFilter};
use proptest::prelude::*;

/// What every statement of one program is drawn against.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Element type of `data`, `mem` and `acc`.
    pub elem: ScalarType,
    /// Elements per window (`k`'s mask).
    pub width: u16,
    /// Window-sized slots in `acc`. Over a power-of-two width the array
    /// lane-splits: by `window.seq` when its length is a power of two,
    /// else by `seq * width` as it wrapped, shifted back. Other widths
    /// keep it one bank, since `seq * width` wraps into another lane.
    pub slots: u16,
    /// Whether `k` runs under a replay filter.
    pub replay: bool,
    /// Whether the program has the `_in_` kernel `r`.
    pub incoming: bool,
}

/// One generated program, its configuration and its windows.
#[derive(Clone, Debug)]
pub struct Case {
    pub shape: Shape,
    /// `k`'s statements.
    pub body: String,
    pub src: String,
    pub config: Config,
    pub windows: Vec<Window>,
}

/// The type expressions compute in: `int`, or `int64_t` over 64-bit
/// elements.
fn arith(shape: Shape) -> &'static str {
    if shape.elem == ScalarType::I64 {
        "int64_t"
    } else {
        "int"
    }
}

fn gen_shape() -> impl Strategy<Value = Shape> {
    use ScalarType::*;
    (
        prop::sample::select(vec![I32, I32, I32, I8, I16, I64]),
        // Mostly widths that fit the chip; 9, 13 and 24 fuse with a
        // ragged tail on every lane width.
        prop::sample::select(vec![1u16, 2, 3, 4, 4, 4, 8, 8, 16, 9, 13, 24]),
        prop::sample::select(vec![1u16, 2, 3, 4, 6]),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(elem, width, slots, replay, incoming)| Shape {
            elem,
            width,
            slots,
            replay,
            incoming,
        })
}

/// Expressions in the shape's arithmetic type.
pub fn gen_expr(shape: Shape, depth: u32) -> BoxedStrategy<String> {
    let w = shape.width as usize;
    let leaf = prop_oneof![
        (0..w).prop_map(|i| format!("data[{i}]")),
        (-100i32..100).prop_map(|c| format!("({c})")),
        Just("window.seq".to_string()),
        Just("(int)window.len".to_string()),
        (0..w, 1..64u32).prop_map(|(i, salt)| format!("(int)_hash(data[{i}], {salt})")),
        prop::sample::select(vec!["x", "y", "bias"]).prop_map(str::to_string),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop::sample::select(vec!["+", "-", "*", "&", "|", "^", "/", "%"])
            )
                .prop_map(|(a, b, op)| format!("({a} {op} {b})")),
            (inner, 1..5u32).prop_map(|(a, s)| format!("({a} >> {s})")),
        ]
    })
    .boxed()
}

fn gen_cond(shape: Shape) -> BoxedStrategy<String> {
    (
        gen_expr(shape, 1),
        gen_expr(shape, 1),
        prop::sample::select(vec!["<", "==", ">", "!="]),
    )
        .prop_map(|(a, b, op)| format!("{a} {op} {b}"))
        .boxed()
}

/// One statement of `k`.
fn gen_stmt(shape: Shape) -> BoxedStrategy<String> {
    let w = shape.width as usize;
    let (e1, e2, c) = (gen_expr(shape, 1), gen_expr(shape, 2), gen_cond(shape));
    let bytes = format!("window.len * {}", shape.elem.size());
    let each = |body: &str| format!("for (unsigned i = 0; i < window.len; ++i) {body}");
    prop_oneof![
        (0..w, e2.clone()).prop_map(|(i, e)| format!("data[{i}] = {e};")),
        (0..8usize, e1.clone()).prop_map(|(m, e)| format!("mem[{m}] += {e};")),
        (c.clone(), 0..w, e1.clone(), 0..w, e1.clone()).prop_map(|(c, i, a, j, b)| format!(
            "if ({c}) {{ data[{i}] = {a}; }} else {{ data[{j}] = {b}; }}"
        )),
        (c.clone(), 0..8usize, e1.clone())
            .prop_map(|(c, m, e)| format!("if ({c}) {{ mem[{m}] = {e}; }}")),
        c.clone()
            .prop_map(|c| format!("if ({c}) {{ _reflect(); }} else {{ _drop(); }}")),
        (c.clone(), 0..8usize)
            .prop_map(|(c, m)| format!("if ({c}) {{ mem[{m}] += 1; _bcast(); }}")),
        (0..w, 0..w).prop_map(|(i, j)| format!(
            "if (auto *p = Idx[(uint64_t)data[{i}]]) {{ data[{j}] = *p; }}"
        )),
        e1.clone()
            .prop_map(|e| format!("window.tag = (uint16_t)({e});")),
        (0..w).prop_map(|i| format!("data[{i}] = window.tag;")),
        (prop::sample::select(vec!["x", "y"]), e2.clone()).prop_map(|(v, e)| format!("{v} = {e};")),
        (c.clone(), e1.clone())
            .prop_map(|(c, e)| format!("if ({c}) {{ x = {e}; }} else {{ y = {e}; }}")),
        // Scaffolding the optimizer folds away.
        prop::sample::select(vec![
            "x = x + 0;",
            "y = y * 1;",
            "if (1 > 2) { data[0] = 99; }",
        ])
        .prop_map(str::to_string),
        e1.clone()
            .prop_map(|e| format!("for (unsigned i = 0; i < 3; ++i) mem[i] = mem[i] + ({e});")),
        (0..w, e1.clone(), 0..8usize, e1.clone()).prop_map(|(i, a, m, b)| format!(
            "if (window.replay) {{ data[{i}] = {a}; }} else {{ mem[{m}] += {b}; }}"
        )),
        // Window-wide element loops: the runs the micro-op tiers fuse.
        prop::sample::select(vec![
            each("acc[base + i] += data[i];"),
            each("data[i] = acc[base + i];"),
            each("acc[base + i] = data[i];"),
            format!("memcpy(data, &acc[base], {bytes});"),
            format!("memcpy(&acc[base], data, {bytes});"),
        ]),
        // AllReduce's shape: aggregate, then a guarded copy-out.
        prop_oneof![
            c,
            (0..8usize, 1..4u32).prop_map(|(m, n)| format!("++mem[{m}] % {n} == 0"))
        ]
        .prop_map(move |c| {
            let aggregate = each("acc[base + i] += data[i];");
            let copy = format!("memcpy(data, &acc[base], {bytes}); _bcast();");
            format!("{aggregate}\n    if ({c}) {{ {copy} }} else {{ _drop(); }}")
        }),
        (-9i32..9, e1).prop_map(move |(m, e)| each(&format!("data[i] = data[i] * ({m}) + {e};"))),
    ]
    .boxed()
}

fn gen_window(shape: Shape) -> BoxedStrategy<Window> {
    let bytes = shape.width as usize * shape.elem.size();
    (
        proptest::collection::vec(any::<u8>(), bytes),
        prop_oneof![0..8u32, any::<u32>()],
        1..5u16,
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(|(data, seq, sender, tag, last)| {
            let mut w = window(seq, sender, vec![data]);
            w.last = last;
            w.ext_write(0, Value::new(ScalarType::U16, tag as u64));
            w
        })
        .boxed()
}

/// Programs of the full grammar with their configuration and 1–5
/// windows, one of which may be resent (a replay).
pub fn gen_case() -> BoxedStrategy<Case> {
    gen_shape()
        .prop_flat_map(|shape| {
            (
                Just(shape),
                proptest::collection::vec(gen_stmt(shape), 1..7),
                proptest::collection::vec(gen_window(shape), 1..5),
                any::<i32>(),
                any::<bool>(),
            )
        })
        .prop_map(|(shape, stmts, mut windows, bias, resend)| {
            if resend {
                windows.push(windows[0].clone());
            }
            case(shape, &stmts.join("\n    "), windows, bias)
        })
        .boxed()
}

/// The case of `k`'s `body` under `shape`, the ctrl `bias` set to
/// `bias`: what [`gen_case`] draws, and what a corpus replay rebuilds.
pub fn case(shape: Shape, body: &str, windows: Vec<Window>, bias: i32) -> Case {
    Case {
        shape,
        body: body.to_string(),
        src: program(shape, body),
        config: config(shape, bias),
        windows,
    }
}

/// The program around `k`'s statements.
fn program(shape: Shape, body: &str) -> String {
    let (t, a) = (shape.elem, arith(shape));
    let acc_len = shape.width as usize * shape.slots as usize;
    let init = ["1", "2", "3"][..acc_len.min(3)].join(", ");
    let mut src = format!(
        "_wnd_ struct W {{ uint16_t tag; }};\n\
         _net_ _at_(\"s1\") ncl::Map<uint64_t, uint8_t, 16> Idx;\n\
         _net_ _at_(\"s1\") _ctrl_ {a} bias;\n\
         _net_ _at_(\"s1\") {t} mem[8] = {{0}};\n\
         _net_ _at_(\"s1\") {t} acc[{acc_len}] = {{{init}}};\n\
         _net_ _out_ void k({t} *data) {{\n    \
             unsigned base = window.seq * window.len;\n    \
             {a} x = 0; {a} y = 1;\n    \
             {body}\n\
         }}\n"
    );
    if shape.incoming {
        src += &format!(
            "_net_ _in_ void r({t} *data, _ext_ {t} *out, _ext_ bool *done) {{\n    \
                 for (unsigned i = 0; i < window.len; ++i)\n        \
                     out[window.seq * window.len + i] += data[i];\n    \
                 if (window.last) *done = true;\n\
             }}\n"
        );
    }
    src
}

fn config(shape: Shape, bias: i32) -> Config {
    let mut lowering = LoweringConfig::default();
    for kernel in ["k", "r"] {
        lowering.masks.insert(kernel.into(), vec![shape.width]);
    }
    if shape.replay {
        let filter = ReplayFilter {
            senders: 4,
            slots: 8,
        };
        lowering.replay_filters.insert("k".into(), filter);
    }
    let bias_ty = if shape.elem == ScalarType::I64 {
        ScalarType::I64
    } else {
        ScalarType::I32
    };
    Config {
        lowering,
        ctrls: vec![("bias".into(), Value::new(bias_ty, bias as i64 as u64))],
        map_entries: (0..8u64)
            .map(|key| ("Idx".into(), key, Value::new(ScalarType::U8, key * 3)))
            .collect(),
        host_arrays: vec![
            (shape.elem, 8 * shape.width as usize),
            (ScalarType::Bool, 1),
        ],
        step_limit: None,
    }
}

/// Every construct of the grammar by census name, and whether `case`
/// contains it.
pub fn constructs(case: &Case) -> [(&'static str, bool); 21] {
    let has = |s: &str| case.body.contains(s);
    let loops = has("i < window.len") || has("memcpy");
    let fused = loops && case.shape.width >= 2 && (has("acc[base") || has("memcpy"));
    let split = fused && case.shape.width.is_power_of_two();
    [
        ("arithmetic", has(" + ") || has(" * ") || has(" - ")),
        ("division", has(" / ") || has(" % ")),
        ("branch", has("if (")),
        ("local", has("x = ") || has("y = ")),
        ("unrolled loop", has("i < 3")),
        ("map lookup", has("Idx[")),
        ("window.tag", has("window.tag")),
        ("ctrl read", has("bias")),
        ("window.replay", has("window.replay") && case.shape.replay),
        ("_reflect", has("_reflect")),
        ("_drop", has("_drop")),
        ("_bcast", has("_bcast")),
        ("data loop", loops),
        ("fused data loop", fused),
        ("ragged data loop", fused && case.shape.width % 8 != 0),
        ("int8_t", case.shape.elem == ScalarType::I8),
        ("int16_t", case.shape.elem == ScalarType::I16),
        ("int64_t", case.shape.elem == ScalarType::I64),
        ("lane-split array", split),
        (
            "lane split by wrapped product",
            split && !case.shape.slots.is_power_of_two(),
        ),
        ("_in_ kernel", case.shape.incoming),
    ]
}
