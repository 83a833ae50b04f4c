//! Tests of the emitted P4-16 text: structural properties every
//! generated program must hold, rendered-op coverage for each primitive,
//! and stability (same input → same output).

use ncl_ir::lower::{lower, LoweringConfig};
use ncl_p4::{compile_module, CompileOptions};
use pisa::ResourceModel;

fn emit(src: &str, kernel: &str, mask: Vec<u16>) -> String {
    let checked = ncl_lang::frontend(src, "t.ncl").expect("frontend");
    let mut module = lower(&checked, &LoweringConfig::with_mask(kernel, mask)).expect("lower");
    ncl_ir::passes::optimize(&mut module);
    compile_module(
        &module,
        &ResourceModel::default(),
        &CompileOptions::default(),
    )
    .expect("compiles")
    .p4_source
}

/// Every generated program carries the full template plumbing.
#[test]
fn structural_invariants() {
    let p4 = emit("_net_ _out_ void k(int *d) { d[0] += 1; }", "k", vec![1]);
    for needle in [
        "#include <core.p4>",
        "#include <v1model.p4>",
        "header ethernet_t",
        "header ipv4_t",
        "header udp_t",
        "header ncp_t",
        "struct metadata_t",
        "parser NclParser",
        "state parse_ncp",
        "control NclIngress",
        "table ipv4_lpm",
        "control NclDeparser",
        "V1Switch",
    ] {
        assert!(p4.contains(needle), "missing '{needle}'");
    }
    // Balanced braces (cheap syntactic sanity).
    let open = p4.matches('{').count();
    let close = p4.matches('}').count();
    assert_eq!(open, close, "unbalanced braces");
}

/// Each primitive class renders.
#[test]
fn op_rendering_coverage() {
    let src = r#"
_wnd_ struct W { uint16_t tag; };
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 8> Idx;
_net_ _at_("s1") unsigned ctr[4] = {0};
_net_ _out_ void k(uint64_t key, int *d) {
    unsigned x = (unsigned)d[0];            // Cast
    x = x + 3;                              // Alu
    d[1] = d[0] > 0 ? d[0] : d[1];          // Select
    window.tag = window.tag + 1;            // ext field
    ctr[window.seq] += x;                   // RegRead/RegWrite
    if (auto *i = Idx[key]) {               // map table
        if (!(d[0] > 5)) { _reflect(); }    // UnAlu(Not) + Fwd
    }
}
"#;
    let p4 = emit(src, "k", vec![1, 2]);
    assert!(p4.contains(".read("), "RegRead rendering");
    assert!(p4.contains(".write("), "RegWrite rendering");
    assert!(p4.contains("table Idx__"), "map table");
    assert!(p4.contains("exact;"), "exact key");
    assert!(p4.contains("hdr.wext.tag"), "ext field reference");
    assert!(p4.contains("? (bit<8>)1 : 0"), "comparison rendering");
    assert!(p4.contains("if (meta."), "guard rendering");
    assert!(p4.contains("size = 8;"), "map capacity");
}

/// Emission is deterministic: eight compiles of a program emit one
/// source. Each program here offers a hash map's walk more than one
/// order to get wrong — four register arrays (NCP-R allreduce: `accum`,
/// `count`, the replay filter's two), two arrays and a map (KVS), two
/// kernels.
#[test]
fn emission_is_stable() {
    let allreduce = r#"
_net_ _at_("s1") int accum[64] = {0};
_net_ _at_("s1") unsigned count[8] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;
_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    if (window.replay) {
        if (count[window.seq] != 0 && count[window.seq] % nworkers == 0) {
            memcpy(data, &accum[base], window.len * 4);
            _reflect();
        } else { _drop(); }
    } else {
        for (unsigned i = 0; i < window.len; ++i)
            accum[base + i] += data[i];
        if (++count[window.seq] % nworkers == 0) {
            memcpy(data, &accum[base], window.len * 4);
            _bcast();
        } else { _drop(); }
    }
}
"#;
    let kvs = r#"
const uint16_t SERVER = 3;
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 16> Idx;
_net_ _at_("s1") uint32_t Cache[16][4] = {{0}};
_net_ _at_("s1") bool Valid[16] = {false};
_net_ _out_ void query(uint64_t key, uint32_t *val, bool update) {
    if (window.from != SERVER && update) {
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != SERVER) {
        if (auto *idx = Idx[key]) {
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], 16); _reflect(); } }
    } else if (update) {
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, 16);
        Valid[*idx] = true; _drop();
    } else { }
}
"#;
    let two_kernels = "_net_ _out_ void ka(int *d) { d[0] += 1; }\n\
                       _net_ _out_ void kb(uint64_t *d) { d[0] += 2; }";
    let mut filtered = LoweringConfig::with_mask("allreduce", [8]);
    let filter = ncl_ir::lower::ReplayFilter {
        senders: 4,
        slots: 8,
    };
    filtered.replay_filters.insert("allreduce".into(), filter);
    let mut both = LoweringConfig::with_mask("ka", [2]);
    both.masks.insert("kb".into(), vec![1]);
    for (src, cfg, arrays) in [
        (allreduce, filtered, 4),
        (kvs, LoweringConfig::with_mask("query", [1, 4, 1]), 2),
        (two_kernels, both, 0),
    ] {
        let checked = ncl_lang::frontend(src, "t.ncl").expect("frontend");
        let mut module = lower(&checked, &cfg).expect("lower");
        ncl_ir::passes::optimize(&mut module);
        assert_eq!(module.registers.len(), arrays);
        let emit = || {
            let opts = CompileOptions::default();
            let compiled = compile_module(&module, &ResourceModel::default(), &opts);
            compiled.expect("compiles").p4_source
        };
        let first = emit();
        for _ in 1..8 {
            assert!(emit() == first, "two compiles, two sources");
        }
    }
}

/// Lane decisions are documented in the emitted source.
#[test]
fn lane_decisions_in_header_comment() {
    let src = r#"
_net_ _at_("s1") int acc[16] = {0};
_net_ _out_ void k(int *d) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i) acc[base + i] += d[i];
}
"#;
    let p4 = emit(src, "k", vec![4]);
    assert!(p4.contains("lane split: acc"), "{p4}");
    assert!(p4.contains("acc__l0") && p4.contains("acc__l3"));
}

/// Two kernels yield two parser branches and disjoint window headers.
#[test]
fn multi_kernel_parser_branches() {
    let src = "_net_ _out_ void ka(int *d) { d[0] += 1; }\n\
               _net_ _out_ void kb(uint64_t *d) { d[0] += 2; }";
    let checked = ncl_lang::frontend(src, "t.ncl").unwrap();
    let mut cfg = LoweringConfig::default();
    cfg.masks.insert("ka".into(), vec![2]);
    cfg.masks.insert("kb".into(), vec![1]);
    let mut module = lower(&checked, &cfg).unwrap();
    ncl_ir::passes::optimize(&mut module);
    let compiled = compile_module(
        &module,
        &ResourceModel::default(),
        &CompileOptions::default(),
    )
    .unwrap();
    let p4 = &compiled.p4_source;
    let ka = compiled.kernel_ids["ka"];
    let kb = compiled.kernel_ids["kb"];
    assert!(p4.contains(&format!("{ka}: parse_win_k{ka}")));
    assert!(p4.contains(&format!("{kb}: parse_win_k{kb}")));
    assert!(p4.contains(&format!("header win_k{ka}_t")));
    assert!(p4.contains(&format!("header win_k{kb}_t")));
    // ka's window: 2 × bit<32> elements; kb's: 1 × bit<64>.
    assert!(p4.contains("bit<64> p0_e0"));
}
