//! E13 — the ncvec width-specialized SIMD execution tier (DESIGN
//! §4.11). Regenerates the EXPERIMENTS.md §E13 table: three columns —
//! tree-walking interpreter, scalar micro-op fast path, ncvec SIMD —
//! over the example kernels, headlined by the wide (1024-element)
//! AllReduce windows the tier is built for, plus the end-to-end
//! wall-clock of the netsim AllReduce and KVS workloads on the FastPath
//! vs the Simd deploy backend.
//!
//! Doubles as the CI acceptance gate: on a host with AVX2, the SIMD
//! tier must beat the scalar fast path by ≥2x on the 1024-element
//! AllReduce accumulate (the PR's acceptance floor is 3x, measured on
//! quiet hardware; the CI gate leaves headroom for noisy shared
//! runners). On hosts without AVX2 the gate is informational — the
//! tier's contract there is bit-identical fallback, which this bench
//! asserts on every arm regardless. Writes `target/e13-metrics.json`
//! (the CI artifact; bench binaries run with cwd at the package root,
//! so it lands under crates/bench/).

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_bench::{rule, run_allreduce_e2e, run_kvs_on};
use ncl_core::apps::{allreduce_source, kvs_source};
use ncl_core::deploy::SwitchBackend;
use ncl_core::{compile, CompileConfig, CompiledProgram};
use ncl_ir::ir::KernelIr;
use ncl_ir::{ncvec, CompiledKernel, ExecScratch, Interpreter, MapId, SwitchState};
use std::hint::black_box;
use std::time::Instant;

struct Case {
    name: &'static str,
    program: CompiledProgram,
    kernel: &'static str,
    windows: Vec<Window>,
}

/// An allreduce case with `win` elements per window — the same shape as
/// E9's, with the chip budgets lifted for the software tiers.
fn allreduce_case(name: &'static str, win: usize) -> Case {
    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model.stages = 64;
    cfg.model.ops_per_stage = 8192;
    cfg.model.phv_header_bytes = 1 << 14;
    cfg.model.phv_metadata_bytes = 1 << 14;
    let program = compile(&allreduce_source(8 * win, win), and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut windows = Vec::new();
    for seq in 0..8u32 {
        for worker in 1..=3u16 {
            windows.push(Window {
                kernel: KernelId(kid),
                seq,
                sender: HostId(worker),
                from: NodeId::Host(HostId(worker)),
                last: seq == 7,
                chunks: vec![Chunk {
                    offset: seq * 4 * win as u32,
                    data: (0..win as i32)
                        .flat_map(|i| (worker as i32 * 10 + i).to_be_bytes())
                        .collect(),
                }],
                ext: vec![],
            });
        }
    }
    Case {
        name,
        program,
        kernel: "allreduce",
        windows,
    }
}

fn kvs_case() -> Case {
    let and = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("query".into(), vec![1, 8, 1]);
    let program = compile(&kvs_source(3, 64, 8), and, &cfg).expect("compiles");
    let kid = program.kernel_ids["query"];
    let windows = (0..24u64)
        .map(|i| Window {
            kernel: KernelId(kid),
            seq: i as u32,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![
                Chunk {
                    offset: 0,
                    data: (i * 5).to_be_bytes().to_vec(),
                },
                Chunk {
                    offset: 0,
                    data: (0..8u32).flat_map(|v| v.to_be_bytes()).collect(),
                },
                Chunk {
                    offset: 0,
                    data: vec![0],
                },
            ],
            ext: vec![],
        })
        .collect();
    Case {
        name: "kvs_query",
        program,
        kernel: "query",
        windows,
    }
}

fn fresh_state(case: &Case) -> SwitchState {
    let module = case.program.module("s1").expect("versioned module");
    let mut state = SwitchState::from_module(module);
    state.location_id = case.program.overlay.node("s1").unwrap().id;
    if case.kernel == "allreduce" {
        state.ctrl_write(ncl_ir::CtrlId(0), Value::u32(3));
    } else {
        for key in 0..32u64 {
            state.map_insert(MapId(0), key * 5, Value::new(ScalarType::U8, key));
            let n = state.registers[1].len();
            state.registers[1].set(key as usize % n, Value::bool(true));
        }
    }
    state
}

fn kir(case: &Case) -> &KernelIr {
    case.program
        .module("s1")
        .unwrap()
        .kernel(case.kernel)
        .unwrap()
}

/// Median-of-7 ns/window for one executor closure over the case's
/// window set.
fn median_ns(case: &Case, f: &mut dyn FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..7)
        .map(|_| {
            let reps = 100;
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as u64 / (reps * case.windows.len()) as u64
        })
        .collect();
    samples.sort_unstable();
    samples[3]
}

struct Row {
    name: &'static str,
    vec_runs: usize,
    interp_ns: u64,
    fast_ns: u64,
    simd_ns: u64,
}

fn measure(case: &Case) -> Row {
    let k = kir(case);
    let module = case.program.module("s1").unwrap();
    let scalar = CompiledKernel::compile_for(k, module).with_simd(false);
    let simd = CompiledKernel::compile_for(k, module);
    let it = Interpreter::default();
    let mut scratch = ExecScratch::new();

    let mut s_i = fresh_state(case);
    let mut w_i = case.windows.clone();
    let interp_ns = median_ns(case, &mut || {
        for w in &mut w_i {
            let _ = black_box(it.run_outgoing(k, w, &mut s_i));
        }
    });
    let mut s_f = fresh_state(case);
    let mut w_f = case.windows.clone();
    let fast_ns = median_ns(case, &mut || {
        for w in &mut w_f {
            let _ = black_box(scalar.run_outgoing(w, &mut s_f, &mut scratch));
        }
    });
    let mut s_v = fresh_state(case);
    let mut w_v = case.windows.clone();
    let simd_ns = median_ns(case, &mut || {
        for w in &mut w_v {
            let _ = black_box(simd.run_outgoing(w, &mut s_v, &mut scratch));
        }
    });

    // Bit-identity across tiers: one fresh differential pass. The
    // timed loops above mutate state freely; this pass is the check.
    let mut d_i = fresh_state(case);
    let mut d_f = fresh_state(case);
    let mut d_v = fresh_state(case);
    for w in &case.windows {
        let mut a = w.clone();
        let mut b = w.clone();
        let mut c = w.clone();
        let f_i = it.run_outgoing(k, &mut a, &mut d_i);
        let f_f = scalar.run_outgoing(&mut b, &mut d_f, &mut scratch);
        let f_v = simd.run_outgoing(&mut c, &mut d_v, &mut scratch);
        assert_eq!(f_i, f_f, "{}: scalar verdict diverged", case.name);
        assert_eq!(f_i, f_v, "{}: simd verdict diverged", case.name);
        assert_eq!(a, b, "{}: scalar window diverged", case.name);
        assert_eq!(a, c, "{}: simd window diverged", case.name);
    }
    assert_eq!(d_i.registers, d_f.registers, "{}: scalar state", case.name);
    assert_eq!(d_i.registers, d_v.registers, "{}: simd state", case.name);

    Row {
        name: case.name,
        vec_runs: simd.vec_runs(),
        interp_ns,
        fast_ns,
        simd_ns,
    }
}

fn main() {
    let level = ncvec::level();
    println!("E13: three-tier kernel execution — interpreter vs scalar fast path vs ncvec");
    println!("simd level: {level} (NCVEC_FORCE_SCALAR overrides; bit-identity asserted per arm)\n");

    let cases = [
        allreduce_case("allreduce64", 64),
        allreduce_case("allreduce256", 256),
        allreduce_case("allreduce1024", 1024),
        kvs_case(),
    ];
    let rows: Vec<Row> = cases.iter().map(measure).collect();

    rule(86);
    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>12} {:>11} {:>11}",
        "kernel", "vec runs", "interp ns", "fastpath ns", "simd ns", "simd/interp", "simd/fast"
    );
    rule(86);
    for r in &rows {
        println!(
            "{:>14} {:>8} {:>12} {:>12} {:>12} {:>10.1}x {:>10.2}x",
            r.name,
            r.vec_runs,
            r.interp_ns,
            r.fast_ns,
            r.simd_ns,
            r.interp_ns as f64 / r.simd_ns.max(1) as f64,
            r.fast_ns as f64 / r.simd_ns.max(1) as f64,
        );
    }
    rule(86);

    // End-to-end: identical simulated outcomes, wall-clock difference
    // is the execution tier. Warm one throwaway run per arm to settle
    // allocator state before the measured one.
    println!("\nend-to-end netsim wall-clock (simulated results bit-identical by construction):");
    let (ar_f0, _) = run_allreduce_e2e(3, 16384, 1024, SwitchBackend::FastPath);
    let (_, ar_fast_ms) = run_allreduce_e2e(3, 16384, 1024, SwitchBackend::FastPath);
    let (ar_v0, _) = run_allreduce_e2e(3, 16384, 1024, SwitchBackend::Simd);
    let (_, ar_simd_ms) = run_allreduce_e2e(3, 16384, 1024, SwitchBackend::Simd);
    assert_eq!(ar_f0.completion, ar_v0.completion, "sim results diverged");
    assert_eq!(ar_f0.bytes_on_wire, ar_v0.bytes_on_wire);
    let (kv_f0, _) = run_kvs_on(2, 200, 1.1, 64, 16, 8, SwitchBackend::FastPath);
    let (_, kv_fast_ms) = run_kvs_on(2, 200, 1.1, 64, 16, 8, SwitchBackend::FastPath);
    let (kv_v0, _) = run_kvs_on(2, 200, 1.1, 64, 16, 8, SwitchBackend::Simd);
    let (_, kv_simd_ms) = run_kvs_on(2, 200, 1.1, 64, 16, 8, SwitchBackend::Simd);
    assert_eq!(kv_f0.server_ops, kv_v0.server_ops, "kvs results diverged");
    assert!((kv_f0.hit_rate - kv_v0.hit_rate).abs() < 1e-12);
    rule(66);
    println!(
        "{:>22} {:>14} {:>14} {:>10}",
        "workload", "fastpath ms", "simd ms", "speedup"
    );
    rule(66);
    println!(
        "{:>22} {:>14.1} {:>14.1} {:>9.2}x",
        "allreduce 1024x16Ki",
        ar_fast_ms,
        ar_simd_ms,
        ar_fast_ms / ar_simd_ms.max(1e-9)
    );
    println!(
        "{:>22} {:>14.1} {:>14.1} {:>9.2}x",
        "kvs zipf(1.1)",
        kv_fast_ms,
        kv_simd_ms,
        kv_fast_ms / kv_simd_ms.max(1e-9)
    );
    rule(66);

    // Acceptance gate: ≥2x over the scalar fast path on the wide
    // AllReduce, enforced where AVX2 is available.
    let wide = rows
        .iter()
        .find(|r| r.name == "allreduce1024")
        .expect("wide row");
    let gate = wide.fast_ns as f64 / wide.simd_ns.max(1) as f64;
    let enforced = level == ncvec::SimdLevel::Avx2;
    println!(
        "\nacceptance: simd vs fastpath on allreduce1024 = {gate:.2}x \
         (gate >= 2x, {})",
        if enforced {
            "enforced: avx2 detected"
        } else {
            "informational: no avx2 on this host"
        }
    );
    assert!(
        !enforced || gate >= 2.0,
        "ncvec SIMD tier only {gate:.2}x over the scalar fast path on allreduce1024"
    );

    let kernels_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"vec_runs\":{},\"interp_ns\":{},\"fastpath_ns\":{},\
                 \"simd_ns\":{},\"simd_vs_fastpath\":{:.3}}}",
                r.name,
                r.vec_runs,
                r.interp_ns,
                r.fast_ns,
                r.simd_ns,
                r.fast_ns as f64 / r.simd_ns.max(1) as f64
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e13\",\"simd_level\":\"{level}\",\"kernels\":[{}],\
         \"gate\":{{\"kernel\":\"allreduce1024\",\"required\":2.0,\"measured\":{gate:.3},\
         \"enforced\":{enforced}}},\"e2e\":[{{\"workload\":\"allreduce\",\
         \"fastpath_ms\":{ar_fast_ms:.3},\"simd_ms\":{ar_simd_ms:.3}}},{{\"workload\":\"kvs\",\
         \"fastpath_ms\":{kv_fast_ms:.3},\"simd_ms\":{kv_simd_ms:.3}}}]}}\n",
        kernels_json.join(",")
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e13-metrics.json", &json).expect("write target/e13-metrics.json");
    println!("wrote target/e13-metrics.json ({} bytes)", json.len());
}
