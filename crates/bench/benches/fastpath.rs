//! E9 — the execution-tier model: tree-walking interpreter vs the
//! compiled fast-path executor ([`ncl_ir::CompiledKernel`]) on the
//! paper's example kernels, plus the end-to-end packet path (decode →
//! execute → encode) the way a software switch runs it. The table also
//! reports the ncvec SIMD tier (DESIGN §4.11) so E9 and E13 share one
//! baseline; E13 (`benches/e13.rs`) is the tier-focused experiment.
//!
//! The fast path lowers `KernelIr` once into a linear, slot-resolved
//! micro-op program and executes it against a reusable scratch with
//! zero steady-state allocations; the interpreter stays as the semantic
//! oracle (see `tests/fastpath_differential.rs`). The speedup table
//! printed here feeds EXPERIMENTS.md and is written to
//! `target/e9-metrics.json` for the CI artifact.

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ncl_core::apps::{allreduce_source, kvs_source};
use ncl_core::{compile, CompileConfig, CompiledProgram};
use ncl_ir::ir::KernelIr;
use ncl_ir::{CompiledKernel, ExecScratch, Interpreter, MapId, SwitchState};
use ncp::codec::{decode_window_into, encode_window_into, BufferPool};
use std::hint::black_box;
use std::time::Instant;

struct Case {
    name: &'static str,
    program: CompiledProgram,
    kernel: &'static str,
    windows: Vec<Window>,
}

/// An allreduce case with `win` elements per window (`win * 4` payload
/// bytes). The 8-element case stresses dispatch overhead; the
/// 64-element case is an MTU-realistic 256-byte aggregation payload.
fn allreduce_case(name: &'static str, win: usize) -> Case {
    let and = "hosts worker 3\nswitch s1\nlink worker* s1\n";
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    // The 256-byte window overflows a Tofino-style PHV; this benchmark
    // measures the two *software* execution tiers, so lift the chip
    // budgets rather than shrink the workload.
    cfg.model.stages = 64;
    cfg.model.ops_per_stage = 4096;
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
            // Mark the cached slots valid so GETs exercise the full
            // cache-hit path (value copy-out + reflect).
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

/// One pass of the workload through the interpreter. Windows execute in
/// place (same shape every pass), so the measurement isolates kernel
/// execution rather than window cloning.
fn run_interp(it: &Interpreter, k: &KernelIr, state: &mut SwitchState, ws: &mut [Window]) {
    for w in ws {
        let _ = black_box(it.run_outgoing(k, w, state));
    }
}

/// One pass through the compiled fast path, same in-place windows.
fn run_fast(
    ck: &CompiledKernel,
    state: &mut SwitchState,
    scratch: &mut ExecScratch,
    ws: &mut [Window],
) {
    for w in ws {
        let _ = black_box(ck.run_outgoing(w, state, scratch));
    }
}

/// The E9 speedup table: median ns/window for all three tiers. The
/// "fastpath" column is the scalar micro-op tier (`with_simd(false)`);
/// the "simd" column is the ncvec tier at the detected level. Returns
/// the rows so `bench_fastpath` can write the JSON artifact.
fn speedup_table(cases: &[Case]) -> Vec<(String, u64, u64, u64)> {
    println!(
        "\nE9: interpreter vs fast path vs ncvec [{}] (ns/window, median of 7)",
        ncl_ir::ncvec::level()
    );
    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "kernel", "interp", "fastpath", "simd", "fast/int", "simd/fast"
    );
    let mut rows = Vec::new();
    for case in cases {
        let k = kir(case);
        let module = case.program.module("s1").unwrap();
        let scalar = CompiledKernel::compile_for(k, module).with_simd(false);
        let simd = CompiledKernel::compile_for(k, module);
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        let median = |f: &mut dyn FnMut()| {
            let mut samples: Vec<u64> = (0..7)
                .map(|_| {
                    let reps = 200;
                    let t = Instant::now();
                    for _ in 0..reps {
                        f();
                    }
                    t.elapsed().as_nanos() as u64 / (reps * case.windows.len()) as u64
                })
                .collect();
            samples.sort_unstable();
            samples[3]
        };
        let mut s_i = fresh_state(case);
        let mut w_i = case.windows.clone();
        let ns_interp = median(&mut || run_interp(&it, k, &mut s_i, &mut w_i));
        let mut s_f = fresh_state(case);
        let mut w_f = case.windows.clone();
        let ns_fast = median(&mut || run_fast(&scalar, &mut s_f, &mut scratch, &mut w_f));
        let mut s_v = fresh_state(case);
        let mut w_v = case.windows.clone();
        let ns_simd = median(&mut || run_fast(&simd, &mut s_v, &mut scratch, &mut w_v));
        println!(
            "{:>12} {:>11} ns {:>11} ns {:>11} ns {:>8.1}x {:>8.2}x",
            case.name,
            ns_interp,
            ns_fast,
            ns_simd,
            ns_interp as f64 / ns_fast.max(1) as f64,
            ns_fast as f64 / ns_simd.max(1) as f64
        );
        rows.push((case.name.to_string(), ns_interp, ns_fast, ns_simd));
    }
    rows
}

/// Writes the E9 metrics artifact CI uploads, matching the shape of
/// `target/e13-metrics.json` so dashboards can diff the two.
fn write_metrics(rows: &[(String, u64, u64, u64)]) {
    let kernels: Vec<String> = rows
        .iter()
        .map(|(name, interp, fast, simd)| {
            format!(
                "{{\"name\":\"{}\",\"interp_ns\":{},\"fastpath_ns\":{},\"simd_ns\":{},\
                 \"fastpath_vs_interp\":{:.3},\"simd_vs_fastpath\":{:.3}}}",
                name,
                interp,
                fast,
                simd,
                *interp as f64 / (*fast).max(1) as f64,
                *fast as f64 / (*simd).max(1) as f64
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e9\",\"simd_level\":\"{}\",\"kernels\":[{}]}}\n",
        ncl_ir::ncvec::level(),
        kernels.join(",")
    );
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/e9-metrics.json", &json).expect("write e9-metrics.json");
    println!("wrote target/e9-metrics.json ({} bytes)", json.len());
}

fn bench_fastpath(c: &mut Criterion) {
    let cases = [
        allreduce_case("allreduce8", 8),
        allreduce_case("allreduce64", 64),
        kvs_case(),
    ];
    let rows = speedup_table(&cases);
    write_metrics(&rows);

    for case in &cases {
        let k = kir(case);
        let module = case.program.module("s1").unwrap();
        let ck = CompiledKernel::compile_for(k, module).with_simd(false);
        let cv = CompiledKernel::compile_for(k, module);
        let it = Interpreter::default();
        let mut scratch = ExecScratch::new();
        let bytes: u64 = case
            .windows
            .iter()
            .map(|w| w.chunks.iter().map(|c| c.data.len() as u64).sum::<u64>())
            .sum();

        let mut g = c.benchmark_group(format!("exec/{}", case.name));
        g.throughput(Throughput::Bytes(bytes));
        let mut s_i = fresh_state(case);
        let mut w_i = case.windows.clone();
        g.bench_function("interp", |b| {
            b.iter(|| run_interp(&it, k, &mut s_i, &mut w_i))
        });
        let mut s_f = fresh_state(case);
        let mut w_f = case.windows.clone();
        g.bench_function("fastpath", |b| {
            b.iter(|| run_fast(&ck, &mut s_f, &mut scratch, &mut w_f))
        });
        let mut s_v = fresh_state(case);
        let mut w_v = case.windows.clone();
        g.bench_function("simd", |b| {
            b.iter(|| run_fast(&cv, &mut s_v, &mut scratch, &mut w_v))
        });

        // The full software-switch packet path: NCP decode (buffer
        // reuse), execute on the default (ncvec) tier, re-encode from
        // a pooled buffer.
        let ext = case.program.checked.window_ext.size();
        let packets: Vec<Vec<u8>> = case
            .windows
            .iter()
            .map(|w| ncp::codec::encode_window(w, ext))
            .collect();
        let mut state = fresh_state(case);
        let mut win = case.windows[0].clone();
        let mut pool = BufferPool::new();
        g.bench_function("packet_path", |b| {
            b.iter(|| {
                for p in &packets {
                    decode_window_into(black_box(p), &mut win).expect("decodes");
                    let _ = black_box(cv.run_outgoing(&mut win, &mut state, &mut scratch));
                    let mut out = pool.get();
                    encode_window_into(&win, ext, &mut out);
                    pool.put(black_box(out));
                }
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_fastpath);
criterion_main!(benches);
