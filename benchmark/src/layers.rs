//! Standalone replays: each layer the benchmark cannot time from
//! inside a running job is driven through its public functions with the
//! job's own window stream, so its cost per window is measured where
//! the work happens without adding a timer to any crate.

use crate::alloc::thread_allocs;
use crate::fabric::{
    kvs_value, ArFabric, Fabric, KvsFabric, KVS_CLIENTS, KVS_HOT_THRESHOLD, KVS_WORDS, WORKERS,
};
use crate::stats::undisturbed;
use ncl::core::nclc::CompiledProgram;
use ncl::core::runtime::{kernel_runtimes, TypedArray};
use ncl::core::{ControlPlane, FastPathSwitch};
use ncl::ir::{CompiledKernel, ExecScratch, Interpreter, KernelIr};
use ncl::model::{Forward, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl::ncp::codec::{decode_window_into, encode_window, encode_window_into};
use ncl::ncp::{Receiver, ReliableConfig, Sender};
use ncl::nctel::{HopRecord, Scope, ScopeEvent, WindowKey};
use ncl::netsim::event::EventQueue;
use ncl::netsim::link::LinkDir;
use ncl::netsim::LinkSpec;
use ncl::pisa::Pipeline;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Splits `arrays` into the windows `ncl::out` would send from
/// `sender`, as `runtime::invocation_packets` does before encoding.
pub fn host_windows(
    program: &CompiledProgram,
    sender: HostId,
    kernel: &str,
    arrays: &[TypedArray],
) -> Vec<Window> {
    let rt = &kernel_runtimes(program)[kernel];
    let slices: Vec<&[u8]> = arrays.iter().map(|a| &a.bytes[..]).collect();
    let mut windows = rt
        .spec
        .split(&slices)
        .expect("arrays match the window spec");
    for w in &mut windows {
        w.kernel = KernelId(rt.id);
        w.sender = sender;
        w.from = NodeId::Host(sender);
    }
    windows
}

/// Repeats `pass` until `budget` is spent (at least once). A pass
/// returns `(items, ns)` for its measured region only, so per-pass
/// set-up stays out of the figure. Returns ns per item of an
/// undisturbed pass.
fn ns_per_item(budget: Duration, mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let start = Instant::now();
    let mut per_item = Vec::new();
    loop {
        let (items, ns) = pass();
        per_item.push(ns as f64 / items.max(1) as f64);
        if start.elapsed() >= budget {
            return undisturbed(&per_item);
        }
    }
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The windows one job sends through the switch, in arrival order,
/// plus the control-plane state the switch holds when they arrive.
pub struct SwitchStream {
    /// Encoded frames as they reach the switch.
    pub payloads: Vec<Vec<u8>>,
    /// `nworkers` control variable, when the program has one.
    nworkers: Option<u32>,
    /// `Idx` map entries `(key, slot)` installed before the stream.
    idx: Vec<(u64, u8)>,
}

fn encode_all(windows: &[Window], ext_total: usize) -> Vec<Vec<u8>> {
    windows
        .iter()
        .map(|w| encode_window(w, ext_total))
        .collect()
}

impl SwitchStream {
    /// Allreduce: slot by slot, every worker's window for that slot
    /// (each slot aggregates and broadcasts once, as in the job).
    pub fn allreduce(fabric: &ArFabric, j: usize) -> SwitchStream {
        let program = fabric.program();
        let ext = program.checked.window_ext.size();
        let per_worker: Vec<Vec<Vec<u8>>> = (1..=WORKERS as u16)
            .map(|w| {
                let data = TypedArray::from_i32(&fabric.input(j).data[w as usize - 1]);
                encode_all(&host_windows(program, HostId(w), "allreduce", &[data]), ext)
            })
            .collect();
        let payloads = (0..fabric.windows_per_worker())
            .flat_map(|s| per_worker.iter().map(move |frames| frames[s].clone()))
            .collect();
        SwitchStream {
            payloads,
            nworkers: Some(WORKERS as u32),
            idx: Vec::new(),
        }
    }

    /// KVS in its steady state: the keys hot enough to be cached
    /// (Zipf rank = key, so keys `1..=n`) are installed, then the job's
    /// client queries arrive batch by batch, each followed by what the
    /// server sends back through the switch — a response for a miss or
    /// a PUT, and the write-through update for a PUT to a cached key.
    pub fn kvs(fabric: &KvsFabric, j: usize) -> SwitchStream {
        let program = fabric.program();
        let server = HostId(fabric.server_id());
        // Keys drawing at least the hot threshold of GETs in a job.
        let schedules = fabric.schedules(j);
        let mut gets: HashMap<u64, u32> = HashMap::new();
        for op in schedules.iter().flatten().filter(|op| !op.put) {
            *gets.entry(op.key).or_default() += 1;
        }
        let mut hot: Vec<u64> = gets
            .into_iter()
            .filter(|&(_, n)| n >= KVS_HOT_THRESHOLD)
            .map(|(k, _)| k)
            .collect();
        hot.sort_unstable();
        let idx: Vec<(u64, u8)> = hot.iter().enumerate().map(|(s, &k)| (k, s as u8)).collect();

        let query_windows = |sender: HostId, ops: &[(u64, bool, bool)]| {
            // (key, carries the stored value, update flag)
            let keys: Vec<u64> = ops.iter().map(|o| o.0).collect();
            let vals: Vec<u32> = ops
                .iter()
                .flat_map(|o| {
                    if o.1 {
                        kvs_value(o.0, KVS_WORDS)
                    } else {
                        vec![0; KVS_WORDS]
                    }
                })
                .collect();
            let flags = TypedArray {
                elem: ScalarType::Bool,
                bytes: ops.iter().map(|o| u8::from(o.2)).collect(),
            };
            host_windows(
                program,
                sender,
                "query",
                &[
                    TypedArray::from_u64(&keys),
                    TypedArray::from_u32(&vals),
                    flags,
                ],
            )
        };
        let ext = program.checked.window_ext.size();
        let clients: Vec<Vec<Vec<u8>>> = (0..KVS_CLIENTS)
            .map(|c| {
                let ops: Vec<_> = schedules[c]
                    .iter()
                    .map(|op| (op.key, op.put, op.put))
                    .collect();
                encode_all(&query_windows(HostId(c as u16 + 1), &ops), ext)
            })
            .collect();
        // Server-originated frames, in the order the stream needs them.
        let mut server_ops = Vec::new();
        for &k in &hot {
            server_ops.push((k, true, true)); // cache fill
        }
        let is_hot = |k: u64| hot.binary_search(&k).is_ok();
        for i in 0..schedules[0].len() {
            for sched in schedules {
                let op = sched[i];
                if op.put || !is_hot(op.key) {
                    server_ops.push((op.key, true, false)); // response
                }
                if op.put && is_hot(op.key) {
                    server_ops.push((op.key, true, true)); // write-through
                }
            }
        }
        let mut from_server = encode_all(&query_windows(server, &server_ops), ext).into_iter();
        let mut payloads: Vec<Vec<u8>> = from_server.by_ref().take(hot.len()).collect();
        for i in 0..schedules[0].len() {
            for (c, sched) in schedules.iter().enumerate() {
                let op = sched[i];
                payloads.push(clients[c][i].clone());
                let follow_ups =
                    usize::from(op.put || !is_hot(op.key)) + usize::from(op.put && is_hot(op.key));
                payloads.extend(from_server.by_ref().take(follow_ups));
            }
        }
        SwitchStream {
            payloads,
            nworkers: None,
            idx,
        }
    }

    /// Allreduce frames already in arrival order, aggregated over
    /// `nworkers` senders.
    pub fn from_frames(payloads: Vec<Vec<u8>>, nworkers: u32) -> SwitchStream {
        SwitchStream {
            payloads,
            nworkers: Some(nworkers),
            idx: Vec::new(),
        }
    }

    /// A software switch holding this stream's control-plane state.
    fn fast_switch(&self, program: &CompiledProgram, simd: bool) -> FastPathSwitch {
        let mut fp = FastPathSwitch::from_program_with(program, "s1", simd)
            .expect("s1 carries the workload's kernel");
        if let Some(n) = self.nworkers {
            assert!(fp.ctrl_wr("nworkers", Value::u32(n)));
        }
        for &(key, slot) in &self.idx {
            assert!(fp.map_insert("Idx", key, Value::new(ScalarType::U8, u64::from(slot))));
        }
        fp
    }

    /// The modeled PISA pipeline holding the same state.
    fn pisa_switch(&self, program: &CompiledProgram) -> Pipeline {
        let compiled = program.switch("s1").expect("s1 is compiled");
        let mut pipe = Pipeline::load(compiled.pipeline.clone(), crate::compile::chip())
            .expect("the program fits the lifted chip model");
        let cp = ControlPlane::new(compiled);
        if let Some(n) = self.nworkers {
            assert!(cp.ctrl_wr(&mut pipe, "nworkers", Value::u32(n)));
        }
        for &(key, slot) in &self.idx {
            assert!(cp.map_insert(
                &mut pipe,
                "Idx",
                key,
                Value::new(ScalarType::U8, u64::from(slot))
            ));
        }
        pipe
    }

    /// The first `n` frames only (the slow reference tiers replay a
    /// prefix; every tier compared replays the same one).
    pub fn prefix(&self, n: usize) -> SwitchStream {
        SwitchStream {
            payloads: self.payloads[..n.min(self.payloads.len())].to_vec(),
            nworkers: self.nworkers,
            idx: self.idx.clone(),
        }
    }
}

/// Cost of one switch hop, per window of the stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HopCosts {
    /// `FastPathSwitch::process_window`, SIMD tier.
    pub process_ns: f64,
    /// `decode_window_into` alone.
    pub decode_ns: f64,
    /// `CompiledKernel::run_outgoing` alone, SIMD tier.
    pub kernel_ns: f64,
    /// `encode_window_into` of the forwarded windows, spread over all.
    pub encode_ns: f64,
    /// `process_ns` minus the three parts.
    pub glue_ns: f64,
    /// Heap allocations per window inside `process_window`.
    pub allocs: f64,
    /// Bytes requested per window inside `process_window`.
    pub alloc_bytes: f64,
}

fn empty_window() -> Window {
    Window {
        kernel: KernelId(0),
        seq: 0,
        sender: HostId(0),
        from: NodeId::Host(HostId(0)),
        last: false,
        chunks: Vec::new(),
        ext: Vec::new(),
    }
}

fn decode_all(payloads: &[Vec<u8>]) -> Vec<Window> {
    payloads
        .iter()
        .map(|p| {
            let mut w = empty_window();
            decode_window_into(p, &mut w).expect("the stream is well-formed NCP");
            w
        })
        .collect()
}

/// The switch-resident kernels by NCP id, as `FastPathSwitch` caches
/// them.
fn kernels_by_id(
    program: &CompiledProgram,
    simd: bool,
) -> HashMap<u16, (CompiledKernel, KernelIr)> {
    let module = program.module("s1").expect("s1 has a module");
    module
        .kernels
        .iter()
        .filter_map(|k| {
            let id = *program.kernel_ids.get(&k.name)?;
            Some((
                id,
                (
                    CompiledKernel::compile_for(k, module).with_simd(simd),
                    k.clone(),
                ),
            ))
        })
        .collect()
}

/// Kernel time alone on the compiled executor, ns per window.
fn kernel_ns(
    program: &CompiledProgram,
    stream: &SwitchStream,
    simd: bool,
    budget: Duration,
) -> f64 {
    let kernels = kernels_by_id(program, simd);
    let state0 = stream.fast_switch(program, simd).state;
    let decoded = decode_all(&stream.payloads);
    ns_per_item(budget, || {
        let mut state = state0.clone();
        let mut scratch = ExecScratch::new();
        let mut wins = decoded.clone();
        let ns = timed(|| {
            for w in &mut wins {
                let k = &kernels[&w.kernel.0].0;
                let _ = black_box(k.run_outgoing(w, &mut state, &mut scratch));
            }
        });
        (wins.len() as u64, ns)
    })
}

/// Measures one switch hop and its parts on `stream`.
pub fn hop_costs(program: &CompiledProgram, stream: &SwitchStream, budget: Duration) -> HopCosts {
    let n = stream.payloads.len() as u64;
    let slice = budget / 4;
    let mut costs = HopCosts::default();

    // Allocations are counted from the second window on. The first
    // decode sizes the switch's scratch window, and the codec draws
    // buffers until one happens to be 32-byte aligned: how many draws
    // that takes depends on heap addresses, everything after repeats
    // exactly.
    let mut allocs = None;
    costs.process_ns = ns_per_item(slice, || {
        let mut fp = stream.fast_switch(program, true);
        let (first, rest) = stream
            .payloads
            .split_first()
            .expect("streams are not empty");
        let mut before = (0, 0);
        let ns = timed(|| {
            black_box(fp.process_window(first));
            before = thread_allocs();
            for p in rest {
                black_box(fp.process_window(p));
            }
        });
        let after = thread_allocs();
        allocs.get_or_insert((after.0 - before.0, after.1 - before.1));
        (n, ns)
    });
    let (calls, bytes) = allocs.expect("at least one pass ran");
    let steady = (n - 1).max(1) as f64;
    costs.allocs = calls as f64 / steady;
    costs.alloc_bytes = bytes as f64 / steady;

    let mut win = empty_window();
    costs.decode_ns = ns_per_item(slice, || {
        let ns = timed(|| {
            for p in &stream.payloads {
                let _ = black_box(decode_window_into(p, &mut win));
            }
        });
        (n, ns)
    });

    costs.kernel_ns = kernel_ns(program, stream, true, slice);

    // What the switch re-encodes: the windows as the kernel left them,
    // minus the dropped ones. `process_window` starts each from an
    // empty `Vec`, so the replay does too.
    let kernels = kernels_by_id(program, true);
    let mut state = stream.fast_switch(program, true).state;
    let mut scratch = ExecScratch::new();
    let ext = program.checked.window_ext.size();
    let forwarded: Vec<Window> = decode_all(&stream.payloads)
        .into_iter()
        .filter_map(|mut w| {
            let fwd = kernels[&w.kernel.0]
                .0
                .run_outgoing(&mut w, &mut state, &mut scratch);
            (!matches!(fwd, Ok(Forward::Drop))).then_some(w)
        })
        .collect();
    costs.encode_ns = ns_per_item(slice, || {
        let ns = timed(|| {
            for w in &forwarded {
                let mut out = Vec::new();
                encode_window_into(w, ext, &mut out);
                black_box(out);
            }
        });
        (n, ns)
    });
    costs.glue_ns = costs.process_ns - costs.decode_ns - costs.kernel_ns - costs.encode_ns;
    costs
}

/// The same stream on the tiers that are not deployed, ns per window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TierCosts {
    /// Tree-walking interpreter, kernel only.
    pub interp_kernel_ns: f64,
    /// Compiled executor with the SIMD tier off, kernel only.
    pub scalar_kernel_ns: f64,
    /// Modeled PISA pipeline, parse to deparse.
    pub pisa_process_ns: f64,
}

/// Replays `stream` on the interpreter, the scalar executor and the
/// PISA model.
pub fn tier_costs(program: &CompiledProgram, stream: &SwitchStream, budget: Duration) -> TierCosts {
    let slice = budget / 3;
    let kernels = kernels_by_id(program, false);
    let state0 = stream.fast_switch(program, false).state;
    let decoded = decode_all(&stream.payloads);
    let interp = Interpreter::default();
    let interp_kernel_ns = ns_per_item(slice, || {
        let mut state = state0.clone();
        let mut wins = decoded.clone();
        let ns = timed(|| {
            for w in &mut wins {
                let ir = &kernels[&w.kernel.0].1;
                let _ = black_box(interp.run_outgoing(ir, w, &mut state));
            }
        });
        (wins.len() as u64, ns)
    });
    let pisa_process_ns = ns_per_item(slice, || {
        let mut pipe = stream.pisa_switch(program);
        let ns = timed(|| {
            for p in &stream.payloads {
                black_box(pipe.process(p));
            }
        });
        (stream.payloads.len() as u64, ns)
    });
    TierCosts {
        interp_kernel_ns,
        scalar_kernel_ns: kernel_ns(program, stream, false, slice),
        pisa_process_ns,
    }
}

/// Host-side cost of producing the job's frames, ns per window:
/// `(WindowSpec::split, encode_window)`.
pub fn host_send_costs(
    program: &CompiledProgram,
    kernel: &str,
    arrays: &[TypedArray],
    budget: Duration,
) -> (f64, f64) {
    let ext = program.checked.window_ext.size();
    let split_ns = ns_per_item(budget / 2, || {
        let mut n = 0;
        let ns = timed(|| n = black_box(host_windows(program, HostId(1), kernel, arrays)).len());
        (n as u64, ns)
    });
    let windows = host_windows(program, HostId(1), kernel, arrays);
    let encode_ns = ns_per_item(budget / 2, || {
        let ns = timed(|| {
            for w in &windows {
                black_box(encode_window(w, ext));
            }
        });
        (windows.len() as u64, ns)
    });
    (split_ns, encode_ns)
}

/// The NCP-R machines alone, at the workload's configuration and job
/// length: `(sender, receiver)` ns per window. The sender sees what a
/// host's sender sees on a clean link — every window tracked up front,
/// then one ack and one poll per window in order.
pub fn reliable_costs(cfg: ReliableConfig, windows: u32, budget: Duration) -> (f64, f64) {
    let sender_ns = ns_per_item(budget / 2, || {
        let mut s = Sender::new(cfg);
        let ns = timed(|| {
            for seq in 0..windows {
                black_box(s.track(1, seq, 0));
            }
            black_box(s.poll(0));
            for seq in 0..windows {
                let now = 1_000 * (u64::from(seq) + 1);
                black_box(s.on_ack(1, seq));
                black_box(s.poll(now));
            }
        });
        assert!(s.idle(), "every window is retired");
        (u64::from(windows), ns)
    });
    let receiver_ns = ns_per_item(budget / 2, || {
        let mut r = Receiver::new();
        let ns = timed(|| {
            for seq in 0..windows {
                black_box(r.admit_at(2, 1, seq, 1_000 * u64::from(seq)));
            }
        });
        (u64::from(windows), ns)
    });
    (sender_ns, receiver_ns)
}

/// The simulator's two inner structures alone: `(event queue ns per
/// push or pop at a standing depth of 64, link ns per transmitted
/// packet)`.
pub fn netsim_costs(link: LinkSpec, packet_bytes: usize, budget: Duration) -> (f64, f64) {
    const OPS: u64 = 100_000;
    let queue_ns = ns_per_item(budget / 2, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64 {
            q.push(i * 97 % 64, i);
        }
        let ns = timed(|| {
            for i in 0..OPS / 2 {
                q.push(64 + i * 97 % 1_000, i);
                black_box(q.pop());
            }
        });
        (OPS, ns)
    });
    let link_ns = ns_per_item(budget / 2, || {
        let mut dir = LinkDir::new(link, 7);
        let ns = timed(|| {
            for i in 0..OPS {
                black_box(dir.transmit_outcome(i * 1_000, packet_bytes));
            }
        });
        (OPS, ns)
    });
    (queue_ns, link_ns)
}

/// The recording paths alone: `(Scope::emit ns per event, hop-record
/// stamping ns per window)`.
pub fn recording_costs(budget: Duration) -> (f64, f64) {
    const OPS: u64 = 100_000;
    let emit_ns = ns_per_item(budget / 2, || {
        let scope = Scope::new(65_536);
        let ns = timed(|| {
            for i in 0..OPS {
                scope.emit(
                    i,
                    1,
                    WindowKey::new(1, 1, i as u32),
                    ScopeEvent::WindowCompleted,
                );
            }
        });
        black_box(scope.logged());
        (OPS, ns)
    });
    let stamp_ns = ns_per_item(budget / 2, || {
        let rec = HopRecord {
            switch: 0x8001,
            kernel: 1,
            version: 1,
            stages: 3,
            uops: 40,
            flags: 0,
            ticks_in: 1_000,
            ticks_out: 1_600,
        };
        let ns = timed(|| {
            for _ in 0..OPS {
                let mut section = ncl::nctel::hop::section_init();
                black_box(ncl::nctel::hop::section_append(&mut section, &rec));
                black_box(section);
            }
        });
        (OPS, ns)
    });
    (emit_ns, stamp_ns)
}
