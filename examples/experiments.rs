//! The paper-shaped tables of EXPERIMENTS.md, from one binary.
//!
//! ```text
//! cargo run --release -p ncl-examples --bin experiments -- [e1 e2 e3 e5 e6b e6c e7 e10 e11]
//! ```
//!
//! No argument runs every table. Everything printed is read off the
//! deterministic simulation or the compiler's reports: no clock is
//! consulted and no file is written, so two runs print the same bytes.
//! Each table ends by *asserting* the shape it exists to show (or names
//! the test that holds it) — a table whose claim stopped being true
//! exits nonzero. Wall-clock cost per layer is ncbench's business
//! (`benchmark/`), not this binary's.

use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl_core::baseline::handwritten_netcache_p4;
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig, ReplayFilter};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl_p4::p4emit::effective_lines;
use ncl_p4::{compile_module, CompileOptions};
use ncp::codec::{encode_window, fragment_window};
use ncp::ReliableConfig;
use netsim::{HostApp, LinkSpec};
use pisa::ResourceModel;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

const TABLES: [(&str, fn()); 9] = [
    ("e1", e1_allreduce),
    ("e2", e2_kvs),
    ("e3", e3_code_size),
    ("e5", e5_window_overhead),
    ("e6b", e6b_occupancy),
    ("e6c", e6c_backend_ablation),
    ("e7", e7_embedding),
    ("e10", e10_reliability),
    ("e11", e11_telemetry),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = wanted.iter().find(|w| TABLES.iter().all(|(n, _)| n != w)) {
        let names: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown table '{bad}'; known: {}", names.join(" "));
        std::process::exit(2);
    }
    let chosen = |name: &str| wanted.is_empty() || wanted.iter().any(|w| w == name);
    for (i, (_, table)) in TABLES.iter().filter(|(n, _)| chosen(n)).enumerate() {
        if i > 0 {
            println!();
        }
        table();
    }
}

/// True when `xs` never decreases / never increases.
fn rising<T: PartialOrd>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}
fn falling<T: PartialOrd>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] >= w[1])
}

fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

// ---------------------------------------------------------------- scenarios

/// One Fig. 4 AllReduce run on a star: `s1` is its switch (INC), or a
/// server hung off the plain switch `tor` (the parameter server, PS).
struct ArRun {
    nworkers: usize,
    elements: usize,
    win: usize,
    /// Place `s1` on a server rather than in the switch.
    server: bool,
    /// NCP-R on: replay filter in the switch, reliable window transport
    /// on every worker, tuned to the topology — RTO a few× the loaded
    /// RTT (µs-scale links) and an initial window deep enough to keep
    /// the switch pipeline busy from the first flight.
    reliable: bool,
    link: LinkSpec,
    /// Share of outgoing windows flagged for in-band telemetry.
    sampling: Option<f64>,
    model: ResourceModel,
}

impl ArRun {
    fn new(nworkers: usize, elements: usize, win: usize) -> Self {
        ArRun {
            nworkers,
            elements,
            win,
            server: false,
            reliable: false,
            link: LinkSpec::default(),
            sampling: None,
            model: ResourceModel::default(),
        }
    }
}

#[derive(Default)]
struct ArResult {
    /// Completion time (max across workers), ns.
    completion: u64,
    /// Bytes offered to links in total.
    bytes_on_wire: u64,
    /// Bytes into the aggregation point (switch or server).
    aggregator_ingress: u64,
    /// netsim events the run took.
    events: u64,
    retransmits: u64,
    /// Duplicates suppressed by the in-switch replay filter.
    switch_dups: u64,
    /// Window traces assembled across workers, and their hop records.
    traces: u64,
    hop_records: u64,
    /// Micro-ops the hop records count, summed.
    hop_uops: u64,
}

fn run_allreduce(run: ArRun) -> ArResult {
    let ArRun {
        nworkers,
        elements,
        win,
        ..
    } = run;
    let slots = elements / win;
    let src = allreduce_source(elements, win);
    let and = if run.server {
        format!("hosts worker {nworkers}\nswitch tor\nserver s1\nlink worker* tor\nlink s1 tor\n")
    } else {
        format!("hosts worker {nworkers}\nswitch s1\nlink worker* s1\n")
    };
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    cfg.model = run.model;
    if run.reliable {
        let filter = ReplayFilter {
            senders: nworkers as u16,
            slots: slots as u16,
        };
        cfg.replay_filters.insert("allreduce".into(), filter);
    }
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    let kid = program.kernel_ids["allreduce"];
    // Workers address the aggregation point, switch or server.
    let s1_node = program.overlay.node("s1").expect("s1").node_id();
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=nworkers as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = (0..elements as i32).map(|i| i + w as i32).collect();
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: s1_node,
            start: 0,
            gap: 0,
        })
        .expect("valid");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, elements), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        if run.reliable {
            host.enable_reliability(ReliableConfig {
                filter_slots: slots,
                cwnd: 64,
                max_cwnd: 256,
                rto: 500_000,
                max_rto: 8_000_000,
                ..ReliableConfig::default()
            });
        }
        if let Some(sampling) = run.sampling {
            host.enable_telemetry(sampling, 65_536);
        }
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let opts = DeployOptions {
        link_spec: run.link,
        model: run.model,
        ..Default::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("deploys");
    let cp = ControlPlane::at(&program, "s1").expect("s1 has a module");
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_fastpath_mut(s1).unwrap(),
        "nworkers",
        Value::u32(nworkers as u32),
    );
    dep.net.run();
    let mut r = ArResult {
        bytes_on_wire: dep.net.stats().bytes_sent,
        aggregator_ingress: dep.net.node_ingress_bytes(s1_node),
        events: dep.net.stats().events,
        switch_dups: dep.net.switch_dup_suppressed(s1),
        ..ArResult::default()
    };
    let n = nworkers as i32;
    for w in 1..=nworkers as u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        r.completion = r.completion.max(host.done_at.expect("completed"));
        r.retransmits += host.sender_stats().map_or(0, |s| s.retransmits);
        let sums = &host.memory(kid).expect("bound").arrays[0];
        for i in 0..elements {
            let want = n * i as i32 + n * (n + 1) / 2;
            assert_eq!(sums.get(i), Value::i32(want), "worker {w} element {i}");
        }
        for t in host.take_traces() {
            r.traces += 1;
            r.hop_records += t.hops.len() as u64;
            r.hop_uops += t.hops.iter().map(|h| h.uops as u64).sum::<u64>();
        }
    }
    r
}

struct KvsResult {
    /// Mean and p99 GET latency, ns.
    mean_latency: f64,
    p99_latency: u64,
    /// Operations the server handled.
    server_ops: u64,
    /// Cache hit rate over GETs.
    hit_rate: f64,
}

/// The Fig. 5 KVS under a Zipf(`skew`) GET stream with 2% PUTs.
/// `cache_slots = 0` disables the cache (server-only baseline).
fn run_kvs(
    nclients: usize,
    ops_per_client: usize,
    skew: f64,
    keyspace: u64,
    cache_slots: usize,
    val_words: usize,
) -> KvsResult {
    let with_cache = cache_slots > 0;
    let slots = cache_slots.max(8);
    let server_id = (nclients + 1) as u16;
    let src = kvs_source(server_id, slots, val_words);
    let and = format!(
        "hosts client {nclients}\nswitch s1\nhost server\nlink client* s1\nlink server s1\n"
    );
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, val_words as u16, 1]);
    let mut program = compile(&src, &and, &cfg).expect("kvs compiles");
    let kernel = program.kernel_ids["query"];
    let control = with_cache.then(|| ControlPlane::new(program.switch("s1").unwrap()));

    // Inverse-CDF Zipf sampler over 1..=keyspace.
    let mut cdf: Vec<f64> = (1..=keyspace)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / (k as f64).powf(skew);
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    cdf.iter_mut().for_each(|c| *c /= total);

    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for c in 1..=nclients as u16 {
        let mut rng = StdRng::seed_from_u64(c as u64 * 6271);
        let schedule: Vec<KvsOp> = (0..ops_per_client)
            .map(|i| {
                let u: f64 = rng.gen();
                KvsOp {
                    at: (i as u64) * 150_000 + c as u64 * 900,
                    key: (cdf.partition_point(|&p| p < u) + 1) as u64,
                    put: rng.gen::<f64>() < 0.02,
                }
            })
            .collect();
        let server = HostId(server_id);
        let client = KvsClient::new(NodeId::Host(server), server, kernel, val_words, schedule);
        apps.insert(format!("client{c}"), Box::new(client));
    }
    let mut server = KvsServer::new(kernel, val_words, None, control, slots);
    for k in 1..=keyspace {
        server.store.insert(k, KvsClient::value_for(k, val_words));
    }
    apps.insert("server".into(), Box::new(server));
    if !with_cache {
        program.switches.clear();
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    if with_cache {
        let s1 = dep.switch("s1");
        dep.net
            .host_app_mut::<KvsServer>(HostId(server_id))
            .expect("server")
            .cache_switch = Some(s1);
    }
    dep.net.run();

    let mut lat = Vec::new();
    let mut hits = 0usize;
    for c in 1..=nclients as u16 {
        let client = dep.net.host_app::<KvsClient>(HostId(c)).expect("client");
        assert_eq!(client.corrupt, 0, "corrupt GET responses");
        for s in client.samples.iter().filter(|s| !s.put) {
            lat.push(s.latency);
            hits += s.from_cache as usize;
        }
    }
    lat.sort_unstable();
    let gets = lat.len().max(1);
    let server = dep.net.host_app::<KvsServer>(HostId(server_id));
    KvsResult {
        mean_latency: lat.iter().sum::<u64>() as f64 / gets as f64,
        p99_latency: lat.get((gets - 1) * 99 / 100).copied().unwrap_or(0),
        server_ops: server.expect("server").served,
        hit_rate: hits as f64 / gets as f64,
    }
}

// ---------------------------------------------------------------- tables

/// E1 — Fig. 4 AllReduce: in-network aggregation vs the same program
/// placed on a parameter server, over worker count, array size and
/// window length.
fn e1_allreduce() {
    let win = 8usize;
    let us = |ns: u64| ns as f64 / 1000.0;
    let kib = |b: u64| b as f64 / 1024.0;
    println!("E1: AllReduce — in-network (INC) vs parameter server (PS)");
    println!("windows of {win} × int32; star topology; 10 Gb/s, 1 µs links\n");

    println!("-- worker sweep (16 Ki elements) --");
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "workers", "INC µs", "PS µs", "speedup", "INC agg KiB", "PS agg KiB"
    );
    let mut inc_completions = Vec::new();
    let mut speedups = Vec::new();
    for n in [2usize, 4, 8, 16, 32] {
        let elements = 16 * 1024;
        let inc = run_allreduce(ArRun::new(n, elements, win));
        let ps = run_allreduce(ArRun {
            server: true,
            ..ArRun::new(n, elements, win)
        });
        let speedup = ps.completion as f64 / inc.completion as f64;
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>8.2}x {:>14.1} {:>14.1}",
            n,
            us(inc.completion),
            us(ps.completion),
            speedup,
            kib(inc.aggregator_ingress),
            kib(ps.aggregator_ingress),
        );
        inc_completions.push(inc.completion);
        speedups.push(speedup);
    }
    // INC wins grow with worker count (aggregation fan-in): the switch
    // absorbs the fan-in, the PS serializes it. That INC ingress ≈ N×
    // egress at the switch while the PS both receives AND re-sends
    // every byte is held by tests/allreduce_system.rs::
    // ingress_to_egress_asymmetry_shows_the_aggregation_win.
    assert!(
        inc_completions.iter().all(|&c| c == inc_completions[0]),
        "INC completion must be flat in the worker count"
    );
    assert!(
        rising(&speedups) && speedups[0] > 1.0,
        "INC speedup must grow with the worker count"
    );

    println!("\n-- array-size sweep (8 workers) --");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "elements", "INC µs", "PS µs", "speedup", "wire INC KiB", "wire PS KiB"
    );
    for elements in [256usize, 1024, 4096, 16 * 1024, 64 * 1024] {
        let inc = run_allreduce(ArRun::new(8, elements, win));
        let ps = run_allreduce(ArRun {
            server: true,
            ..ArRun::new(8, elements, win)
        });
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>8.2}x {:>14.1} {:>14.1}",
            elements,
            us(inc.completion),
            us(ps.completion),
            ps.completion as f64 / inc.completion as f64,
            kib(inc.bytes_on_wire),
            kib(ps.bytes_on_wire),
        );
        assert!(
            inc.bytes_on_wire < ps.bytes_on_wire,
            "N uploads + 1 broadcast per slot must undercut N uploads + N downloads"
        );
    }

    println!("\n-- window-length ablation (8 workers, 16 Ki elements) --");
    println!(
        "{:>8} {:>12} {:>14} {:>10}",
        "win", "INC µs", "wire KiB", "overhead %"
    );
    let mut by_win = Vec::new();
    for win in [2usize, 4, 8, 16, 32] {
        let elements = 16 * 1024;
        let inc = run_allreduce(ArRun::new(8, elements, win));
        let payload = (8 * elements * 4) as f64;
        let overhead = 100.0 * (inc.bytes_on_wire as f64 - payload) / inc.bytes_on_wire as f64;
        println!(
            "{:>8} {:>12.1} {:>14.1} {:>9.1}%",
            win,
            us(inc.completion),
            kib(inc.bytes_on_wire),
            overhead,
        );
        by_win.push((inc.completion, inc.bytes_on_wire));
    }
    assert!(
        falling(&by_win),
        "longer windows must cut both completion and wire bytes"
    );
}

/// E2 — Fig. 5 KVS cache: in-network cache vs server-only, over Zipf
/// skew and cache size.
fn e2_kvs() {
    let (clients, ops, keyspace, val_words) = (3usize, 250usize, 400u64, 8usize);
    let us = |ns: f64| ns / 1000.0;
    println!("E2: KVS — in-network cache vs server-only");
    println!(
        "{clients} clients × {ops} ops, {keyspace}-key space, {}B values, 2% PUTs\n",
        val_words * 4
    );

    println!("-- skew sweep (64-slot cache) --");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>11} {:>8}",
        "zipf", "cache", "mean µs", "p99 µs", "base mean", "base p99", "server ops", "hit %"
    );
    let mut by_skew = Vec::new();
    for skew in [0.6, 0.9, 1.1, 1.3] {
        let base = run_kvs(clients, ops, skew, keyspace, 0, val_words);
        let inc = run_kvs(clients, ops, skew, keyspace, 64, val_words);
        println!(
            "{:>6.1} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>5}/{:<5} {:>7.0}%",
            skew,
            64,
            us(inc.mean_latency),
            us(inc.p99_latency as f64),
            us(base.mean_latency),
            us(base.p99_latency as f64),
            inc.server_ops,
            base.server_ops,
            inc.hit_rate * 100.0,
        );
        assert!(
            inc.server_ops < base.server_ops,
            "cache must relieve the server"
        );
        by_skew.push((inc, base));
    }
    // Hit rate and server-load relief grow with skew; at near-uniform
    // access (zipf 0.6) the cache stops paying — misses cross the
    // compiled pipeline both ways — the crossover the paper's caching
    // citations (NetCache) report. The hot-traffic half is also
    // tests/kvs_system.rs::cache_mode_beats_baseline_on_hot_traffic.
    let hit_rates: Vec<f64> = by_skew.iter().map(|(inc, _)| inc.hit_rate).collect();
    let server_ops: Vec<u64> = by_skew.iter().map(|(inc, _)| inc.server_ops).collect();
    assert!(rising(&hit_rates), "hit rate must grow with skew");
    assert!(falling(&server_ops), "server load must fall with skew");
    let (uniform, uniform_base) = &by_skew[0];
    let (hot, hot_base) = &by_skew[by_skew.len() - 1];
    assert!(
        uniform.mean_latency > uniform_base.mean_latency,
        "at zipf 0.6 the cache must not pay"
    );
    assert!(
        hot.mean_latency < hot_base.mean_latency,
        "at zipf 1.3 the cache must pay"
    );

    println!("\n-- cache-size sweep (zipf 1.2) --");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>8}",
        "slots", "mean µs", "p99 µs", "server ops", "hit %"
    );
    let base = run_kvs(clients, ops, 1.2, keyspace, 0, val_words);
    println!(
        "{:>8} {:>12.1} {:>12.1} {:>12} {:>8}",
        "none",
        us(base.mean_latency),
        us(base.p99_latency as f64),
        base.server_ops,
        "—"
    );
    let mut hit_rates = Vec::new();
    for slots in [8usize, 16, 32, 64, 128] {
        let inc = run_kvs(clients, ops, 1.2, keyspace, slots, val_words);
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12} {:>7.0}%",
            slots,
            us(inc.mean_latency),
            us(inc.p99_latency as f64),
            inc.server_ops,
            inc.hit_rate * 100.0,
        );
        hit_rates.push(inc.hit_rate);
    }
    assert!(rising(&hit_rates), "hit rate must grow with cache size");
}

/// E3 — the paper's §2 complexity claim, quantified: lines and tokens
/// of NCL source vs the P4 nclc generates vs handwritten P4 (the
/// NetCache-style program of `ncl_core::baseline`).
fn e3_code_size() {
    // Crude but uniform across languages: alphanumeric runs + punct.
    fn tokens(src: &str) -> usize {
        let mut count = 0;
        let mut in_word = false;
        for c in src.chars() {
            let word = c.is_alphanumeric() || c == '_';
            if (word && !in_word) || (!word && !c.is_whitespace()) {
                count += 1;
            }
            in_word = word;
        }
        count
    }
    const HOSTS_AB: &str = "host a\nhost b\nswitch s1\nlink a s1\nlink b s1\n";
    type Case = (
        &'static str,
        String,
        Vec<(&'static str, Vec<u16>)>,
        &'static str,
    );
    let cases: Vec<Case> = vec![
        (
            "increment (micro)",
            "_net_ _out_ void inc(int *d) { d[0] += 1; }".to_string(),
            vec![("inc", vec![1])],
            HOSTS_AB,
        ),
        (
            "threshold-filter (micro)",
            "_net_ _ctrl_ _at_(\"s1\") unsigned limit = 100;\n\
             _net_ _out_ void filt(uint32_t *d) {\n\
                 if (d[0] > limit) { _drop(); }\n\
             }"
            .to_string(),
            vec![("filt", vec![1])],
            HOSTS_AB,
        ),
        (
            "per-flow counter (micro)",
            "_net_ _at_(\"s1\") unsigned hits[256] = {0};\n\
             _net_ _out_ void count(uint32_t *d) {\n\
                 hits[d[0] & 255] += 1;\n\
             }"
            .to_string(),
            vec![("count", vec![1])],
            HOSTS_AB,
        ),
        (
            "AllReduce (Fig. 4)",
            allreduce_source(1024, 32),
            vec![("allreduce", vec![32]), ("result", vec![32])],
            "hosts worker 4\nswitch s1\nlink worker* s1\n",
        ),
        (
            "KVS cache (Fig. 5)",
            kvs_source(3, 256, 32),
            vec![("query", vec![1, 32, 1])],
            "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n",
        ),
    ];

    println!("E3: code size — NCL source vs generated P4");
    println!(
        "{:<24} {:>9} {:>10} {:>9} {:>10} {:>8}",
        "program", "NCL lines", "NCL toks", "P4 lines", "P4 toks", "factor"
    );
    for (name, ncl, masks, and) in &cases {
        let mut cfg = CompileConfig::default();
        for (k, m) in masks {
            cfg.masks.insert(k.to_string(), m.clone());
        }
        let program = compile(ncl, and, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let p4 = &program.switches[0].1.p4_source;
        let (nl, pl) = (effective_lines(ncl), effective_lines(p4));
        println!(
            "{:<24} {:>9} {:>10} {:>9} {:>10} {:>7.1}x",
            name,
            nl,
            tokens(ncl),
            pl,
            tokens(p4),
            pl as f64 / nl as f64
        );
        // §2's "obnoxious control flow": every P4 realization is an
        // order of magnitude larger than the kernel it realizes.
        assert!(pl >= 10 * nl, "{name}: generated P4 is not 10x the NCL");
    }
    // What a P4 programmer writes for the same cache (256 items, 128 B
    // values → 32 u32 words, Fig. 1b style).
    let hand = handwritten_netcache_p4(256, 32);
    println!(
        "{:<24} {:>9} {:>10} {:>9} {:>10} {:>8}",
        "KVS handwritten P4",
        "—",
        "—",
        effective_lines(&hand),
        tokens(&hand),
        "—"
    );
    let kvs_lines = effective_lines(&cases[4].1);
    assert!(effective_lines(&hand) >= 10 * kvs_lines);
}

/// A single-array u32 window of `elems` elements.
fn u32_window(elems: usize) -> Window {
    Window {
        kernel: KernelId(1),
        seq: 7,
        sender: HostId(1),
        from: NodeId::Host(HostId(1)),
        last: false,
        chunks: vec![Chunk {
            offset: 0,
            data: (0..elems as u32).flat_map(|v| v.to_be_bytes()).collect(),
        }],
        ext: vec![],
    }
}

/// E5b/c — the window mechanism (Fig. 2, §4.2): NCP header overhead
/// against window length, and multi-packet windows.
fn e5_window_overhead() {
    println!("E5b: window length vs NCP overhead (single array of u32)");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10}",
        "win", "pkt bytes", "payload", "overhead %", "pkts/MiB"
    );
    let mut overheads = Vec::new();
    for elems in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let bytes = encode_window(&u32_window(elems), 0);
        let payload = elems * 4;
        let overhead = 100.0 * (bytes.len() - payload) as f64 / bytes.len() as f64;
        println!(
            "{:>8} {:>10} {:>12} {:>11.1}% {:>10}",
            elems,
            bytes.len(),
            payload,
            overhead,
            (1 << 20) / payload
        );
        overheads.push(overhead);
    }
    // §4.2's motivation for packet-decoupled windows: the fixed header
    // amortizes hyperbolically in window length.
    assert!(falling(&overheads) && overheads[7] < 5.0 && overheads[0] > 80.0);

    println!("\nE5c: multi-packet windows (mtu 1472)");
    println!("{:>10} {:>10} {:>12}", "elems", "fragments", "bytes total");
    for elems in [256usize, 512, 1024, 4096] {
        let frags = fragment_window(&u32_window(elems), 0, 1472);
        let total: usize = frags.iter().map(|f| f.len()).sum();
        println!("{:>10} {:>10} {:>12}", elems, frags.len(), total);
        assert!(frags.iter().all(|f| f.len() <= 1472) && total > elems * 4);
    }
    // Lossless reassembly in any arrival order, and loss keeping the
    // window pending: tests/failure_injection.rs::
    // {reordered_fragments_reassemble, lost_fragment_keeps_window_pending}.
}

/// E6b — Fig. 1a: stage occupancy and recirculation onset for
/// synthetic serially-dependent kernels (each step a multiply-accumulate
/// on the previous one — the worst case for a staged pipeline).
fn e6b_occupancy() {
    const AND: &str = "host a\nhost b\nswitch s1\nlink a s1\nlink b s1\n";
    println!("E6b: stage occupancy & recirculation onset (12-stage chip)");
    println!(
        "{:>14} {:>8} {:>8} {:>10} {:>12}",
        "kernel", "stages", "passes", "max ops", "PHV meta B"
    );
    let mut stages = Vec::new();
    for depth in [1usize, 2, 4, 8, 16, 24, 32] {
        let mut body = String::from("    int acc = data[0];\n");
        for i in 0..depth {
            body.push_str(&format!("    acc = acc * 3 + data[{}];\n", i % 8));
        }
        body.push_str("    data[0] = acc;\n");
        let src = format!("_net_ _out_ void k(int *data) {{\n{body}}}\n");
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("k".into(), vec![8]);
        match compile(&src, AND, &cfg) {
            Ok(p) => {
                let r = &p.switches[0].1.report;
                println!(
                    "{:>11}-op {:>8} {:>8} {:>10} {:>12}",
                    depth,
                    r.stages_used,
                    r.recirc_passes + 1,
                    r.ops_by_stage.iter().max().unwrap_or(&0),
                    r.phv_metadata_bytes
                );
                stages.push(r.stages_used);
            }
            Err(e) => {
                let msg = e.to_string();
                let first = msg.lines().nth(1).unwrap_or("rejected").trim();
                println!("{:>11}-op rejected: {first}", depth);
                // A hard reject past the recirculation budget, never
                // before it: the paper's "accept/reject" backend (§5).
                assert!(depth > 16 && msg.contains("stages"), "{depth}-op: {msg}");
            }
        }
    }
    // Stage demand grows with dependence depth; recirculation engages
    // once logical stages exceed the chip's 12.
    assert!(rising(&stages) && stages.len() == 5 && stages[0] <= 12 && stages[4] > 12);
}

/// E6c — ablation of the two backend transformations DESIGN.md §8
/// documents: lane splitting (without it, multi-element register
/// access patterns collapse onto one bank and blow the stateful
/// micro-op budget) and gateway predicate chaining (without it, every
/// boolean op of the flattened control flow costs its own stage).
fn e6c_backend_ablation() {
    let variants = [
        ("full backend", true, 8usize),
        ("no gateway chaining", true, 0),
        ("no lane splitting", false, 8),
        ("neither", false, 0),
    ];
    type Program = (
        &'static str,
        String,
        Vec<(&'static str, Vec<u16>)>,
        &'static str,
    );
    let programs: Vec<Program> = vec![
        (
            "AllReduce (win 8)",
            allreduce_source(256, 8),
            vec![("allreduce", vec![8]), ("result", vec![8])],
            "hosts worker 2\nswitch s1\nlink worker* s1\n",
        ),
        (
            "KVS (8-word values)",
            kvs_source(3, 32, 8),
            vec![("query", vec![1, 8, 1])],
            "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n",
        ),
    ];
    println!("E6c: backend transformation ablation (12-stage chip)");
    for (pname, src, masks, and) in &programs {
        let mut cfg = CompileConfig::default();
        for (k, m) in masks {
            cfg.masks.insert(k.to_string(), m.clone());
        }
        // nclc's own optimised, versioned module for s1, re-staged
        // under each variant.
        let program = compile(src, and, &cfg).expect("compiles with the full backend");
        let module = &program.modules[0].1;
        println!("\n-- {pname} --");
        let mut depth = Vec::new();
        for (vname, lanes, gateway_depth) in variants {
            let opts = CompileOptions {
                disable_lane_split: !lanes,
                gateway_depth,
                ..CompileOptions::default()
            };
            let verdict = match compile_module(module, &ResourceModel::default(), &opts) {
                Ok(c) => {
                    depth.push((c.report.stages_used, c.report.recirc_passes));
                    format!(
                        "{:>3} stages, {} pass(es), max {:>2} ops/stage",
                        c.report.stages_used,
                        c.report.recirc_passes + 1,
                        c.report.ops_by_stage.iter().max().unwrap_or(&0),
                    )
                }
                Err(e) => {
                    let msg = e.to_string();
                    let detail = msg.lines().find(|l| l.trim_start().starts_with('-'));
                    format!("REJECTED ({})", detail.unwrap_or("rejected").trim())
                }
            };
            println!("  {vname:<22} {verdict}");
            // Disabling lane splitting must reject both programs, on
            // the stateful micro-op budget (also tests/p4_snapshot.rs::
            // example_apps_need_lane_splitting_and_gateway_chaining).
            assert_eq!(
                lanes,
                !verdict.contains("stateful micro-ops"),
                "{pname} / {vname}"
            );
        }
        // Disabling gateway chaining deepens the pipeline.
        assert!(
            depth.len() == 2 && depth[1] > depth[0],
            "{pname}: {depth:?}"
        );
    }
}

/// E7 — Fig. 3c, AND overlay embedding quality on spine-leaf fabrics,
/// plus the `_bcast()` fan-out cost measured on the deployed network.
/// (Embedding *speed* had a wall-clock table here once; ncbench has no
/// row for it and it was dropped.)
fn e7_embedding() {
    println!("E7: overlay → physical embedding quality");
    println!(
        "{:>9} {:>22} {:>10} {:>12}",
        "overlay", "fabric", "cost", "ideal"
    );
    for (workers, spines, leaves, hpl) in [
        (4usize, 2usize, 2usize, 4usize),
        (4, 2, 4, 2),
        (8, 2, 4, 4),
        (16, 4, 8, 4),
    ] {
        let ov = ncl_and::parse(&format!(
            "hosts worker {workers}\nswitch agg\nhost sink\nlink worker* agg\nlink sink agg\n"
        ))
        .expect("valid AND");
        let phys = ncl_and::PhysTopology::spine_leaf(spines, leaves, hpl);
        let assignment = ov.embed(&phys).expect("feasible");
        let cost = ov.embedding_cost(&phys, &assignment);
        // Ideal: every overlay edge realized as one physical hop
        // (possible only if all workers fit under one leaf).
        let ideal = ov.edges.len() as u64;
        println!(
            "{:>7}+2 {:>14}({spines},{leaves},{hpl}) {:>10} {:>12}",
            workers, "spine-leaf", cost, ideal
        );
        // >1-hop edges are structural once workers exceed hosts/leaf,
        // not algorithmic: costs land within ~2× of the ideal.
        assert!(cost >= ideal && cost <= 2 * ideal + 1, "{workers} workers");
    }

    println!("\nE7b: _bcast() fan-out cost (AllReduce result distribution)");
    println!(
        "{:>8} {:>14} {:>16}",
        "workers", "bcast copies", "completion µs"
    );
    let mut completions = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let r = run_allreduce(ArRun::new(n, 4096, 8));
        println!(
            "{:>8} {:>14} {:>16.1}",
            n,
            n * (4096 / 8),
            r.completion as f64 / 1000.0
        );
        completions.push(r.completion);
    }
    // Fan-out is pipelined behind aggregation: copies grow linearly,
    // completion stays flat.
    assert!(completions.iter().all(|&c| c == completions[0]));
}

/// E10 — NCP-R reliable window transport (DESIGN §4.7): the goodput
/// cost of turning reliability on at 0% loss (budget ≤ 15%), and
/// completion, retransmission and replay-filter activity across loss
/// rates.
fn e10_reliability() {
    let (nworkers, elements, win) = (4usize, 4096usize, 8usize);
    println!("E10: NCP-R — reliable AllReduce ({nworkers} workers, {elements} × int32, win {win})");
    println!("star topology; 10 Gb/s, 1 µs links; deterministic seeded loss\n");
    let reliable = |link| {
        run_allreduce(ArRun {
            reliable: true,
            link,
            ..ArRun::new(nworkers, elements, win)
        })
    };

    // Overhead at 0% loss: fire-and-forget vs NCP-R on the same clean
    // links. Goodput = result payload delivered / completion time.
    let base = run_allreduce(ArRun::new(nworkers, elements, win));
    let clean = reliable(LinkSpec::default());
    let payload = (nworkers * elements * 4) as f64;
    let overhead = 100.0 * (1.0 - base.completion as f64 / clean.completion as f64);
    println!("-- reliability overhead at 0% loss --");
    println!(
        "{:>16} {:>12} {:>14} {:>12} {:>10}",
        "arm", "compl µs", "wire KiB", "goodput Gb/s", "events"
    );
    for (name, r) in [("fire-and-forget", &base), ("NCP-R", &clean)] {
        println!(
            "{:>16} {:>12.1} {:>14.1} {:>12.3} {:>10}",
            name,
            r.completion as f64 / 1000.0,
            r.bytes_on_wire as f64 / 1024.0,
            payload * 8.0 / r.completion as f64,
            r.events,
        );
    }
    println!("goodput overhead: {overhead:.1}%  (budget ≤ 15%)");
    // At 0% loss NCP-R rides the response clock (the broadcast IS the
    // ACK) and costs almost nothing. The gate itself is
    // tests/failure_injection.rs::
    // reliability_costs_at_most_15_percent_goodput_on_clean_links.
    assert!(overhead <= 15.0, "NCP-R goodput overhead {overhead:.1}%");
    assert_eq!(clean.retransmits, 0, "clean links must not retransmit");
    assert_eq!(clean.switch_dups, 0, "clean links must not replay");

    println!("\n-- loss sweep (NCP-R, duplication every 6th, 30 µs reorder jitter) --");
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "loss %", "compl µs", "slowdown", "retransmits", "switch dups", "events"
    );
    let mut completions = Vec::new();
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let link = if loss == 0.0 {
            LinkSpec::default()
        } else {
            LinkSpec {
                loss,
                dup_every: 6,
                jitter_every: 5,
                jitter: 30_000,
                ..LinkSpec::default()
            }
        };
        let r = reliable(link);
        println!(
            "{:>8.0} {:>12.1} {:>9.2}x {:>12} {:>12} {:>10}",
            loss * 100.0,
            r.completion as f64 / 1000.0,
            r.completion as f64 / clean.completion as f64,
            r.retransmits,
            r.switch_dups,
            r.events,
        );
        assert_eq!(loss > 0.0, r.retransmits > 0 && r.switch_dups > 0);
        completions.push(r.completion);
    }
    // Under loss the completion tail is RTO/backoff-dominated
    // (AllReduce is a barrier: one lost window stalls its whole slot).
    // That every run still ends with exactly-once switch execution —
    // the replay filter absorbing the retransmit × duplication overlap
    // — is tests/failure_injection.rs::
    // reliable_allreduce_completes_bit_identical_under_loss.
    assert!(rising(&completions), "loss must not speed the barrier up");
}

/// E11 — in-band window telemetry overhead (DESIGN §4.9): completion,
/// wire bytes and goodput for sampling 0.0 (telemetry on but never
/// sampled — the baseline), 0.5 and 1.0 at 0% loss, on a 2 KiB-PHV
/// chip profile so the 256-element windows that amortize the fixed
/// 33-byte section fit in one parse.
fn e11_telemetry() {
    let (nworkers, elements, win) = (4usize, 8192usize, 256usize);
    // A larger-PHV chip generation: default Tofino-ish profile except
    // the parser budgets, so a 1 KiB window payload is parseable.
    let model = ResourceModel {
        stages: 48,
        phv_header_bytes: 2048,
        phv_metadata_bytes: 2048,
        ..ResourceModel::default()
    };
    println!(
        "E11: in-band telemetry — AllReduce ({nworkers} workers, {elements} × int32, win {win})"
    );
    println!("star topology; 10 Gb/s, 1 µs links; 33-byte section per sampled frame\n");
    let arms = [0.0, 0.5, 1.0].map(|sampling| {
        run_allreduce(ArRun {
            sampling: Some(sampling),
            model,
            ..ArRun::new(nworkers, elements, win)
        })
    });
    // Goodput ∝ payload / completion; payload is identical across arms,
    // so the goodput overhead is the completion-time stretch.
    let overhead = |t: u64| 100.0 * (1.0 - arms[0].completion as f64 / t as f64);
    rule(96);
    println!(
        "{:>14} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "arm", "compl µs", "wire KiB", "overhead%", "traces", "hops", "uops", "events"
    );
    rule(96);
    for (name, r) in ["sampling 0.0", "sampling 0.5", "sampling 1.0"]
        .iter()
        .zip(&arms)
    {
        println!(
            "{:>14} {:>12.1} {:>12.1} {:>10.2} {:>10} {:>10} {:>10} {:>10}",
            name,
            r.completion as f64 / 1000.0,
            r.bytes_on_wire as f64 / 1024.0,
            overhead(r.completion),
            r.traces,
            r.hop_records,
            r.hop_uops,
            r.events
        );
    }
    rule(96);
    let full = overhead(arms[2].completion);
    println!("\ngoodput overhead at sampling 1.0, 0% loss = {full:.2}% (budget <= 5%)");
    // The gate itself is tests/ncscope.rs::
    // tracing_every_window_costs_at_most_5_percent_goodput.
    let nwindows = (nworkers * elements / win) as u64;
    assert_eq!((arms[0].traces, arms[2].traces), (0, nwindows));
    assert_eq!(
        arms[2].hop_records, nwindows,
        "one on-path switch per trace"
    );
    assert!(arms[1].traces > 0 && arms[1].traces < nwindows);
    assert!(full <= 5.0, "telemetry goodput overhead {full:.2}%");
}
