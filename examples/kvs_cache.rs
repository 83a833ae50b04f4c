//! The paper's Fig. 5: an in-network KVS cache. Clients issue a
//! Zipf-skewed GET/PUT mix; hot keys end up cached on the switch and
//! served at line rate, cutting both latency and server load.
//!
//! ```text
//! cargo run -p ncl-examples --bin kvs_cache -- [clients] [ops-per-client] [zipf-s]
//! ```

use c3::HostId;
use ncl_core::apps::{kvs_source, KvsClient, KvsOp, KvsServer};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions};
use ncl_core::nclc::{compile, CompileConfig};
use netsim::HostApp;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

const VAL_WORDS: usize = 8; // 32-byte values
const SLOTS: usize = 64;
const KEYSPACE: u64 = 500;

/// Zipf sampler over 1..=n with parameter s (inverse-CDF on precomputed
/// weights).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) + 1) as u64
    }
}

fn run(with_cache: bool, nclients: usize, ops: usize, skew: f64) -> (f64, f64, u64, u64) {
    let server_id = (nclients + 1) as u16;
    let src = kvs_source(server_id, SLOTS, VAL_WORDS);
    let and = format!(
        "hosts client {nclients}\nswitch s1\nhost server\nlink client* s1\nlink server s1\n"
    );
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, VAL_WORDS as u16, 1]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kernel = program.kernel_ids["query"];
    let control = with_cache.then(|| ControlPlane::new(program.switch("s1").unwrap()));

    let zipf = Zipf::new(KEYSPACE, skew);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for c in 1..=nclients as u16 {
        let mut rng = StdRng::seed_from_u64(c as u64 * 7919);
        let mut schedule = Vec::with_capacity(ops);
        for i in 0..ops {
            let key = zipf.sample(&mut rng);
            let put = rng.gen::<f64>() < 0.02; // GET-heavy, 2% PUTs
            let _ = i;
            schedule.push(KvsOp {
                at: (i as u64) * 200_000 + c as u64 * 1_000, // 5k ops/s/client
                key,
                put,
            });
        }
        apps.insert(
            format!("client{c}"),
            Box::new(KvsClient::new(
                c3::NodeId::Host(HostId(server_id)),
                HostId(server_id),
                kernel,
                VAL_WORDS,
                schedule,
            )),
        );
    }
    // The server starts with every key populated (steady-state store).
    let mut server = KvsServer::new(kernel, VAL_WORDS, None, control, SLOTS);
    for k in 1..=KEYSPACE {
        server.store.insert(k, KvsClient::value_for(k, VAL_WORDS));
    }
    apps.insert("server".into(), Box::new(server));
    let mut stripped = program.clone();
    if !with_cache {
        stripped.switches.clear();
    }
    let mut dep = deploy_opts(&stripped, apps, DeployOptions::default()).expect("deploys");
    if with_cache {
        let s1 = dep.switch("s1");
        dep.net
            .host_app_mut::<KvsServer>(HostId(server_id))
            .unwrap()
            .cache_switch = Some(s1);
    }
    dep.net.run();

    let mut latencies = Vec::new();
    let mut hit_lat = Vec::new();
    let mut miss_lat = Vec::new();
    let mut hits = 0u64;
    let mut total_gets = 0u64;
    let mut corrupt = 0u64;
    for c in 1..=nclients as u16 {
        let client = dep.net.host_app::<KvsClient>(HostId(c)).unwrap();
        corrupt += client.corrupt;
        for s in &client.samples {
            if !s.put {
                total_gets += 1;
                if s.from_cache {
                    hits += 1;
                    hit_lat.push(s.latency);
                } else {
                    miss_lat.push(s.latency);
                }
                latencies.push(s.latency);
            }
        }
    }
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1000.0;
    if !hit_lat.is_empty() {
        println!(
            "    breakdown: cache-hit mean {:.2} µs ({} GETs), miss mean {:.2} µs ({} GETs)",
            avg(&hit_lat),
            hit_lat.len(),
            avg(&miss_lat),
            miss_lat.len()
        );
    }
    assert_eq!(corrupt, 0, "no completed GET may be corrupt");
    latencies.sort_unstable();
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;
    let p99 = latencies
        .get(latencies.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(0) as f64;
    let served = dep
        .net
        .host_app::<KvsServer>(HostId(server_id))
        .unwrap()
        .served;
    let hit_pct = 100.0 * hits as f64 / total_gets.max(1) as f64;
    (mean / 1000.0, p99 / 1000.0, served, hit_pct as u64)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let nclients: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let skew: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1.3);
    println!(
        "KVS: {nclients} clients × {ops} ops, zipf(s={skew}) over {KEYSPACE} keys, \
         {SLOTS}-slot cache, {}B values",
        VAL_WORDS * 4
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>8}",
        "mode", "mean µs", "p99 µs", "server ops", "hit %"
    );
    let (mean, p99, served, _) = run(false, nclients, ops, skew);
    println!(
        "{:<14} {mean:>10.1} {p99:>10.1} {served:>12} {:>8}",
        "server-only", "—"
    );
    let (mean_c, p99_c, served_c, hits) = run(true, nclients, ops, skew);
    println!(
        "{:<14} {mean_c:>10.1} {p99_c:>10.1} {served_c:>12} {hits:>8}",
        "switch-cache"
    );
    println!(
        "speedup: mean {:.2}×, p99 {:.2}×; server load ÷{:.1}",
        mean / mean_c,
        p99 / p99_c,
        served as f64 / served_c.max(1) as f64
    );
}
