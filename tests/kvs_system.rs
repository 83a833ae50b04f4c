//! Full-system integration test of the paper's Fig. 5 KVS cache:
//! clients and a storage server around one programmable switch, the
//! compiled `query` kernel serving GETs from switch registers, cache
//! fills and invalidations through the control plane, and the
//! server-only baseline for comparison.

use ncl::core::apps::{kvs_source, KvsClient, KvsOp, KvsServer};
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions, SwitchBackend};
use ncl::core::nclc::{compile, CompileConfig, CompiledProgram};
use ncl::model::{HostId, NodeId, ScalarType};
use ncl::ncp::codec::decode_window;
use ncl::netsim::{HostApp, HostCtx, Packet};
use std::any::Any;
use std::collections::HashMap;

const VAL_WORDS: usize = 8;
const SLOTS: usize = 16;
const AND: &str = "hosts client 2\nswitch s1\nhost server\nlink client* s1\nlink server s1\n";
const SERVER_ID: u16 = 3; // declared after two clients

fn program() -> CompiledProgram {
    let src = kvs_source(SERVER_ID, SLOTS, VAL_WORDS);
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, VAL_WORDS as u16, 1]);
    compile(&src, AND, &cfg).expect("KVS program compiles")
}

struct Setup {
    dep: ncl::core::deploy::Deployment,
    kernel: u16,
}

/// Builds the deployed system. `with_cache` loads the compiled pipeline
/// onto s1; otherwise s1 plain-forwards (the baseline).
fn setup(with_cache: bool, client_ops: Vec<Vec<KvsOp>>) -> Setup {
    setup_on(SwitchBackend::Pisa, with_cache, client_ops)
}

/// [`setup`] on a chosen switch backend.
fn setup_on(backend: SwitchBackend, with_cache: bool, client_ops: Vec<Vec<KvsOp>>) -> Setup {
    let program = program();
    let kernel = program.kernel_ids["query"];
    let server_node = NodeId::Host(HostId(SERVER_ID));
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for (i, ops) in client_ops.into_iter().enumerate() {
        apps.insert(
            format!("client{}", i + 1),
            Box::new(KvsClient::new(
                server_node,
                HostId(SERVER_ID),
                kernel,
                VAL_WORDS,
                ops,
            )),
        );
    }
    let control = if with_cache {
        Some(ControlPlane::new(program.switch("s1").unwrap()))
    } else {
        None
    };
    apps.insert(
        "server".to_string(),
        Box::new(KvsServer::new(
            kernel,
            VAL_WORDS,
            None, // patched below once the switch id is known
            control.clone(),
            SLOTS,
        )),
    );
    let mut stripped = program.clone();
    if !with_cache {
        stripped.switches.clear(); // deploy a plain forwarder
    }
    let opts = DeployOptions {
        backend,
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&stripped, apps, opts).expect("deploys");
    if with_cache {
        let s1 = dep.switch("s1");
        let server = dep
            .net
            .host_app_mut::<KvsServer>(HostId(SERVER_ID))
            .expect("server app");
        server.cache_switch = Some(s1);
    }
    Setup { dep, kernel }
}

fn ms(n: u64) -> u64 {
    n * 1_000_000
}

#[test]
fn gets_and_puts_roundtrip_without_cache() {
    // Baseline sanity: pure client/server operation through a plain
    // forwarding switch.
    let ops = vec![
        KvsOp {
            at: 0,
            key: 7,
            put: true,
        },
        KvsOp {
            at: ms(1),
            key: 7,
            put: false,
        },
        KvsOp {
            at: ms(2),
            key: 99,
            put: false,
        }, // never written: zeros... counted corrupt
    ];
    let mut s = setup(false, vec![ops, vec![]]);
    s.dep.net.run();
    let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(client.samples.len(), 3);
    // The GET of key 7 returned the PUT value.
    let get7 = client
        .samples
        .iter()
        .find(|x| !x.put && x.key == 7)
        .unwrap();
    assert!(!get7.from_cache);
    // key 99 was never written: its zeros don't match the pattern.
    assert_eq!(client.corrupt, 1);
    let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
    assert_eq!(server.served, 3);
}

#[test]
fn hot_keys_get_cached_and_served_by_the_switch() {
    // Repeated GETs of one key: the first two go to the server (and
    // trip the hot threshold), later ones reflect from the switch.
    let mut ops = vec![KvsOp {
        at: 0,
        key: 5,
        put: true,
    }];
    for i in 1..=12u64 {
        ops.push(KvsOp {
            at: ms(i),
            key: 5,
            put: false,
        });
    }
    let mut s = setup(true, vec![ops, vec![]]);
    s.dep.net.run();
    let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(client.corrupt, 0, "cached values must match the store");
    let hits = client.samples.iter().filter(|x| x.from_cache).count();
    assert!(hits >= 8, "expected most GETs cached, got {hits}/12");
    // Cache hits are faster than server round trips.
    let hit_lat: Vec<u64> = client
        .samples
        .iter()
        .filter(|x| x.from_cache)
        .map(|x| x.latency)
        .collect();
    let miss_lat: Vec<u64> = client
        .samples
        .iter()
        .filter(|x| !x.put && !x.from_cache)
        .map(|x| x.latency)
        .collect();
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    assert!(
        avg(&hit_lat) < avg(&miss_lat),
        "hits {:?} should beat misses {:?}",
        avg(&hit_lat),
        avg(&miss_lat)
    );
    // Server load dropped: it saw the PUT, the first few GETs, nothing
    // after the fill.
    let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
    assert!(
        server.served < 13,
        "server served {} of 13 ops",
        server.served
    );
    let stats = s.dep.net.switch_stats(s.dep.switch("s1")).unwrap();
    assert!(stats.reflected >= hits as u64);
    let _ = s.kernel;
}

#[test]
fn puts_invalidate_the_cached_value() {
    // Cache key 5, then PUT a new value, then GET again: the response
    // must be the new value (the kernel invalidates on the PUT's way to
    // the server; the server refreshes the cache afterwards).
    let mut ops = vec![KvsOp {
        at: 0,
        key: 5,
        put: true,
    }];
    for i in 1..=4u64 {
        ops.push(KvsOp {
            at: ms(i),
            key: 5,
            put: false,
        });
    }
    // Overwrite at 6 ms, read at 7.. the value pattern is keyed so the
    // second PUT writes the same pattern; to detect staleness we rely on
    // the Valid bit: after invalidation, the GET must come from the
    // server until the refresh lands.
    ops.push(KvsOp {
        at: ms(6),
        key: 5,
        put: true,
    });
    ops.push(KvsOp {
        at: ms(6) + 50_000, // between invalidation and cache refresh
        key: 5,
        put: false,
    });
    let mut s = setup(true, vec![ops, vec![]]);
    s.dep.net.run();
    let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(client.corrupt, 0);
    // The GET right after the PUT was a miss (Valid=false).
    let after_put = client
        .samples
        .iter()
        .find(|x| !x.put && x.latency > 0 && !x.from_cache)
        .expect("at least one server-served GET after invalidation");
    assert!(!after_put.from_cache);
}

#[test]
fn two_clients_share_the_cache() {
    let c1: Vec<KvsOp> = std::iter::once(KvsOp {
        at: 0,
        key: 9,
        put: true,
    })
    .chain((1..=6u64).map(|i| KvsOp {
        at: ms(i),
        key: 9,
        put: false,
    }))
    .collect();
    // Client 2 starts reading after the cache is warm.
    let c2: Vec<KvsOp> = (8..=12u64)
        .map(|i| KvsOp {
            at: ms(i),
            key: 9,
            put: false,
        })
        .collect();
    let mut s = setup(true, vec![c1, c2]);
    s.dep.net.run();
    let c2app = s.dep.net.host_app::<KvsClient>(HostId(2)).unwrap();
    assert_eq!(c2app.corrupt, 0);
    let hits = c2app.samples.iter().filter(|x| x.from_cache).count();
    assert_eq!(
        hits,
        c2app.samples.len(),
        "client 2 should be fully cache-served"
    );
}

#[test]
fn cache_mode_beats_baseline_on_hot_traffic() {
    // The E2 headline shape, asserted end to end: same hot-key workload,
    // with and without the in-network cache.
    let workload: Vec<KvsOp> = std::iter::once(KvsOp {
        at: 0,
        key: 3,
        put: true,
    })
    .chain((1..=20u64).map(|i| KvsOp {
        at: ms(i),
        key: 3,
        put: false,
    }))
    .collect();

    let run = |with_cache: bool| -> (f64, u64) {
        let mut s = setup(with_cache, vec![workload.clone(), vec![]]);
        s.dep.net.run();
        let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
        assert_eq!(client.corrupt, 0);
        let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
        (client.mean_latency(), server.served)
    };
    let (lat_cache, served_cache) = run(true);
    let (lat_base, served_base) = run(false);
    assert!(
        lat_cache < lat_base,
        "cache latency {lat_cache} ≥ baseline {lat_base}"
    );
    assert!(
        served_cache < served_base / 2,
        "server load {served_cache} not well below baseline {served_base}"
    );
}

#[test]
fn cache_eviction_replaces_cold_keys() {
    // A tiny 2-slot cache (program compiled with 8 — the server's
    // policy limit is what matters): keys 1 and 2 warm the cache, then
    // key 3 becomes much hotter and must displace the colder of the
    // two; correctness holds throughout.
    let mut ops = Vec::new();
    for key in [1u64, 2, 3] {
        ops.push(KvsOp {
            at: ms(key),
            key,
            put: true,
        });
    }
    // Warm keys 1 and 2 just past the hot threshold.
    for (i, key) in [1u64, 1, 2, 2].iter().enumerate() {
        ops.push(KvsOp {
            at: ms(10 + i as u64),
            key: *key,
            put: false,
        });
    }
    // Key 3 becomes the hottest by far.
    for i in 0..12u64 {
        ops.push(KvsOp {
            at: ms(20 + i),
            key: 3,
            put: false,
        });
    }
    let mut s = setup(true, vec![ops, vec![]]);
    // Shrink the server's cache policy to 2 slots.
    s.dep
        .net
        .host_app_mut::<KvsServer>(HostId(SERVER_ID))
        .unwrap()
        .cache_slots = 2;
    s.dep.net.run();
    let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(client.corrupt, 0);
    let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
    assert!(
        server.evictions >= 1,
        "the hot key must displace a cold one"
    );
    assert!(
        server.cached.contains_key(&3),
        "key 3 ends up cached: {:?}",
        server.cached
    );
    // Late GETs of key 3 are served by the switch.
    let late_hits = client
        .samples
        .iter()
        .filter(|x| x.key == 3 && !x.put && x.from_cache)
        .count();
    assert!(late_hits >= 4, "got {late_hits} cached GETs of the hot key");
}

#[test]
fn get_between_eviction_and_refill_never_reads_the_victims_value() {
    // 2-slot cache, hot threshold 2. Keys 1 and 2 fill both slots; the
    // fourth GET of key 3 evicts key 1 and re-points Idx at its slot,
    // whose Valid bit still vouches for key 1's value until the update
    // window lands 120 µs later. A GET of key 3 inside that gap must be
    // answered by the server, not with key 1's cached value.
    let mut ops: Vec<KvsOp> = [1u64, 2, 3]
        .iter()
        .map(|&key| KvsOp {
            at: ms(key),
            key,
            put: true,
        })
        .collect();
    let gets = [
        (10, 1u64),
        (11, 1),
        (12, 2),
        (13, 2),
        (20, 3),
        (21, 3),
        (22, 3),
    ];
    ops.extend(gets.iter().map(|&(at, key)| KvsOp {
        at: ms(at),
        key,
        put: false,
    }));
    let evicting = ms(23);
    for at in [evicting, evicting + 90_000, ms(24)] {
        ops.push(KvsOp {
            at,
            key: 3,
            put: false,
        });
    }
    for backend in [SwitchBackend::Pisa, SwitchBackend::Simd] {
        let mut s = setup_on(backend, true, vec![ops.clone(), vec![]]);
        let server = s.dep.net.host_app_mut::<KvsServer>(HostId(SERVER_ID));
        let server = server.expect("server app");
        server.cache_slots = 2;
        server.hot_threshold = 2;
        s.dep.net.run();
        let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
        assert_eq!(server.evictions, 1, "{backend:?}: key 3 displaces key 1");
        let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
        assert_eq!(client.corrupt, 0, "{backend:?}: no GET reads a stale slot");
        // Only the last GET, after the update window, is a cache hit.
        let hits = client.samples.iter().filter(|x| x.from_cache).count();
        assert_eq!(
            hits, 1,
            "{backend:?}: the GET in the gap goes to the server"
        );
    }
}

#[test]
fn write_through_during_a_fill_never_overwrites_another_slot() {
    // Key 1 is cached in slot 0. The second GET of key 2 starts its
    // fill: `Idx[2]` lands 50 µs later (the control-plane delay), the
    // update window 120 µs later. A PUT of key 2 10 µs after that GET
    // must not reach the switch before `Idx[2]` does: the kernel's
    // server-update branch would miss the lookup and write key 2's
    // value into slot 0, and the last GET of key 1 would read it.
    let mut ops: Vec<KvsOp> = [1u64, 2]
        .iter()
        .map(|&key| KvsOp {
            at: ms(key),
            key,
            put: true,
        })
        .collect();
    for (at, key) in [(ms(3), 1u64), (ms(4), 1), (ms(5), 2), (ms(6), 2)] {
        ops.push(KvsOp {
            at,
            key,
            put: false,
        });
    }
    ops.push(KvsOp {
        at: ms(6) + 10_000,
        key: 2,
        put: true,
    });
    for (at, key) in [(ms(8), 1u64), (ms(9), 2)] {
        ops.push(KvsOp {
            at,
            key,
            put: false,
        });
    }
    for backend in [SwitchBackend::Pisa, SwitchBackend::Simd] {
        let mut s = setup_on(backend, true, vec![ops.clone(), vec![]]);
        s.dep.net.run();
        let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
        assert_eq!(client.samples.len(), ops.len(), "{backend:?}");
        assert_eq!(
            client.corrupt, 0,
            "{backend:?}: key 1's slot kept its value"
        );
        // Both late GETs are served by the switch, with the values the
        // store holds.
        let hits = client.samples.iter().filter(|x| x.from_cache).count();
        assert_eq!(hits, 2, "{backend:?}: both keys end up cached");
    }
}

#[test]
fn evicting_a_key_mid_fill_never_overwrites_another_slot() {
    // 2-slot cache, hot threshold 2. Key 1 is cached in slot 0 with a
    // server-side popularity of 4; key 2 fills slot 1 at 11 ms. Three
    // quick GETs of key 3 make it hotter than key 2, which is evicted
    // before its update window is sent. That window must never go out:
    // with `Idx[2]` removed, the kernel would write key 2's value into
    // slot 0, and the last GET of key 1 would read it.
    let mut ops: Vec<KvsOp> = [1u64, 2, 3]
        .iter()
        .map(|&key| KvsOp {
            at: ms(key),
            key,
            put: true,
        })
        .collect();
    let gets = [
        (ms(5), 1u64),
        (ms(5) + 10_000, 1),
        (ms(5) + 20_000, 1),
        (ms(5) + 30_000, 1),
        (ms(9), 3),
        (ms(10), 2),
        (ms(11), 2),
        (ms(11) + 10_000, 3),
        (ms(11) + 20_000, 3),
        (ms(11) + 30_000, 3),
        (ms(13), 1),
        (ms(14), 3),
    ];
    ops.extend(gets.iter().map(|&(at, key)| KvsOp {
        at,
        key,
        put: false,
    }));
    for backend in [SwitchBackend::Pisa, SwitchBackend::Simd] {
        let mut s = setup_on(backend, true, vec![ops.clone(), vec![]]);
        let server = s.dep.net.host_app_mut::<KvsServer>(HostId(SERVER_ID));
        let server = server.expect("server app");
        server.cache_slots = 2;
        server.hot_threshold = 2;
        s.dep.net.run();
        let server = s.dep.net.host_app::<KvsServer>(HostId(SERVER_ID)).unwrap();
        assert_eq!(server.evictions, 1, "{backend:?}: key 3 displaces key 2");
        assert!(!server.cached.contains_key(&2), "{backend:?}");
        let client = s.dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
        assert_eq!(client.samples.len(), ops.len(), "{backend:?}");
        assert_eq!(
            client.corrupt, 0,
            "{backend:?}: key 1's slot kept its value"
        );
        let hits = client.samples.iter().filter(|x| x.from_cache).count();
        assert_eq!(hits, 2, "{backend:?}: the last GETs of keys 1 and 3 hit");
    }
}

/// A KVS server that records every query it receives, `(seq, key)` in
/// arrival order, before answering it.
struct RecordingServer {
    inner: KvsServer,
    seen: Vec<(u32, u64)>,
}

impl HostApp for RecordingServer {
    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: &Packet) {
        if let Ok(w) = decode_window(&pkt.payload) {
            self.seen
                .push((w.seq, w.chunks[0].get(ScalarType::U64, 0).bits()));
        }
        self.inner.on_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn a_schedule_issues_every_op_once_in_schedule_order() {
    // 5,000 GETs, four to each `at`, through the compiled kernel with no
    // cache management: every one misses at the switch and reaches the
    // server. Each op goes out exactly once, as window `seq` = its
    // schedule index, and ops that share an `at` reach the switch (and
    // behind it the server) in schedule order.
    let schedule: Vec<KvsOp> = (0..5_000u64)
        .map(|i| KvsOp {
            at: (i / 4) * 20_000,
            key: 1 + i % 50,
            put: false,
        })
        .collect();
    let program = program();
    let kernel = program.kernel_ids["query"];
    let server_node = NodeId::Host(HostId(SERVER_ID));
    let mut server = KvsServer::new(kernel, VAL_WORDS, None, None, SLOTS);
    for key in 1..=50 {
        server
            .store
            .insert(key, KvsClient::value_for(key, VAL_WORDS));
    }
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for (name, ops) in [("client1", schedule.clone()), ("client2", vec![])] {
        let client = KvsClient::new(server_node, HostId(SERVER_ID), kernel, VAL_WORDS, ops);
        apps.insert(name.to_string(), Box::new(client));
    }
    apps.insert(
        "server".to_string(),
        Box::new(RecordingServer {
            inner: server,
            seen: Vec::new(),
        }),
    );
    let opts = DeployOptions {
        backend: SwitchBackend::Simd,
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("deploys");
    dep.net.run();

    let server = dep
        .net
        .host_app::<RecordingServer>(HostId(SERVER_ID))
        .unwrap();
    let want: Vec<(u32, u64)> = schedule
        .iter()
        .enumerate()
        .map(|(i, op)| (i as u32, op.key))
        .collect();
    let first_diff = server.seen.iter().zip(&want).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "queries arrive out of schedule order");
    assert_eq!(server.seen.len(), want.len(), "every op is sent once");
    let client = dep.net.host_app::<KvsClient>(HostId(1)).unwrap();
    assert_eq!(client.samples.len(), schedule.len());
    assert_eq!(client.outstanding(), 0);
    assert_eq!(client.corrupt, 0);
}
