//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root is `ncbench spec` verbatim; a self-test keeps the
//! two identical.

use ncl::nctel::scope::Json;

/// A workload and the reason it exists.
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// The seven workloads.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "ar_w1024",
        why: "largest window (1024 el.), NCP-R on: decode, kernel, encode and the deploy gate dominate, per-window fixed cost least",
    },
    Workload {
        name: "ar_w64",
        why: "smallest window (64 el.), NCP-R on: per-window cost of runtime, NCP-R and netsim dominates, the kernel does almost nothing",
    },
    Workload {
        name: "ar_w64_raw",
        why: "ar_w64 with NCP-R off: bypass for the reliability layer, bare forwarding and aggregation at the smallest window",
    },
    Workload {
        name: "ar_w64_storm",
        why: "ar_w64 under 2% loss, duplication and jitter with full recording: retransmit, dedup, replay filter, hop records, ncscope ring",
    },
    Workload {
        name: "kvs_zipf",
        why: "Zipf KVS with a 64-slot switch cache: three-chunk windows, map lookups, reflect/pass/drop mix, control-plane fills, no fusible kernel run",
    },
    Workload {
        name: "udp_w256",
        why: "allreduce over real loopback UDP through the software switch: no simulator, real per-window latency, syscalls plus codec plus kernel",
    },
    Workload {
        name: "ctl_gate",
        why: "control path only: compile chain at workload size, model check of three shapes, four-tenant admission; no window moves",
    },
];

/// A metric's name, unit and which direction is better.
pub struct Metric {
    /// Name in every result.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; measured with tracing off, defined
/// and non-zero on every workload.
///
/// The timing bounds are the widest the contract allows. Ten runs per
/// workload on the two-vCPU shared host this was built on spread (IQR
/// over median) by 3% to 25% depending on the hour, and the medians of
/// two such sets an hour apart differed by up to 27%: a tighter bound
/// would reject unchanged code. README.md has the measurements.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("deploy_ms", "ms", "lower", 0.25),
    e2e("job_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("ok_share", "ratio", "higher", 0.01),
];

/// Single layers; measured by the traced run. A metric reads 0 on a
/// workload where its layer does no work.
pub const PER_LAYER: [Metric; 62] = [
    layer("ncl-lang.frontend_ms", "ms", "lower"),
    layer("ncl-ir.lower_ms", "ms", "lower"),
    layer("ncl-ir.optimize_ms", "ms", "lower"),
    layer("ncl-ir.lint_ms", "ms", "lower"),
    layer("ncl-p4.estimate_ms", "ms", "lower"),
    layer("ncl-p4.backend_ms", "ms", "lower"),
    layer("ncl-ir.uops_per_kernel", "count", "lower"),
    layer("ncl-p4.p4_lines", "count", "lower"),
    layer("core.runtime.host_build_ms", "ms", "lower"),
    layer("core.deploy.lint_regate_ms", "ms", "lower"),
    layer("core.fastpath.build_ms", "ms", "lower"),
    layer("core.deploy.other_ms", "ms", "lower"),
    layer("core.fastpath.switch_ms_per_job", "ms", "lower"),
    layer("core.fastpath.process_ns_per_window", "ns", "lower"),
    layer("ncp.codec.decode_ns_per_window", "ns", "lower"),
    layer("ncl-ir.exec.kernel_ns_per_window", "ns", "lower"),
    layer("ncp.codec.encode_ns_per_window", "ns", "lower"),
    layer("core.fastpath.glue_ns_per_window", "ns", "lower"),
    layer("core.fastpath.allocs_per_window", "count", "lower"),
    layer("core.fastpath.alloc_bytes_per_window", "B", "lower"),
    layer("ncl-ir.interp.kernel_ns_per_window", "ns", "lower"),
    layer("ncl-ir.exec.scalar_kernel_ns_per_window", "ns", "lower"),
    layer("pisa.pipeline.process_ns_per_window", "ns", "lower"),
    layer("core.runtime.host_busy_ms_per_job", "ms", "lower"),
    layer("core.runtime.host_ns_per_window", "ns", "lower"),
    layer("c3.window.split_ns_per_window", "ns", "lower"),
    layer("ncp.codec.host_encode_ns_per_window", "ns", "lower"),
    layer("ncp.reliable.sender_ns_per_window", "ns", "lower"),
    layer("ncp.reliable.receiver_ns_per_window", "ns", "lower"),
    layer("ncp.reliable.retransmits_per_job", "count", "lower"),
    layer("ncp.reliable.dups_suppressed_per_job", "count", "lower"),
    layer("ncp.reliable.abandoned_per_job", "count", "lower"),
    layer("netsim.link_drops_per_job", "count", "lower"),
    layer("netsim.run_ms_per_job", "ms", "lower"),
    layer("netsim.events_per_job", "count", "lower"),
    layer("netsim.self_ms_per_job", "ms", "lower"),
    layer("netsim.self_ns_per_event", "ns", "lower"),
    layer("netsim.event_queue.ns_per_op", "ns", "lower"),
    layer("netsim.link.transmit_ns_per_packet", "ns", "lower"),
    layer("netsim.sim_completion_us", "us", "lower"),
    layer("netsim.wire_overhead_ratio", "ratio", "lower"),
    layer("nctel.scope.emit_ns_per_event", "ns", "lower"),
    layer("nctel.scope.events_logged_per_job", "count", "lower"),
    layer("nctel.scope.events_dropped_per_job", "count", "lower"),
    layer("nctel.hop.stamp_ns_per_window", "ns", "lower"),
    layer("nctel.trace.traces_per_job", "count", "higher"),
    layer("nctel.recording_overhead_share", "ratio", "lower"),
    layer("ncp.udp.send_ns_per_window", "ns", "lower"),
    layer("ncp.udp.recv_ns_per_window", "ns", "lower"),
    layer("ncp.udp.switch_busy_share", "ratio", "lower"),
    layer("ncp.udp.malformed", "count", "lower"),
    layer("ncp.udp.op_timeouts", "count", "lower"),
    layer("ncp.udp.rtt_p50_us", "us", "lower"),
    layer("ncp.udp.rtt_p99_us", "us", "lower"),
    layer("ncmc.check_ms", "ms", "lower"),
    layer("ncmc.states_explored", "count", "lower"),
    layer("ncmc.schedules", "count", "lower"),
    layer("ncsched.admit_ms", "ms", "lower"),
    layer("bench.jobs_traced", "count", "higher"),
    layer("bench.check_ms_per_job", "ms", "lower"),
    layer("bench.span_coverage_share", "ratio", "higher"),
    layer("bench.trace_overhead_share", "ratio", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

pub(crate) fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

pub(crate) fn obj(kv: Vec<(&str, Json)>) -> Json {
    Json::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let metric = |m: &Metric, bounded: bool| {
        let mut o = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better)),
        ];
        if bounded {
            o.push(("bound", Json::Num(m.bound)));
        }
        obj(o)
    };
    let doc = [
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ];
    // One top-level key per line keeps the file reviewable.
    let body: Vec<String> = doc
        .iter()
        .map(|(k, v)| format!("  {}: {}", s(k).render(), v.render()))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|m| m.unit.len() <= 16));
    }

    #[test]
    fn committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `ncbench spec`"
        );
        ncl::nctel::scope::json::parse(&committed).expect("valid JSON");
    }
}
