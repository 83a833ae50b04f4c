//! Smoke tests of the `ncscope` and `ncwatch` command-line tools on
//! artifacts written here: the two kinds `ncscope --from` renders (a
//! metrics dump, a flight-recorder snapshot), the incident log
//! `ncwatch` renders, and what each tool does with a truncated or
//! wrong-kind file — a message and a nonzero exit, never a panic.

use nctel::{HopRecord, Registry, Scope, ScopeEvent, SnapshotReason, WindowKey, WindowTrace};
use ncwatch::IncidentReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("artifact-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write temp file");
    p
}

fn ncscope(args: &[&str], file: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ncscope"));
    cmd.arg("--from").arg(file).args(args);
    cmd.output().expect("ncscope runs")
}

fn ncwatch(flag: &str, file: &Path, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ncwatch"));
    cmd.arg(flag).arg(file).args(args);
    cmd.output().expect("ncwatch runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A refusal: exit code 1 (not a panic's 101, not usage's 2) with a
/// one-line `tool: file: reason` message.
fn refusal(out: &Output, tool: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with(&format!("{tool}: ")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

fn registry() -> Registry {
    let reg = Registry::new();
    reg.counter("sim.delivered").add(42);
    reg.histogram("host.window_latency_ns").observe(1_500);
    reg
}

/// The nested multi-registry dump a run writes for `ncscope --from`.
fn metrics_dump() -> String {
    let json = registry().render_json();
    format!("{{\"sim\":{json},\"worker1\":{json}}}")
}

/// A flight snapshot of one window that lost its first copy on
/// `h1 -> s1`, was retransmitted, executed and delivered.
fn flight() -> String {
    const S1: u16 = 0x8001;
    let scope = Scope::new(64);
    let key = WindowKey::new(1, 1, 0);
    let drop = ScopeEvent::FragmentDropped {
        from: 1,
        to: S1,
        ctrl: false,
        burst: false,
    };
    let executed = ScopeEvent::SwitchExecuted {
        switch: S1,
        version: 1,
        fwd: 1,
    };
    scope.emit(100, 1, key, ScopeEvent::WindowSent { attempt: 0 });
    scope.emit(150, 1, key, drop);
    scope.emit(900, 1, key, ScopeEvent::RtoFired { attempt: 1 });
    scope.emit(900, 1, key, ScopeEvent::WindowSent { attempt: 1 });
    scope.emit(1_700, S1, key, executed);
    scope.emit(2_400, 1, key, ScopeEvent::WindowCompleted);
    let hop = HopRecord {
        switch: S1,
        kernel: 1,
        version: 1,
        stages: 6,
        uops: 16,
        ticks_in: 1_700,
        ticks_out: 2_300,
        ..HopRecord::default()
    };
    let trace = WindowTrace {
        kernel: 1,
        seq: 0,
        sender: 1,
        hops: vec![hop],
    };
    scope.flight_json(SnapshotReason::OnDemand, 2_400, Some(&registry()), &[trace])
}

/// Four sealed incidents, ticks 3..=6, as an armed watch appends them.
fn incident_log() -> String {
    let mut log = String::new();
    for tick in 3..7u64 {
        let mut r = IncidentReport {
            id: String::new(),
            tick,
            now_ns: tick * 4_000,
            kind: "slo".into(),
            source: "ar-a.retransmit_rate".into(),
            tenant: "ar-a".into(),
            burn_fast_milli: 20_000,
            burn_slow_milli: 5_000,
            suspected: "link h1<->s1".into(),
            exemplars: vec![("retransmits_delta".into(), "4".into())],
            events_captured: 12,
            hops_captured: 3,
        };
        r.seal();
        log.push_str(&r.render_json());
        log.push('\n');
    }
    log
}

#[test]
fn ncscope_renders_a_metrics_dump() {
    let dir = tmpdir("metrics");
    let file = write(&dir, "metrics.json", &metrics_dump());
    let out = stdout(&ncscope(&[], &file));
    assert!(out.contains("[worker1]") && out.contains("sim.delivered"));
    assert!(out.contains("42") && out.contains("p99"), "{out}");
    // A metrics dump has no timeline to export.
    let trace = dir.join("trace.json");
    let refused = ncscope(&["--trace", trace.to_str().unwrap()], &file);
    assert!(refusal(&refused, "ncscope").contains("flight artifact"));
}

#[test]
fn ncscope_diagnoses_a_flight_snapshot_and_exports_its_timeline() {
    let dir = tmpdir("flight");
    let file = write(&dir, "flight.json", &flight());
    let trace = dir.join("trace.json");
    let args = ["--path", "s1", "--trace", trace.to_str().unwrap()];
    let out = stdout(&ncscope(&args, &file));
    assert!(out.contains("reason on_demand") && out.contains("6 in snapshot"));
    assert!(out.contains("h1") && out.contains("sim.delivered"), "{out}");
    let doc = std::fs::read_to_string(&trace).expect("Chrome trace written");
    let parsed = nctel::scope::json::parse(&doc).expect("valid trace_event JSON");
    let events = parsed.get("traceEvents").and_then(|e| e.as_arr());
    assert!(!events.expect("traceEvents array").is_empty());
}

#[test]
fn ncwatch_renders_tails_and_re_emits_an_incident_log() {
    let dir = tmpdir("incidents");
    let log = incident_log();
    let file = write(&dir, "incidents.jsonl", &log);
    let last3 = stdout(&ncwatch("--incidents", &file, &["--last", "3"]));
    assert_eq!(last3.matches("ar-a.retransmit_rate").count(), 3, "{last3}");
    assert!(last3.contains("link h1<->s1"));
    // `--json` re-emits the canonical lines, byte for byte.
    assert_eq!(stdout(&ncwatch("--incidents", &file, &["--json"])), log);
    let health = stdout(&ncwatch("--health", &file, &[]));
    assert!(
        health.contains("4 incident(s), tick 3 .. tick 6"),
        "{health}"
    );
    assert!(health.contains("   4  link h1<->s1"), "{health}");
}

#[test]
fn truncated_artifacts_are_refused_with_a_message() {
    let dir = tmpdir("truncated");
    let flight = flight();
    for cut in [flight.len() / 2, flight.len() - 1] {
        let file = write(&dir, "flight.json", &flight[..cut]);
        assert!(refusal(&ncscope(&[], &file), "ncscope").contains("flight.json"));
    }
    let log = incident_log();
    let file = write(&dir, "incidents.jsonl", &log[..log.len() - 40]);
    for flag in ["--incidents", "--health"] {
        let stderr = refusal(&ncwatch(flag, &file, &[]), "ncwatch");
        assert!(stderr.contains("incidents.jsonl:4:"), "{stderr}");
    }
}

#[test]
fn deeply_nested_artifacts_are_refused_with_a_message() {
    let dir = tmpdir("deep");
    let file = write(&dir, "deep.json", &"[".repeat(1 << 20));
    let stderr = refusal(&ncscope(&[], &file), "ncscope");
    assert!(
        stderr.contains("deep.json: invalid JSON: nesting deeper than"),
        "{stderr}"
    );
}

#[test]
fn wrong_kind_artifacts_are_refused_with_a_message() {
    let dir = tmpdir("wrong-kind");
    let flight_file = write(&dir, "flight.json", &flight());
    for flag in ["--incidents", "--health"] {
        let stderr = refusal(&ncwatch(flag, &flight_file, &[]), "ncwatch");
        assert!(stderr.contains("not an ncwatch incident"), "{stderr}");
    }
    // An incident log is not a metrics dump, whether it holds several
    // lines or the one line that is a JSON document by itself.
    let log = incident_log();
    let one_line = log.lines().next().unwrap();
    for content in [log.as_str(), one_line] {
        let file = write(&dir, "incidents.jsonl", content);
        assert!(refusal(&ncscope(&[], &file), "ncscope").contains("incidents.jsonl"));
    }
    let stderr = refusal(&ncscope(&[], &write(&dir, "one.json", one_line)), "ncscope");
    assert!(stderr.contains("\"ncwatch-incident\" artifact"), "{stderr}");
}
