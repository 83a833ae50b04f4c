//! ncscope — window-level flight-recorder inspection and network
//! diagnosis, as a command-line tool.
//!
//! ```text
//! ncscope --from <FILE>  [--trace <OUT.json>] [--path NODE[,NODE...]]
//! ncscope --live <ADDR>  [--trace <OUT.json>] [--path NODE[,NODE...]]
//!         [--timeout MS]
//! ```
//!
//! `--from` reads a dumped artifact: either an ncscope flight-recorder
//! snapshot (`"kind":"ncscope-flight"`, written by an armed
//! [`nctel::Scope`] on a failure path or on demand) or a plain metrics
//! registry dump (`nctel::Registry::render_json`). Flight
//! artifacts run through the diagnosis engine and print per-window
//! verdicts — loss loci, dup heatmaps, per-switch residence — while
//! metrics dumps render as a table.
//!
//! `--live` queries the ncscope beacon of a running backend (see
//! `nctel::scope::beacon`) and renders the snapshot it returns.
//!
//! `--trace` additionally exports the snapshot as Chrome `trace_event`
//! JSON, openable in Perfetto / `chrome://tracing`.
//!
//! `--path` supplies the deployed AND path (sender→receiver switch
//! order) for last-witness loss inference when the artifact alone
//! cannot name a link; nodes are written `s1`, `h2`, or raw wire ids.

use nctel::scope::{analysis, chrome_trace, json, parse_flight, FlightArtifact, Json};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    from: Option<String>,
    live: Option<String>,
    trace: Option<String>,
    path: Vec<u16>,
    timeout_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: ncscope (--from FILE | --live ADDR) [--trace OUT.json] \
         [--path NODE[,NODE...]] [--timeout MS]"
    );
    eprintln!("  FILE: ncscope flight artifact or metrics registry JSON dump");
    eprintln!("  ADDR: host:port of a running backend's ncscope beacon");
    eprintln!("  NODE: s<n> (switch), h<n> (host), or a raw wire id");
    std::process::exit(2);
}

/// Parses `s3` / `h2` / raw wire-id node spellings (the inverse of the
/// report's formatter; the switch bit is 0x8000).
fn parse_node(s: &str) -> Option<u16> {
    if let Some(n) = s.strip_prefix('s') {
        return n.parse::<u16>().ok().map(|n| n | 0x8000);
    }
    if let Some(n) = s.strip_prefix('h') {
        return n.parse::<u16>().ok();
    }
    s.parse::<u16>().ok()
}

fn parse_args() -> Args {
    let mut args = Args {
        from: None,
        live: None,
        trace: None,
        path: Vec::new(),
        timeout_ms: 2000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--from" => args.from = it.next(),
            "--live" => args.live = it.next(),
            "--trace" => args.trace = it.next(),
            "--timeout" => {
                let Some(ms) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("--timeout expects milliseconds");
                    usage();
                };
                args.timeout_ms = ms;
            }
            "--path" => {
                let Some(spec) = it.next() else { usage() };
                for node in spec.split(',') {
                    match parse_node(node) {
                        Some(id) => args.path.push(id),
                        None => {
                            eprintln!("bad node '{node}' in --path");
                            usage();
                        }
                    }
                }
            }
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unexpected argument '{other}'");
                usage();
            }
        }
    }
    if args.from.is_some() == args.live.is_some() {
        eprintln!("exactly one of --from / --live is required");
        usage();
    }
    args
}

/// Renders one metrics-registry JSON object as an aligned table.
/// Handles both a bare registry (`{"name": value, ...}`) and a dump of
/// several registries nested by component
/// (`{"sim": {...}, "worker1": {...}}`).
fn render_metrics(doc: &Json, indent: &str, out: &mut String) {
    let Some(obj) = doc.as_obj() else {
        out.push_str(&format!("{indent}{}\n", doc.render()));
        return;
    };
    let width = obj.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (key, value) in obj {
        match value {
            Json::Num(n) => out.push_str(&format!("{indent}{key:width$}  {n}\n")),
            Json::Obj(_) if value.get("count").is_some() && value.get("p50").is_some() => {
                let f = |k: &str| value.get(k).and_then(Json::as_u64).unwrap_or(0);
                out.push_str(&format!(
                    "{indent}{key:width$}  count {} sum {} p50 {} p99 {} p999 {}\n",
                    f("count"),
                    f("sum"),
                    f("p50"),
                    f("p99"),
                    f("p999")
                ));
            }
            Json::Obj(_) => {
                // A nested registry section (e.g. "sim" / "worker1").
                out.push_str(&format!("{indent}[{key}]\n"));
                render_metrics(value, &format!("{indent}  "), out);
            }
            other => out.push_str(&format!("{indent}{key:width$}  {}\n", other.render())),
        }
    }
}

/// Renders a flight artifact: snapshot header, diagnosis report,
/// metrics table.
fn render_flight(art: &FlightArtifact, path: &[u16]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ncscope flight snapshot: reason {}, t={}ns\n\
         events: {} in snapshot ({} logged, {} lost to ring wrap/cap), \
         {} window trace(s)\n\n",
        art.reason,
        art.now,
        art.events.len(),
        art.events_logged,
        art.events_dropped,
        art.traces.len()
    ));
    let cfg = analysis::DiagnosisConfig {
        expected_path: path.to_vec(),
        ..analysis::DiagnosisConfig::default()
    };
    out.push_str(&analysis::diagnose(&art.events, &art.traces, &cfg).render_report());
    if let Some(metrics) = &art.metrics {
        out.push_str("\nmetrics at snapshot:\n");
        render_metrics(metrics, "  ", &mut out);
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let (text, source) = match (&args.from, &args.live) {
        (Some(file), _) => (
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?,
            file.clone(),
        ),
        (_, Some(addr)) => (
            nctel::scope::beacon::query(addr.as_str(), Duration::from_millis(args.timeout_ms))
                .map_err(|e| format!("beacon query to {addr} failed: {e}"))?,
            addr.clone(),
        ),
        _ => unreachable!("parse_args enforces one source"),
    };
    let doc = json::parse(&text).map_err(|e| format!("{source}: invalid JSON: {e}"))?;
    match doc.get("kind").and_then(Json::as_str) {
        Some("ncscope-flight") => {
            let art = parse_flight(&text).map_err(|e| format!("{source}: {e}"))?;
            print!("{}", render_flight(&art, &args.path));
            if let Some(out) = &args.trace {
                // A bare artifact carries no compile spans; the timeline
                // still gets every window lifecycle and switch slice.
                let trace = chrome_trace(&[], &art.events, &art.traces);
                std::fs::write(out, &trace).map_err(|e| format!("cannot write {out}: {e}"))?;
                println!("wrote Chrome trace to {out} (open in Perfetto / chrome://tracing)");
            }
        }
        // Some other tool's artifact (an ncwatch incident, a cost
        // report): a registry dump has no string-valued `kind`.
        Some(kind) => {
            return Err(format!(
                "{source}: a {kind:?} artifact is neither an ncscope flight snapshot \
                 nor a metrics dump"
            ));
        }
        None => {
            println!("metrics dump {source}:");
            let mut out = String::new();
            render_metrics(&doc, "  ", &mut out);
            print!("{out}");
            if args.trace.is_some() {
                return Err("--trace needs a flight artifact, not a metrics dump".into());
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ncscope: {e}");
            ExitCode::FAILURE
        }
    }
}
