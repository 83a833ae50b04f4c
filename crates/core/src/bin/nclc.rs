//! nclc — the Net Compute Language compiler, as a command-line tool.
//!
//! ```text
//! nclc <program.ncl> --and <overlay.and> [--mask kernel=8,8]...
//!      [--lint allow|warn|deny=CODE[,CODE...]]...
//!      [--emit p4|ir|report|cost|timing|trace|mc|all] [-o out-dir]
//! ```
//!
//! Takes an NCL C/C++ program and an AND file and produces "a program
//! for every switch in the AND file" (paper §3.2): `<location>.p4` for
//! inspection plus a resource report. A server location is built for
//! the software target only; the report names it so. `--emit ir` dumps
//! the optimized per-location IR and `--emit trace` pushes a zero-filled
//! test window through each compiled pipeline, printing the per-stage
//! execution trace (the debugging aids the paper lists as future work,
//! §6).
//! Any other `--emit` value is refused.
//!
//! Static analysis (`ncl-lint`) runs on every compile: switch-state
//! hazards and replay-unsafe updates are errors by default, and every
//! resource violation of the pipeline built for a switch is a
//! `resource-overrun` finding. `--emit cost` prints that pipeline's
//! resource figures per kernel. `--lint allow=replay-unsafe` (etc.)
//! downgrades a finding after you have understood the interleaving it
//! describes. `--emit timing` prints the wall-time of every compiler
//! stage (nctel spans).
//!
//! `--emit mc` (never implied by `all` — it explores exhaustively) runs
//! the ncmc bounded model checker on every switch: each surviving
//! schedule-checkable lint warning and the whole-program convergence
//! obligation is adjudicated with a shrunk counterexample schedule or a
//! bounded-absence certificate (DESIGN.md §4.13).

use ncl_and::AndKind;
use ncl_core::nclc::{compile, CompileConfig, LintCode, LintLevel, NclcError};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    program: PathBuf,
    and: PathBuf,
    masks: Vec<(String, Vec<u16>)>,
    lints: Vec<(LintCode, LintLevel)>,
    emit: Vec<String>,
    out: PathBuf,
}

/// Every `--emit` value nclc accepts.
const EMITS: &[&str] = &["p4", "ir", "report", "cost", "timing", "trace", "mc", "all"];

fn usage() -> ! {
    eprintln!(
        "usage: nclc <program.ncl> --and <overlay.and> \
         [--mask kernel=N[,N...]]... \
         [--lint allow|warn|deny=CODE[,CODE...]]... \
         [--emit {}] [-o DIR]",
        EMITS.join("|")
    );
    eprintln!(
        "lint codes: {}",
        LintCode::ALL
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut program = None;
    let mut and = None;
    let mut masks = Vec::new();
    let mut lints = Vec::new();
    let mut emit = Vec::new();
    let mut out = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--and" => and = it.next().map(PathBuf::from),
            "--mask" => {
                let Some(spec) = it.next() else { usage() };
                let Some((k, counts)) = spec.split_once('=') else {
                    eprintln!("--mask expects kernel=N[,N...], got '{spec}'");
                    usage();
                };
                let counts: Result<Vec<u16>, _> = counts.split(',').map(str::parse).collect();
                match counts {
                    Ok(c) => masks.push((k.to_string(), c)),
                    Err(_) => {
                        eprintln!("bad mask counts in '{spec}'");
                        usage();
                    }
                }
            }
            "--lint" => {
                let Some(spec) = it.next() else { usage() };
                let Some((level, codes)) = spec.split_once('=') else {
                    eprintln!("--lint expects allow|warn|deny=CODE[,CODE...], got '{spec}'");
                    usage();
                };
                let level = match level {
                    "allow" => LintLevel::Allow,
                    "warn" => LintLevel::Warn,
                    "deny" => LintLevel::Deny,
                    other => {
                        eprintln!("--lint level must be allow, warn, or deny, got '{other}'");
                        usage();
                    }
                };
                for code in codes.split(',') {
                    match LintCode::parse(code) {
                        Some(c) => lints.push((c, level)),
                        None => {
                            eprintln!("unknown lint code '{code}'");
                            usage();
                        }
                    }
                }
            }
            "--emit" => {
                let Some(what) = it.next() else { usage() };
                if !EMITS.contains(&what.as_str()) {
                    eprintln!("unknown --emit value '{what}'");
                    usage();
                }
                emit.push(what);
            }
            "-o" => out = it.next().map(PathBuf::from).unwrap_or(out),
            "-h" | "--help" => usage(),
            _ if program.is_none() => program = Some(PathBuf::from(a)),
            other => {
                eprintln!("unexpected argument '{other}'");
                usage();
            }
        }
    }
    let (Some(program), Some(and)) = (program, and) else {
        usage();
    };
    if emit.is_empty() {
        emit.push("all".to_string());
    }
    Args {
        program,
        and,
        masks,
        lints,
        emit,
        out,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let src = match std::fs::read_to_string(&args.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nclc: cannot read {}: {e}", args.program.display());
            return ExitCode::FAILURE;
        }
    };
    let and_src = match std::fs::read_to_string(&args.and) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nclc: cannot read {}: {e}", args.and.display());
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = CompileConfig::default();
    for (k, m) in &args.masks {
        cfg.masks.insert(k.clone(), m.clone());
    }
    for &(code, level) in &args.lints {
        cfg.lint_levels.insert(code, level);
    }
    // The frontend names the translation unit "program.ncl" in spans.
    let lookup = |f: &str| (f == "program.ncl").then_some(src.as_str());
    let program = match compile(&src, &and_src, &cfg) {
        Ok(p) => p,
        Err(NclcError::Frontend(d)) | Err(NclcError::Lowering(d)) => {
            eprint!("{}", ncl_lang::diag::render_with_source(&d, lookup));
            return ExitCode::FAILURE;
        }
        Err(NclcError::Lint {
            location,
            diagnostics,
        }) => {
            eprintln!("nclc: lint denied program for \"{location}\":");
            let diags: Vec<_> = diagnostics.iter().map(|d| d.to_diagnostic()).collect();
            eprint!("{}", ncl_lang::diag::render_with_source(&diags, lookup));
            eprintln!(
                "nclc: downgrade a finding with --lint allow=CODE once the \
                 interleaving it describes is understood"
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("nclc: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Non-fatal findings still print, with carets into the source.
    for d in program.lint_warnings() {
        eprint!(
            "{}",
            ncl_lang::diag::render_with_source(&[d.to_diagnostic()], lookup)
        );
    }

    let emit_all = args.emit.iter().any(|e| e == "all");
    let wants = |what: &str| emit_all || args.emit.iter().any(|e| e == what);

    if std::fs::create_dir_all(&args.out).is_err() {
        eprintln!("nclc: cannot create {}", args.out.display());
        return ExitCode::FAILURE;
    }
    for (label, compiled) in &program.switches {
        if wants("p4") {
            let path = args.out.join(format!("{label}.p4"));
            if let Err(e) = std::fs::write(&path, &compiled.p4_source) {
                eprintln!("nclc: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        if wants("report") {
            let r = &compiled.report;
            println!(
                "{label}: {} stages, {} pass(es), PHV {}B hdr + {}B meta, \
                 max {} ops/stage — {}",
                r.stages_used,
                r.recirc_passes + 1,
                r.phv_header_bytes,
                r.phv_metadata_bytes,
                r.ops_by_stage.iter().max().unwrap_or(&0),
                if r.accepted() { "accepted" } else { "REJECTED" }
            );
        }
        if wants("cost") {
            if let Some(est) = program.estimate(label.as_str()) {
                print!("{}", est.render());
            }
        }
    }
    if wants("report") {
        for n in program.overlay.nodes.iter() {
            if n.kind == AndKind::Server {
                println!(
                    "{}: software target (no pipeline, no stage budget)",
                    n.label
                );
            }
        }
    }
    if wants("trace") {
        for (label, compiled) in &program.switches {
            let Ok(mut pipe) =
                pisa::Pipeline::load(compiled.pipeline.clone(), pisa::ResourceModel::default())
            else {
                continue;
            };
            for (kname, &kid) in &compiled.kernel_ids {
                let Some(kinfo) = program.checked.kernel(kname) else {
                    continue;
                };
                let Some(kir) = program.generic.kernel(kname) else {
                    continue;
                };
                if kir.mask.is_empty() {
                    continue;
                }
                let chunks: Vec<c3::Chunk> = kinfo
                    .window_params()
                    .zip(&kir.mask)
                    .map(|(p, &elems)| c3::Chunk {
                        offset: 0,
                        data: vec![0u8; p.elem.size() * elems as usize],
                    })
                    .collect();
                let w = c3::Window {
                    kernel: c3::KernelId(kid),
                    seq: 0,
                    sender: c3::HostId(1),
                    from: c3::NodeId::Host(c3::HostId(1)),
                    last: false,
                    chunks,
                    ext: vec![],
                };
                let pkt = ncp::codec::encode_window(&w, program.checked.window_ext.size());
                println!("== trace: kernel '{kname}' at {label} (zero window) ==");
                match pipe.process_traced(&pkt) {
                    Some((out, traces)) => {
                        for t in traces {
                            if !t.hits.is_empty() || !t.changed.is_empty() {
                                println!("  {t}");
                            }
                        }
                        println!(
                            "  decision code {} after {} pass(es)",
                            out.fwd_code, out.passes
                        );
                    }
                    None => println!("  (window not recognized)"),
                }
            }
        }
    }
    // Model checking is opt-in (`--emit mc` explicitly, not `all`):
    // exhaustive bounded exploration is orders of magnitude slower than
    // any other emit target.
    if args.emit.iter().any(|e| e == "mc") {
        let mc_cfg = ncl_core::mc::McConfig::default();
        for (label, _) in &program.switches {
            match ncl_core::mc::model_check_switch(&program, label.as_str(), &mc_cfg) {
                Ok(report) => {
                    println!("== model check: {label} ==");
                    for item in &report.items {
                        println!("  {}", item.summary());
                        match &item.result.outcome {
                            ncmc::Outcome::Witness(w) => {
                                for line in w.schedule.render().lines() {
                                    println!("    | {line}");
                                }
                            }
                            ncmc::Outcome::Certificate(c) => {
                                println!("    {}", c.to_json());
                            }
                            ncmc::Outcome::Inconclusive { .. } => {}
                        }
                    }
                }
                Err(e) => {
                    eprintln!("nclc: model check failed for {label}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if wants("timing") {
        print!("{}", program.timings.render());
    }
    if wants("ir") {
        let locations: Vec<_> = program
            .overlay
            .locations()
            .map(|s| ncl_ir::version::LocationInfo {
                label: s.label.clone(),
                id: s.id,
            })
            .collect();
        for module in ncl_ir::version_modules(&program.generic, &locations) {
            println!("{module}");
        }
    }
    println!(
        "nclc: {} kernel(s), {} switch program(s), host side retains {} incoming kernel(s)",
        program.kernel_ids.len(),
        program.switches.len(),
        program
            .checked
            .kernels
            .iter()
            .filter(|k| k.kind == ncl_lang::ast::KernelKind::Incoming)
            .count()
    );
    ExitCode::SUCCESS
}
