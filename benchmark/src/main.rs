//! ncbench command line: `run`, `compare`, `spec`. See README.md.

use ncbench::compare::compare;
use ncbench::report::{print_table, result_line, run_all, AllArgs};
use ncbench::run::{run, RunArgs};
use ncbench::spec::{benchmark_json, RUN_SECONDS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ncbench run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
      one run of one workload; the last line of output is the result as JSON
  ncbench run --seed <n> [--seconds <s>] [--trace] [--smoke] [--repeat <k>] [--out <file>]
      every workload, each run in its own process; --trace adds the per-layer run
  ncbench compare <a.json> <b.json>
      b against a, per workload and end-to-end metric, with the bounds of BENCHMARK.json
  ncbench spec
      print BENCHMARK.json";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value("a name")?),
            "--seed" => {
                f.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                f.seconds = Some(s);
            }
            "--repeat" => {
                f.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => f.out = Some(value("a path")?),
            "--smoke" => f.smoke = true,
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    f.trace = false;
                }
                Some("1") => {
                    it.next();
                    f.trace = true;
                }
                _ => f.trace = true,
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(f)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    // Smoke runs measure for half a second (every workload still runs
    // at least one whole job), so all seven fit a CI step.
    let seconds = f
        .seconds
        .unwrap_or(if f.smoke { 0.5 } else { RUN_SECONDS as f64 });
    match f.workload {
        Some(workload) => {
            let args = RunArgs {
                workload,
                seed: f.seed,
                seconds,
                trace: f.trace,
                smoke: f.smoke,
            };
            let result = run(&args)?;
            print_table(&args, &result);
            println!("{}", result_line(&result, args.trace));
            // Wrong outputs are reported in the result, not by the
            // exit code: a failed check fails the op, not the process.
            Ok(true)
        }
        None => run_all(&AllArgs {
            seed: f.seed,
            seconds,
            trace: f.trace,
            smoke: f.smoke,
            repeat: f.repeat,
            out: f.out,
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => compare(
            &args[1],
            &args[2],
            concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
        ),
        Some("spec") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ncbench: {e}");
            ExitCode::from(2)
        }
    }
}
