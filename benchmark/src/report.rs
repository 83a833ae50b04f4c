//! Output: the one-line result the driver reads, the table a person
//! reads, and the results file `compare` reads.

use crate::run::{RunArgs, RunResult};
use crate::spec::{obj, s, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use ncl::nctel::scope::json::parse;
use ncl::nctel::scope::Json;
use std::process::Command;

fn metrics_of(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the run's kind.
pub fn result_line(r: &RunResult, trace: bool) -> String {
    let metrics = metrics_of(trace)
        .iter()
        .map(|m| {
            let v = r.metrics.get(m.name).copied().filter(|v| v.is_finite());
            (
                m.name.to_string(),
                obj(vec![
                    ("value", Json::Num(v.unwrap_or(0.0))),
                    ("unit", s(m.unit)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(r.failed == 0 && r.attempted > 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Prints every metric of the run by name with its unit and the sample
/// count behind the medians.
pub fn print_table(args: &RunArgs, r: &RunResult) {
    println!(
        "# {} seed={} seconds={} trace={} samples={} attempted={} failed={}",
        args.workload, args.seed, args.seconds, args.trace as u8, r.samples, r.attempted, r.failed
    );
    for m in metrics_of(args.trace) {
        let v = r.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("{:<44} {:>16.4} {}", m.name, v, m.unit);
    }
}

/// Options of a run over every workload.
pub struct AllArgs {
    /// Input seed handed to every run.
    pub seed: u64,
    /// Seconds per measured phase.
    pub seconds: f64,
    /// Also make one traced run per workload.
    pub trace: bool,
    /// Smoke size.
    pub smoke: bool,
    /// Plain runs per workload (their spread goes into the file).
    pub repeat: usize,
    /// Results file to write.
    pub out: Option<String>,
}

fn child(workload: &str, a: &AllArgs, trace: bool) -> Result<Json, String> {
    // One process per run, so `peak_rss_mb` is that workload's own.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: run exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    parse(text.lines().last().unwrap_or("")).map_err(|e| format!("{workload}: result line: {e}"))
}

fn value_of(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Runs every workload in child processes, prints one table and
/// optionally writes the results file. Returns whether every output
/// was correct.
pub fn run_all(a: &AllArgs) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let plain: Vec<Json> = (0..a.repeat.max(1))
            .map(|_| child(w.name, a, false))
            .collect::<Result<_, _>>()?;
        let traced = if a.trace {
            Some(child(w.name, a, true)?)
        } else {
            None
        };
        let count = |key: &str| -> f64 {
            plain
                .iter()
                .chain(&traced)
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0.0 && attempted > 0.0;
        println!(
            "# {}  attempted={attempted} failed={failed}  — {}",
            w.name, w.why
        );
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = plain.iter().map(|r| value_of(r, m.name)).collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "{:<44} {:>16.4} {:<6} n={} q1={q1:.4} q3={q3:.4}",
                m.name,
                median(&values),
                m.unit,
                values.len()
            );
            e2e.push((
                m.name.to_string(),
                obj(vec![
                    ("unit", s(m.unit)),
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        let mut layers = Vec::new();
        if let Some(t) = &traced {
            for m in &PER_LAYER {
                let v = value_of(t, m.name);
                println!("{:<44} {:>16.4} {}", m.name, v, m.unit);
                layers.push((
                    m.name.to_string(),
                    obj(vec![("unit", s(m.unit)), ("value", Json::Num(v))]),
                ));
            }
        }
        rows.push(obj(vec![
            ("name", s(w.name)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
        ]));
    }
    if let Some(path) = &a.out {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let head = obj(vec![
            ("kind", s("ncbench-results")),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(a.seconds)),
            ("repeat", Json::Num(a.repeat as f64)),
            ("smoke", Json::Bool(a.smoke)),
            ("available_parallelism", Json::Num(nproc as f64)),
        ])
        .render();
        // One workload per line keeps the committed baseline diffable.
        let rows: Vec<String> = rows.iter().map(Json::render).collect();
        let text = format!(
            "{},\n\"workloads\":[\n{}\n]}}\n",
            head.trim_end_matches('}'),
            rows.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}
