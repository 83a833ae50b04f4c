//! `compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) of two results files, judged against the bound
//! `BENCHMARK.json` fixes for the metric.

use ncl::nctel::scope::json::parse;
use ncl::nctel::scope::Json;

/// How `b` stands against `a` on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than either side's own spread.
    Better,
    /// Within the bound and the spread.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// One side's own spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// One side's figures for a metric.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Median over the side's runs.
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub spread: f64,
}

/// Judges `b` against `a`. `higher_is_better` and `bound` come from
/// `BENCHMARK.json`.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let spread = a.spread.max(b.spread);
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Signed change as a share of the base, positive = better.
    let change = if a.median == 0.0 {
        0.0
    } else if higher_is_better {
        (b.median - a.median) / a.median
    } else {
        (a.median - b.median) / a.median
    };
    if change < -bound {
        Verdict::Worse
    } else if change > spread && change > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Some(Side { median, spread })
}

fn fail_share(workload: &Json) -> f64 {
    let get = |k| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Prints the comparison and returns whether `b` holds up: no metric
/// worse than its bound, no workload failing a larger share of its
/// operations.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(benchmark_json)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut holds = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "iqr a", "iqr b", "bound"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<14} missing from {b_path}");
            holds = false;
            continue;
        };
        for m in metrics {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(sa), Some(sb)) = (side(&wa, metric), side(&wb, metric)) else {
                continue;
            };
            let verdict = judge(sa, sb, field("better") == "higher", bound);
            holds &= verdict != Verdict::Worse;
            println!(
                "{name:<14} {metric:<16} {:>14.4} {:>14.4} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}%  {}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread * 100.0,
                sb.spread * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        let (fa, fb) = (fail_share(&wa), fail_share(&wb));
        if fb > fa {
            println!("{name:<14} fail_share rose from {fa} to {fb}");
            holds = false;
        }
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Throughput, bound 10%.
        assert_eq!(
            judge(side(100.0, 0.02), side(85.0, 0.02), true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(side(100.0, 0.02), side(95.0, 0.02), true, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(side(100.0, 0.02), side(101.0, 0.02), true, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(side(100.0, 0.02), side(110.0, 0.02), true, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(side(100.0, 0.2), side(150.0, 0.02), true, 0.1),
            Verdict::Unresolved
        );
        // Latency: lower is better.
        assert_eq!(
            judge(side(10.0, 0.01), side(12.0, 0.01), false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(side(10.0, 0.01), side(8.0, 0.01), false, 0.1),
            Verdict::Better
        );
    }
}
