//! Bounded-absence certificates.
//!
//! When exploration covers the whole bounded schedule space without
//! finding a violation, the checker emits a certificate recording
//! *exactly what was proven*: the property, the scenario size, every
//! bound parameter, and the exploration counters. A certificate is not
//! a proof of correctness — it is a proof of absence **within the
//! stated bounds**, and it must say so on its face. The JSON is
//! hand-rolled with a pinned key order so certificates diff cleanly and
//! can be snapshot-tested in CI.

use crate::explore::Stats;
use crate::system::Bounds;
use nctel::scope::json::escape;

/// A bounded-absence certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Program (pipeline) name.
    pub program: String,
    /// Lint code this certificate discharges (kebab-case), or `None`
    /// for the whole-program convergence property.
    pub code: Option<String>,
    /// Kernel (or kernel set) the scenario exercised.
    pub kernel: String,
    /// Property name (`serializable`, `order-invariant`,
    /// `no-regression`, `convergence`).
    pub property: String,
    /// Scenario windows injected.
    pub windows: usize,
    /// The bounds the absence holds within.
    pub bounds: Bounds,
    /// Reduction mode used.
    pub reduction: &'static str,
    /// Exploration counters at completion; `probe_execs` (steps executed
    /// to decide commutation) may differ between explorers that walked
    /// the same search. It fell about sevenfold once the step kinds
    /// decided most pairs without executing them.
    pub stats: Stats,
    /// Size of the serial reference set the terminals were checked
    /// against (0 for `no-regression`).
    pub serial_states: usize,
}

impl Certificate {
    /// Renders the certificate as JSON with pinned key order.
    pub fn to_json(&self) -> String {
        let code = match &self.code {
            Some(c) => escape(c),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"program\":{},\"code\":{},\"kernel\":{},",
                "\"property\":\"{}\",\"windows\":{},",
                "\"bounds\":{{\"max_retries\":{},\"max_splits\":{},",
                "\"max_drops\":{},\"max_states\":{}}},",
                "\"reduction\":\"{}\",",
                "\"states\":{},\"edges\":{},\"terminals\":{},",
                "\"schedules\":{},\"dedup_hits\":{},\"sleep_skips\":{},",
                "\"probe_execs\":{},\"serial_states\":{}}}"
            ),
            escape(&self.program),
            code,
            escape(&self.kernel),
            self.property,
            self.windows,
            self.bounds.max_retries,
            self.bounds.max_splits,
            self.bounds.max_drops,
            self.bounds.max_states,
            self.reduction,
            self.stats.states,
            self.stats.edges,
            self.stats.terminals,
            self.stats.schedules,
            self.stats.dedup_hits,
            self.stats.sleep_skips,
            self.stats.probe_execs,
            self.serial_states,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let cert = Certificate {
            program: "kvs".into(),
            code: Some("replay-unsafe".into()),
            kernel: "que\"ry".into(),
            property: "serializable".into(),
            windows: 2,
            bounds: Bounds::default(),
            reduction: "dpor",
            stats: Stats {
                states: 10,
                edges: 9,
                terminals: 2,
                schedules: 2,
                dedup_hits: 1,
                sleep_skips: 3,
                probe_execs: 8,
            },
            serial_states: 2,
        };
        let json = cert.to_json();
        assert!(json.starts_with("{\"program\":\"kvs\""));
        assert!(json.contains("\"code\":\"replay-unsafe\""));
        assert!(json.contains("que\\\"ry"));
        assert!(json.contains("\"max_retries\":1"));
        assert!(json.contains("\"sleep_skips\":3"));
        // Convergence certificates have no lint code.
        let conv = Certificate { code: None, ..cert };
        assert!(conv.to_json().contains("\"code\":null"));
        // A quote, a backslash and a newline in a name survive a parse.
        let odd = Certificate {
            program: "k\"v\\s\n".into(),
            ..conv
        };
        let doc = nctel::scope::json::parse(&odd.to_json()).expect("valid JSON");
        let program = doc.get("program").and_then(|p| p.as_str());
        assert_eq!(program, Some("k\"v\\s\n"));
    }
}
