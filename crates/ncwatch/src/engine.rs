//! The streaming evaluation engine: one [`Watch`] per deployment,
//! ticked on a fixed simulated-time cadence.
//!
//! Each tick the caller hands the watch a [`TickInput`]: per-tenant
//! cumulative transport counters (the watch differentiates them
//! itself), arbitrary per-component series for the anomaly baselines,
//! and the current `ncscope` capture (decoded events + window traces).
//! The watch evaluates every SLO tracker and anomaly detector, and any
//! alert crossing threshold triggers the incident pipeline: an
//! automatic [`diagnose`] run over the capture, a suspected-component
//! verdict, and a sealed [`IncidentReport`] appended to the in-memory
//! log (and, when armed, to a JSONL file).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

use nctel::scope::analysis::{diagnose, Diagnosis, DiagnosisConfig};
use nctel::scope::DecodedEvent;
use nctel::WindowTrace;

use crate::anomaly::{AnomalyConfig, EwmaMad};
use crate::incident::{link_name, wire_name, IncidentReport};
use crate::slo::{Objective, SloSpec, SloTracker, SloTransition};

/// Static configuration of one watch.
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Evaluation cadence, simulated ns per tick (informational — the
    /// caller owns the clock and decides when to call
    /// [`Watch::observe_tick_lazy`]).
    pub tick_ns: u64,
    /// Declared objectives.
    pub slos: Vec<SloSpec>,
    /// Shared anomaly-detector tuning.
    pub anomaly: AnomalyConfig,
    /// Deployment facts for the triggered diagnosis.
    pub diagnosis: DiagnosisConfig,
    /// Minimum ticks between two incidents from the same source (the
    /// scope-capture budget guard).
    pub capture_cooldown_ticks: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            tick_ns: 100_000,
            slos: Vec::new(),
            anomaly: AnomalyConfig::default(),
            diagnosis: DiagnosisConfig::default(),
            capture_cooldown_ticks: 16,
        }
    }
}

/// One tenant's cumulative transport counters at tick time. The watch
/// keeps last-tick values and differentiates internally.
#[derive(Clone, Debug, Default)]
pub struct TenantSample {
    /// Tenant name (matches [`SloSpec::tenant`]).
    pub tenant: String,
    /// Windows acked (cumulative, summed over the tenant's hosts).
    pub acked: u64,
    /// Windows handed to NCP-R (cumulative).
    pub tracked: u64,
    /// Retransmissions sent (cumulative).
    pub retransmits: u64,
    /// Windows abandoned after retry exhaustion (cumulative).
    pub abandoned: u64,
    /// Current p99 of the first-send→ack latency histogram, ns
    /// (0 while the histogram is empty).
    pub p99_ack_latency_ns: u64,
    /// Unknown-kernel windows attributed to this tenant (cumulative;
    /// fabric-wide counts may be attributed to every tenant).
    pub unknown_kernel: u64,
}

/// One anomaly-series observation: a cumulative (or gauge) value for a
/// named series tied to a fabric component.
#[derive(Clone, Debug)]
pub struct SeriesSample {
    /// Stable series name, e.g. `hop.s1.ticks_out` — also the
    /// detector key and incident source.
    pub series: String,
    /// The component an anomaly on this series implicates when the
    /// diagnosis has no stronger evidence, e.g. `switch s1`.
    pub component: String,
    /// Cumulative counter value (the watch differentiates) — pass
    /// rates pre-differenced as deltas-plus-running-sum if needed.
    pub value: f64,
}

/// Everything the watch reads on one evaluation tick.
#[derive(Clone, Copy)]
pub struct TickInput<'a> {
    /// Simulated time, ns.
    pub now_ns: u64,
    /// Per-tenant cumulative transport counters.
    pub tenants: &'a [TenantSample],
    /// Per-component series for the anomaly baselines.
    pub series: &'a [SeriesSample],
}

/// Lazily materializes the scope capture — decoded events plus window
/// traces — when the incident pipeline actually fires. Decoding a
/// large event ring and cloning every assembled trace on *every*
/// evaluation tick would dominate the watch's cost; most ticks fire
/// nothing and never need the capture.
pub trait CaptureSource {
    /// Produces the capture at fire time.
    fn capture(&mut self) -> (Vec<DecodedEvent>, Vec<WindowTrace>);
}

impl<F: FnMut() -> (Vec<DecodedEvent>, Vec<WindowTrace>)> CaptureSource for F {
    fn capture(&mut self) -> (Vec<DecodedEvent>, Vec<WindowTrace>) {
        self()
    }
}

/// Exemplar key/value pairs attached to a minted incident.
type Exemplars = Vec<(String, String)>;
/// A fired SLO pending mint: source, tenant, fast/slow burn, exemplars.
type FiredSlo = (String, String, u64, u64, Exemplars);
/// A flagged anomaly pending mint: series, component, exemplars.
type FlaggedAnomaly = (String, String, Exemplars);

/// The streaming health engine.
pub struct Watch {
    cfg: WatchConfig,
    trackers: Vec<SloTracker>,
    detectors: BTreeMap<String, EwmaMad>,
    last_counter: BTreeMap<String, u64>,
    last_series: BTreeMap<String, f64>,
    last_fire: BTreeMap<String, u64>,
    tick: u64,
    incidents: Vec<IncidentReport>,
    log_path: Option<PathBuf>,
}

impl Watch {
    /// Compiles the config into trackers and detectors.
    pub fn new(cfg: WatchConfig) -> Self {
        let trackers = cfg.slos.iter().cloned().map(SloTracker::new).collect();
        Watch {
            cfg,
            trackers,
            detectors: BTreeMap::new(),
            last_counter: BTreeMap::new(),
            last_series: BTreeMap::new(),
            last_fire: BTreeMap::new(),
            tick: 0,
            incidents: Vec::new(),
            log_path: None,
        }
    }

    /// Arms the JSONL incident log: every sealed report is appended to
    /// `path` as one line (the file the `ncwatch` CLI tails).
    pub fn arm(&mut self, path: impl Into<PathBuf>) {
        self.log_path = Some(path.into());
    }

    /// The evaluation cadence the watch was configured with.
    pub fn tick_ns(&self) -> u64 {
        self.cfg.tick_ns
    }

    /// Ticks evaluated so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Every incident fired so far, in fire order.
    pub fn incidents(&self) -> &[IncidentReport] {
        &self.incidents
    }

    /// The SLO trackers (spec + live burn state), for health rendering.
    pub fn trackers(&self) -> &[SloTracker] {
        &self.trackers
    }

    /// Runs one evaluation tick and returns the incidents it fired.
    ///
    /// The scope capture is pulled from `capture` only on ticks where
    /// an SLO fires or an anomaly flags — the common healthy tick never
    /// pays for a ring decode or a trace clone.
    pub fn observe_tick_lazy(
        &mut self,
        input: &TickInput,
        capture: &mut dyn CaptureSource,
    ) -> Vec<IncidentReport> {
        let tick = self.tick;
        self.tick += 1;

        // Differentiate the per-tenant counters.
        struct Deltas {
            acked: u64,
            tracked: u64,
            retransmits: u64,
            unknown: u64,
            outstanding: u64,
        }
        let mut deltas: BTreeMap<&str, Deltas> = BTreeMap::new();
        for t in input.tenants {
            let mut d = |metric: &str, v: u64| -> u64 {
                let key = format!("{}\u{0}{metric}", t.tenant);
                let prev = self.last_counter.insert(key, v).unwrap_or(0);
                v.saturating_sub(prev)
            };
            deltas.insert(
                t.tenant.as_str(),
                Deltas {
                    acked: d("acked", t.acked),
                    tracked: d("tracked", t.tracked),
                    retransmits: d("retransmits", t.retransmits),
                    unknown: d("unknown_kernel", t.unknown_kernel),
                    outstanding: t
                        .tracked
                        .saturating_sub(t.acked)
                        .saturating_sub(t.abandoned),
                },
            );
        }

        // Evaluate every SLO tracker.
        let mut fired: Vec<FiredSlo> = Vec::new();
        for tr in &mut self.trackers {
            let sample = input.tenants.iter().find(|t| t.tenant == tr.spec.tenant);
            let d = deltas.get(tr.spec.tenant.as_str());
            let breached = match (&tr.spec.objective, sample, d) {
                (_, None, _) | (_, _, None) => None,
                (Objective::GoodputFloor { min_acked_per_tick }, _, Some(d)) => {
                    // Only a tenant with work in flight owes goodput.
                    let active = d.tracked > 0 || d.outstanding > 0;
                    active.then_some(d.acked < *min_acked_per_tick)
                }
                (Objective::LatencyCeiling { max_p99_ns }, Some(s), _) => {
                    (s.acked > 0).then_some(s.p99_ack_latency_ns > *max_p99_ns)
                }
                (Objective::RetransmitCeiling { max_per_mille }, _, Some(d)) => {
                    let sends = d.tracked + d.retransmits;
                    (sends > 0).then_some(d.retransmits * 1000 > *max_per_mille * sends)
                }
                (Objective::UnknownKernelZero, _, Some(d)) => Some(d.unknown > 0),
            };
            if let SloTransition::Fired(burn) = tr.observe(breached) {
                let mut exemplars = Vec::new();
                if let (Some(s), Some(d)) = (sample, d) {
                    exemplars.push(("acked_delta".into(), d.acked.to_string()));
                    exemplars.push(("tracked_delta".into(), d.tracked.to_string()));
                    exemplars.push(("retransmits_delta".into(), d.retransmits.to_string()));
                    exemplars.push(("outstanding".into(), d.outstanding.to_string()));
                    exemplars.push((
                        "p99_ack_latency_ns".into(),
                        s.p99_ack_latency_ns.to_string(),
                    ));
                    exemplars.push(("unknown_kernel_delta".into(), d.unknown.to_string()));
                }
                exemplars.push(("objective".into(), tr.spec.objective.tag().into()));
                exemplars.sort();
                fired.push((
                    tr.spec.name.clone(),
                    tr.spec.tenant.clone(),
                    burn.fast_milli,
                    burn.slow_milli,
                    exemplars,
                ));
            }
        }

        // Feed the anomaly baselines with per-tick series deltas.
        let mut flagged: Vec<FlaggedAnomaly> = Vec::new();
        for s in input.series {
            let prev = self.last_series.insert(s.series.clone(), s.value);
            let Some(prev) = prev else {
                continue; // first observation: no delta yet
            };
            let delta = s.value - prev;
            let det = self.detectors.entry(s.series.clone()).or_default();
            if let Some(a) = det.observe(&self.cfg.anomaly, delta) {
                let exemplars = vec![
                    ("baseline_mean".into(), format!("{:.4}", a.mean)),
                    ("baseline_spread".into(), format!("{:.4}", a.spread)),
                    ("delta".into(), format!("{:.4}", a.value)),
                    (
                        "direction".into(),
                        if a.high { "high" } else { "low" }.into(),
                    ),
                    ("score".into(), format!("{:.4}", a.score)),
                ];
                flagged.push((s.series.clone(), s.component.clone(), exemplars));
            }
        }

        // Incident pipeline: capture + diagnose once, then mint reports.
        let mut out = Vec::new();
        if !fired.is_empty() || !flagged.is_empty() {
            let (events, traces) = capture.capture();
            let captured = (events.len() as u64, traces.len() as u64);
            let diagnosis = diagnose(&events, &traces, &self.cfg.diagnosis);
            for (source, tenant, fast, slow, exemplars) in fired {
                if !self.cooldown_ok(&source, tick) {
                    continue;
                }
                let suspected = suspect(&diagnosis, None);
                out.push(self.mint(
                    tick,
                    input.now_ns,
                    captured,
                    "slo",
                    &source,
                    &tenant,
                    fast,
                    slow,
                    suspected,
                    exemplars,
                ));
            }
            for (series, component, exemplars) in flagged {
                if !self.cooldown_ok(&series, tick) {
                    continue;
                }
                let suspected = suspect(&diagnosis, Some(&component));
                out.push(self.mint(
                    tick,
                    input.now_ns,
                    captured,
                    "anomaly",
                    &series,
                    "",
                    0,
                    0,
                    suspected,
                    exemplars,
                ));
            }
        }
        out
    }

    /// Records an admission-control rejection as an incident (fired by
    /// the deployment layer at deploy time, tick 0).
    pub fn admission_incident(
        &mut self,
        now_ns: u64,
        tenant: &str,
        detail: &str,
    ) -> IncidentReport {
        let mut r = IncidentReport {
            id: String::new(),
            tick: self.tick,
            now_ns,
            kind: "admission".into(),
            source: format!("{tenant}.admission"),
            tenant: tenant.to_string(),
            burn_fast_milli: 0,
            burn_slow_milli: 0,
            suspected: "admission control (over quota)".into(),
            exemplars: vec![("cost_report".into(), detail.to_string())],
            events_captured: 0,
            hops_captured: 0,
        };
        r.seal();
        self.log(&r);
        self.incidents.push(r.clone());
        r
    }

    /// Renders the one-shot fabric health summary the CLI prints.
    pub fn health_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ncwatch: {} ticks evaluated, {} incidents\n",
            self.tick,
            self.incidents.len()
        ));
        out.push_str("SLOs:\n");
        for tr in &self.trackers {
            let burn = tr.burn();
            let (evaluated, bad) = tr.totals();
            out.push_str(&format!(
                "  [{}] {} ({}): burn {}m/{}m, {}/{} bad ticks\n",
                if tr.firing() { "FIRING" } else { "  ok  " },
                tr.spec.name,
                tr.spec.objective.tag(),
                burn.fast_milli,
                burn.slow_milli,
                bad,
                evaluated,
            ));
        }
        if self.incidents.is_empty() {
            out.push_str("no incidents\n");
        } else {
            out.push_str("incidents:\n");
            for i in &self.incidents {
                out.push_str(&format!(
                    "  {} tick {:>4} [{}] {} → {}\n",
                    i.id, i.tick, i.kind, i.source, i.suspected
                ));
            }
        }
        out
    }

    fn cooldown_ok(&mut self, source: &str, tick: u64) -> bool {
        match self.last_fire.get(source) {
            Some(&last) if tick.saturating_sub(last) < self.cfg.capture_cooldown_ticks => false,
            _ => {
                self.last_fire.insert(source.to_string(), tick);
                true
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn mint(
        &mut self,
        tick: u64,
        now_ns: u64,
        captured: (u64, u64),
        kind: &str,
        source: &str,
        tenant: &str,
        burn_fast_milli: u64,
        burn_slow_milli: u64,
        suspected: String,
        exemplars: Vec<(String, String)>,
    ) -> IncidentReport {
        let mut r = IncidentReport {
            id: String::new(),
            tick,
            now_ns,
            kind: kind.to_string(),
            source: source.to_string(),
            tenant: tenant.to_string(),
            burn_fast_milli,
            burn_slow_milli,
            suspected,
            exemplars,
            events_captured: captured.0,
            hops_captured: captured.1,
        };
        r.seal();
        self.log(&r);
        self.incidents.push(r.clone());
        r
    }

    fn log(&self, r: &IncidentReport) {
        if let Some(path) = &self.log_path {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", r.render_json());
            }
        }
    }
}

/// Names the component the diagnosis most incriminates: the primary
/// loss locus if any frames dropped, else the switch with the most
/// unknown-kernel windows, else the anomaly's own component, else
/// `unknown`.
fn suspect(diagnosis: &Diagnosis, component: Option<&str>) -> String {
    if let Some((a, b)) = diagnosis.primary_loss_locus() {
        return format!("link {}", link_name(a, b));
    }
    if let Some((&sw, _)) = diagnosis
        .unknown_kernel
        .iter()
        .max_by_key(|&(&sw, &n)| (n, std::cmp::Reverse(sw)))
    {
        return format!("switch {} (unknown kernel)", wire_name(sw));
    }
    component
        .map(str::to_string)
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nctel::scope::{ScopeEvent, WindowKey};

    fn goodput_watch() -> Watch {
        Watch::new(WatchConfig {
            slos: vec![SloSpec::new(
                "t.goodput",
                "t",
                Objective::GoodputFloor {
                    min_acked_per_tick: 5,
                },
            )],
            ..WatchConfig::default()
        })
    }

    fn tick<'a>(now_ns: u64, tenants: &'a [TenantSample]) -> TickInput<'a> {
        TickInput {
            now_ns,
            tenants,
            series: &[],
        }
    }

    fn no_capture() -> (Vec<DecodedEvent>, Vec<WindowTrace>) {
        (Vec::new(), Vec::new())
    }

    fn tenant(acked: u64, tracked: u64) -> TenantSample {
        TenantSample {
            tenant: "t".into(),
            acked,
            tracked,
            ..TenantSample::default()
        }
    }

    #[test]
    fn goodput_collapse_fires_one_incident() {
        let mut w = goodput_watch();
        // Healthy: 10 acks/tick.
        for i in 1..=12u64 {
            let t = [tenant(i * 10, i * 10)];
            assert!(w
                .observe_tick_lazy(&tick(i * 100, &t), &mut no_capture)
                .is_empty());
        }
        // Collapse: traffic still tracked, nothing acked.
        let mut incidents = Vec::new();
        for i in 13..=20u64 {
            let t = [tenant(120, i * 10)];
            incidents.extend(w.observe_tick_lazy(&tick(i * 100, &t), &mut no_capture));
        }
        assert_eq!(incidents.len(), 1, "hysteresis + cooldown → one incident");
        let inc = &incidents[0];
        assert_eq!((inc.kind.as_str(), inc.tenant.as_str()), ("slo", "t"));
        assert_eq!(inc.source, "t.goodput");
        assert!(inc.burn_fast_milli >= 4000);
        assert!(inc
            .exemplars
            .iter()
            .any(|(k, v)| k == "acked_delta" && v == "0"));
    }

    #[test]
    fn idle_tenant_never_violates_goodput() {
        let mut w = goodput_watch();
        // No traffic at all: tracked == acked == 0 throughout.
        for i in 1..=50u64 {
            let t = [tenant(0, 0)];
            assert!(w
                .observe_tick_lazy(&tick(i * 100, &t), &mut no_capture)
                .is_empty());
        }
        // Finished run: counters frozen, nothing outstanding.
        for i in 51..=100u64 {
            let t = [tenant(500, 500)];
            assert!(
                w.observe_tick_lazy(&tick(i * 100, &t), &mut no_capture)
                    .is_empty(),
                "drained tenant flagged at tick {i}"
            );
        }
    }

    #[test]
    fn unknown_kernel_slo_fires_and_diagnosis_names_the_switch() {
        let mut w = Watch::new(WatchConfig {
            slos: vec![SloSpec::new("t.unknown", "t", Objective::UnknownKernelZero)],
            ..WatchConfig::default()
        });
        // Synthetic capture: switch 0x8001 reports unknown-kernel
        // windows (scope event), matching the counter movement.
        let events: Vec<DecodedEvent> = (0..4)
            .map(|i| DecodedEvent {
                t: 100 + i,
                node: 0x8001,
                key: WindowKey::new(1, 7, i as u32),
                event: ScopeEvent::UnknownKernel { switch: 0x8001 },
            })
            .collect();
        let mut incidents = Vec::new();
        for i in 1..=6u64 {
            let t = [TenantSample {
                tenant: "t".into(),
                unknown_kernel: i * 2,
                ..TenantSample::default()
            }];
            let input = TickInput {
                now_ns: i * 100,
                tenants: &t,
                series: &[],
            };
            incidents.extend(
                w.observe_tick_lazy(&input, &mut || (events.clone(), Vec::<WindowTrace>::new())),
            );
        }
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].suspected, "switch s1 (unknown kernel)");
    }

    #[test]
    fn anomaly_series_fires_with_component_attribution() {
        let mut w = Watch::new(WatchConfig::default());
        let mut incidents = Vec::new();
        for i in 0..40u64 {
            // Cumulative counter advancing 10/tick, then 500/tick.
            let v = if i < 30 { i * 10 } else { 300 + (i - 29) * 500 };
            let s = [SeriesSample {
                series: "hop.s2.ticks_out".into(),
                component: "switch s2".into(),
                value: v as f64,
            }];
            let input = TickInput {
                now_ns: i * 100,
                tenants: &[],
                series: &s,
            };
            incidents.extend(w.observe_tick_lazy(&input, &mut no_capture));
        }
        assert!(!incidents.is_empty(), "step change must flag");
        assert_eq!(incidents[0].kind, "anomaly");
        assert_eq!(incidents[0].source, "hop.s2.ticks_out");
        assert_eq!(incidents[0].suspected, "switch s2");
    }

    #[test]
    fn identical_runs_mint_byte_identical_incident_logs() {
        let run = || {
            let mut w = goodput_watch();
            let mut log = String::new();
            for i in 1..=30u64 {
                let acked = if i <= 12 { i * 10 } else { 120 };
                let t = [tenant(acked, i * 10)];
                for inc in w.observe_tick_lazy(&tick(i * 100, &t), &mut no_capture) {
                    log.push_str(&inc.render_json());
                    log.push('\n');
                }
            }
            log
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run(), "same run ⇒ byte-identical incident log");
    }
}
