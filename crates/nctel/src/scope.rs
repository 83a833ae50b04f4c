//! # ncscope — window-level flight recorder and network diagnosis
//!
//! PR 4's telemetry gave the stack raw signals (registry metrics,
//! in-band hop records, compile spans); this module is the layer that
//! *interprets* them (DESIGN.md §4.10):
//!
//! * [`event`] — a bounded, lock-free ring of typed [`ScopeEvent`]s,
//!   keyed by `(sender, kernel, window seq)` so host, transport and
//!   switch observations of one window join a single causal chain. The
//!   cheap-clone [`Scope`] handle is attached to `NclHost`, the NCP-R
//!   sender/receiver, the UDP endpoint and the simulator.
//! * the **flight recorder** — [`Scope::flight_record`] snapshots ring +
//!   registry + traces to a JSON artifact on failure paths (delivery
//!   timeout, lint-gate denial, reassembler eviction storm) or on
//!   demand; [`parse_flight`] round-trips the artifact.
//! * [`analysis`] — folds events + hop records into per-window
//!   [`WindowVerdict`]s: loss-locus attribution, per-switch latency,
//!   replay/dup heatmaps, with a deterministic text report.
//! * [`chrome`] — a Chrome `trace_event` exporter merging compile
//!   spans, window lifecycles and hop records into one Perfetto-openable
//!   timeline.
//! * [`beacon`] — a UDP side channel that serves live snapshots to the
//!   `ncscope` CLI.

pub mod analysis;
pub mod beacon;
pub mod chrome;
pub mod event;
pub mod json;

pub use analysis::{
    diagnose, Diagnosis, DiagnosisConfig, LatencyStat, LossLocus, WindowOutcome, WindowVerdict,
    HOP_PATH_CAP,
};
pub use beacon::{query, spawn_beacon, Beacon, BEACON_PROBE};
pub use chrome::chrome_trace;
pub use event::{DecodedEvent, EventRing, ScopeEvent, ScopeEventRecord, WindowKey};
pub use json::Json;

use crate::metrics::Registry;
use crate::trace::WindowTrace;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Default event-ring capacity for [`Scope::default`].
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Why a flight-recorder snapshot was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotReason {
    /// The reliable sender exhausted retries on a window.
    DeliveryTimeout,
    /// The deploy-time lint gate refused a switch module.
    LintDenied,
    /// The reassembler evicted enough partial windows to call it a storm.
    EvictionStorm,
    /// Operator-requested snapshot.
    OnDemand,
}

impl SnapshotReason {
    /// Stable artifact string for the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotReason::DeliveryTimeout => "delivery_timeout",
            SnapshotReason::LintDenied => "lint_denied",
            SnapshotReason::EvictionStorm => "eviction_storm",
            SnapshotReason::OnDemand => "on_demand",
        }
    }
}

#[derive(Default)]
struct RecorderState {
    path: Option<PathBuf>,
    triggers: u64,
}

/// A cheap-clone handle onto one shared event ring + flight recorder.
///
/// Every layer of the stack (host runtime, reliable transport, UDP
/// endpoint, simulator) holds a clone and emits into the same ring, so
/// a snapshot is a causally ordered record of the whole network.
#[derive(Clone)]
pub struct Scope {
    ring: Arc<EventRing>,
    rec: Arc<Mutex<RecorderState>>,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("ring", &self.ring)
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl Default for Scope {
    fn default() -> Self {
        Scope::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl Scope {
    /// Creates a scope whose ring holds at most `capacity` events.
    pub fn new(capacity: usize) -> Scope {
        Scope {
            ring: Arc::new(EventRing::new(capacity)),
            rec: Arc::new(Mutex::new(RecorderState::default())),
        }
    }

    /// Emits one event. Lock-free and allocation-free; safe to call
    /// from any thread and from hot paths.
    pub fn emit(&self, t: u64, node: u16, key: WindowKey, event: ScopeEvent) {
        let (kind, a, b) = event.pack();
        self.ring.push(ScopeEventRecord {
            t,
            node,
            sender: key.sender,
            kernel: key.kernel,
            seq: key.seq,
            kind,
            a,
            b,
        });
    }

    /// Raw snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<ScopeEventRecord> {
        self.ring.snapshot()
    }

    /// Snapshot decoded for the analysis engine (unknown kinds are
    /// skipped).
    pub fn decoded(&self) -> Vec<DecodedEvent> {
        self.ring
            .snapshot()
            .into_iter()
            .filter_map(|r| {
                r.event().map(|event| DecodedEvent {
                    t: r.t,
                    node: r.node,
                    key: r.key(),
                    event,
                })
            })
            .collect()
    }

    /// Total events ever emitted into the ring.
    pub fn logged(&self) -> u64 {
        self.ring.logged()
    }

    /// Events lost to ring wrap-around or to a concurrent writer a lap
    /// behind ([`EventRing::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Arms the flight recorder: subsequent [`Scope::flight_record`]
    /// calls will (over)write the artifact at `path`.
    pub fn arm_recorder(&self, path: impl Into<PathBuf>) {
        self.rec.lock().unwrap().path = Some(path.into());
    }

    /// How many times the flight recorder has triggered.
    pub fn recorded(&self) -> u64 {
        self.rec.lock().unwrap().triggers
    }

    /// Builds a flight snapshot JSON document without side effects.
    pub fn flight_json(
        &self,
        reason: SnapshotReason,
        now: u64,
        registry: Option<&Registry>,
        traces: &[WindowTrace],
    ) -> String {
        self.flight_json_capped(reason.as_str(), now, registry, traces, usize::MAX)
    }

    /// Like [`Scope::flight_json`] but keeps only the newest
    /// `max_events` ring entries (used by the beacon to fit a UDP
    /// datagram); the cut is accounted in `events_dropped`.
    pub fn flight_json_capped(
        &self,
        reason: &str,
        now: u64,
        registry: Option<&Registry>,
        traces: &[WindowTrace],
        max_events: usize,
    ) -> String {
        let all = self.ring.snapshot();
        let cut = all.len().saturating_sub(max_events);
        let events = &all[cut..];
        let mut out = String::with_capacity(events.len() * 96 + 512);
        let _ = write!(
            out,
            "{{\"kind\":\"ncscope-flight\",\"reason\":{},\"now\":{now},\
             \"events_logged\":{},\"events_dropped\":{},\"events\":[",
            json::escape(reason),
            self.ring.logged(),
            self.ring.dropped() + cut as u64,
        );
        for (i, r) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t\":{},\"node\":{},\"sender\":{},\"kernel\":{},\"seq\":{},\
                 \"kind\":{},\"a\":{},\"b\":{}}}",
                r.t,
                r.node,
                r.sender,
                r.kernel,
                r.seq,
                json::escape(ScopeEvent::kind_name(r.kind)),
                r.a,
                r.b
            );
        }
        out.push_str("],\"traces\":[");
        for (i, tr) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kernel\":{},\"seq\":{},\"sender\":{},\"hops\":[",
                tr.kernel, tr.seq, tr.sender
            );
            for (j, h) in tr.hops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"switch\":{},\"kernel\":{},\"version\":{},\"stages\":{},\
                     \"uops\":{},\"flags\":{},\"ticks_in\":{},\"ticks_out\":{}}}",
                    h.switch,
                    h.kernel,
                    h.version,
                    h.stages,
                    h.uops,
                    h.flags,
                    h.ticks_in,
                    h.ticks_out
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"metrics\":");
        match registry {
            Some(reg) => out.push_str(&reg.render_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Triggers the flight recorder: builds the snapshot, bumps the
    /// trigger count, and — if armed — writes the artifact (best
    /// effort; I/O errors are swallowed so a dying run can never be
    /// killed by its own black box). Returns the JSON.
    pub fn flight_record(
        &self,
        reason: SnapshotReason,
        now: u64,
        registry: Option<&Registry>,
        traces: &[WindowTrace],
    ) -> String {
        let doc = self.flight_json(reason, now, registry, traces);
        let path = {
            let mut rec = self.rec.lock().unwrap();
            rec.triggers += 1;
            rec.path.clone()
        };
        if let Some(path) = path {
            let _ = std::fs::write(path, &doc);
        }
        doc
    }
}

/// A parsed flight-recorder artifact.
#[derive(Clone, Debug)]
pub struct FlightArtifact {
    /// Why the snapshot was taken.
    pub reason: String,
    /// Snapshot time in ns.
    pub now: u64,
    /// Total events emitted over the run.
    pub events_logged: u64,
    /// Events missing from the snapshot (wrap-around + beacon cut).
    pub events_dropped: u64,
    /// The surviving events, oldest first (unknown kinds skipped).
    pub events: Vec<DecodedEvent>,
    /// Receiver-assembled window traces included in the snapshot.
    pub traces: Vec<WindowTrace>,
    /// Raw metrics subtree, if a registry was attached.
    pub metrics: Option<Json>,
}

/// Parses a flight-recorder artifact previously produced by
/// [`Scope::flight_record`] / [`Scope::flight_json`].
pub fn parse_flight(text: &str) -> Result<FlightArtifact, String> {
    let doc = json::parse(text)?;
    if doc.get("kind").and_then(Json::as_str) != Some("ncscope-flight") {
        return Err("not an ncscope flight artifact (missing kind)".into());
    }
    let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut events = Vec::new();
    for e in doc.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
        let kind = ScopeEvent::kind_code(e.get("kind").and_then(Json::as_str).unwrap_or(""));
        let field = |key: &str| e.get(key).and_then(Json::as_u64).unwrap_or(0);
        let Some(event) = ScopeEvent::unpack(kind, field("a"), field("b")) else {
            continue;
        };
        events.push(DecodedEvent {
            t: field("t"),
            node: field("node") as u16,
            key: WindowKey::new(
                field("sender") as u16,
                field("kernel") as u16,
                field("seq") as u32,
            ),
            event,
        });
    }
    let mut traces = Vec::new();
    for tr in doc.get("traces").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |key: &str| tr.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut hops = Vec::new();
        for h in tr.get("hops").and_then(Json::as_arr).unwrap_or(&[]) {
            let hf = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
            hops.push(crate::hop::HopRecord {
                switch: hf("switch") as u16,
                kernel: hf("kernel") as u16,
                version: hf("version") as u16,
                stages: hf("stages") as u16,
                uops: hf("uops") as u32,
                flags: hf("flags") as u16,
                ticks_in: hf("ticks_in"),
                ticks_out: hf("ticks_out"),
            });
        }
        traces.push(WindowTrace {
            kernel: field("kernel") as u16,
            seq: field("seq") as u32,
            sender: field("sender") as u16,
            hops,
        });
    }
    Ok(FlightArtifact {
        reason: doc
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        now: num("now"),
        events_logged: num("events_logged"),
        events_dropped: num("events_dropped"),
        events,
        traces,
        metrics: doc.get("metrics").filter(|m| **m != Json::Null).cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::HopRecord;

    #[test]
    fn flight_artifact_round_trips() {
        let scope = Scope::new(8);
        let key = WindowKey::new(1, 7, 3);
        scope.emit(10, 1, key, ScopeEvent::WindowSent { attempt: 0 });
        scope.emit(
            12,
            0,
            key,
            ScopeEvent::FragmentDropped {
                from: 1,
                to: 0x8000,
                ctrl: false,
                burst: true,
            },
        );
        scope.emit(40, 1, key, ScopeEvent::WindowAbandoned { retries: 16 });
        let registry = Registry::new();
        registry.counter("scope.test").add(3);
        let traces = vec![WindowTrace {
            kernel: 7,
            seq: 3,
            sender: 1,
            hops: vec![HopRecord {
                switch: 0x8000,
                kernel: 7,
                version: 1,
                stages: 2,
                uops: 9,
                flags: 0,
                ticks_in: 11,
                ticks_out: 611,
            }],
        }];
        let doc = scope.flight_json(
            SnapshotReason::DeliveryTimeout,
            99,
            Some(&registry),
            &traces,
        );
        let art = parse_flight(&doc).expect("parses");
        assert_eq!(art.reason, "delivery_timeout");
        assert_eq!(art.now, 99);
        assert_eq!(art.events.len(), 3);
        assert_eq!(
            art.events[1].event,
            ScopeEvent::FragmentDropped {
                from: 1,
                to: 0x8000,
                ctrl: false,
                burst: true
            }
        );
        assert_eq!(art.traces, traces);
        assert!(art.metrics.is_some());
        // The parsed events drive the analysis engine directly.
        let d = analysis::diagnose(&art.events, &art.traces, &DiagnosisConfig::default());
        assert_eq!(d.count(WindowOutcome::Abandoned), 1);
        assert_eq!(d.primary_loss_locus(), Some((1, 0x8000)));
    }

    #[test]
    fn recorder_writes_artifact_when_armed() {
        let dir = std::env::temp_dir().join("ncscope-test-artifact.json");
        let scope = Scope::new(8);
        scope.emit(1, 1, WindowKey::new(1, 1, 0), ScopeEvent::WindowCompleted);
        // Unarmed: counts the trigger, writes nothing.
        scope.flight_record(SnapshotReason::OnDemand, 5, None, &[]);
        assert_eq!(scope.recorded(), 1);
        scope.arm_recorder(&dir);
        let doc = scope.flight_record(SnapshotReason::EvictionStorm, 7, None, &[]);
        assert_eq!(scope.recorded(), 2);
        let on_disk = std::fs::read_to_string(&dir).expect("artifact written");
        assert_eq!(on_disk, doc);
        assert_eq!(parse_flight(&on_disk).unwrap().reason, "eviction_storm");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn capped_snapshot_accounts_for_the_cut() {
        let scope = Scope::new(64);
        for seq in 0..10u32 {
            scope.emit(
                seq as u64,
                1,
                WindowKey::new(1, 1, seq),
                ScopeEvent::WindowCompleted,
            );
        }
        let doc = scope.flight_json_capped("on_demand", 0, None, &[], 4);
        let art = parse_flight(&doc).unwrap();
        assert_eq!(art.events.len(), 4);
        assert_eq!(art.events_dropped, 6);
        assert_eq!(art.events[0].key.seq, 6);
    }
}
