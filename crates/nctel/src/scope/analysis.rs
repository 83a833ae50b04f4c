//! The diagnosis engine: folds scope events and in-band hop records
//! into per-window verdicts with loss-locus attribution, per-switch
//! latency attribution and replay/dup heatmaps.
//!
//! Two evidence classes feed the verdicts:
//!
//! * **Event-log evidence** — `FragmentDropped{link}` events recorded by
//!   the simulator's link layer are ground truth: they name the exact
//!   directed link that ate a frame. When present they decide the loss
//!   locus outright.
//! * **Telemetry inference** — on real hardware there is no oracle, so
//!   the engine falls back to the paper-style inference: compare the
//!   deepest on-path switch that *witnessed* the window (hop records
//!   seen by the receiver, `SwitchExecuted`/`SwitchForwarded` events)
//!   against the deployed AND path, and blame the first link past that
//!   point. Only the first `HOP_PATH_CAP` (8) hops of a path are trusted;
//!   longer paths yield truncated verdicts rather than confident blame.

use super::event::{DecodedEvent, ScopeEvent, WindowKey};
use crate::trace::WindowTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Analysis trust horizon, in hops. Wire-compat tests cover telemetry
/// sections of up to 8 hop records; beyond that the engine refuses to
/// pin blame on a specific link.
pub(crate) const HOP_PATH_CAP: usize = 8;

/// Static deployment facts the engine diagnoses against.
#[derive(Clone, Debug, Default)]
pub struct DiagnosisConfig {
    /// The deployed AND path, as switch wire ids in sender→receiver
    /// order. Empty when unknown (e.g. analysing a bare artifact): loss
    /// loci then come from drop events only.
    pub expected_path: Vec<u16>,
    /// Currently deployed kernel versions, `(switch wire, kernel) →
    /// version`. Hop records carrying any other version are flagged as
    /// stale (a window that raced a redeploy). Empty map disables the
    /// check.
    pub deployed_versions: BTreeMap<(u16, u16), u16>,
}

/// Where a lost window (or its ACK) died.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossLocus {
    /// A specific directed link, as `(from, to)` node wire ids.
    Link {
        /// Transmitting node wire id.
        from: u16,
        /// Receiving node wire id.
        to: u16,
    },
    /// Every on-path switch witnessed the window; it died between the
    /// last switch and the receiver (or the ACK died on the way back).
    AfterSwitch {
        /// The last switch that saw the window.
        switch: u16,
    },
    /// Not enough evidence to name a link (e.g. truncated path).
    Unknown,
}

/// Delivery outcome of one window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowOutcome {
    /// The receiver delivered it (and/or the sender retired it).
    Delivered,
    /// The reliable sender gave up after exhausting retries.
    Abandoned,
    /// Still in flight when the snapshot was taken.
    InFlight,
}

/// Per-switch latency attribution derived from hop-record tick deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStat {
    /// Hop records aggregated.
    pub count: u64,
    /// Sum of `ticks_out - ticks_in` across them, in ns.
    pub total_ns: u64,
    /// Worst single residence time, in ns.
    pub max_ns: u64,
}

impl LatencyStat {
    /// Mean residence time in ns (0 when empty).
    fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The verdict for one window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowVerdict {
    /// The window this verdict describes.
    pub key: WindowKey,
    /// Delivery outcome.
    pub outcome: WindowOutcome,
    /// Wire transmissions observed (`WindowSent` events).
    pub sends: u32,
    /// Retransmission timer firings observed.
    pub rto_fired: u32,
    /// Directed links that dropped frames of this window, with counts.
    pub drops: Vec<((u16, u16), u64)>,
    /// Loss locus, for windows that needed retransmission or never
    /// completed. `None` for clean first-try deliveries.
    pub locus: Option<LossLocus>,
    /// Duplicate suppressions of this window (any node).
    pub dup_suppressed: u32,
    /// A hop record carried a kernel version other than the deployed
    /// one (window raced a redeploy).
    pub stale_version: bool,
    /// The expected path exceeds `HOP_PATH_CAP` (8) hops; inference was
    /// confined to the trusted prefix.
    pub truncated_path: bool,
}

/// The full diagnosis: per-window verdicts plus network-wide heatmaps.
#[derive(Clone, Debug, Default)]
pub struct Diagnosis {
    /// One verdict per window, ordered by key.
    pub verdicts: Vec<WindowVerdict>,
    /// Drop heatmap per directed link `(from, to)`.
    pub link_drops: BTreeMap<(u16, u16), u64>,
    /// Duplicate-suppression heatmap per node wire id.
    pub dup_by_node: BTreeMap<u16, u64>,
    /// Unknown-kernel windows per switch wire id: well-formed NCP
    /// windows a switch had no deployed kernel for (forwarded, not
    /// executed) — the signature of a missing tenant deploy or a window
    /// racing an upgrade.
    pub unknown_kernel: BTreeMap<u16, u64>,
    /// Residence-time attribution per switch wire id.
    pub switch_latency: BTreeMap<u16, LatencyStat>,
    /// Events consumed.
    pub events_seen: usize,
    /// Hop records consumed.
    pub hops_seen: usize,
}

impl Diagnosis {
    /// The single most-incriminated link, as an *undirected* `(lo, hi)`
    /// wire-id pair — "the faulty link" an operator would pull. `None`
    /// when no drops were observed.
    pub fn primary_loss_locus(&self) -> Option<(u16, u16)> {
        let mut undirected: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for (&(from, to), &n) in &self.link_drops {
            let key = (from.min(to), from.max(to));
            *undirected.entry(key).or_insert(0) += n;
        }
        undirected
            .into_iter()
            .max_by_key(|&(link, n)| (n, std::cmp::Reverse(link)))
            .map(|(link, _)| link)
    }

    /// Count of windows with the given outcome.
    pub fn count(&self, outcome: WindowOutcome) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.outcome == outcome)
            .count()
    }

    /// Renders the deterministic text report.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ncscope diagnosis: {} windows, {} events, {} hop records",
            self.verdicts.len(),
            self.events_seen,
            self.hops_seen
        );
        let _ = writeln!(
            out,
            "  delivered {}  abandoned {}  in-flight {}",
            self.count(WindowOutcome::Delivered),
            self.count(WindowOutcome::Abandoned),
            self.count(WindowOutcome::InFlight)
        );
        if !self.link_drops.is_empty() {
            out.push_str("loss by link (directed, wire ids):\n");
            for (&(from, to), &n) in &self.link_drops {
                let _ = writeln!(out, "  {} -> {}  drops {}", wire(from), wire(to), n);
            }
            if let Some((a, b)) = self.primary_loss_locus() {
                let _ = writeln!(
                    out,
                    "  primary loss locus: link {} <-> {}",
                    wire(a),
                    wire(b)
                );
            }
        }
        if !self.dup_by_node.is_empty() {
            out.push_str("duplicate suppression by node:\n");
            for (&node, &n) in &self.dup_by_node {
                let _ = writeln!(out, "  {}  dups {}", wire(node), n);
            }
        }
        if !self.unknown_kernel.is_empty() {
            out.push_str("unknown-kernel windows by switch (forwarded, not executed):\n");
            for (&sw, &n) in &self.unknown_kernel {
                let _ = writeln!(out, "  {}  windows {}", wire(sw), n);
            }
        }
        if !self.switch_latency.is_empty() {
            out.push_str("switch residence (from hop records):\n");
            for (&sw, stat) in &self.switch_latency {
                let _ = writeln!(
                    out,
                    "  {}  hops {}  mean {}ns  max {}ns",
                    wire(sw),
                    stat.count,
                    stat.mean_ns(),
                    stat.max_ns
                );
            }
        }
        let noisy: Vec<&WindowVerdict> = self
            .verdicts
            .iter()
            .filter(|v| {
                v.outcome != WindowOutcome::Delivered
                    || v.rto_fired > 0
                    || !v.drops.is_empty()
                    || v.stale_version
            })
            .collect();
        if !noisy.is_empty() {
            out.push_str("windows needing attention:\n");
            for v in noisy {
                let _ = write!(
                    out,
                    "  sender {} kernel {} seq {}: {:?}, sends {}, rto {}",
                    v.key.sender, v.key.kernel, v.key.seq, v.outcome, v.sends, v.rto_fired
                );
                if let Some(locus) = v.locus {
                    match locus {
                        LossLocus::Link { from, to } => {
                            let _ = write!(out, ", lost on {} -> {}", wire(from), wire(to));
                        }
                        LossLocus::AfterSwitch { switch } => {
                            let _ = write!(out, ", lost after {}", wire(switch));
                        }
                        LossLocus::Unknown => {
                            let _ = write!(out, ", loss locus unknown");
                        }
                    }
                }
                if v.stale_version {
                    out.push_str(", stale kernel version");
                }
                if v.truncated_path {
                    let _ = write!(out, ", path beyond {HOP_PATH_CAP}-hop cap");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Formats a wire id as `h<n>` / `s<n>` (0x8000 is the switch bit).
fn wire(id: u16) -> String {
    if id & 0x8000 != 0 {
        format!("s{}", id & 0x7fff)
    } else {
        format!("h{id}")
    }
}

#[derive(Default)]
struct PerWindow {
    sends: u32,
    rto_fired: u32,
    completed: bool,
    acked: bool,
    abandoned: bool,
    dup_suppressed: u32,
    drops: BTreeMap<(u16, u16), u64>,
    witnesses: Vec<u16>,
    send_node: u16,
}

/// Runs the diagnosis over an event snapshot, the receiver-assembled
/// window traces, and the deployment facts.
pub fn diagnose(
    events: &[DecodedEvent],
    traces: &[WindowTrace],
    cfg: &DiagnosisConfig,
) -> Diagnosis {
    let mut diag = Diagnosis {
        events_seen: events.len(),
        ..Diagnosis::default()
    };
    let mut windows: BTreeMap<WindowKey, PerWindow> = BTreeMap::new();

    for ev in events {
        let keyed = windows.entry(ev.key).or_default();
        match ev.event {
            ScopeEvent::WindowSent { .. } => {
                keyed.sends += 1;
                if keyed.send_node == 0 {
                    keyed.send_node = ev.node;
                }
            }
            ScopeEvent::FragmentDropped {
                from, to, ctrl: _, ..
            } => {
                *keyed.drops.entry((from, to)).or_insert(0) += 1;
                *diag.link_drops.entry((from, to)).or_insert(0) += 1;
            }
            ScopeEvent::RtoFired { .. } => keyed.rto_fired += 1,
            ScopeEvent::SwitchExecuted { switch, .. } => keyed.witnesses.push(switch),
            ScopeEvent::SwitchForwarded { switch } => keyed.witnesses.push(switch),
            ScopeEvent::DupSuppressed { at } => {
                keyed.dup_suppressed += 1;
                *diag.dup_by_node.entry(at).or_insert(0) += 1;
            }
            ScopeEvent::WindowCompleted => keyed.completed = true,
            ScopeEvent::WindowAcked => keyed.acked = true,
            ScopeEvent::WindowAbandoned { .. } => keyed.abandoned = true,
            ScopeEvent::UnknownKernel { switch } => {
                *diag.unknown_kernel.entry(switch).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    // Fold receiver-side hop records in: latency attribution, dup
    // flags, stale-version detection and path witnesses.
    let mut stale: BTreeMap<WindowKey, bool> = BTreeMap::new();
    for tr in traces {
        let key = WindowKey::new(tr.sender, tr.kernel, tr.seq);
        for hop in &tr.hops {
            diag.hops_seen += 1;
            let stat = diag.switch_latency.entry(hop.switch).or_default();
            stat.count += 1;
            let residence = hop.ticks_out.saturating_sub(hop.ticks_in);
            stat.total_ns += residence;
            stat.max_ns = stat.max_ns.max(residence);
            if hop.flags & crate::hop::HOP_DUP_SUPPRESSED != 0 {
                *diag.dup_by_node.entry(hop.switch).or_insert(0) += 1;
            }
            windows.entry(key).or_default().witnesses.push(hop.switch);
            if !cfg.deployed_versions.is_empty() {
                if let Some(&want) = cfg.deployed_versions.get(&(hop.switch, hop.kernel)) {
                    if hop.version != want {
                        stale.insert(key, true);
                    }
                }
            }
        }
    }

    let trusted_path: &[u16] = &cfg.expected_path[..cfg.expected_path.len().min(HOP_PATH_CAP)];
    let truncated = cfg.expected_path.len() > HOP_PATH_CAP;

    for (key, w) in windows {
        let outcome = if w.abandoned {
            WindowOutcome::Abandoned
        } else if w.completed || w.acked {
            WindowOutcome::Delivered
        } else {
            WindowOutcome::InFlight
        };
        let lossy = w.rto_fired > 0 || !w.drops.is_empty() || outcome == WindowOutcome::Abandoned;
        let locus = if !lossy {
            None
        } else if let Some((&link, _)) = w
            .drops
            .iter()
            .max_by_key(|&(link, &n)| (n, std::cmp::Reverse(*link)))
        {
            // Ground truth from the link layer decides outright.
            Some(LossLocus::Link {
                from: link.0,
                to: link.1,
            })
        } else {
            // Telemetry inference against the deployed AND path.
            Some(infer_locus(trusted_path, truncated, &w))
        };
        diag.verdicts.push(WindowVerdict {
            key,
            outcome,
            sends: w.sends,
            rto_fired: w.rto_fired,
            drops: w.drops.into_iter().collect(),
            locus,
            dup_suppressed: w.dup_suppressed,
            stale_version: stale.get(&key).copied().unwrap_or(false),
            truncated_path: truncated,
        });
    }
    diag
}

/// Last-witness inference: blame the first link past the deepest
/// on-path switch that saw the window.
fn infer_locus(trusted_path: &[u16], truncated: bool, w: &PerWindow) -> LossLocus {
    if trusted_path.is_empty() {
        return LossLocus::Unknown;
    }
    let deepest = trusted_path.iter().rposition(|sw| w.witnesses.contains(sw));
    match deepest {
        None => {
            // Never reached the first switch: the sender-side link.
            if w.send_node != 0 {
                LossLocus::Link {
                    from: w.send_node,
                    to: trusted_path[0],
                }
            } else {
                LossLocus::Unknown
            }
        }
        Some(i) if i + 1 < trusted_path.len() => LossLocus::Link {
            from: trusted_path[i],
            to: trusted_path[i + 1],
        },
        Some(i) => {
            if truncated {
                // The witness sits at the trust horizon; anything past
                // it is outside the 8-hop cap.
                LossLocus::Unknown
            } else {
                LossLocus::AfterSwitch {
                    switch: trusted_path[i],
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::HopRecord;

    fn ev(node: u16, key: WindowKey, event: ScopeEvent, t: u64) -> DecodedEvent {
        DecodedEvent {
            t,
            node,
            key,
            event,
        }
    }

    const S1: u16 = 0x8000;
    const S2: u16 = 0x8001;

    #[test]
    fn clean_delivery_has_no_locus() {
        let key = WindowKey::new(1, 7, 0);
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(
                S1,
                key,
                ScopeEvent::SwitchExecuted {
                    switch: S1,
                    version: 1,
                    fwd: 0,
                },
                5,
            ),
            ev(2, key, ScopeEvent::WindowCompleted, 10),
        ];
        let d = diagnose(&events, &[], &DiagnosisConfig::default());
        assert_eq!(d.verdicts.len(), 1);
        assert_eq!(d.verdicts[0].outcome, WindowOutcome::Delivered);
        assert_eq!(d.verdicts[0].locus, None);
        assert!(d.primary_loss_locus().is_none());
    }

    #[test]
    fn drop_events_decide_the_locus() {
        let key = WindowKey::new(1, 7, 3);
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(
                0,
                key,
                ScopeEvent::FragmentDropped {
                    from: 1,
                    to: S1,
                    ctrl: false,
                    burst: false,
                },
                1,
            ),
            ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 9),
            ev(1, key, ScopeEvent::WindowSent { attempt: 1 }, 9),
            ev(2, key, ScopeEvent::WindowCompleted, 15),
        ];
        let d = diagnose(&events, &[], &DiagnosisConfig::default());
        let v = &d.verdicts[0];
        assert_eq!(v.outcome, WindowOutcome::Delivered);
        assert_eq!(v.sends, 2);
        assert_eq!(v.locus, Some(LossLocus::Link { from: 1, to: S1 }));
        assert_eq!(d.primary_loss_locus(), Some((1, S1)));
    }

    #[test]
    fn last_witness_inference_blames_next_link() {
        // Path h1 -> s1 -> s2 -> h2; only s1 witnessed the window.
        let key = WindowKey::new(1, 7, 0);
        let cfg = DiagnosisConfig {
            expected_path: vec![S1, S2],
            ..DiagnosisConfig::default()
        };
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(
                S1,
                key,
                ScopeEvent::SwitchExecuted {
                    switch: S1,
                    version: 1,
                    fwd: 0,
                },
                4,
            ),
            ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 20),
            ev(1, key, ScopeEvent::WindowAbandoned { retries: 1 }, 40),
        ];
        let d = diagnose(&events, &[], &cfg);
        assert_eq!(d.verdicts[0].outcome, WindowOutcome::Abandoned);
        assert_eq!(
            d.verdicts[0].locus,
            Some(LossLocus::Link { from: S1, to: S2 })
        );

        // No witnesses at all: blame the sender's access link.
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 20),
        ];
        let d = diagnose(&events, &[], &cfg);
        assert_eq!(d.verdicts[0].outcome, WindowOutcome::InFlight);
        assert_eq!(
            d.verdicts[0].locus,
            Some(LossLocus::Link { from: 1, to: S1 })
        );

        // Every switch witnessed it: it died after the last hop.
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(S1, key, ScopeEvent::SwitchForwarded { switch: S1 }, 2),
            ev(
                S2,
                key,
                ScopeEvent::SwitchExecuted {
                    switch: S2,
                    version: 1,
                    fwd: 0,
                },
                4,
            ),
            ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 20),
        ];
        let d = diagnose(&events, &[], &cfg);
        assert_eq!(
            d.verdicts[0].locus,
            Some(LossLocus::AfterSwitch { switch: S2 })
        );
    }

    #[test]
    fn zero_hop_traces_are_harmless() {
        // A sampled window whose telemetry section came back empty
        // (e.g. forwarded by a telemetry-unaware switch).
        let traces = vec![WindowTrace {
            kernel: 7,
            seq: 0,
            sender: 1,
            hops: vec![],
        }];
        let d = diagnose(&[], &traces, &DiagnosisConfig::default());
        assert_eq!(d.hops_seen, 0);
        assert!(d.switch_latency.is_empty());
        // The windowless trace contributes no verdict noise either.
        assert!(d.render_report().contains("0 events"));
    }

    #[test]
    fn paths_beyond_the_hop_cap_yield_truncated_verdicts() {
        let long_path: Vec<u16> = (0..12).map(|i| 0x8000 | i).collect();
        let cfg = DiagnosisConfig {
            expected_path: long_path.clone(),
            ..DiagnosisConfig::default()
        };
        let key = WindowKey::new(1, 7, 0);
        // Witnessed all the way to the cap boundary, then lost.
        let mut events = vec![ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0)];
        for (i, &sw) in long_path.iter().take(HOP_PATH_CAP).enumerate() {
            events.push(ev(
                sw,
                key,
                ScopeEvent::SwitchForwarded { switch: sw },
                i as u64 + 1,
            ));
        }
        events.push(ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 99));
        let d = diagnose(&events, &[], &cfg);
        let v = &d.verdicts[0];
        assert!(v.truncated_path);
        // The loss is past the trust horizon: refuse to guess.
        assert_eq!(v.locus, Some(LossLocus::Unknown));
        assert!(d.render_report().contains("8-hop cap"));

        // A loss *inside* the trusted prefix is still attributed.
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(
                long_path[2],
                key,
                ScopeEvent::SwitchForwarded {
                    switch: long_path[2],
                },
                3,
            ),
            ev(1, key, ScopeEvent::RtoFired { attempt: 1 }, 99),
        ];
        let d = diagnose(&events, &[], &cfg);
        assert_eq!(
            d.verdicts[0].locus,
            Some(LossLocus::Link {
                from: long_path[2],
                to: long_path[3]
            })
        );
    }

    #[test]
    fn stale_kernel_versions_are_flagged() {
        let key = WindowKey::new(1, 7, 2);
        let traces = vec![WindowTrace {
            kernel: 7,
            seq: 2,
            sender: 1,
            hops: vec![HopRecord {
                switch: S1,
                kernel: 7,
                version: 1, // pre-redeploy version
                stages: 3,
                uops: 17,
                flags: 0,
                ticks_in: 100,
                ticks_out: 700,
            }],
        }];
        let mut cfg = DiagnosisConfig::default();
        cfg.deployed_versions.insert((S1, 7), 2); // redeployed as v2
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(2, key, ScopeEvent::WindowCompleted, 10),
        ];
        let d = diagnose(&events, &traces, &cfg);
        assert!(d.verdicts[0].stale_version);
        assert_eq!(d.switch_latency[&S1].mean_ns(), 600);
        assert!(d.render_report().contains("stale kernel version"));

        // Matching version: clean.
        cfg.deployed_versions.insert((S1, 7), 1);
        let d = diagnose(&events, &traces, &cfg);
        assert!(!d.verdicts[0].stale_version);
    }

    #[test]
    fn unknown_kernel_windows_surface_in_the_report() {
        let key = WindowKey::new(1, 99, 0);
        let events = vec![
            ev(1, key, ScopeEvent::WindowSent { attempt: 0 }, 0),
            ev(S1, key, ScopeEvent::UnknownKernel { switch: S1 }, 2),
            ev(S1, key, ScopeEvent::UnknownKernel { switch: S1 }, 9),
            ev(2, key, ScopeEvent::WindowCompleted, 12),
        ];
        let d = diagnose(&events, &[], &DiagnosisConfig::default());
        assert_eq!(d.unknown_kernel[&S1], 2);
        let report = d.render_report();
        assert!(
            report.contains("unknown-kernel windows by switch"),
            "{report}"
        );
        assert!(report.contains("s0  windows 2"), "{report}");
        // The window itself still delivered (it was forwarded).
        assert_eq!(d.verdicts[0].outcome, WindowOutcome::Delivered);
    }

    #[test]
    fn dup_heatmap_merges_events_and_hop_flags() {
        let key = WindowKey::new(1, 7, 0);
        let events = vec![
            ev(2, key, ScopeEvent::DupSuppressed { at: 2 }, 5),
            ev(2, key, ScopeEvent::DupSuppressed { at: 2 }, 9),
        ];
        let traces = vec![WindowTrace {
            kernel: 7,
            seq: 0,
            sender: 1,
            hops: vec![HopRecord {
                switch: S1,
                kernel: 7,
                version: 1,
                stages: 1,
                uops: 4,
                flags: crate::hop::HOP_DUP_SUPPRESSED,
                ticks_in: 0,
                ticks_out: 10,
            }],
        }];
        let d = diagnose(&events, &traces, &DiagnosisConfig::default());
        assert_eq!(d.dup_by_node[&2], 2);
        assert_eq!(d.dup_by_node[&S1], 1);
    }
}
