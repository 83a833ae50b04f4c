//! Fabric-level wiring for the `ncwatch` streaming health engine.
//!
//! [`FabricWatch`] binds one [`ncwatch::Watch`] to a running
//! deployment: it owns the tenant-labeled export [`Registry`], knows
//! which host/switch labels belong to which tenant, and on every
//! [`FabricWatch::tick`] it assembles the engine's [`TickInput`] from
//! live state — per-tenant transport counters (summed over the
//! tenant's hosts), per-component anomaly series (switch execution
//! counters, duplicate suppressions, per-node ingress bytes, per-tenant
//! ack rates), the current `ncscope` event capture, and non-draining
//! window-trace snapshots. Construct it through
//! [`crate::tenants::MultiDeployment::watch`] (which also converts
//! admission rejections into incidents) or assemble a
//! [`FabricWatchParts`] by hand for bespoke single-tenant deployments.

use nctel::{labeled, Registry, Scope, WindowTrace};
use ncwatch::{IncidentReport, SeriesSample, TenantSample, TickInput, Watch, WatchConfig};

use c3::{HostId, NodeId, SwitchId};

use crate::runtime::NclHost;
use netsim::Network;

/// The deployment facts a [`FabricWatch`] is assembled from.
pub struct FabricWatchParts {
    /// Engine configuration (SLOs, anomaly tuning, diagnosis facts).
    pub config: WatchConfig,
    /// Per tenant: name plus the `(host label, host id)` pairs its
    /// applications run on.
    pub tenants: Vec<(String, Vec<(String, HostId)>)>,
    /// Every switch in the fabric, `(label, id)`.
    pub switches: Vec<(String, SwitchId)>,
    /// The scope whose event ring feeds triggered diagnoses, if any.
    pub scope: Option<Scope>,
}

/// A watch handle bound to one deployment.
pub struct FabricWatch {
    watch: Watch,
    reg: Registry,
    tenants: Vec<(String, Vec<(String, HostId)>)>,
    switches: Vec<(String, SwitchId)>,
    scope: Option<Scope>,
    exported: bool,
}

impl FabricWatch {
    /// Builds the watch and its private export registry. Metric cells
    /// are attached lazily on the first [`FabricWatch::tick`] (hosts
    /// register their counters when the simulation has started).
    pub fn new(parts: FabricWatchParts) -> Self {
        FabricWatch {
            watch: Watch::new(parts.config),
            reg: Registry::new(),
            tenants: parts.tenants,
            switches: parts.switches,
            scope: parts.scope,
            exported: false,
        }
    }

    /// The underlying engine (incident log, trackers, health summary).
    pub fn engine(&self) -> &Watch {
        &self.watch
    }

    /// Mutable engine access (arming the JSONL log, admission
    /// incidents).
    pub fn engine_mut(&mut self) -> &mut Watch {
        &mut self.watch
    }

    /// The tenant-labeled registry the watch reads (the same cells the
    /// hosts update — reads are always live).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Runs one evaluation tick against the live network and returns
    /// any incidents fired.
    pub fn tick(&mut self, net: &mut Network, now: u64) -> Vec<IncidentReport> {
        if !self.exported {
            self.exported = true;
            for (tenant, hosts) in &self.tenants {
                for (label, hid) in hosts {
                    if let Some(host) = net.host_app::<NclHost>(*hid) {
                        host.export_metrics(&self.reg, &[("tenant", tenant), ("host", label)]);
                    }
                }
            }
        }

        // Per-tenant transport counters, summed over the tenant's hosts.
        let fabric_unknown = net
            .metrics()
            .counter_value("sim.unknown_kernel")
            .unwrap_or(0);
        let mut tenants: Vec<TenantSample> = Vec::with_capacity(self.tenants.len());
        for (tenant, hosts) in &self.tenants {
            let mut s = TenantSample {
                tenant: tenant.clone(),
                unknown_kernel: fabric_unknown,
                ..TenantSample::default()
            };
            for (label, _) in hosts {
                let l: &[(&str, &str)] = &[("tenant", tenant), ("host", label)];
                let v = |m: &str| self.reg.counter_value(&labeled(m, l)).unwrap_or(0);
                s.acked += v("ncpr.sender.acked");
                s.tracked += v("ncpr.sender.tracked");
                s.retransmits += v("ncpr.sender.retransmits");
                s.abandoned += v("ncpr.sender.abandoned");
                let p99 = self
                    .reg
                    .histogram(&labeled("ncpr.sender.ack_latency_ns", l))
                    .snapshot()
                    .p99;
                s.p99_ack_latency_ns = s.p99_ack_latency_ns.max(p99);
            }
            tenants.push(s);
        }

        // Per-component anomaly series.
        let mut series: Vec<SeriesSample> = Vec::new();
        for (label, sid) in &self.switches {
            let wire = ncwatch::wire_name(NodeId::Switch(*sid).to_wire());
            if let Some(st) = net.switch_stats(*sid) {
                series.push(SeriesSample {
                    series: format!("switch.{label}.processed"),
                    component: format!("switch {wire}"),
                    value: (st.ncp_processed + st.forwarded) as f64,
                });
            }
            series.push(SeriesSample {
                series: format!("switch.{label}.dup_suppressed"),
                component: format!("switch {wire}"),
                value: net.switch_dup_suppressed(*sid) as f64,
            });
        }
        for (tenant, hosts) in &self.tenants {
            let mut acked = 0u64;
            let mut ingress = 0u64;
            for (label, hid) in hosts {
                let l: &[(&str, &str)] = &[("tenant", tenant), ("host", label)];
                acked += self
                    .reg
                    .counter_value(&labeled("ncpr.sender.acked", l))
                    .unwrap_or(0);
                ingress += net.node_ingress_bytes(NodeId::Host(*hid));
            }
            series.push(SeriesSample {
                series: format!("tenant.{tenant}.acked"),
                component: format!("tenant {tenant}"),
                value: acked as f64,
            });
            series.push(SeriesSample {
                series: format!("tenant.{tenant}.ingress_bytes"),
                component: format!("tenant {tenant}"),
                value: ingress as f64,
            });
        }

        // Capture is lazy: the ring decode (torn-slot-safe snapshot)
        // and the non-draining trace snapshots only run on ticks where
        // something actually fires — a healthy tick costs counter
        // reads, nothing else.
        let input = TickInput {
            now_ns: now,
            tenants: &tenants,
            series: &series,
        };
        let scope = &self.scope;
        let watched = &self.tenants;
        let net_ref = &*net;
        self.watch.observe_tick_lazy(&input, &mut || {
            let events = scope.as_ref().map(|s| s.decoded()).unwrap_or_default();
            let mut traces: Vec<WindowTrace> = Vec::new();
            for (_, hosts) in watched {
                for (_, hid) in hosts {
                    if let Some(host) = net_ref.host_app::<NclHost>(*hid) {
                        traces.extend(host.trace_snapshot());
                    }
                }
            }
            (events, traces)
        })
    }

    /// Drives the simulation in watch-tick increments until `deadline`:
    /// run → evaluate → repeat. Returns every incident fired.
    pub fn run_watched(&mut self, net: &mut Network, deadline: u64) -> Vec<IncidentReport> {
        let step = self.watch.tick_ns().max(1);
        let mut out = Vec::new();
        let mut t = net.now();
        while t < deadline {
            t = (t + step).min(deadline);
            net.run_until(t);
            out.extend(self.tick(net, t));
        }
        out
    }
}
