//! Admission control and shared-fabric bin-packing.
//!
//! The controller answers one question **before** anything touches the
//! fabric: *does this tenant's compiled module fit — under its own quota
//! and in what the fabric has left?* It consumes the resource figures of
//! the tenant's compiled pipelines, one [`ModuleEstimate`] per switch the
//! tenant wants a kernel on, and answers with either a [`PlacementPlan`]
//! (the reservation it just committed) or a [`CostReport`] — a
//! machine-readable rejection naming the violated budget, the offending
//! kernel and the requested/limit/available numbers.
//!
//! Checks run in a fixed, documented order so rejections are
//! deterministic (the E14 differential run snapshots the JSON):
//! switches in lexicographic order; per switch, first the chip model
//! (the pipeline report's violations — the module wouldn't fit even
//! alone), then the
//! tenant quota (stages, SRAM, PHV), then fabric capacity (stages, SRAM,
//! header PHV, metadata PHV) against what other tenants have committed.

use std::collections::BTreeMap;
use std::fmt;

use ncl_p4::estimate::ModuleEstimate;
use nctel::scope::json::escape;
use pisa::{ResourceModel, ResourceViolation};

use crate::tenant::TenantSpec;
use crate::upgrade::Upgrade;

/// Which class of budget a rejection violated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetKind {
    /// The module violates the chip model by itself (its pipeline
    /// report said no).
    ChipModel,
    /// The tenant's own per-switch quota.
    TenantQuota,
    /// The shared fabric's remaining capacity.
    FabricCapacity,
}

impl BudgetKind {
    /// Stable slug used in the JSON cost report.
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetKind::ChipModel => "chip_model",
            BudgetKind::TenantQuota => "tenant_quota",
            BudgetKind::FabricCapacity => "fabric_capacity",
        }
    }
}

/// Which resource a rejection was about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResourceKind {
    /// Pipeline stages.
    Stages,
    /// Register-array SRAM bytes.
    SramBytes,
    /// Combined PHV bytes (tenant quotas bound header + metadata
    /// together).
    PhvBytes,
    /// Header PHV bytes (fabric budget).
    PhvHeaderBytes,
    /// Metadata PHV bytes (fabric budget).
    PhvMetadataBytes,
    /// VLIW ALU ops in one stage.
    AluOps,
    /// Tables in one stage.
    Tables,
    /// Stateful micro-ops against one register array.
    RegisterAccesses,
    /// TCAM entries in one stage.
    TcamEntries,
}

impl ResourceKind {
    /// Stable slug used in the JSON cost report.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResourceKind::Stages => "stages",
            ResourceKind::SramBytes => "sram_bytes",
            ResourceKind::PhvBytes => "phv_bytes",
            ResourceKind::PhvHeaderBytes => "phv_header_bytes",
            ResourceKind::PhvMetadataBytes => "phv_metadata_bytes",
            ResourceKind::AluOps => "alu_ops",
            ResourceKind::Tables => "tables",
            ResourceKind::RegisterAccesses => "register_accesses",
            ResourceKind::TcamEntries => "tcam_entries",
        }
    }
}

/// A machine-readable admission rejection.
///
/// Every field an operator (or the E14 harness) needs to attribute the
/// rejection: which tenant, at which version, on which switch, which
/// kernel pushed it over, which budget in which resource, and the
/// requested/limit/available numbers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CostReport {
    /// Rejected tenant.
    pub tenant: String,
    /// Version the tenant asked to deploy.
    pub version: u16,
    /// Switch label the check failed on.
    pub switch: String,
    /// Offending kernel, when attributable (the largest contributor for
    /// aggregate budgets; `None` for chip violations, which are the
    /// whole pipeline's).
    pub kernel: Option<String>,
    /// Which budget class was violated.
    pub budget: BudgetKind,
    /// Which resource ran out.
    pub resource: ResourceKind,
    /// What the module asked for.
    pub requested: usize,
    /// The violated budget's limit.
    pub limit: usize,
    /// What was still free under that budget before this request
    /// (= limit for quotas, which are per-deployment).
    pub available: usize,
    /// Human-readable one-liner.
    pub detail: String,
}

impl CostReport {
    /// Deterministic single-line JSON (fixed field order, no maps).
    pub fn render_json(&self) -> String {
        let kernel = match &self.kernel {
            Some(k) => escape(k),
            None => "null".to_string(),
        };
        format!(
            "{{\"kind\":\"ncsched-cost-report\",\"tenant\":{},\"version\":{},\
             \"switch\":{},\"kernel\":{},\"budget\":\"{}\",\"resource\":\"{}\",\
             \"requested\":{},\"limit\":{},\"available\":{},\"detail\":{}}}",
            escape(&self.tenant),
            self.version,
            escape(&self.switch),
            kernel,
            self.budget.as_str(),
            self.resource.as_str(),
            self.requested,
            self.limit,
            self.available,
            escape(&self.detail),
        )
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant '{}' v{} rejected on {}: {} {} (requested {}, limit {}, available {})",
            self.tenant,
            self.version,
            self.switch,
            self.budget.as_str(),
            self.resource.as_str(),
            self.requested,
            self.limit,
            self.available
        )?;
        if let Some(k) = &self.kernel {
            write!(f, " — kernel '{k}'")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for CostReport {}

/// One kernel's share of a switch placement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelPlacement {
    /// Kernel name.
    pub kernel: String,
    /// Stages the kernel's own ops occupy.
    pub stages: usize,
    /// SRAM bytes its register arrays occupy.
    pub sram_bytes: usize,
    /// VLIW ops in its tables (execution cost proxy).
    pub alu_ops: usize,
}

/// The reservation one tenant holds on one switch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SwitchPlacement {
    /// Switch label.
    pub switch: String,
    /// Pipeline stages reserved (dispatch + widest kernel).
    pub stages: usize,
    /// Total SRAM bytes reserved.
    pub sram_bytes: usize,
    /// Header PHV bytes reserved.
    pub phv_header_bytes: usize,
    /// Metadata PHV bytes reserved.
    pub phv_metadata_bytes: usize,
    /// Per-kernel breakdown.
    pub kernels: Vec<KernelPlacement>,
}

/// An admitted deployment: where each kernel landed and what it costs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlacementPlan {
    /// Owning tenant.
    pub tenant: String,
    /// ncsched-assigned version (1-based, monotonic per tenant).
    pub version: u16,
    /// Per-switch reservations, in lexicographic switch order.
    pub switches: Vec<SwitchPlacement>,
}

impl PlacementPlan {
    /// Deterministic single-line JSON for artifacts and logs.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"ncsched-placement\",\"tenant\":{},\"version\":{},\"switches\":[",
            escape(&self.tenant),
            self.version
        );
        for (i, sw) in self.switches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"switch\":{},\"stages\":{},\"sram_bytes\":{},\
                 \"phv_header_bytes\":{},\"phv_metadata_bytes\":{},\"kernels\":[",
                escape(&sw.switch),
                sw.stages,
                sw.sram_bytes,
                sw.phv_header_bytes,
                sw.phv_metadata_bytes
            ));
            for (j, k) in sw.kernels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kernel\":{},\"stages\":{},\"sram_bytes\":{},\"alu_ops\":{}}}",
                    escape(&k.kernel),
                    k.stages,
                    k.sram_bytes,
                    k.alu_ops
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Total stages reserved across the fabric.
    pub fn total_stages(&self) -> usize {
        self.switches.iter().map(|s| s.stages).sum()
    }
}

/// Aggregate committed usage on one switch (all tenants, both versions
/// during upgrades).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwitchUsage {
    /// Committed pipeline stages.
    pub stages: usize,
    /// Committed SRAM bytes.
    pub sram_bytes: usize,
    /// Committed header PHV bytes.
    pub phv_header_bytes: usize,
    /// Committed metadata PHV bytes.
    pub phv_metadata_bytes: usize,
}

/// Everything that can go wrong talking to the controller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdmissionError {
    /// `admit` called for a name that already holds a reservation.
    AlreadyAdmitted {
        /// Tenant name.
        tenant: String,
    },
    /// Operation on a tenant the controller has never admitted.
    UnknownTenant {
        /// Tenant name.
        tenant: String,
    },
    /// `begin_upgrade` while a previous upgrade is still pending.
    UpgradeInProgress {
        /// Tenant name.
        tenant: String,
    },
    /// `finish_upgrade`/`abort_upgrade` with no upgrade pending.
    NoUpgrade {
        /// Tenant name.
        tenant: String,
    },
    /// `finish_upgrade` before the drain set emptied.
    UpgradeNotDrained {
        /// Tenant name.
        tenant: String,
        /// Windows still owed to the old version.
        remaining: usize,
    },
    /// The placement was rejected; the report says why.
    Rejected(Box<CostReport>),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::AlreadyAdmitted { tenant } => {
                write!(f, "tenant '{tenant}' is already admitted")
            }
            AdmissionError::UnknownTenant { tenant } => {
                write!(f, "tenant '{tenant}' is not admitted")
            }
            AdmissionError::UpgradeInProgress { tenant } => {
                write!(f, "tenant '{tenant}' already has an upgrade in progress")
            }
            AdmissionError::NoUpgrade { tenant } => {
                write!(f, "tenant '{tenant}' has no upgrade in progress")
            }
            AdmissionError::UpgradeNotDrained { tenant, remaining } => write!(
                f,
                "tenant '{tenant}' upgrade still draining ({remaining} windows in flight)"
            ),
            AdmissionError::Rejected(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl AdmissionError {
    /// The cost report, when the error is a rejection.
    pub fn cost_report(&self) -> Option<&CostReport> {
        match self {
            AdmissionError::Rejected(r) => Some(r),
            _ => None,
        }
    }
}

struct TenantEntry {
    spec: TenantSpec,
    version: u16,
    plan: PlacementPlan,
    /// New version's reservation while an upgrade is dual-running.
    pending: Option<PlacementPlan>,
}

/// The fabric-wide admission controller.
///
/// Holds one [`ResourceModel`] (every simulated switch is the same chip)
/// and the committed reservations of every admitted tenant. All state is
/// derived bookkeeping — nothing here talks to the simulator.
pub struct AdmissionController {
    model: ResourceModel,
    tenants: BTreeMap<String, TenantEntry>,
}

impl AdmissionController {
    /// A controller for a fabric of identical chips.
    pub fn new(model: ResourceModel) -> Self {
        AdmissionController {
            model,
            tenants: BTreeMap::new(),
        }
    }

    /// The chip model capacity is checked against.
    pub fn model(&self) -> &ResourceModel {
        &self.model
    }

    /// Committed usage on `switch` across all tenants (including
    /// pending upgrade reservations).
    pub fn usage(&self, switch: &str) -> SwitchUsage {
        let mut u = SwitchUsage::default();
        for entry in self.tenants.values() {
            for plan in std::iter::once(&entry.plan).chain(entry.pending.iter()) {
                for sw in &plan.switches {
                    if sw.switch == switch {
                        u.stages += sw.stages;
                        u.sram_bytes += sw.sram_bytes;
                        u.phv_header_bytes += sw.phv_header_bytes;
                        u.phv_metadata_bytes += sw.phv_metadata_bytes;
                    }
                }
            }
        }
        u
    }

    /// Committed usage per switch across the whole fabric.
    pub fn fabric_usage(&self) -> BTreeMap<String, SwitchUsage> {
        let mut switches: BTreeMap<String, SwitchUsage> = BTreeMap::new();
        for entry in self.tenants.values() {
            for plan in std::iter::once(&entry.plan).chain(entry.pending.iter()) {
                for sw in &plan.switches {
                    let u = switches.entry(sw.switch.clone()).or_default();
                    u.stages += sw.stages;
                    u.sram_bytes += sw.sram_bytes;
                    u.phv_header_bytes += sw.phv_header_bytes;
                    u.phv_metadata_bytes += sw.phv_metadata_bytes;
                }
            }
        }
        switches
    }

    /// The version a tenant currently runs (pending upgrades excluded).
    pub fn tenant_version(&self, tenant: &str) -> Option<u16> {
        self.tenants.get(tenant).map(|e| e.version)
    }

    /// The committed placement plan for a tenant's current version.
    pub fn plan(&self, tenant: &str) -> Option<&PlacementPlan> {
        self.tenants.get(tenant).map(|e| &e.plan)
    }

    /// Admit a new tenant: check quota + fabric capacity for every
    /// switch in `estimates` and, on success, commit the reservation as
    /// version 1.
    pub fn admit(
        &mut self,
        spec: &TenantSpec,
        estimates: &BTreeMap<String, ModuleEstimate>,
    ) -> Result<PlacementPlan, AdmissionError> {
        if self.tenants.contains_key(&spec.name) {
            return Err(AdmissionError::AlreadyAdmitted {
                tenant: spec.name.clone(),
            });
        }
        let plan = self
            .check(spec, 1, estimates)
            .map_err(AdmissionError::Rejected)?;
        self.tenants.insert(
            spec.name.clone(),
            TenantEntry {
                spec: spec.clone(),
                version: 1,
                plan: plan.clone(),
                pending: None,
            },
        );
        Ok(plan)
    }

    /// Start a hitless upgrade: admission-check the new version with the
    /// old one **still resident** (both run side by side while the old
    /// drains), commit the dual reservation, and hand back the
    /// [`Upgrade`] ticket owing the old version the `(kernel, seq)`
    /// windows of `drain`, plus the new version's plan.
    pub fn begin_upgrade(
        &mut self,
        tenant: &str,
        estimates: &BTreeMap<String, ModuleEstimate>,
        drain: impl IntoIterator<Item = (u16, u32)>,
    ) -> Result<(Upgrade, PlacementPlan), AdmissionError> {
        let entry = self
            .tenants
            .get(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        if entry.pending.is_some() {
            return Err(AdmissionError::UpgradeInProgress {
                tenant: tenant.to_string(),
            });
        }
        let spec = entry.spec.clone();
        let old_version = entry.version;
        let new_version = old_version + 1;
        let plan = self
            .check(&spec, new_version, estimates)
            .map_err(AdmissionError::Rejected)?;
        self.tenants.get_mut(tenant).expect("checked above").pending = Some(plan.clone());
        let upgrade = Upgrade::new(tenant, old_version, new_version, drain);
        Ok((upgrade, plan))
    }

    /// Reclaim the old version once the upgrade has fully drained: the
    /// pending reservation becomes the committed one and the old
    /// version's resources return to the pool.
    pub fn finish_upgrade(&mut self, upgrade: &Upgrade) -> Result<(), AdmissionError> {
        if !upgrade.is_complete() {
            return Err(AdmissionError::UpgradeNotDrained {
                tenant: upgrade.tenant().to_string(),
                remaining: upgrade.remaining(),
            });
        }
        let entry = self.tenants.get_mut(upgrade.tenant()).ok_or_else(|| {
            AdmissionError::UnknownTenant {
                tenant: upgrade.tenant().to_string(),
            }
        })?;
        let pending = entry
            .pending
            .take()
            .ok_or_else(|| AdmissionError::NoUpgrade {
                tenant: upgrade.tenant().to_string(),
            })?;
        entry.version = upgrade.new_version;
        entry.plan = pending;
        Ok(())
    }

    /// Abandon a dual-running upgrade: drop the new version's
    /// reservation, keep the old one committed.
    pub fn abort_upgrade(&mut self, tenant: &str) -> Result<(), AdmissionError> {
        let entry = self
            .tenants
            .get_mut(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        if entry.pending.take().is_none() {
            return Err(AdmissionError::NoUpgrade {
                tenant: tenant.to_string(),
            });
        }
        Ok(())
    }

    /// Release everything a tenant holds. Returns whether it existed.
    pub fn release(&mut self, tenant: &str) -> bool {
        self.tenants.remove(tenant).is_some()
    }

    /// The pure admission check: chip model, then tenant quota, then
    /// fabric capacity, per switch in lexicographic order. Commits
    /// nothing.
    fn check(
        &self,
        spec: &TenantSpec,
        version: u16,
        estimates: &BTreeMap<String, ModuleEstimate>,
    ) -> Result<PlacementPlan, Box<CostReport>> {
        let mut switches = Vec::with_capacity(estimates.len());
        for (switch, est) in estimates {
            // 1. Chip model: the module's own pipeline does not fit.
            if let Some(violation) = est.violations.first() {
                return Err(Box::new(self.chip_report(spec, version, switch, violation)));
            }

            // Aggregate footprint on this switch.
            let stages_req = est.pipeline_stages;
            let sram_req: usize = est.kernels.iter().map(|k| k.sram_bytes).sum();
            let phv_req = est.phv_header_bytes + est.phv_metadata_bytes;
            let max_by = |f: fn(&ncl_p4::estimate::KernelEstimate) -> usize| {
                est.kernels
                    .iter()
                    .max_by_key(|k| f(k))
                    .map(|k| k.kernel.clone())
            };

            // 2. Tenant quota (per deployment, per switch).
            let q = spec.quota;
            if stages_req > q.stages {
                return Err(Box::new(self.quota_report(
                    spec,
                    version,
                    switch,
                    max_by(|k| k.stages),
                    ResourceKind::Stages,
                    stages_req,
                    q.stages,
                )));
            }
            if sram_req > q.sram_bytes {
                return Err(Box::new(self.quota_report(
                    spec,
                    version,
                    switch,
                    max_by(|k| k.sram_bytes),
                    ResourceKind::SramBytes,
                    sram_req,
                    q.sram_bytes,
                )));
            }
            if phv_req > q.phv_bytes {
                return Err(Box::new(self.quota_report(
                    spec,
                    version,
                    switch,
                    max_by(|k| k.phv_header_bytes + k.phv_metadata_bytes),
                    ResourceKind::PhvBytes,
                    phv_req,
                    q.phv_bytes,
                )));
            }

            // 3. Fabric capacity: what other reservations left behind.
            let used = self.usage(switch);
            let caps = [
                (
                    ResourceKind::Stages,
                    stages_req,
                    self.model.logical_stages(),
                    used.stages,
                ),
                (
                    ResourceKind::SramBytes,
                    sram_req,
                    self.model.sram_bytes_per_stage * self.model.stages,
                    used.sram_bytes,
                ),
                (
                    ResourceKind::PhvHeaderBytes,
                    est.phv_header_bytes,
                    self.model.phv_header_bytes,
                    used.phv_header_bytes,
                ),
                (
                    ResourceKind::PhvMetadataBytes,
                    est.phv_metadata_bytes,
                    self.model.phv_metadata_bytes,
                    used.phv_metadata_bytes,
                ),
            ];
            for (resource, requested, limit, committed) in caps {
                let available = limit.saturating_sub(committed);
                if requested > available {
                    return Err(Box::new(CostReport {
                        tenant: spec.name.clone(),
                        version,
                        switch: switch.clone(),
                        kernel: None,
                        budget: BudgetKind::FabricCapacity,
                        resource,
                        requested,
                        limit,
                        available,
                        detail: format!(
                            "{} of {} {} already committed by other reservations",
                            committed,
                            limit,
                            resource.as_str()
                        ),
                    }));
                }
            }

            switches.push(SwitchPlacement {
                switch: switch.clone(),
                stages: stages_req,
                sram_bytes: sram_req,
                phv_header_bytes: est.phv_header_bytes,
                phv_metadata_bytes: est.phv_metadata_bytes,
                kernels: est
                    .kernels
                    .iter()
                    .map(|k| KernelPlacement {
                        kernel: k.kernel.clone(),
                        stages: k.stages,
                        sram_bytes: k.sram_bytes,
                        alu_ops: k.alu_ops,
                    })
                    .collect(),
            });
        }
        Ok(PlacementPlan {
            tenant: spec.name.clone(),
            version,
            switches,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn quota_report(
        &self,
        spec: &TenantSpec,
        version: u16,
        switch: &str,
        kernel: Option<String>,
        resource: ResourceKind,
        requested: usize,
        limit: usize,
    ) -> CostReport {
        CostReport {
            tenant: spec.name.clone(),
            version,
            switch: switch.to_string(),
            kernel,
            budget: BudgetKind::TenantQuota,
            resource,
            requested,
            limit,
            available: limit,
            detail: format!(
                "module needs {} {} but tenant quota allows {}",
                requested,
                resource.as_str(),
                limit
            ),
        }
    }

    fn chip_report(
        &self,
        spec: &TenantSpec,
        version: u16,
        switch: &str,
        violation: &ResourceViolation,
    ) -> CostReport {
        let (resource, requested, limit) = match violation {
            ResourceViolation::TooManyStages {
                required,
                available,
            } => (ResourceKind::Stages, *required, *available),
            ResourceViolation::OpsPerStage { found, budget, .. } => {
                (ResourceKind::AluOps, *found, *budget)
            }
            ResourceViolation::TablesPerStage { found, budget, .. } => {
                (ResourceKind::Tables, *found, *budget)
            }
            ResourceViolation::PhvHeader { used, budget } => {
                (ResourceKind::PhvHeaderBytes, *used, *budget)
            }
            ResourceViolation::PhvMetadata { used, budget } => {
                (ResourceKind::PhvMetadataBytes, *used, *budget)
            }
            ResourceViolation::RegisterMultiStage { stages, .. } => {
                (ResourceKind::RegisterAccesses, stages.len(), 1)
            }
            ResourceViolation::RegisterAccesses { found, budget, .. } => {
                (ResourceKind::RegisterAccesses, *found, *budget)
            }
            ResourceViolation::SramPerStage { used, budget, .. } => {
                (ResourceKind::SramBytes, *used, *budget)
            }
            ResourceViolation::TcamPerStage { used, budget, .. } => {
                (ResourceKind::TcamEntries, *used, *budget)
            }
        };
        CostReport {
            tenant: spec.name.clone(),
            version,
            switch: switch.to_string(),
            kernel: None,
            budget: BudgetKind::ChipModel,
            resource,
            requested,
            limit,
            available: limit,
            detail: violation.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantQuota;
    use ncl_p4::estimate::KernelEstimate;

    /// Synthetic estimate: `(name, stages, sram, phv_header, phv_meta)`
    /// per kernel; pipeline = dispatch + widest kernel; PHV = sums.
    fn est(kernels: &[(&str, usize, usize, usize, usize)]) -> ModuleEstimate {
        let ks: Vec<KernelEstimate> = kernels
            .iter()
            .map(|(name, stages, sram, ph, pm)| KernelEstimate {
                kernel: name.to_string(),
                stages: *stages,
                alu_ops: *stages * 4,
                sram_bytes: *sram,
                phv_header_bytes: *ph,
                phv_metadata_bytes: *pm,
                reg_accesses: BTreeMap::new(),
            })
            .collect();
        ModuleEstimate {
            pipeline_stages: 1 + ks.iter().map(|k| k.stages).max().unwrap_or(0),
            phv_header_bytes: ks.iter().map(|k| k.phv_header_bytes).sum(),
            phv_metadata_bytes: ks.iter().map(|k| k.phv_metadata_bytes).sum(),
            sram_by_stage: Vec::new(),
            violations: Vec::new(),
            kernels: ks,
        }
    }

    fn one_switch(label: &str, m: ModuleEstimate) -> BTreeMap<String, ModuleEstimate> {
        BTreeMap::from([(label.to_string(), m)])
    }

    #[test]
    fn admit_within_quota_returns_plan() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let spec = TenantSpec::with_quota("team-a", TenantQuota::new(8, 1 << 16, 128));
        let plan = ac
            .admit(&spec, &one_switch("s1", est(&[("agg", 3, 4096, 24, 8)])))
            .expect("fits");
        assert_eq!(plan.version, 1);
        assert_eq!(plan.switches.len(), 1);
        assert_eq!(plan.switches[0].stages, 4); // dispatch + 3
        assert_eq!(plan.switches[0].sram_bytes, 4096);
        assert_eq!(ac.tenant_version("team-a"), Some(1));
        assert_eq!(ac.usage("s1").stages, 4);
        assert!(plan.render_json().contains("\"tenant\":\"team-a\""));
    }

    #[test]
    fn over_quota_rejected_names_biggest_kernel() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let spec = TenantSpec::with_quota("greedy", TenantQuota::new(8, 1000, 128));
        let err = ac
            .admit(
                &spec,
                &one_switch("s1", est(&[("small", 1, 200, 8, 4), ("big", 2, 900, 8, 4)])),
            )
            .unwrap_err();
        let report = err.cost_report().expect("rejection");
        assert_eq!(report.budget, BudgetKind::TenantQuota);
        assert_eq!(report.resource, ResourceKind::SramBytes);
        assert_eq!(report.kernel.as_deref(), Some("big"));
        assert_eq!(report.requested, 1100);
        assert_eq!(report.limit, 1000);
        // Rejection commits nothing.
        assert_eq!(ac.usage("s1"), SwitchUsage::default());
        assert!(ac.tenant_version("greedy").is_none());
    }

    #[test]
    fn cost_report_json_is_deterministic() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let spec = TenantSpec::with_quota("greedy", TenantQuota::new(2, 1 << 20, 512));
        let err = ac
            .admit(&spec, &one_switch("s1", est(&[("agg", 5, 64, 8, 4)])))
            .unwrap_err();
        let report = err.cost_report().unwrap();
        assert_eq!(
            report.render_json(),
            "{\"kind\":\"ncsched-cost-report\",\"tenant\":\"greedy\",\"version\":1,\
             \"switch\":\"s1\",\"kernel\":\"agg\",\"budget\":\"tenant_quota\",\
             \"resource\":\"stages\",\"requested\":6,\"limit\":2,\"available\":2,\
             \"detail\":\"module needs 6 stages but tenant quota allows 2\"}"
        );
    }

    #[test]
    fn fabric_exhaustion_rejects_second_tenant() {
        // Tiny chip: 4 stages × (2 recirc + 1) = 12 logical stages.
        let mut ac = AdmissionController::new(ResourceModel::tiny());
        ac.admit(
            &TenantSpec::new("first"),
            &one_switch("s1", est(&[("wide", 9, 64, 8, 4)])),
        )
        .expect("first tenant fits alone");
        let err = ac
            .admit(
                &TenantSpec::new("second"),
                &one_switch("s1", est(&[("wide2", 4, 64, 8, 4)])),
            )
            .unwrap_err();
        let report = err.cost_report().unwrap();
        assert_eq!(report.budget, BudgetKind::FabricCapacity);
        assert_eq!(report.resource, ResourceKind::Stages);
        assert_eq!(report.requested, 5);
        assert_eq!(report.limit, 12);
        assert_eq!(report.available, 2); // 12 - 10 committed
        assert!(report.kernel.is_none());
        // A narrower module still fits in the gap.
        ac.admit(
            &TenantSpec::new("third"),
            &one_switch("s1", est(&[("narrow", 1, 64, 8, 4)])),
        )
        .expect("2 logical stages remain");
    }

    #[test]
    fn chip_violation_reports_before_quota() {
        let mut ac = AdmissionController::new(ResourceModel::tiny());
        let mut m = est(&[("huge", 2, 64, 8, 4)]);
        m.violations.push(ResourceViolation::PhvHeader {
            used: 100,
            budget: 64,
        });
        let err = ac
            .admit(&TenantSpec::new("t"), &one_switch("s1", m))
            .unwrap_err();
        let report = err.cost_report().unwrap();
        assert_eq!(report.budget, BudgetKind::ChipModel);
        assert_eq!(report.resource, ResourceKind::PhvHeaderBytes);
        assert_eq!(report.requested, 100);
        assert!(report.render_json().contains("\"budget\":\"chip_model\""));
    }

    #[test]
    fn duplicate_admit_is_an_error() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let spec = TenantSpec::new("dup");
        let ests = one_switch("s1", est(&[("k", 1, 64, 8, 4)]));
        ac.admit(&spec, &ests).unwrap();
        assert!(matches!(
            ac.admit(&spec, &ests),
            Err(AdmissionError::AlreadyAdmitted { .. })
        ));
    }

    #[test]
    fn upgrade_reserves_both_versions_then_reclaims_old() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let spec = TenantSpec::new("team-a");
        ac.admit(&spec, &one_switch("s1", est(&[("v1k", 3, 1000, 8, 4)])))
            .unwrap();
        assert_eq!(ac.usage("s1").sram_bytes, 1000);

        let v2 = one_switch("s1", est(&[("v2k", 3, 1200, 8, 4)]));
        let (mut up, plan) = ac
            .begin_upgrade("team-a", &v2, [(1, 42)])
            .expect("dual residency fits");
        assert_eq!(up.old_version, 1);
        assert_eq!(up.new_version, 2);
        assert_eq!(plan.version, 2);
        // Both versions committed while dual-running.
        assert_eq!(ac.usage("s1").sram_bytes, 2200);

        // Can't finish before the drain set empties.
        assert!(matches!(
            ac.finish_upgrade(&up),
            Err(AdmissionError::UpgradeNotDrained { remaining: 1, .. })
        ));

        assert!(up.acked(1, 42));
        ac.finish_upgrade(&up).expect("drained");
        assert_eq!(ac.tenant_version("team-a"), Some(2));
        // Old version's SRAM returned to the pool.
        assert_eq!(ac.usage("s1").sram_bytes, 1200);

        // Second upgrade only after the first finished.
        assert!(matches!(
            ac.abort_upgrade("team-a"),
            Err(AdmissionError::NoUpgrade { .. })
        ));
    }

    #[test]
    fn upgrade_dual_residency_can_exceed_capacity() {
        let mut ac = AdmissionController::new(ResourceModel::tiny());
        ac.admit(
            &TenantSpec::new("t"),
            &one_switch("s1", est(&[("k", 7, 64, 8, 4)])),
        )
        .unwrap();
        // 8 committed of 12; a same-size v2 (8 stages) cannot co-reside.
        let err = ac
            .begin_upgrade("t", &one_switch("s1", est(&[("k", 7, 64, 8, 4)])), [])
            .unwrap_err();
        let report = err.cost_report().unwrap();
        assert_eq!(report.budget, BudgetKind::FabricCapacity);
        assert_eq!(report.version, 2);
        assert_eq!(report.available, 4);
        // Rejected upgrade leaves the old reservation intact.
        assert_eq!(ac.usage("s1").stages, 8);
        assert_eq!(ac.tenant_version("t"), Some(1));
    }

    #[test]
    fn abort_upgrade_frees_the_pending_reservation() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        ac.admit(
            &TenantSpec::new("t"),
            &one_switch("s1", est(&[("k", 2, 100, 8, 4)])),
        )
        .unwrap();
        ac.begin_upgrade("t", &one_switch("s1", est(&[("k", 2, 100, 8, 4)])), [])
            .unwrap();
        assert_eq!(ac.usage("s1").sram_bytes, 200);
        ac.abort_upgrade("t").unwrap();
        assert_eq!(ac.usage("s1").sram_bytes, 100);
        assert_eq!(ac.tenant_version("t"), Some(1));
    }

    #[test]
    fn release_returns_resources() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        ac.admit(
            &TenantSpec::new("t"),
            &one_switch("s1", est(&[("k", 2, 100, 8, 4)])),
        )
        .unwrap();
        assert!(ac.release("t"));
        assert!(!ac.release("t"));
        assert_eq!(ac.usage("s1"), SwitchUsage::default());
    }

    #[test]
    fn multi_switch_plans_are_sorted_and_summed() {
        let mut ac = AdmissionController::new(ResourceModel::default());
        let ests = BTreeMap::from([
            ("s2".to_string(), est(&[("k", 2, 100, 8, 4)])),
            ("s1".to_string(), est(&[("k", 3, 200, 8, 4)])),
        ]);
        let plan = ac.admit(&TenantSpec::new("t"), &ests).unwrap();
        assert_eq!(plan.switches[0].switch, "s1");
        assert_eq!(plan.switches[1].switch, "s2");
        assert_eq!(plan.total_stages(), 4 + 3);
        let usage = ac.fabric_usage();
        assert_eq!(usage["s1"].sram_bytes, 200);
        assert_eq!(usage["s2"].sram_bytes, 100);
    }
}
