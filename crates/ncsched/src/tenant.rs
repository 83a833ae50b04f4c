//! Tenant identity and per-switch resource quotas.
//!
//! A *tenant* is a named principal that compiles and deploys its own NCL
//! program onto the shared fabric. Quotas bound what one tenant may
//! occupy **on each switch**; they are checked by the
//! [`AdmissionController`](crate::AdmissionController) before fabric
//! capacity, so a noisy tenant is rejected against its own budget with a
//! cost report rather than starving its neighbours.

/// Per-switch resource budget for one tenant.
///
/// `usize::MAX` in a field means "no quota" for that resource; the
/// fabric's physical capacity still applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TenantQuota {
    /// Maximum pipeline stages (including the dispatch stage) the
    /// tenant's module may occupy on one switch.
    pub stages: usize,
    /// Maximum SRAM bytes (register arrays) per switch.
    pub sram_bytes: usize,
    /// Maximum PHV bytes (header + metadata) per switch.
    pub phv_bytes: usize,
}

impl TenantQuota {
    /// No limits — the tenant is bounded only by fabric capacity.
    fn unlimited() -> Self {
        TenantQuota {
            stages: usize::MAX,
            sram_bytes: usize::MAX,
            phv_bytes: usize::MAX,
        }
    }

    /// A concrete budget.
    pub fn new(stages: usize, sram_bytes: usize, phv_bytes: usize) -> Self {
        TenantQuota {
            stages,
            sram_bytes,
            phv_bytes,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::unlimited()
    }
}

/// A tenant: a name plus the quota its deployments are admitted under.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TenantSpec {
    /// Stable tenant name; used as the metric label value and the
    /// admission-registry key.
    pub name: String,
    /// Per-switch budget.
    pub quota: TenantQuota,
}

impl TenantSpec {
    /// A tenant with no quota (fabric capacity still applies).
    pub fn new(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            quota: TenantQuota::unlimited(),
        }
    }

    /// A tenant with a concrete budget.
    pub fn with_quota(name: &str, quota: TenantQuota) -> Self {
        TenantSpec {
            name: name.to_string(),
            quota,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quota_is_unlimited() {
        let t = TenantSpec::new("team-a");
        assert_eq!(t.quota, TenantQuota::unlimited());
        assert_eq!(t.quota.stages, usize::MAX);
    }

    #[test]
    fn concrete_quota_round_trips() {
        let q = TenantQuota::new(4, 1 << 16, 96);
        let t = TenantSpec::with_quota("team-b", q);
        assert_eq!(t.name, "team-b");
        assert_eq!(t.quota.sram_bytes, 1 << 16);
    }
}
