//! The hitless-upgrade ticket.
//!
//! Upgrading a tenant's kernel must not drop or mis-version a single
//! window (NetRPC's "services must be upgradable without breaking
//! in-flight traffic", PAPERS.md). The engine therefore never swaps a
//! kernel in place: both versions are resident while the old one drains.
//! The windows named in the drain set — the NCP-R sender's in-flight
//! `(kernel, seq)` keys at switchover — keep executing on the old
//! version so retransmissions stay bit-identical with the original
//! execution; every other window goes to the new one.
//!
//! The ticket is pure bookkeeping: the deploy layer reports delivery
//! acks via [`Upgrade::acked`], and once the drain set is empty the old
//! version's resources may be reclaimed
//! ([`finish_upgrade`](crate::AdmissionController::finish_upgrade)).
//! The tenant mux routes from its own copy of the drain set; nothing
//! here touches the network.

use std::collections::BTreeSet;

/// One tenant's in-progress hitless upgrade (a *ticket* handed out by
/// [`AdmissionController::begin_upgrade`](crate::AdmissionController::begin_upgrade)).
#[derive(Clone, Debug)]
pub struct Upgrade {
    tenant: String,
    /// Version being drained and retired.
    pub old_version: u16,
    /// Version new windows are routed to.
    pub new_version: u16,
    /// `(kernel id, window seq)` pairs that must complete on the old
    /// version — the NCP-R in-flight set at switchover time.
    drain: BTreeSet<(u16, u32)>,
}

impl Upgrade {
    /// A ticket owing the old version the windows of `drain`.
    pub(crate) fn new(
        tenant: &str,
        old_version: u16,
        new_version: u16,
        drain: impl IntoIterator<Item = (u16, u32)>,
    ) -> Self {
        Upgrade {
            tenant: tenant.to_string(),
            old_version,
            new_version,
            drain: drain.into_iter().collect(),
        }
    }

    /// The tenant this ticket belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Record a delivery ack for a window. Returns `true` if it was in
    /// the drain set.
    pub fn acked(&mut self, kernel: u16, seq: u32) -> bool {
        self.drain.remove(&(kernel, seq))
    }

    /// Windows still owed to the old version.
    pub fn remaining(&self) -> usize {
        self.drain.len()
    }

    /// Whether the old version can be reclaimed: its drain set is empty.
    pub fn is_complete(&self) -> bool {
        self.drain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_shrink_the_drain_set_to_completion() {
        let mut up = Upgrade::new("team-a", 1, 2, [(1, 7), (1, 8), (2, 3)]);
        assert_eq!(up.tenant(), "team-a");
        assert_eq!(up.remaining(), 3);
        assert!(!up.is_complete());

        assert!(up.acked(1, 7));
        assert!(!up.acked(1, 7), "double ack is idempotent");
        assert!(up.acked(1, 8));
        assert!(!up.is_complete());
        assert!(up.acked(2, 3));
        assert!(up.is_complete());
        assert_eq!(up.remaining(), 0);
    }

    #[test]
    fn empty_drain_set_completes_immediately() {
        let up = Upgrade::new("team-a", 3, 4, std::iter::empty());
        assert!(up.is_complete());
    }

    #[test]
    fn acks_outside_the_drain_set_are_ignored() {
        let mut up = Upgrade::new("t", 1, 2, [(5, 1)]);
        assert!(!up.acked(5, 2));
        assert!(!up.acked(6, 1));
        assert_eq!(up.remaining(), 1);
        assert!(!up.is_complete());
    }
}
