//! Identifiers for the entities of a C3 deployment.
//!
//! Hosts and switches get small numeric ids that fit in NCP header fields;
//! AND location labels are owned strings with cheap cloning via `Arc`.

use std::fmt;
use std::sync::Arc;

/// Identifies an end host participating in a C3 application.
///
/// Host ids appear on the wire in the NCP `sender` field, so they are
/// deliberately 16 bits wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u16);

/// Identifies a programmable switch in the physical topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u16);

/// A node in the network: either a host or a switch.
///
/// NCP's `from` header field carries the previous *logical* hop of a
/// window, which may be either kind of node. We encode hosts and switches
/// into disjoint 16-bit ranges so a `NodeId` round-trips through the wire
/// format: hosts occupy `0..0x8000`, switches `0x8000..0xFFFF`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// An end host.
    Host(HostId),
    /// A programmable switch.
    Switch(SwitchId),
}

impl NodeId {
    /// The bit that distinguishes switches from hosts in the wire encoding.
    pub(crate) const SWITCH_BIT: u16 = 0x8000;

    /// Encodes this node id into the 16-bit on-wire representation.
    pub fn to_wire(self) -> u16 {
        match self {
            NodeId::Host(HostId(h)) => {
                debug_assert!(h < Self::SWITCH_BIT, "host id out of range");
                h
            }
            NodeId::Switch(SwitchId(s)) => {
                debug_assert!(s < Self::SWITCH_BIT, "switch id out of range");
                s | Self::SWITCH_BIT
            }
        }
    }

    /// Decodes a node id from its 16-bit on-wire representation.
    pub fn from_wire(raw: u16) -> Self {
        if raw & Self::SWITCH_BIT != 0 {
            NodeId::Switch(SwitchId(raw & !Self::SWITCH_BIT))
        } else {
            NodeId::Host(HostId(raw))
        }
    }

    /// Returns the host id if this node is a host.
    pub fn as_host(self) -> Option<HostId> {
        match self {
            NodeId::Host(h) => Some(h),
            NodeId::Switch(_) => None,
        }
    }

    /// Returns the switch id if this node is a switch.
    pub fn as_switch(self) -> Option<SwitchId> {
        match self {
            NodeId::Switch(s) => Some(s),
            NodeId::Host(_) => None,
        }
    }
}

impl From<HostId> for NodeId {
    fn from(h: HostId) -> Self {
        NodeId::Host(h)
    }
}

impl From<SwitchId> for NodeId {
    fn from(s: SwitchId) -> Self {
        NodeId::Switch(s)
    }
}

/// Identifies a compiled network kernel. Appears in the NCP header so a
/// switch or host knows which kernel to execute for an arriving window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u16);

/// An AND (Abstract Network Description) location label, e.g. `"s1"` in
/// `_net_ _at_("s1")`. Cheap to clone; compared by string content.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a label from any string-like value.
    pub fn new(s: impl AsRef<str>) -> Self {
        Label(Arc::from(s.as_ref()))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl std::ops::Deref for Label {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", &*self.0)
    }
}

macro_rules! display_id {
    ($ty:ident, $prefix:literal) => {
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

display_id!(HostId, "h");
display_id!(SwitchId, "s");
display_id!(KernelId, "k");

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Host(h) => write!(f, "{h}"),
            NodeId::Switch(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_wire_roundtrip_host() {
        let n = NodeId::Host(HostId(42));
        assert_eq!(NodeId::from_wire(n.to_wire()), n);
    }

    #[test]
    fn node_id_wire_roundtrip_switch() {
        let n = NodeId::Switch(SwitchId(7));
        assert_eq!(NodeId::from_wire(n.to_wire()), n);
        assert_eq!(n.to_wire(), 0x8007);
    }

    #[test]
    fn node_id_accessors() {
        assert_eq!(NodeId::Host(HostId(1)).as_host(), Some(HostId(1)));
        assert_eq!(NodeId::Host(HostId(1)).as_switch(), None);
        assert_eq!(NodeId::Switch(SwitchId(2)).as_switch(), Some(SwitchId(2)));
        assert_eq!(NodeId::Switch(SwitchId(2)).as_host(), None);
    }

    #[test]
    fn labels_compare_by_content() {
        assert_eq!(Label::new("s1"), Label::from("s1"));
        assert_ne!(Label::new("s1"), Label::new("s2"));
        assert_eq!(Label::new("tor").as_str(), "tor");
    }

    #[test]
    fn display_forms() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(SwitchId(1).to_string(), "s1");
        assert_eq!(KernelId(9).to_string(), "k9");
        assert_eq!(NodeId::Switch(SwitchId(1)).to_string(), "s1");
    }
}
