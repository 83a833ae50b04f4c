//! Forwarding decisions an outgoing kernel can take for a window.
//!
//! Paper §4.1: *"outgoing kernels can make simple forwarding decisions for
//! a window. They can return the window to the previous hop (`_reflect()`),
//! pass it on (`_pass()`, default behavior), broadcast it (`_bcast()`), or
//! drop it (`_drop()`). Their behavior depends on the AND file."*

use crate::ids::Label;
use std::fmt;

/// The forwarding decision attached to a window after kernel execution.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Forward {
    /// `_pass()` — continue towards the window's destination. The default
    /// when a kernel returns without an explicit decision.
    #[default]
    Pass,
    /// `_pass("label")` — forward towards the AND node with this label.
    PassTo(Label),
    /// `_reflect()` — return the window to the previous hop.
    Reflect,
    /// `_bcast()` — send the window to all overlay neighbours one hop
    /// away from the current location.
    Bcast,
    /// `_drop()` — consume the window.
    Drop,
}

impl Forward {
    /// Compact numeric encoding used inside PHV metadata and PHV-level
    /// tests. `PassTo` targets are resolved to port numbers before this
    /// encoding is used, so it covers only the four primitive decisions.
    pub fn code(&self) -> u8 {
        match self {
            Forward::Pass => 0,
            Forward::Reflect => 1,
            Forward::Bcast => 2,
            Forward::Drop => 3,
            Forward::PassTo(_) => 4,
        }
    }
}

impl fmt::Display for Forward {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Forward::Pass => write!(f, "_pass()"),
            Forward::PassTo(l) => write!(f, "_pass(\"{l}\")"),
            Forward::Reflect => write!(f, "_reflect()"),
            Forward::Bcast => write!(f, "_bcast()"),
            Forward::Drop => write!(f, "_drop()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pass() {
        assert_eq!(Forward::default(), Forward::Pass);
    }

    #[test]
    fn display() {
        assert_eq!(Forward::Pass.to_string(), "_pass()");
        assert_eq!(
            Forward::PassTo(Label::new("srv")).to_string(),
            "_pass(\"srv\")"
        );
        assert_eq!(Forward::Drop.to_string(), "_drop()");
    }

    #[test]
    fn codes_are_distinct() {
        let codes = [
            Forward::Pass.code(),
            Forward::Reflect.code(),
            Forward::Bcast.code(),
            Forward::Drop.code(),
            Forward::PassTo(Label::new("x")).code(),
        ];
        let mut dedup = codes.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
