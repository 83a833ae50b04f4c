//! Programmable parser and deparser.
//!
//! The parser walks the packet front-to-back, extracting big-endian
//! fields into the PHV. A [`ParserSpec`] has a *common* extraction
//! sequence (the NCP header, say) followed by a per-select-value branch
//! (the paper's packet parser recognizing which kernel's window layout
//! follows). The [`DeparserSpec`] re-serializes header fields in order,
//! reconstructing the packet.

use crate::phv::{FieldId, Phv, PhvLayout};
use c3::Value;
use std::collections::HashMap;

/// One extraction step: the next `ty.size()` bytes become `field`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Extract {
    /// Destination PHV field (its declared type gives the width).
    pub field: FieldId,
}

/// A parser program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ParserSpec {
    /// Extracted for every packet, from offset 0.
    pub common: Vec<Extract>,
    /// Fields that must hold these exact values after the common
    /// extraction (protocol recognition: magic, version). A mismatch
    /// rejects the packet — Fig. 3b's "NCP?" test.
    pub verify: Vec<(FieldId, u64)>,
    /// After the common part, the value of this field selects a branch
    /// (e.g. `ncp.kernel_id`).
    pub select: Option<FieldId>,
    /// Per-select-value extraction sequences.
    pub branches: HashMap<u64, Vec<Extract>>,
}

/// Parse-time errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Packet shorter than the extraction sequence.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The select value has no branch and no default.
    NoBranch {
        /// The unmatched select value.
        value: u64,
    },
    /// A verified field did not hold its required value (not this
    /// protocol).
    NotRecognized {
        /// The failing field.
        field: FieldId,
        /// The value seen.
        value: u64,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated { needed, have } => {
                write!(f, "packet truncated: need {needed} bytes, have {have}")
            }
            ParseError::NoBranch { value } => {
                write!(f, "parser has no branch for select value {value}")
            }
            ParseError::NotRecognized { field, value } => {
                write!(f, "field {field:?} holds {value}; protocol not recognized")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl ParserSpec {
    /// Parses a packet into a fresh PHV. Returns the PHV and the number
    /// of bytes consumed (payload beyond the parsed headers is carried
    /// opaque by the embedding).
    pub fn parse(&self, layout: &PhvLayout, packet: &[u8]) -> Result<(Phv, usize), ParseError> {
        let mut phv = layout.empty_phv();
        let mut off = 0usize;
        for ex in &self.common {
            off = extract_one(layout, ex, packet, off, &mut phv)?;
        }
        for &(field, expected) in &self.verify {
            let got = phv.get(field).bits();
            if got != expected {
                return Err(ParseError::NotRecognized { field, value: got });
            }
        }
        if let Some(sel) = self.select {
            let value = phv.get(sel).bits();
            let branch = self
                .branches
                .get(&value)
                .ok_or(ParseError::NoBranch { value })?;
            for ex in branch {
                off = extract_one(layout, ex, packet, off, &mut phv)?;
            }
        }
        Ok((phv, off))
    }
}

fn extract_one(
    layout: &PhvLayout,
    ex: &Extract,
    packet: &[u8],
    off: usize,
    phv: &mut Phv,
) -> Result<usize, ParseError> {
    let ty = layout.decl(ex.field).ty;
    let n = ty.size();
    let end = off + n;
    if end > packet.len() {
        return Err(ParseError::Truncated {
            needed: end,
            have: packet.len(),
        });
    }
    phv.set(ex.field, Value::read_be(ty, &packet[off..end]));
    Ok(end)
}

/// A deparser program: header fields serialized back in order.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DeparserSpec {
    /// Emitted for every packet.
    pub common: Vec<FieldId>,
    /// Select field (mirrors the parser).
    pub select: Option<FieldId>,
    /// Per-select-value field sequences.
    pub branches: HashMap<u64, Vec<FieldId>>,
}

impl DeparserSpec {
    /// Serializes the PHV's header fields into packet bytes: one
    /// allocation, sized to the fields before any is written.
    pub fn deparse(&self, layout: &PhvLayout, phv: &Phv) -> Vec<u8> {
        let branch = self
            .select
            .and_then(|sel| self.branches.get(&phv.get(sel).bits()));
        let fields = || self.common.iter().chain(branch.into_iter().flatten());
        let size = fields().map(|&f| layout.decl(f).ty.size()).sum();
        let mut out = vec![0u8; size];
        let mut off = 0;
        for &f in fields() {
            let end = off + layout.decl(f).ty.size();
            phv.get(f).write_be(&mut out[off..end]);
            off = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::FieldClass;
    use c3::ScalarType;

    fn layout3() -> (PhvLayout, FieldId, FieldId, FieldId) {
        let mut l = PhvLayout::default();
        let a = l.add("magic", ScalarType::U16, FieldClass::Header);
        let b = l.add("kid", ScalarType::U16, FieldClass::Header);
        let c = l.add("payload0", ScalarType::U32, FieldClass::Header);
        (l, a, b, c)
    }

    #[test]
    fn parse_deparse_roundtrip() {
        let (l, a, b, c) = layout3();
        let spec = ParserSpec {
            common: vec![Extract { field: a }, Extract { field: b }],
            verify: vec![],
            select: Some(b),
            branches: HashMap::from([(7u64, vec![Extract { field: c }])]),
        };
        let pkt = [0x4E, 0x43, 0x00, 0x07, 0xDE, 0xAD, 0xBE, 0xEF];
        let (phv, used) = spec.parse(&l, &pkt).unwrap();
        assert_eq!(used, 8);
        assert_eq!(phv.get(a).bits(), 0x4E43);
        assert_eq!(phv.get(c).bits(), 0xDEADBEEF);

        let de = DeparserSpec {
            common: vec![a, b],
            select: Some(b),
            branches: HashMap::from([(7u64, vec![c])]),
        };
        assert_eq!(de.deparse(&l, &phv), pkt.to_vec());
    }

    #[test]
    fn truncated_packet_rejected() {
        let (l, a, ..) = layout3();
        let spec = ParserSpec {
            common: vec![Extract { field: a }],
            verify: vec![],
            select: None,
            branches: HashMap::new(),
        };
        assert_eq!(
            spec.parse(&l, &[0x4E]),
            Err(ParseError::Truncated { needed: 2, have: 1 })
        );
    }

    #[test]
    fn unknown_select_value_rejected() {
        let (l, a, b, _) = layout3();
        let spec = ParserSpec {
            common: vec![Extract { field: a }, Extract { field: b }],
            verify: vec![],
            select: Some(b),
            branches: HashMap::new(),
        };
        let pkt = [0, 0, 0, 9];
        assert_eq!(spec.parse(&l, &pkt), Err(ParseError::NoBranch { value: 9 }));
    }

    #[test]
    fn verify_rejects_wrong_magic() {
        let (l, a, b, _) = layout3();
        let spec = ParserSpec {
            common: vec![Extract { field: a }, Extract { field: b }],
            verify: vec![(a, 0x4E43)],
            select: None,
            branches: HashMap::new(),
        };
        assert!(spec.parse(&l, &[0x4E, 0x43, 0, 1]).is_ok());
        assert_eq!(
            spec.parse(&l, &[0x11, 0x22, 0, 1]),
            Err(ParseError::NotRecognized {
                field: a,
                value: 0x1122
            })
        );
    }

    #[test]
    fn deparser_without_branch_emits_common_only() {
        let (l, a, b, _) = layout3();
        let de = DeparserSpec {
            common: vec![a],
            select: Some(b),
            branches: HashMap::new(),
        };
        let phv = l.empty_phv();
        assert_eq!(de.deparse(&l, &phv).len(), 2);
    }
}
