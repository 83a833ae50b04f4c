//! The packet header vector (PHV) and its layout.
//!
//! A PHV is the per-packet working set a PISA pipeline computes on:
//! header fields extracted by the parser plus metadata fields (compiler
//! temporaries, intrinsic fields like the forwarding decision). The
//! layout is part of the compiled program; the PHV itself is just the
//! field values for one packet in flight.

use c3::{ScalarType, Value};
use std::fmt;

/// Index of a field in a [`PhvLayout`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Whether a field is parsed from the packet (header) or scratch
/// (metadata). Headers are deparsed back into the packet; metadata is
/// dropped at the deparser. The distinction also drives the PHV size
/// budgets of the resource model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldClass {
    /// Extracted from / deparsed into the packet.
    Header,
    /// Scratch state private to the pipeline traversal.
    Metadata,
}

/// A field declaration in the PHV layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDecl {
    /// Diagnostic name (e.g. `ncp.seq`, `w0_e3`, `meta.pred_1`).
    pub name: String,
    /// Scalar type (determines container width).
    pub ty: ScalarType,
    /// Header or metadata.
    pub class: FieldClass,
}

/// The compiled PHV layout: an ordered list of field declarations.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhvLayout {
    /// Field declarations; [`FieldId`] indexes this vector.
    pub fields: Vec<FieldDecl>,
}

impl PhvLayout {
    /// Adds a field, returning its id.
    pub fn add(&mut self, name: impl Into<String>, ty: ScalarType, class: FieldClass) -> FieldId {
        let id = FieldId(self.fields.len() as u16);
        self.fields.push(FieldDecl {
            name: name.into(),
            ty,
            class,
        });
        id
    }

    /// Looks up a field id by name.
    pub fn find(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u16))
    }

    /// The declaration of a field.
    pub fn decl(&self, id: FieldId) -> &FieldDecl {
        &self.fields[id.0 as usize]
    }

    /// Total bytes of header fields (for the PHV budget).
    pub fn header_bytes(&self) -> usize {
        self.fields
            .iter()
            .filter(|f| f.class == FieldClass::Header)
            .map(|f| f.ty.size())
            .sum()
    }

    /// Total bytes of metadata fields.
    pub fn metadata_bytes(&self) -> usize {
        self.fields
            .iter()
            .filter(|f| f.class == FieldClass::Metadata)
            .map(|f| f.ty.size())
            .sum()
    }

    /// A fresh PHV with every field zeroed.
    pub fn empty_phv(&self) -> Phv {
        Phv {
            values: self.fields.iter().map(|f| Value::zero(f.ty)).collect(),
        }
    }
}

/// The per-packet field values.
#[derive(PartialEq, Eq, Debug)]
pub struct Phv {
    values: Vec<Value>,
}

impl Clone for Phv {
    fn clone(&self) -> Self {
        Phv {
            values: self.values.clone(),
        }
    }

    /// Copies the values into `self`'s buffer, which is reallocated
    /// only when `source` has more fields than it holds.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl Phv {
    /// Reads a field.
    pub fn get(&self, id: FieldId) -> Value {
        self.values[id.0 as usize]
    }

    /// Writes a field; the value is cast to the field's declared type
    /// (containers truncate, like hardware).
    pub fn set(&mut self, id: FieldId, v: Value) {
        let slot = &mut self.values[id.0 as usize];
        *slot = v.cast(slot.ty());
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the PHV has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_phv_roundtrip() {
        let mut layout = PhvLayout::default();
        let a = layout.add("ncp.seq", ScalarType::U32, FieldClass::Header);
        let b = layout.add("meta.t0", ScalarType::U8, FieldClass::Metadata);
        assert_eq!(layout.find("ncp.seq"), Some(a));
        assert_eq!(layout.find("nope"), None);
        let mut phv = layout.empty_phv();
        assert_eq!(phv.get(a), Value::zero(ScalarType::U32));
        phv.set(a, Value::u32(7));
        phv.set(b, Value::u32(0x1FF)); // truncates into u8
        assert_eq!(phv.get(a), Value::u32(7));
        assert_eq!(phv.get(b).bits(), 0xFF);
    }

    #[test]
    fn byte_accounting() {
        let mut layout = PhvLayout::default();
        layout.add("h1", ScalarType::U32, FieldClass::Header);
        layout.add("h2", ScalarType::U16, FieldClass::Header);
        layout.add("m1", ScalarType::U64, FieldClass::Metadata);
        assert_eq!(layout.header_bytes(), 6);
        assert_eq!(layout.metadata_bytes(), 8);
    }

    #[test]
    fn clone_from_equals_clone_across_lengths() {
        let mut short = PhvLayout::default();
        let a = short.add("a", ScalarType::U8, FieldClass::Header);
        let mut long = short.clone();
        long.add("b", ScalarType::U64, FieldClass::Metadata);
        let mut x = short.empty_phv();
        x.set(a, Value::u32(3));
        let y = long.empty_phv();
        for (from, to) in [(&x, &y), (&y, &x), (&y, &y)] {
            let mut out = to.clone();
            out.clone_from(from);
            assert_eq!(out, *from);
        }
    }

    #[test]
    fn set_casts_to_declared_type() {
        let mut layout = PhvLayout::default();
        let f = layout.add("b", ScalarType::Bool, FieldClass::Metadata);
        let mut phv = layout.empty_phv();
        phv.set(f, Value::u32(42));
        assert_eq!(phv.get(f), Value::bool(true));
    }
}
