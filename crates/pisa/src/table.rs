//! Match-action tables and VLIW action primitives.
//!
//! A [`TableDef`] matches PHV fields against installed [`Entry`]s
//! (exact, ternary, or longest-prefix) and runs the selected
//! [`ActionDef`]: a bundle of [`PrimOp`]s for the stage's ALUs. Entries
//! carry *action data* (the `idx` NetCache stores per key, say) that ops
//! reference through [`Arg::Param`].
//!
//! Compiled NCL control flow arrives **predicated**: ops carry an
//! optional guard field and only execute when the guard is true —
//! branch-free execution, exactly how a PISA compiler flattens an
//! `if`/`else` cascade onto the pipeline.

use crate::phv::{FieldId, Phv};
use c3::{BinOp, ScalarType, UnOp, Value};

/// How a table key field is matched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchKind {
    /// Exact value match (SRAM).
    Exact,
    /// Value/mask match (TCAM); entries are priority-ordered.
    Ternary,
    /// Longest-prefix match (for routing tables).
    Lpm,
}

/// One key pattern within an entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MatchPattern {
    /// The value to match.
    pub value: u64,
    /// Mask for ternary (all-ones for exact); for LPM, the prefix mask.
    pub mask: u64,
}

impl MatchPattern {
    /// An exact pattern.
    pub fn exact(value: u64) -> Self {
        MatchPattern {
            value,
            mask: u64::MAX,
        }
    }

    /// A ternary pattern.
    pub fn ternary(value: u64, mask: u64) -> Self {
        MatchPattern { value, mask }
    }

    /// Whether `v` matches.
    pub fn matches(&self, v: u64) -> bool {
        v & self.mask == self.value & self.mask
    }

    /// Prefix length (for LPM ordering).
    fn prefix_len(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Reference to an action within a table's action list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActionRef(pub u16);

/// An installed table entry.
#[derive(Clone, PartialEq, Debug)]
pub struct Entry {
    /// One pattern per key field.
    pub patterns: Vec<MatchPattern>,
    /// The action to run on match.
    pub action: ActionRef,
    /// Action data bound to this entry ([`Arg::Param`] resolves here).
    pub args: Vec<Value>,
    /// Priority for ternary tables (higher wins).
    pub priority: i32,
}

/// An operand of a VLIW primitive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arg {
    /// A PHV field.
    Field(FieldId),
    /// An immediate.
    Const(Value),
    /// Entry action-data slot.
    Param(u8),
}

/// A VLIW primitive executed by a stage ALU.
///
/// Every op carries an optional `guard`: a boolean PHV field that must
/// be true for the op to take effect (predicated execution).
#[derive(Clone, PartialEq, Debug)]
pub enum PrimOp {
    /// `dst = src`.
    Mov {
        /// Guard field (always execute when `None`).
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// Source.
        src: Arg,
    },
    /// `dst = a <op> b` in the destination field's type.
    Alu {
        /// Guard field.
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// ALU operation.
        op: BinOp,
        /// Left operand.
        a: Arg,
        /// Right operand.
        b: Arg,
    },
    /// `dst = <op> a`.
    UnAlu {
        /// Guard field.
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// Unary operation.
        op: UnOp,
        /// Operand.
        a: Arg,
    },
    /// `dst = (ty) a` — container-width conversion.
    Cast {
        /// Guard field.
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// Target type.
        ty: ScalarType,
        /// Operand.
        a: Arg,
    },
    /// `dst = cond ? a : b`.
    Select {
        /// Guard field.
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// Condition.
        cond: Arg,
        /// Value when true.
        a: Arg,
        /// Value when false.
        b: Arg,
    },
    /// Read a register-array element into a PHV field.
    RegRead {
        /// Guard field.
        guard: Option<FieldId>,
        /// Destination PHV field.
        dst: FieldId,
        /// Register array index (into the pipeline's array list).
        reg: u16,
        /// Element index (wraps modulo the array length).
        idx: Arg,
    },
    /// Write a PHV value into a register-array element.
    RegWrite {
        /// Guard field.
        guard: Option<FieldId>,
        /// Register array index.
        reg: u16,
        /// Element index.
        idx: Arg,
        /// Value to write.
        src: Arg,
    },
}

impl PrimOp {
    /// The op's guard, if any.
    pub fn guard(&self) -> Option<FieldId> {
        match self {
            PrimOp::Mov { guard, .. }
            | PrimOp::Alu { guard, .. }
            | PrimOp::UnAlu { guard, .. }
            | PrimOp::Cast { guard, .. }
            | PrimOp::Select { guard, .. }
            | PrimOp::RegRead { guard, .. }
            | PrimOp::RegWrite { guard, .. } => *guard,
        }
    }

    /// The register array the op touches, if any.
    pub fn register(&self) -> Option<u16> {
        match self {
            PrimOp::RegRead { reg, .. } | PrimOp::RegWrite { reg, .. } => Some(*reg),
            _ => None,
        }
    }
}

/// An action: a named bundle of primitives.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ActionDef {
    /// Diagnostic name (appears in emitted P4).
    pub name: String,
    /// The ops, executed in order within the stage.
    pub ops: Vec<PrimOp>,
}

/// A match-action table.
#[derive(Clone, PartialEq, Debug)]
pub struct TableDef {
    /// Diagnostic name (appears in emitted P4).
    pub name: String,
    /// Key fields, matched in order.
    pub keys: Vec<(FieldId, MatchKind)>,
    /// The actions entries can select.
    pub actions: Vec<ActionDef>,
    /// Installed entries (control-plane managed).
    pub entries: Vec<Entry>,
    /// Action run when no entry matches.
    pub default_action: Option<ActionRef>,
    /// Maximum entries (SRAM/TCAM budget for this table).
    pub size: usize,
}

impl TableDef {
    /// A keyless always-run table holding a single action (how compiled
    /// straight-line code is packaged).
    pub fn always(name: impl Into<String>, action: ActionDef) -> Self {
        TableDef {
            name: name.into(),
            keys: vec![],
            actions: vec![action],
            entries: vec![],
            default_action: Some(ActionRef(0)),
            size: 0,
        }
    }

    /// Looks up the entry matching the PHV, honoring match kinds and
    /// priorities. Returns `(action, args)`. Patterns are matched
    /// against the PHV's fields directly; a lookup allocates nothing.
    pub fn lookup(&self, phv: &Phv) -> Option<(ActionRef, &[Value])> {
        if self.keys.is_empty() {
            return self.default_action.map(|a| (a, &[][..]));
        }
        let mut best: Option<(&Entry, i64)> = None;
        for e in &self.entries {
            if e.patterns.len() != self.keys.len() {
                continue;
            }
            let hit = (e.patterns.iter().zip(&self.keys))
                .all(|(p, &(f, _))| p.matches(phv.get(f).bits()));
            if !hit {
                continue;
            }
            // Rank: LPM tables prefer longer prefixes, ternary uses the
            // entry priority, exact tables take the first hit.
            let rank = match self.keys.first().map(|(_, k)| *k) {
                Some(MatchKind::Lpm) => e.patterns.iter().map(|p| p.prefix_len() as i64).sum(),
                Some(MatchKind::Ternary) => e.priority as i64,
                _ => return Some((e.action, &e.args)),
            };
            match best {
                Some((_, best_rank)) if best_rank >= rank => {}
                _ => best = Some((e, rank)),
            }
        }
        match best {
            Some((e, _)) => Some((e.action, &e.args)),
            None => self.default_action.map(|a| (a, &[][..])),
        }
    }

    /// Installs an entry (control-plane API). Fails when full.
    pub fn insert(&mut self, entry: Entry) -> Result<(), TableFull> {
        if self.size > 0 && self.entries.len() >= self.size {
            return Err(TableFull {
                table: self.name.clone(),
                size: self.size,
            });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Removes entries whose patterns equal `patterns` exactly. Returns
    /// how many were removed.
    pub fn remove(&mut self, patterns: &[MatchPattern]) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.patterns != patterns);
        before - self.entries.len()
    }

    /// Total VLIW ops across all actions (stage budget accounting).
    pub fn op_count(&self) -> usize {
        self.actions.iter().map(|a| a.ops.len()).sum()
    }
}

/// Error: table capacity exhausted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableFull {
    /// Table name.
    pub table: String,
    /// Its capacity.
    pub size: usize,
}

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table '{}' is full ({} entries)", self.table, self.size)
    }
}

impl std::error::Error for TableFull {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::{FieldClass, PhvLayout};

    fn layout_with(fields: &[(&str, ScalarType)]) -> PhvLayout {
        let mut l = PhvLayout::default();
        for (n, t) in fields {
            l.add(*n, *t, FieldClass::Header);
        }
        l
    }

    #[test]
    fn exact_match_first_hit() {
        let l = layout_with(&[("k", ScalarType::U32)]);
        let f = l.find("k").unwrap();
        let mut t = TableDef {
            name: "t".into(),
            keys: vec![(f, MatchKind::Exact)],
            actions: vec![ActionDef::default(), ActionDef::default()],
            entries: vec![],
            default_action: Some(ActionRef(0)),
            size: 4,
        };
        t.insert(Entry {
            patterns: vec![MatchPattern::exact(7)],
            action: ActionRef(1),
            args: vec![Value::u32(99)],
            priority: 0,
        })
        .unwrap();
        let mut phv = l.empty_phv();
        phv.set(f, Value::u32(7));
        let (a, args) = t.lookup(&phv).unwrap();
        assert_eq!(a, ActionRef(1));
        assert_eq!(args, &[Value::u32(99)]);
        phv.set(f, Value::u32(8));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(0)); // default
    }

    #[test]
    fn ternary_priority() {
        let l = layout_with(&[("k", ScalarType::U16)]);
        let f = l.find("k").unwrap();
        let t = TableDef {
            name: "t".into(),
            keys: vec![(f, MatchKind::Ternary)],
            actions: vec![
                ActionDef::default(),
                ActionDef::default(),
                ActionDef::default(),
            ],
            entries: vec![
                Entry {
                    patterns: vec![MatchPattern::ternary(0x0100, 0xFF00)],
                    action: ActionRef(1),
                    args: vec![],
                    priority: 1,
                },
                Entry {
                    patterns: vec![MatchPattern::ternary(0x0101, 0xFFFF)],
                    action: ActionRef(2),
                    args: vec![],
                    priority: 10,
                },
            ],
            default_action: Some(ActionRef(0)),
            size: 0,
        };
        let mut phv = l.empty_phv();
        phv.set(f, Value::new(ScalarType::U16, 0x0101));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(2));
        phv.set(f, Value::new(ScalarType::U16, 0x0102));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(1));
        phv.set(f, Value::new(ScalarType::U16, 0x0201));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(0));
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let l = layout_with(&[("dst", ScalarType::U32)]);
        let f = l.find("dst").unwrap();
        let t = TableDef {
            name: "route".into(),
            keys: vec![(f, MatchKind::Lpm)],
            actions: vec![
                ActionDef::default(),
                ActionDef::default(),
                ActionDef::default(),
            ],
            entries: vec![
                Entry {
                    patterns: vec![MatchPattern::ternary(0x0A000000, 0xFF000000)],
                    action: ActionRef(1),
                    args: vec![],
                    priority: 0,
                },
                Entry {
                    patterns: vec![MatchPattern::ternary(0x0A010000, 0xFFFF0000)],
                    action: ActionRef(2),
                    args: vec![],
                    priority: 0,
                },
            ],
            default_action: Some(ActionRef(0)),
            size: 0,
        };
        let mut phv = l.empty_phv();
        phv.set(f, Value::u32(0x0A010203));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(2));
        phv.set(f, Value::u32(0x0A990203));
        assert_eq!(t.lookup(&phv).unwrap().0, ActionRef(1));
    }

    #[test]
    fn table_capacity() {
        let l = layout_with(&[("k", ScalarType::U8)]);
        let f = l.find("k").unwrap();
        let mut t = TableDef {
            name: "tiny".into(),
            keys: vec![(f, MatchKind::Exact)],
            actions: vec![ActionDef::default()],
            entries: vec![],
            default_action: None,
            size: 1,
        };
        t.insert(Entry {
            patterns: vec![MatchPattern::exact(1)],
            action: ActionRef(0),
            args: vec![],
            priority: 0,
        })
        .unwrap();
        assert!(t
            .insert(Entry {
                patterns: vec![MatchPattern::exact(2)],
                action: ActionRef(0),
                args: vec![],
                priority: 0,
            })
            .is_err());
        assert_eq!(t.remove(&[MatchPattern::exact(1)]), 1);
        assert_eq!(t.remove(&[MatchPattern::exact(1)]), 0);
    }

    #[test]
    fn always_table_runs_default() {
        let t = TableDef::always("go", ActionDef::default());
        let l = layout_with(&[]);
        assert_eq!(t.lookup(&l.empty_phv()).unwrap().0, ActionRef(0));
    }

    #[test]
    fn miss_without_default_is_none() {
        let l = layout_with(&[("k", ScalarType::U8)]);
        let f = l.find("k").unwrap();
        let t = TableDef {
            name: "t".into(),
            keys: vec![(f, MatchKind::Exact)],
            actions: vec![],
            entries: vec![],
            default_action: None,
            size: 0,
        };
        assert!(t.lookup(&l.empty_phv()).is_none());
    }
}
