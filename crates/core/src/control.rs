//! Transparent control-plane interaction (paper §3.2).
//!
//! *"NCL kernels are written for the data plane, but may involve the
//! control plane under the hood. For instance, host code is allowed to
//! update variables that are read-only by switch code."*
//!
//! [`ControlPlane`] wraps one compiled switch's control handles:
//! `ncl::ctrl_wr` writes every register copy of a control variable;
//! map inserts/evictions install or remove entries in every lookup-site
//! table of an `ncl::Map` (NetCache-style: the control plane associates
//! keys with value-array indices, paper §4.3). Every operation is a
//! list of deferred [`netsim::CtrlOp`]s addressed by the compiled
//! switch's names: a host submits it mid-simulation through
//! [`netsim::HostCtx::ctrl`], a caller applies it to any engine through
//! [`FastDatapath::ctrl`], and the direct forms (pre-run configuration
//! of a [`pisa::Pipeline`]) are exactly that, applied to the pipeline.

use c3::Value;
use ncl_p4::CompiledSwitch;
use netsim::{CtrlOp, FastDatapath};
use pisa::{ActionRef, Entry, MatchPattern, Pipeline};

/// Control-plane handle for one compiled switch.
#[derive(Clone, Debug)]
pub struct ControlPlane {
    map_tables: std::collections::HashMap<String, Vec<String>>,
    ctrl_regs: std::collections::HashMap<String, Vec<String>>,
    lane_banks: std::collections::HashMap<String, Vec<String>>,
    array_lens: std::collections::HashMap<String, usize>,
}

impl ControlPlane {
    /// Builds the handle from a compiled switch.
    pub fn new(compiled: &CompiledSwitch) -> Self {
        ControlPlane {
            map_tables: compiled.map_tables.clone(),
            ctrl_regs: compiled.ctrl_regs.clone(),
            lane_banks: compiled.lane_banks.clone(),
            array_lens: compiled.array_lens.clone(),
        }
    }

    /// The compiled register and slot holding element `idx` of a
    /// *source-level* switch array: the compiler's lane decomposition
    /// puts element `i` of an `L`-lane array in bank `i % L`, slot `i / L`.
    /// `None` past the source array's end.
    fn bank_slot<'a>(&'a self, array: &'a str, idx: usize) -> Option<(&'a str, usize)> {
        if self.array_lens.get(array).is_some_and(|&len| idx >= len) {
            return None;
        }
        Some(match self.lane_banks.get(array) {
            Some(banks) if !banks.is_empty() => (&banks[idx % banks.len()], idx / banks.len()),
            _ => (array, idx),
        })
    }

    /// Reads element `idx` of a source-level switch array through the
    /// lane decomposition.
    pub fn read_register(&self, pipe: &Pipeline, array: &str, idx: usize) -> Option<Value> {
        let (bank, slot) = self.bank_slot(array, idx)?;
        pipe.register_read(bank, slot)
    }

    // ------------------------------------------------------------------
    // Direct (pre-run) operations
    // ------------------------------------------------------------------

    /// `ncl::ctrl_wr(&var, value)` — writes every compiled copy of the
    /// control variable. Returns `false` for unknown variables.
    pub fn ctrl_wr(&self, pipe: &mut Pipeline, var: &str, value: Value) -> bool {
        all_land(pipe, self.ctrl_wr_ops(var, value))
    }

    /// Inserts `key → value` into every lookup-site table of `map`.
    /// Returns `false` when the map is unknown or any table is full.
    pub fn map_insert(&self, pipe: &mut Pipeline, map: &str, key: u64, value: Value) -> bool {
        all_land(pipe, self.map_insert_ops(map, key, value))
    }

    /// Removes `key` from every lookup-site table (cache eviction,
    /// paper §4.3: "the storage server just removes an item from the
    /// Idx map"). Returns the number of tables it was removed from.
    pub fn map_remove(&self, pipe: &mut Pipeline, map: &str, key: u64) -> usize {
        landed(pipe, self.map_remove_ops(map, key))
    }

    // ------------------------------------------------------------------
    // Deferred (mid-simulation) operations
    // ------------------------------------------------------------------

    /// The [`CtrlOp`]s realizing a `ctrl_wr` (submit via
    /// [`netsim::HostCtx::ctrl`]).
    pub fn ctrl_wr_ops(&self, var: &str, value: Value) -> Vec<CtrlOp> {
        self.ctrl_regs
            .get(var)
            .map(|copies| {
                copies
                    .iter()
                    .map(|c| CtrlOp::RegWrite {
                        name: c.clone(),
                        index: 0,
                        value,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The [`CtrlOp`]s writing element `idx` of a source-level switch
    /// array through the lane decomposition, like
    /// [`ControlPlane::read_register`] reads it; none past the array's
    /// end.
    pub fn reg_write_ops(&self, array: &str, idx: usize, value: Value) -> Vec<CtrlOp> {
        self.bank_slot(array, idx)
            .map(|(bank, index)| CtrlOp::RegWrite {
                name: bank.to_string(),
                index,
                value,
            })
            .into_iter()
            .collect()
    }

    /// The [`CtrlOp`]s realizing a map insert.
    pub fn map_insert_ops(&self, map: &str, key: u64, value: Value) -> Vec<CtrlOp> {
        self.map_tables
            .get(map)
            .map(|tables| {
                tables
                    .iter()
                    .map(|t| CtrlOp::TableInsert {
                        table: t.clone(),
                        entry: Self::entry(key, value),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The [`CtrlOp`]s realizing a map removal.
    pub(crate) fn map_remove_ops(&self, map: &str, key: u64) -> Vec<CtrlOp> {
        self.map_tables
            .get(map)
            .map(|tables| {
                tables
                    .iter()
                    .map(|t| CtrlOp::TableRemove {
                        table: t.clone(),
                        patterns: Self::patterns(key).to_vec(),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn entry(key: u64, value: Value) -> Entry {
        Entry {
            // Map tables key on (guard, key); the guard pattern is the
            // constant 1 (the lookup's predicate must hold).
            patterns: Self::patterns(key).to_vec(),
            action: ActionRef(1), // hit
            args: vec![value],
            priority: 0,
        }
    }

    fn patterns(key: u64) -> [MatchPattern; 2] {
        [MatchPattern::exact(1), MatchPattern::exact(key)]
    }
}

/// Applies every op, also after a refusal; counts the ones that landed.
fn landed(pipe: &mut Pipeline, ops: Vec<CtrlOp>) -> usize {
    ops.iter().filter(|op| pipe.ctrl(op)).count()
}

/// Whether there were ops (the name is known) and every one landed.
fn all_land(pipe: &mut Pipeline, ops: Vec<CtrlOp>) -> bool {
    let n = ops.len();
    n > 0 && landed(pipe, ops) == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nclc::{compile, CompileConfig};
    use pisa::ResourceModel;

    const SRC: &str = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 8> Idx;
_net_ _at_("s1") bool Valid[8] = {false};
_net_ _ctrl_ _at_("s1") unsigned thresh = 3;
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) {
        if (Valid[*i]) { _reflect(); }
    }
    if (window.seq > thresh) { _drop(); }
}
"#;
    const AND: &str = "host h1\nhost h2\nswitch s1\nlink h1 s1\nlink h2 s1\n";

    fn setup() -> (ControlPlane, Pipeline) {
        let mut cfg = CompileConfig::default();
        cfg.masks.insert("k".into(), vec![1]);
        let p = compile(SRC, AND, &cfg).expect("compiles");
        let c = p.switch("s1").unwrap();
        let cp = ControlPlane::new(c);
        let pipe = Pipeline::load(c.pipeline.clone(), ResourceModel::default()).unwrap();
        (cp, pipe)
    }

    #[test]
    fn ctrl_wr_updates_all_copies() {
        let (cp, mut pipe) = setup();
        assert!(cp.ctrl_wr(&mut pipe, "thresh", Value::u32(9)));
        assert!(!cp.ctrl_wr(&mut pipe, "nope", Value::u32(1)));
    }

    #[test]
    fn map_insert_and_remove() {
        let (cp, mut pipe) = setup();
        assert!(cp.map_insert(&mut pipe, "Idx", 42, Value::new(c3::ScalarType::U8, 3)));
        let removed = cp.map_remove(&mut pipe, "Idx", 42);
        assert!(removed >= 1);
        assert_eq!(cp.map_remove(&mut pipe, "Idx", 42), 0);
        assert!(!cp.map_insert(&mut pipe, "nomap", 1, Value::u32(0)));
    }

    #[test]
    fn capacity_respected_through_control_plane() {
        let (cp, mut pipe) = setup();
        for key in 0..8u64 {
            assert!(cp.map_insert(&mut pipe, "Idx", key, Value::new(c3::ScalarType::U8, key)));
        }
        // Ninth insert exceeds the declared capacity of 8.
        assert!(!cp.map_insert(&mut pipe, "Idx", 99, Value::new(c3::ScalarType::U8, 0)));
    }

    #[test]
    fn deferred_ops_generated() {
        let (cp, _) = setup();
        assert!(!cp.ctrl_wr_ops("thresh", Value::u32(5)).is_empty());
        assert!(!cp.map_insert_ops("Idx", 7, Value::u32(0)).is_empty());
        assert!(!cp.map_remove_ops("Idx", 7).is_empty());
        assert!(cp.ctrl_wr_ops("nope", Value::u32(5)).is_empty());
    }
}
