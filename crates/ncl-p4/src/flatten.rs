//! If-conversion: CFG → straight-line predicated code.
//!
//! PISA pipelines have no branches; compiled control flow becomes
//! per-operation predication (the "CFG is transformed to a table graph"
//! step of the paper's §5). For an acyclic CFG:
//!
//! * every non-entry block gets a boolean *predicate register*,
//!   initially false (registers are zero-initialized per packet);
//! * emitting blocks in reverse post-order (a topological order of the
//!   DAG), each block's instructions are guarded by its predicate;
//! * a `Br(cond, T, E)` contributes `pred_T |= cond & pred_B` and
//!   `pred_E |= !cond & pred_B`; a `Jmp(T)` contributes
//!   `pred_B` directly; `Ret` contributes nothing (the path ends).
//!
//! Guarded instructions leave their destinations untouched when the
//! guard is false, which preserves the mutable-register semantics of
//! multi-def IR registers without φ nodes.

use c3::{BinOp, ScalarType, UnOp, Value};
use ncl_ir::ir::*;

/// One predicated linear instruction.
#[derive(Clone, PartialEq, Debug)]
pub struct PredInst {
    /// Execute only when this (bool) register is true; `None` = always.
    pub guard: Option<RegId>,
    /// The instruction (never a terminator).
    pub inst: Inst,
}

/// A flattened kernel: straight-line predicated ops.
#[derive(Clone, PartialEq, Debug)]
pub struct LinearKernel {
    /// Kernel name.
    pub name: String,
    /// Ops in execution order.
    pub ops: Vec<PredInst>,
    /// Register types (indexes include the new predicate registers).
    pub reg_tys: Vec<ScalarType>,
}

/// Errors flattening can hit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlattenError {
    /// The CFG still has a cycle (conformance should have caught it).
    Cyclic {
        /// Kernel name.
        kernel: String,
    },
}

impl std::fmt::Display for FlattenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlattenError::Cyclic { kernel } => {
                write!(f, "kernel '{kernel}' has a cyclic CFG; cannot flatten")
            }
        }
    }
}

impl std::error::Error for FlattenError {}

/// Flattens a kernel. `root` optionally guards the entry block — the
/// codegen uses it for `kernel_id` dispatch when several kernels share
/// one pipeline (ops that were unguarded become guarded by `root`).
pub fn flatten(kernel: &KernelIr, root: Option<RegId>) -> Result<LinearKernel, FlattenError> {
    if kernel.has_loop() {
        return Err(FlattenError::Cyclic {
            kernel: kernel.name.clone(),
        });
    }
    let rpo = kernel.rpo();
    let mut reg_tys = kernel.reg_tys.clone();
    let fresh = |ty: ScalarType, reg_tys: &mut Vec<ScalarType>| -> RegId {
        let id = RegId(reg_tys.len() as u32);
        reg_tys.push(ty);
        id
    };

    // Predicate register per non-entry reachable block.
    let mut preds: Vec<Option<RegId>> = vec![None; kernel.blocks.len()];
    for b in rpo.iter().skip(1) {
        preds[b.0 as usize] = Some(fresh(ScalarType::Bool, &mut reg_tys));
    }
    // Entry predicate is the root guard (or unguarded).
    preds[rpo[0].0 as usize] = root;

    // Whether a predicate register has received its first contribution.
    // The first write is a plain copy (never reading the uninitialized
    // register), so predicate fields need no zero-init and the PHV
    // allocator may reuse containers.
    let mut seeded = vec![false; reg_tys.len() + kernel.blocks.len() * 2 + 16];
    let mut ops: Vec<PredInst> = Vec::new();
    for &bid in &rpo {
        let block = kernel.block(bid);
        let guard = preds[bid.0 as usize];
        for inst in &block.insts {
            ops.push(PredInst {
                guard,
                inst: inst.clone(),
            });
        }
        match &block.term {
            Terminator::Ret => {}
            Terminator::Jmp(t) => {
                let pt = preds[t.0 as usize].expect("non-entry target has a predicate");
                // pred_t (|)= guard — true when unguarded; the first
                // contribution is a plain copy.
                let first = !seeded[pt.0 as usize];
                seeded[pt.0 as usize] = true;
                let contrib = match guard {
                    Some(g) => Operand::Reg(g),
                    None => Operand::Const(Value::bool(true)),
                };
                if first {
                    ops.push(PredInst {
                        guard: None,
                        inst: Inst::Copy {
                            dst: pt,
                            a: contrib,
                        },
                    });
                } else {
                    ops.push(PredInst {
                        guard: None,
                        inst: Inst::Bin {
                            dst: pt,
                            op: BinOp::Or,
                            a: Operand::Reg(pt),
                            b: contrib,
                        },
                    });
                }
            }
            Terminator::Br { cond, then, els } => {
                let pt = preds[then.0 as usize].expect("predicate");
                let pe = preds[els.0 as usize].expect("predicate");
                // Normalize the condition to a bool register.
                let cond_reg = match cond {
                    Operand::Reg(r) => *r,
                    Operand::Const(v) => {
                        let c = fresh(ScalarType::Bool, &mut reg_tys);
                        ops.push(PredInst {
                            guard: None,
                            inst: Inst::Copy {
                                dst: c,
                                a: Operand::Const(Value::bool(v.is_truthy())),
                            },
                        });
                        c
                    }
                };
                let ncond = fresh(ScalarType::Bool, &mut reg_tys);
                ops.push(PredInst {
                    guard: None,
                    inst: Inst::Un {
                        dst: ncond,
                        op: UnOp::Not,
                        a: Operand::Reg(cond_reg),
                    },
                });
                let (t_contrib, e_contrib) = match guard {
                    Some(g) => {
                        let tc = fresh(ScalarType::Bool, &mut reg_tys);
                        ops.push(PredInst {
                            guard: None,
                            inst: Inst::Bin {
                                dst: tc,
                                op: BinOp::And,
                                a: Operand::Reg(cond_reg),
                                b: Operand::Reg(g),
                            },
                        });
                        let ec = fresh(ScalarType::Bool, &mut reg_tys);
                        ops.push(PredInst {
                            guard: None,
                            inst: Inst::Bin {
                                dst: ec,
                                op: BinOp::And,
                                a: Operand::Reg(ncond),
                                b: Operand::Reg(g),
                            },
                        });
                        (tc, ec)
                    }
                    None => (cond_reg, ncond),
                };
                for (p_dst, contrib) in [(pt, t_contrib), (pe, e_contrib)] {
                    let first = !seeded[p_dst.0 as usize];
                    seeded[p_dst.0 as usize] = true;
                    if first {
                        ops.push(PredInst {
                            guard: None,
                            inst: Inst::Copy {
                                dst: p_dst,
                                a: Operand::Reg(contrib),
                            },
                        });
                    } else {
                        ops.push(PredInst {
                            guard: None,
                            inst: Inst::Bin {
                                dst: p_dst,
                                op: BinOp::Or,
                                a: Operand::Reg(p_dst),
                                b: Operand::Reg(contrib),
                            },
                        });
                    }
                }
            }
        }
    }
    // Keys of guarded map lookups must be registers (they become PHV
    // match fields); materialize constant keys.
    let mut extra: Vec<(usize, PredInst)> = Vec::new();
    for (i, p) in ops.iter_mut().enumerate() {
        if let Inst::MapGet { key, .. } = &mut p.inst {
            if let Operand::Const(v) = key {
                let r = RegId(reg_tys.len() as u32);
                reg_tys.push(v.ty());
                extra.push((
                    i,
                    PredInst {
                        guard: None,
                        inst: Inst::Copy {
                            dst: r,
                            a: Operand::Const(*v),
                        },
                    },
                ));
                *key = Operand::Reg(r);
            }
        }
    }
    for (i, p) in extra.into_iter().rev() {
        ops.insert(i, p);
    }

    Ok(LinearKernel {
        name: kernel.name.clone(),
        ops,
        reg_tys,
    })
}

/// Executes a [`LinearKernel`] with the IR interpreter's semantics —
/// used by tests to prove flattening preserves behaviour before stage
/// allocation enters the picture.
#[cfg(test)]
pub fn execute_linear(
    lin: &LinearKernel,
    kernel: &KernelIr,
    window: &mut c3::Window,
    state: &mut ncl_ir::SwitchState,
) -> c3::Forward {
    use c3::Forward;
    let mut regs: Vec<Value> = lin.reg_tys.iter().map(|&t| Value::zero(t)).collect();
    let mut decision = Forward::Pass;
    let win_params: Vec<ScalarType> = kernel
        .params
        .iter()
        .filter(|p| !p.ext)
        .map(|p| p.elem)
        .collect();
    let get = |o: &Operand, regs: &[Value]| match o {
        Operand::Const(v) => *v,
        Operand::Reg(r) => regs[r.0 as usize],
    };
    for p in &lin.ops {
        if let Some(g) = p.guard {
            if !regs[g.0 as usize].is_truthy() {
                continue;
            }
        }
        match &p.inst {
            Inst::Bin { dst, op, a, b } => {
                regs[dst.0 as usize] = Value::binop(*op, get(a, &regs), get(b, &regs))
            }
            Inst::Un { dst, op, a } => regs[dst.0 as usize] = Value::unop(*op, get(a, &regs)),
            Inst::Cast { dst, ty, a } => regs[dst.0 as usize] = get(a, &regs).cast(*ty),
            Inst::Copy { dst, a } => regs[dst.0 as usize] = get(a, &regs),
            Inst::Select { dst, cond, a, b } => {
                regs[dst.0 as usize] = if get(cond, &regs).is_truthy() {
                    get(a, &regs)
                } else {
                    get(b, &regs)
                }
            }
            Inst::LdWin { dst, param, index } => {
                let ty = win_params[*param as usize];
                let idx = get(index, &regs).bits() as usize;
                regs[dst.0 as usize] = window
                    .chunks
                    .get(*param as usize)
                    .filter(|c| idx < c.elems(ty))
                    .map(|c| c.get(ty, idx))
                    .unwrap_or_else(|| Value::zero(ty));
            }
            Inst::StWin { param, index, val } => {
                let ty = win_params[*param as usize];
                let idx = get(index, &regs).bits() as usize;
                let v = get(val, &regs).cast(ty);
                if let Some(c) = window.chunks.get_mut(*param as usize) {
                    if idx < c.elems(ty) {
                        c.set(ty, idx, v);
                    }
                }
            }
            Inst::LdMeta { dst, field } => {
                let v = match field {
                    MetaField::Seq => Value::u32(window.seq),
                    MetaField::Sender => Value::new(ScalarType::U16, window.sender.0 as u64),
                    MetaField::From => Value::new(ScalarType::U16, window.from.to_wire() as u64),
                    MetaField::Len => {
                        let ty = win_params.first().copied().unwrap_or(ScalarType::U8);
                        Value::new(
                            ScalarType::U16,
                            window.chunks.first().map(|c| c.elems(ty)).unwrap_or(0) as u64,
                        )
                    }
                    MetaField::NChunks => Value::new(ScalarType::U8, window.chunks.len() as u64),
                    MetaField::Last => Value::bool(window.last),
                    MetaField::Ext(off, ty) => window.ext_read(*ty, *off as usize),
                    MetaField::LocationId => Value::new(ScalarType::U16, state.location_id as u64),
                };
                regs[dst.0 as usize] = v;
            }
            Inst::StExt { offset, ty, val } => {
                let v = get(val, &regs).cast(*ty);
                window.ext_write(*offset as usize, v);
            }
            Inst::LdReg { dst, arr, index } => {
                let a = &state.registers[arr.0 as usize];
                if !a.is_empty() {
                    let idx = get(index, &regs).bits() as usize % a.len();
                    regs[dst.0 as usize] = a.get(idx);
                }
            }
            Inst::StReg { arr, index, val } => {
                let v = get(val, &regs);
                let a = &mut state.registers[arr.0 as usize];
                if !a.is_empty() {
                    let idx = get(index, &regs).bits() as usize % a.len();
                    a.set(idx, v);
                }
            }
            Inst::LdCtrl { dst, ctrl } => regs[dst.0 as usize] = state.ctrls[ctrl.0 as usize],
            Inst::MapGet {
                found,
                val,
                map,
                key,
            } => {
                let k = get(key, &regs).bits();
                let ty = regs[val.0 as usize].ty();
                match state.maps[map.0 as usize].get(&k) {
                    Some(v) => {
                        regs[found.0 as usize] = Value::bool(true);
                        regs[val.0 as usize] = v.cast(ty);
                    }
                    None => {
                        regs[found.0 as usize] = Value::bool(false);
                        regs[val.0 as usize] = Value::zero(ty);
                    }
                }
            }
            Inst::LdHost { .. } | Inst::StHost { .. } => {
                unreachable!("host ops never reach switch codegen")
            }
            Inst::Fwd { kind, label } => {
                decision = match kind {
                    FwdKind::Pass => match label {
                        Some(l) => Forward::PassTo(l.clone()),
                        None => Forward::Pass,
                    },
                    FwdKind::Reflect => Forward::Reflect,
                    FwdKind::Bcast => Forward::Bcast,
                    FwdKind::Drop => Forward::Drop,
                };
            }
            Inst::Here { dst, label } => {
                let here = state.location.as_ref().map(|l| l == label).unwrap_or(false);
                regs[dst.0 as usize] = Value::bool(here);
            }
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3::{Chunk, Forward, HostId, KernelId, NodeId, Window};
    use ncl_ir::lower::{lower, LoweringConfig};
    use ncl_ir::{Interpreter, SwitchState};
    use ncl_lang::frontend;

    fn module(src: &str, kernel: &str, mask: &[u16]) -> Module {
        let checked = frontend(src, "t.ncl").expect("frontend");
        let mut m =
            lower(&checked, &LoweringConfig::with_mask(kernel, mask.to_vec())).expect("lower");
        ncl_ir::passes::optimize(&mut m);
        m
    }

    fn window_u32(vals: &[u32], seq: u32) -> Window {
        Window {
            kernel: KernelId(0),
            seq,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: vals.iter().flat_map(|v| v.to_be_bytes()).collect(),
            }],
            ext: vec![],
        }
    }

    /// Differential: interpreter vs flattened execution.
    fn check_equivalence(src: &str, kernel: &str, mask: &[u16], windows: Vec<Window>) {
        let m = module(src, kernel, mask);
        let k = m.kernel(kernel).unwrap();
        let lin = flatten(k, None).expect("flatten");
        let it = Interpreter::default();
        let mut st_a = SwitchState::from_module(&m);
        let mut st_b = SwitchState::from_module(&m);
        for (i, w) in windows.into_iter().enumerate() {
            let mut wa = w.clone();
            let mut wb = w;
            let fa = it.run_outgoing(k, &mut wa, &mut st_a).expect("interp");
            let fb = execute_linear(&lin, k, &mut wb, &mut st_b);
            assert_eq!(fa, fb, "forward decision diverged at window {i}");
            assert_eq!(wa, wb, "window diverged at window {i}");
            assert_eq!(
                st_a.registers, st_b.registers,
                "state diverged at window {i}"
            );
        }
    }

    #[test]
    fn straight_line_unchanged() {
        check_equivalence(
            "_net_ _out_ void k(int *d) { d[0] += 1; d[1] = d[0] * 2; }",
            "k",
            &[2],
            vec![window_u32(&[10, 0], 0)],
        );
    }

    #[test]
    fn diamond_both_paths() {
        let src = "_net_ _out_ void k(int *d) {\n\
                     if (d[0] > 5) { d[1] = 1; } else { d[1] = 2; }\n\
                     d[0] = d[1] + 10;\n\
                   }";
        check_equivalence(
            src,
            "k",
            &[2],
            vec![window_u32(&[9, 0], 0), window_u32(&[1, 0], 0)],
        );
    }

    #[test]
    fn nested_branches() {
        let src = "_net_ _out_ void k(int *d) {\n\
                     if (d[0] > 0) { if (d[1] > 0) { d[2] = 1; } else { d[2] = 2; } }\n\
                     else { d[2] = 3; }\n\
                   }";
        let cases = vec![
            window_u32(&[1, 1, 0], 0),
            window_u32(&[1, 0, 0], 0),
            window_u32(&[0, 1, 0], 0),
        ];
        check_equivalence(src, "k", &[3], cases);
    }

    #[test]
    fn forwarding_decisions_predicated() {
        let src = "_net_ _out_ void k(int *d) {\n\
                     if (d[0] > 5) { _reflect(); } else { _drop(); }\n\
                   }";
        let m = module(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let lin = flatten(k, None).unwrap();
        let mut st = SwitchState::from_module(&m);
        let mut w = window_u32(&[9], 0);
        assert_eq!(execute_linear(&lin, k, &mut w, &mut st), Forward::Reflect);
        let mut w = window_u32(&[1], 0);
        assert_eq!(execute_linear(&lin, k, &mut w, &mut st), Forward::Drop);
    }

    #[test]
    fn allreduce_equivalence_across_windows() {
        let src = r#"
_net_ _at_("s1") int accum[8] = {0};
_net_ _at_("s1") unsigned count[2] = {0};
_net_ _ctrl_ _at_("s1") unsigned nworkers = 2;
_net_ _out_ void k(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}
"#;
        check_equivalence(
            src,
            "k",
            &[4],
            vec![
                window_u32(&[1, 2, 3, 4], 0),
                window_u32(&[10, 20, 30, 40], 0),
                window_u32(&[5, 5, 5, 5], 1),
                window_u32(&[7, 7, 7, 7], 1),
            ],
        );
    }

    #[test]
    fn map_lookup_flattened() {
        let src = r#"
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> Idx;
_net_ _at_("s1") bool Valid[4] = {false};
_net_ _out_ void k(uint64_t key) {
    if (auto *i = Idx[key]) { Valid[*i] = true; _reflect(); }
}
"#;
        let m = module(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        let lin = flatten(k, None).unwrap();
        let it = Interpreter::default();
        let mut st_a = SwitchState::from_module(&m);
        st_a.map_insert(MapId(0), 42, Value::new(ScalarType::U8, 3));
        let mut st_b = st_a.clone();
        let mk = |key: u64| Window {
            kernel: KernelId(0),
            seq: 0,
            sender: HostId(1),
            from: NodeId::Host(HostId(1)),
            last: false,
            chunks: vec![Chunk {
                offset: 0,
                data: key.to_be_bytes().to_vec(),
            }],
            ext: vec![],
        };
        for key in [42u64, 7] {
            let mut wa = mk(key);
            let mut wb = mk(key);
            let fa = it.run_outgoing(k, &mut wa, &mut st_a).unwrap();
            let fb = execute_linear(&lin, k, &mut wb, &mut st_b);
            assert_eq!(fa, fb, "key {key}");
            assert_eq!(st_a.registers, st_b.registers);
        }
    }

    #[test]
    fn root_guard_gates_everything() {
        let src = "_net_ _out_ void k(int *d) { d[0] = 99; }";
        let m = module(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        // Root guard register beyond the kernel's own: flatten with a
        // fresh root and leave it false.
        let root = RegId(k.nregs);
        let mut k2 = k.clone();
        k2.nregs += 1;
        k2.reg_tys.push(ScalarType::Bool);
        let lin = flatten(&k2, Some(root)).unwrap();
        let mut st = SwitchState::from_module(&m);
        let mut w = window_u32(&[1], 0);
        execute_linear(&lin, &k2, &mut w, &mut st);
        // Root stayed false → no write happened.
        assert_eq!(w.chunks[0].get(ScalarType::I32, 0), Value::i32(1));
    }

    #[test]
    fn cyclic_cfg_rejected() {
        let src = "_net_ _out_ void k(int *d) { while (d[0] > 0) { d[0] -= 1; } }";
        let m = module(src, "k", &[1]);
        let k = m.kernel("k").unwrap();
        assert!(matches!(flatten(k, None), Err(FlattenError::Cyclic { .. })));
    }
}
