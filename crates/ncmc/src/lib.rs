#![warn(missing_docs)]

//! # ncmc — bounded model checking for kernel × protocol schedules
//!
//! The lints in `ncl-ir` flag *potential* hazards: state a replayed
//! window corrupts, register reads torn across recirculation passes,
//! arrays two kernels race on, accumulators that wrap. This crate is
//! the second judge the paper's deployment story needs: it **executes**
//! the composed system — the compiled switch kernel (via
//! [`pisa::Pipeline`]), the production NCP-R sender/receiver machines
//! (via their `save`/`restore` state capture), and an adversarial
//! network — over *every* schedule within stated bounds, and returns
//! one of two artifacts:
//!
//! * a **witness**: a machine-found, delta-shrunk, replayable schedule
//!   (loss/duplication/reordering/stage-interleaving decisions, one per
//!   line) that drives the system to a state no loss-free serial
//!   execution can reach — the hazard, concretely; or
//! * a **certificate**: the bounded space was exhausted without a
//!   violation — the hazard is absent within `(retries, splits, drops,
//!   states)` bounds that the certificate records on its face.
//!
//! Exploration is pruned by visited-state dedup over a stable 128-bit
//! state hash and by sleep-set DPOR (two steps commute at a state iff
//! executing them in either order reaches the identical state — decided
//! from the step kinds where their footprints settle it, and checked by
//! executing both orders otherwise). A naive exhaustive mode
//! is kept as ground truth; the reduction modes must agree on every
//! verdict and on the reachable terminal observations, and tests (plus
//! the E15 benchmark gate) enforce exactly that.
//!
//! Layering: this crate sits below `ncl-core` (which builds scenarios
//! from compiled programs and wires outcomes into `nclc --lint` and
//! deployment gating) and depends only on `c3`, `pisa`, `ncp` and
//! `ncl-ir`.

pub mod cert;
pub mod check;
pub mod explore;
pub mod schedule;
pub mod system;

pub use cert::Certificate;
pub use check::{
    corpus_entry, corpus_file_name, plan_for, replay_violates, run_check, Check, CheckResult,
    Outcome, PropertyKind, ReplayError, WitnessReport,
};
pub use explore::{
    explore, minimal_witness, Exploration, ExploreOptions, Property, Reduction, Stats,
};
pub use schedule::{Schedule, Step};
pub use system::{Bounds, DataCopy, Domain, RespCopy, Suspended, SysState, System, WindowDef};

#[cfg(test)]
pub(crate) mod testutil {
    //! Hand-built bare-`u32` pipelines: the checker treats packets as
    //! opaque bytes, so unit tests don't need the NCL compiler — a
    //! one-field parser and a couple of register actions exercise every
    //! checker code path.

    use crate::system::{Bounds, System, WindowDef};
    use c3::{BinOp, ScalarType, Value};
    use pisa::{
        ActionDef, Arg, DeparserSpec, Extract, FieldClass, ParserSpec, Pipeline, PipelineConfig,
        PrimOp, ResourceModel, StageConfig, TableDef,
    };
    use std::collections::HashMap;

    /// What the pipeline does with the parsed `u32`.
    #[derive(Clone, Copy)]
    pub enum KernelShape {
        /// `mirror[0] += x; total[0] = mirror[0]` — not replay-safe
        /// (duplication double-adds), torn by a split (stale total).
        Accumulate,
        /// `mirror[0] = x; total[0] = mirror[0]` — replay-safe
        /// (idempotent per window), order-sensitive.
        Overwrite,
        /// `total[0] += x; total_seen[0] = x` — the arrays are named
        /// `total` / `total_seen` here, and the second legitimately
        /// falls whenever a smaller window follows a larger one.
        LastSeen,
    }

    /// A two-stage pipeline with the mirror idiom the real lowered
    /// kernels use: stage 0 read-modify-writes `mirror[0]` (atomic
    /// within the stage, like one RegisterAction) and carries the
    /// result in a PHV temp; stage 1 publishes it to `total[0]`. Each
    /// array stays single-stage (the RMT constraint), yet a
    /// [`crate::Step::Split`] between the stages interleaves another
    /// window between the mirror update and the publish — exactly the
    /// recirculation tear the `non-atomic-rmw` lint flags. The kernel
    /// reflects a response.
    pub fn rmw_pipeline(shape: KernelShape) -> Pipeline {
        let mut layout = pisa::PhvLayout::default();
        let x = layout.add("x", ScalarType::U32, FieldClass::Header);
        let fwd = layout.add("meta.fwd", ScalarType::U8, FieldClass::Metadata);
        let tmp = layout.add("meta.tmp", ScalarType::U32, FieldClass::Metadata);
        let (names, published) = match shape {
            KernelShape::LastSeen => (["total", "total_seen"], x),
            _ => (["mirror", "total"], tmp),
        };
        let combine = match shape {
            KernelShape::Accumulate | KernelShape::LastSeen => PrimOp::Alu {
                guard: None,
                dst: tmp,
                op: BinOp::Add,
                a: Arg::Field(tmp),
                b: Arg::Field(x),
            },
            KernelShape::Overwrite => PrimOp::Mov {
                guard: None,
                dst: tmp,
                src: Arg::Field(x),
            },
        };
        let update = ActionDef {
            name: "update".into(),
            ops: vec![
                PrimOp::RegRead {
                    guard: None,
                    dst: tmp,
                    reg: 0,
                    idx: Arg::Const(Value::u32(0)),
                },
                combine,
                PrimOp::RegWrite {
                    guard: None,
                    reg: 0,
                    idx: Arg::Const(Value::u32(0)),
                    src: Arg::Field(tmp),
                },
            ],
        };
        let publish = ActionDef {
            name: "publish".into(),
            ops: vec![
                PrimOp::RegWrite {
                    guard: None,
                    reg: 1,
                    idx: Arg::Const(Value::u32(0)),
                    src: Arg::Field(published),
                },
                // _reflect(): code 1.
                PrimOp::Mov {
                    guard: None,
                    dst: fwd,
                    src: Arg::Const(Value::new(ScalarType::U8, 1)),
                },
            ],
        };
        let cfg = PipelineConfig {
            name: "rmw".into(),
            parser: ParserSpec {
                common: vec![Extract { field: x }],
                verify: vec![],
                select: None,
                branches: HashMap::new(),
            },
            deparser: DeparserSpec {
                common: vec![x],
                select: None,
                branches: HashMap::new(),
            },
            stages: vec![
                StageConfig {
                    tables: vec![TableDef::always("update", update)],
                },
                StageConfig {
                    tables: vec![TableDef::always("publish", publish)],
                },
            ],
            registers: names
                .map(|name| pisa::RegisterArrayDef {
                    name: name.into(),
                    elem: ScalarType::U32,
                    len: 1,
                    init: vec![],
                })
                .to_vec(),
            fwd_code: Some(fwd),
            fwd_label: None,
            layout,
        };
        Pipeline::load(cfg, ResourceModel::default()).unwrap()
    }

    /// A scenario of `u32` windows over the kernel, one per payload,
    /// all from host 1, distinct seqs.
    pub fn windows(payloads: &[u32]) -> Vec<WindowDef> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| WindowDef {
                name: "k".into(),
                kernel: 1,
                sender: 1,
                seq: i as u32,
                packet: p.to_be_bytes().to_vec(),
            })
            .collect()
    }

    /// [`windows`] sent alternately by hosts 1 and 2, so responses to
    /// different hosts are in flight together.
    pub fn two_sender_windows(payloads: &[u32]) -> Vec<WindowDef> {
        let mut ws = windows(payloads);
        for (i, w) in ws.iter_mut().enumerate() {
            w.sender = 1 + (i % 2) as u16;
        }
        ws
    }

    /// System over [`rmw_pipeline`] with default bounds.
    pub fn system(shape: KernelShape, payloads: &[u32]) -> System {
        System::new(rmw_pipeline(shape), windows(payloads), Bounds::default())
    }
}

#[cfg(test)]
mod tests {
    use super::check::{run_check, Check, PropertyKind};
    use super::explore::{explore, minimal_witness, ExploreOptions, Property, Reduction};
    use super::schedule::Step;
    use super::system::Domain;
    use super::testutil::{system, KernelShape};
    use ncl_ir::lint::LintCode;
    use std::collections::BTreeSet;

    fn serializable(sys: &mut super::System) -> Property {
        let refs: BTreeSet<Vec<u64>> = sys.serial_references().into_iter().collect();
        Property::InSet(refs)
    }

    #[test]
    fn accumulator_duplication_found_and_shrunk() {
        // total[0] += x with dup+drop: a retransmitted window delivered
        // twice lands outside every serial state.
        let mut sys = system(KernelShape::Accumulate, &[10]);
        let prop = serializable(&mut sys);
        let ex = explore(&mut sys, Domain::DUP_DROP, &prop, ExploreOptions::default());
        assert!(ex.witness.is_some(), "dup hazard must be found");
        let min = minimal_witness(&mut sys, Domain::DUP_DROP, &prop).unwrap();
        // Minimal witness: tick a retransmission into existence, then
        // deliver both copies and let the schedule terminate. Two
        // pipeline entries — same length as the handwritten ones.
        assert_eq!(min.deliveries(), 2, "minimal witness: {min}");
        // Replaying the witness really violates the property.
        let init = sys.initial();
        let end = sys.exec_all(&init, &min);
        assert!(prop.violated(&sys, &end, Domain::DUP_DROP));
    }

    #[test]
    fn overwrite_kernel_is_dup_certified() {
        // total[0] = x is idempotent: duplication can only replay a
        // value some serial order also ends in.
        let mut sys = system(KernelShape::Overwrite, &[10, 20]);
        let prop = serializable(&mut sys);
        let ex = explore(&mut sys, Domain::DUP_DROP, &prop, ExploreOptions::default());
        assert!(ex.witness.is_none(), "overwrite kernel is replay-safe");
        assert!(ex.complete, "space must be covered for a certificate");
        assert!(ex.stats.terminals > 0);
    }

    #[test]
    fn split_tears_rmw_and_witness_is_minimal() {
        // Interleaving a second window between stage-0 read and
        // stage-1 write loses one addend.
        let mut sys = system(KernelShape::Accumulate, &[10, 20]);
        let prop = serializable(&mut sys);
        let ex = explore(
            &mut sys,
            Domain::SPLIT_ONLY,
            &prop,
            ExploreOptions::default(),
        );
        assert!(ex.witness.is_some(), "torn RMW must be found");
        let min = minimal_witness(&mut sys, Domain::SPLIT_ONLY, &prop).unwrap();
        assert_eq!(min.deliveries(), 2, "minimal witness: {min}");
        assert!(
            min.steps.iter().any(|s| matches!(s, Step::Split(..))),
            "the witness must actually split: {min}"
        );
    }

    #[test]
    fn reductions_agree_on_verdict_and_terminals() {
        // Scenarios small enough for the naive mode to exhaust, with
        // both verdicts represented in every domain.
        for (shape, payloads, domain) in [
            (KernelShape::Accumulate, vec![7u32], Domain::DUP_DROP),
            (KernelShape::Overwrite, vec![10], Domain::DUP_DROP),
            (KernelShape::Accumulate, vec![10, 20], Domain::SPLIT_ONLY),
            (KernelShape::Overwrite, vec![10, 20], Domain::ORDER_ONLY),
        ] {
            let mut naive_out = None;
            let mut results = Vec::new();
            for red in [Reduction::Naive, Reduction::Dedup, Reduction::Dpor] {
                let mut sys = system(shape, &payloads);
                let prop = serializable(&mut sys);
                let ex = explore(
                    &mut sys,
                    domain,
                    &prop,
                    ExploreOptions {
                        reduction: red,
                        order_seed: None,
                        stop_at_first: false,
                    },
                );
                assert!(ex.complete);
                results.push((red, ex.witness.is_some(), ex.terminal_obs.clone(), ex.stats));
                if red == Reduction::Naive {
                    naive_out = Some((ex.witness.is_some(), ex.terminal_obs));
                }
            }
            let (naive_verdict, naive_terminals) = naive_out.unwrap();
            for (red, verdict, terminals, _) in &results {
                assert_eq!(
                    *verdict, naive_verdict,
                    "{:?} disagrees with naive verdict",
                    red
                );
                assert_eq!(
                    *terminals, naive_terminals,
                    "{:?} reaches different terminal observations",
                    red
                );
            }
        }
    }

    #[test]
    fn dpor_prunes_where_deliveries_commute() {
        // Two overwrite windows with *equal* payloads: delivery order
        // commutes on the full state except for protocol bookkeeping —
        // use order-only domain where even that converges. DPOR must
        // cut schedules relative to naive.
        let mut naive_schedules = 0;
        let mut dpor = None;
        for red in [Reduction::Naive, Reduction::Dpor] {
            let mut sys = system(KernelShape::Accumulate, &[5, 5, 5]);
            let prop = serializable(&mut sys);
            let ex = explore(
                &mut sys,
                Domain::ORDER_ONLY,
                &prop,
                ExploreOptions {
                    reduction: red,
                    order_seed: None,
                    stop_at_first: false,
                },
            );
            assert!(ex.complete);
            assert!(ex.witness.is_none());
            match red {
                Reduction::Naive => naive_schedules = ex.stats.schedules,
                _ => dpor = Some(ex.stats),
            }
        }
        let dpor = dpor.unwrap();
        assert!(
            dpor.sleep_skips + dpor.dedup_hits > 0,
            "DPOR should prune something: {dpor:?}"
        );
        assert!(
            dpor.schedules < naive_schedules,
            "DPOR ({}) must explore fewer schedules than naive ({naive_schedules})",
            dpor.schedules
        );
    }

    #[test]
    fn shrunk_witness_is_independent_of_discovery_order() {
        let mut reference = None;
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let mut sys = system(KernelShape::Accumulate, &[10]);
            let prop = serializable(&mut sys);
            let ex = explore(
                &mut sys,
                Domain::DUP_DROP,
                &prop,
                ExploreOptions {
                    reduction: Reduction::Dpor,
                    order_seed: Some(seed),
                    stop_at_first: true,
                },
            );
            assert!(ex.witness.is_some(), "seed {seed} failed to find the bug");
            let min = minimal_witness(&mut sys, Domain::DUP_DROP, &prop).unwrap();
            match &reference {
                None => reference = Some(min),
                Some(r) => assert_eq!(&min, r, "seed {seed} shrank to a different schedule"),
            }
        }
    }

    #[test]
    fn run_check_maps_lint_codes_end_to_end() {
        // replay-unsafe on an accumulator → witness.
        let mut sys = system(KernelShape::Accumulate, &[10]);
        let check = Check::for_lint(LintCode::ReplayUnsafe, "k", vec![]).unwrap();
        let res = run_check(&mut sys, "rmw", &check, Reduction::Dpor, None);
        match res.outcome {
            super::Outcome::Witness(w) => {
                assert_eq!(w.deliveries, 2);
                assert!(!w.expected.is_empty());
                assert!(!w.expected.contains(&w.got));
            }
            other => panic!("expected witness, got {}", other.summary()),
        }
        // replay-unsafe on an overwrite kernel → certificate with the
        // bounds on its face.
        let mut sys = system(KernelShape::Overwrite, &[10, 20]);
        let check = Check::for_lint(LintCode::ReplayUnsafe, "k", vec![]).unwrap();
        let res = run_check(&mut sys, "rmw", &check, Reduction::Dpor, None);
        match res.outcome {
            super::Outcome::Certificate(c) => {
                assert_eq!(c.property, "serializable");
                assert_eq!(c.windows, 2);
                assert!(c.to_json().contains("\"max_retries\":1"));
            }
            other => panic!("expected certificate, got {}", other.summary()),
        }
        // resource-overrun is not schedule-checkable.
        assert!(Check::for_lint(LintCode::ResourceOverrun, "k", vec![]).is_none());
        assert!(!LintCode::ResourceOverrun.schedule_checkable());
    }

    #[test]
    fn overflow_watch_finds_strict_decrease() {
        // Two max-weight windows wrap the u32 accumulator; the watched
        // cell strictly decreases on the second delivery.
        let mut sys = system(KernelShape::Accumulate, &[0xc000_0000, 0xc000_0000]);
        let check = Check {
            code: Some(LintCode::UnguardedOverflow),
            kernel: "k".into(),
            kind: PropertyKind::NoRegression,
            domain: Domain::ORDER_ONLY,
            watch: vec!["total".into()],
        };
        let res = run_check(&mut sys, "rmw", &check, Reduction::Dpor, None);
        match res.outcome {
            super::Outcome::Witness(w) => {
                assert_eq!(w.deliveries, 2, "wrap needs both windows: {}", w.schedule);
            }
            other => panic!("expected overflow witness, got {}", other.summary()),
        }
        // Small payloads cannot wrap within bounds → certificate.
        let mut sys = system(KernelShape::Accumulate, &[10, 20]);
        let check = Check {
            code: Some(LintCode::UnguardedOverflow),
            kernel: "k".into(),
            kind: PropertyKind::NoRegression,
            domain: Domain::ORDER_ONLY,
            watch: vec!["total".into()],
        };
        let res = run_check(&mut sys, "rmw", &check, Reduction::Dpor, None);
        assert!(res.outcome.is_certificate(), "{}", res.outcome.summary());
    }

    #[test]
    fn watch_matches_array_names_exactly() {
        // `total` only grows with these payloads; `total_seen` is
        // overwritten downward when 20 is delivered before 10. Watching
        // `total` must not watch the array that merely shares its
        // prefix.
        let check = |watch: &str| {
            Check::for_lint(LintCode::UnguardedOverflow, "k", vec![watch.into()]).unwrap()
        };
        let mut sys = system(KernelShape::LastSeen, &[20, 10]);
        let res = run_check(&mut sys, "rmw", &check("total"), Reduction::Dpor, None);
        assert!(res.outcome.is_certificate(), "{}", res.outcome.summary());
        assert_eq!(sys.watched(), 1);
        // Watched by its own name, the overwritten array does regress.
        let res = run_check(&mut sys, "rmw", &check("total_seen"), Reduction::Dpor, None);
        assert_eq!(sys.watched(), 1);
        assert!(res.outcome.is_witness(), "{}", res.outcome.summary());
    }

    #[test]
    fn witness_replays_from_rendered_text() {
        // The full corpus loop: find, shrink, render, parse, replay.
        let mut sys = system(KernelShape::Accumulate, &[10]);
        let prop = serializable(&mut sys);
        explore(&mut sys, Domain::DUP_DROP, &prop, ExploreOptions::default());
        let min = minimal_witness(&mut sys, Domain::DUP_DROP, &prop).unwrap();
        let text = min.render();
        let parsed = super::Schedule::parse(&text).unwrap();
        let init = sys.initial();
        let end = sys.exec_all(&init, &parsed);
        assert!(prop.violated(&sys, &end, Domain::DUP_DROP));
        assert_eq!(parsed.hash64(), min.hash64());
    }
}
