//! Assembly-level peephole optimisations — the "other compiler-level
//! transformations" FERRUM bundles with its protection (paper abstract,
//! §III).  Two passes:
//!
//! 1. **Redundant reload elimination**: within a block, a `movq
//!    disp(%rbp), %r` is dropped when `%r` provably still holds that
//!    slot's value (store-to-load forwarding and repeated reloads).
//! 2. **Fall-through jump elimination**: a block-final `jmp` to the next
//!    block in layout order is dropped.
//!
//! # Soundness precondition
//!
//! Reload elimination assumes the *frame discipline* the backend
//! guarantees: directly addressed `disp(%rbp)` slots (results and
//! argument spills) are disjoint from all indirectly addressed memory
//! (alloca storage and globals are only ever reached through pointers).
//! Hand-written assembly that indexes out of an allocation may break
//! this; the pipeline only runs the pass on backend output.

use std::collections::HashMap;

use ferrum_asm::analysis::liveness::reg_bytes;
use ferrum_asm::inst::Inst;
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::program::{AsmFunction, AsmInst, AsmProgram};
use ferrum_asm::reg::{Gpr, Reg, Width};

/// What the optimiser removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Redundant slot reloads removed.
    pub reloads_removed: usize,
    /// Slot reloads rewritten into register-to-register moves
    /// (store-to-load forwarding across registers).
    pub reloads_forwarded: usize,
    /// Fall-through jumps removed.
    pub jumps_removed: usize,
}

/// Runs all peephole passes in place and reports what was removed.
pub fn run(p: &mut AsmProgram) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    for f in &mut p.functions {
        let (removed, forwarded) = eliminate_redundant_reloads(f);
        stats.reloads_removed += removed;
        stats.reloads_forwarded += forwarded;
        stats.jumps_removed += eliminate_fallthrough_jumps(f);
    }
    stats
}

/// A frame slot directly addressed as `disp(%rbp)`.
fn as_frame_slot(m: &MemRef) -> Option<i64> {
    match (m.base, m.index, &m.symbol) {
        (Some(Gpr::Rbp), None, None) => Some(m.disp),
        _ => None,
    }
}

fn eliminate_redundant_reloads(f: &mut AsmFunction) -> (usize, usize) {
    let mut removed = 0;
    let mut forwarded = 0;
    for b in &mut f.blocks {
        // reg -> slot whose value it holds; slot -> reg holding it.
        let mut reg_holds: HashMap<Gpr, i64> = HashMap::new();
        let mut keep: Vec<AsmInst> = Vec::with_capacity(b.insts.len());
        for mut ai in b.insts.drain(..) {
            let mut drop_inst = false;
            let mut forward_to: Option<(Gpr, Gpr, i64)> = None;
            match &ai.inst {
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Mem(m),
                    dst: Operand::Reg(r),
                } if r.width == Width::W64 => {
                    if let Some(slot) = as_frame_slot(m) {
                        if reg_holds.get(&r.gpr) == Some(&slot) {
                            drop_inst = true;
                            removed += 1;
                        } else if let Some((&holder, _)) =
                            reg_holds.iter().find(|&(_, &s)| s == slot)
                        {
                            forward_to = Some((holder, r.gpr, slot));
                        } else {
                            reg_holds.insert(r.gpr, slot);
                        }
                    } else {
                        reg_holds.remove(&r.gpr);
                    }
                }
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(r),
                    dst: Operand::Mem(m),
                } if r.width == Width::W64 => {
                    if let Some(slot) = as_frame_slot(m) {
                        // The slot now holds r's value; all other register
                        // facts about this slot are stale.
                        reg_holds.retain(|_, s| *s != slot);
                        reg_holds.insert(r.gpr, slot);
                    }
                    // Indirect stores cannot alias tracked slots (frame
                    // discipline), so register facts survive.
                }
                Inst::Call { .. } => {
                    // The callee may leave anything in the registers.
                    reg_holds.clear();
                }
                other => {
                    let written = other.effects().gpr_write;
                    reg_holds.retain(|g, _| written & reg_bytes(*g) == 0);
                }
            }
            if let Some((holder, dst, slot)) = forward_to {
                // Forward: another register still holds the slot's value
                // — turn the reload into a register move.
                ai.inst = Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(holder)),
                    dst: Operand::Reg(Reg::q(dst)),
                };
                forwarded += 1;
                reg_holds.insert(dst, slot);
            }
            if !drop_inst {
                keep.push(ai);
            }
        }
        b.insts = keep;
    }
    (removed, forwarded)
}

/// Drops every block-final `jmp` to the next block in layout order.
/// The jump's edge becomes the fall-through edge, which [`Cfg::build`]
/// records once either way, so the function's CFG does not change.
///
/// [`Cfg::build`]: ferrum_asm::analysis::cfg::Cfg::build
pub(crate) fn eliminate_fallthrough_jumps(f: &mut AsmFunction) -> usize {
    let mut removed = 0;
    for (from, to) in (1..f.blocks.len()).map(|to| (to - 1, to)) {
        let next = &f.blocks[to].label;
        if matches!(f.blocks[from].insts.last(), Some(ai) if matches!(&ai.inst, Inst::Jmp { target } if target == next))
        {
            f.blocks[from].insts.pop();
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::analysis::cfg::Cfg;
    use ferrum_asm::program::{AsmBlock, AsmInst};

    use ferrum_asm::reg::Reg;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::Module;
    use ferrum_mir::types::Ty;

    fn load(slot: i64, r: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, slot)),
            dst: Operand::Reg(Reg::q(r)),
        }
    }

    fn store(r: Gpr, slot: i64) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(r)),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, slot)),
        }
    }

    fn func_of(insts: Vec<Inst>) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        let mut b = AsmBlock::new("main_bb0");
        for i in insts {
            b.insts.push(AsmInst::synthetic(i));
        }
        b.insts.push(AsmInst::synthetic(Inst::Ret));
        f.blocks.push(b);
        f
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut f = func_of(vec![store(Gpr::Rax, -8), load(-8, Gpr::Rax)]);
        let (removed, _) = eliminate_redundant_reloads(&mut f);
        assert_eq!(removed, 1);
        assert_eq!(f.blocks[0].insts.len(), 2); // store + ret
    }

    #[test]
    fn repeated_reload_removed() {
        let mut f = func_of(vec![load(-8, Gpr::Rax), load(-8, Gpr::Rax)]);
        assert_eq!(eliminate_redundant_reloads(&mut f).0, 1);
    }

    #[test]
    fn reload_into_other_register_forwards() {
        // rax holds slot -8; the reload into rcx becomes a register move.
        let mut f = func_of(vec![load(-8, Gpr::Rax), load(-8, Gpr::Rcx)]);
        let (removed, forwarded) = eliminate_redundant_reloads(&mut f);
        assert_eq!(removed, 0);
        assert_eq!(forwarded, 1);
        assert_eq!(
            f.blocks[0].insts[1].inst,
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            }
        );
        // And the forwarded copy itself becomes a tracked holder: a
        // third reload forwards from either register.
        let mut f = func_of(vec![
            load(-8, Gpr::Rax),
            load(-8, Gpr::Rcx),
            load(-8, Gpr::Rdx),
        ]);
        let (_, forwarded) = eliminate_redundant_reloads(&mut f);
        assert_eq!(forwarded, 2);
    }

    #[test]
    fn store_then_other_register_load_forwards_from_the_stored_register() {
        let mut f = func_of(vec![store(Gpr::Rax, -16), load(-16, Gpr::Rdi)]);
        let (removed, forwarded) = eliminate_redundant_reloads(&mut f);
        assert_eq!((removed, forwarded), (0, 1));
        assert_eq!(
            f.blocks[0].insts[1].inst,
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Operand::Reg(Reg::q(Gpr::Rdi)),
            }
        );
    }

    #[test]
    fn forwarding_does_not_cross_a_clobber_of_the_holder() {
        let mut f = func_of(vec![
            load(-8, Gpr::Rax),
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(9),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            load(-8, Gpr::Rcx),
        ]);
        let (removed, forwarded) = eliminate_redundant_reloads(&mut f);
        assert_eq!((removed, forwarded), (0, 0));
    }

    #[test]
    fn clobbered_register_invalidates() {
        let mut f = func_of(vec![
            load(-8, Gpr::Rax),
            Inst::Alu {
                op: ferrum_asm::inst::AluOp::Add,
                w: Width::W64,
                src: Operand::Imm(1),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            load(-8, Gpr::Rax),
        ]);
        assert_eq!(eliminate_redundant_reloads(&mut f).0, 0);
    }

    #[test]
    fn slot_overwrite_invalidates_other_holders() {
        // rax holds -8, then rcx is stored to -8; a reload of -8 into rax
        // must stay.
        let mut f = func_of(vec![
            load(-8, Gpr::Rax),
            store(Gpr::Rcx, -8),
            load(-8, Gpr::Rax),
        ]);
        assert_eq!(eliminate_redundant_reloads(&mut f).0, 0);
    }

    #[test]
    fn call_clears_all_facts() {
        let mut f = func_of(vec![
            load(-8, Gpr::Rax),
            Inst::Call {
                target: "print_i64".into(),
            },
            load(-8, Gpr::Rax),
        ]);
        assert_eq!(eliminate_redundant_reloads(&mut f).0, 0);
    }

    #[test]
    fn facts_do_not_cross_blocks() {
        let mut f = AsmFunction::new("main");
        let mut b0 = AsmBlock::new("b0");
        b0.insts.push(AsmInst::synthetic(load(-8, Gpr::Rax)));
        let mut b1 = AsmBlock::new("b1");
        b1.insts.push(AsmInst::synthetic(load(-8, Gpr::Rax)));
        b1.insts.push(AsmInst::synthetic(Inst::Ret));
        f.blocks.push(b0);
        f.blocks.push(b1);
        assert_eq!(eliminate_redundant_reloads(&mut f).0, 0);
    }

    #[test]
    fn fallthrough_jump_removed_but_real_jump_kept() {
        let mut f = AsmFunction::new("main");
        let mut b0 = AsmBlock::new("b0");
        b0.insts.push(AsmInst::synthetic(Inst::Jmp {
            target: "b1".into(),
        }));
        let mut b1 = AsmBlock::new("b1");
        b1.insts.push(AsmInst::synthetic(Inst::Jmp {
            target: "b0".into(),
        }));
        f.blocks.push(b0);
        f.blocks.push(b1);
        assert_eq!(eliminate_fallthrough_jumps(&mut f), 1);
        assert!(f.blocks[0].insts.is_empty());
        assert_eq!(f.blocks[1].insts.len(), 1);
    }

    #[test]
    fn dropping_fallthrough_jumps_keeps_the_cfg_equal_to_a_rebuild() {
        let jcc = |target: &str| Inst::Jcc {
            cc: ferrum_asm::flags::Cc::Ne,
            target: target.into(),
        };
        let jmp = |target: &str| Inst::Jmp {
            target: target.into(),
        };
        let mut f = AsmFunction::new("main");
        for (label, insts) in [
            // The jump repeats the `jcc`'s edge.
            ("b0", vec![jcc("b1"), jmp("b1")]),
            // An earlier jump already terminates the block.
            ("b1", vec![jcc("b2"), jmp("b2"), Inst::Nop, jmp("b2")]),
            ("b2", vec![jmp("b3")]),
            ("b3", vec![Inst::Ret]),
        ] {
            let mut b = AsmBlock::new(label);
            b.insts.extend(insts.into_iter().map(AsmInst::synthetic));
            f.blocks.push(b);
        }
        let cfg = Cfg::build(&f);
        assert_eq!(eliminate_fallthrough_jumps(&mut f), 3);
        let rebuilt = Cfg::build(&f);
        assert_eq!(cfg.succs, rebuilt.succs);
        assert_eq!(cfg.preds, rebuilt.preds);
        assert_eq!(cfg.succs, vec![vec![1], vec![2], vec![3], vec![]]);
    }

    #[test]
    fn preserves_program_output_on_compiled_code() {
        // Compile a small program, run the peephole, and check the
        // instruction count strictly decreases while structure stays valid.
        let mut b = FunctionBuilder::new("main", &[], None);
        let p = b.alloca(Ty::I64);
        let c = b.iconst(Ty::I64, 11);
        b.store(Ty::I64, c, p);
        let v = b.load(Ty::I64, p);
        let w = b.add(Ty::I64, v, v);
        b.print(w);
        b.ret(None);
        let m = Module::from_functions(vec![b.finish()]);
        let mut prog = crate::compile(&m).expect("compiles");
        let before = prog.static_inst_count();
        let stats = run(&mut prog);
        assert!(prog.validate().is_ok());
        assert!(prog.static_inst_count() < before);
        assert!(stats.reloads_removed > 0);
    }
}
