//! Block-level backward liveness of general-purpose registers, at
//! **byte granularity**.
//!
//! The paper invokes liveness to argue that a spare comparison register
//! "can immediately be put into new use" after the deferred check
//! (§III-B2).  We use the analysis for diagnostics, for asserting that
//! protection passes never read a dead duplicate, and — through the
//! coverage analysis — for proving individual fault sites *Masked*.
//!
//! Facts are tracked per register **byte** (16 GPRs × 8 bytes = one
//! `u128` per block) because the fault injector's site model is
//! per-byte: a flip in `%rcx` byte 5 is masked iff bytes 4–7 are never
//! read before a kill, even when `%ecx` stays hot.  Kills follow the
//! simulator's [`merge_write`](crate::reg::merge_write) semantics
//! (32-bit writes zero-extend and kill the whole register; 8/16-bit
//! writes merge and kill only the low bytes), and reads happen at the
//! instruction's access width — which is what makes the byte facts
//! strictly more precise than the old whole-register analysis without
//! losing soundness for partial defs like `sete %al` or `movslq`.

use crate::analysis::cfg::Cfg;
use crate::inst::{Effects, Inst};
use crate::program::AsmFunction;
use crate::reg::{Gpr, Width, ALL_GPRS, ARG_GPRS};

/// Byte-level register set: bit `g.index() * 8 + byte` is byte `byte`
/// of register `g` (byte 0 is the least significant).
pub type ByteSet = u128;

/// The bit for one byte of one register.
pub fn byte_bit(g: Gpr, byte: u8) -> ByteSet {
    debug_assert!(byte < 8);
    1u128 << (g.index() * 8 + usize::from(byte))
}

/// All eight bytes of `g`.
pub fn reg_bytes(g: Gpr) -> ByteSet {
    0xffu128 << (g.index() * 8)
}

/// The bytes of `g` covered by a read at width `w`.
pub fn read_bytes(g: Gpr, w: Width) -> ByteSet {
    let m: u128 = match w {
        Width::W8 => 0x01,
        Width::W16 => 0x03,
        Width::W32 => 0x0f,
        Width::W64 => 0xff,
    };
    m << (g.index() * 8)
}

/// The bytes of `g` overwritten by a write at width `w`, per
/// [`merge_write`](crate::reg::merge_write): 32-bit writes zero-extend
/// and therefore kill all eight bytes.
pub fn kill_bytes(g: Gpr, w: Width) -> ByteSet {
    let m: u128 = match w {
        Width::W8 => 0x01,
        Width::W16 => 0x03,
        Width::W32 | Width::W64 => 0xff,
    };
    m << (g.index() * 8)
}

/// The registers with at least one byte in `set`, in index order.
pub fn gprs_in(set: ByteSet) -> impl Iterator<Item = Gpr> {
    ALL_GPRS
        .into_iter()
        .filter(move |&g| set & reg_bytes(g) != 0)
}

/// All bytes of every register in `gprs`.
const fn all_bytes(gprs: &[Gpr]) -> ByteSet {
    let mut set = 0;
    let mut i = 0;
    while i < gprs.len() {
        set |= 0xff << (gprs[i] as usize * 8);
        i += 1;
    }
    set
}

/// The bytes a `call` may read under System-V: every argument
/// register, in full.
const CALL_READS: ByteSet = all_bytes(&ARG_GPRS);

/// The bytes a `call` overwrites under System-V: every caller-saved
/// register, and `%rsp`.
const CALL_KILLS: ByteSet = all_bytes(&[
    Gpr::Rax,
    Gpr::Rcx,
    Gpr::Rdx,
    Gpr::Rsi,
    Gpr::Rdi,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::Rsp,
]);

/// The register bytes one instruction reads under the System-V ABI:
/// its [`Inst::effects`] reads, except that `call` reads the argument
/// registers in full (the callee may consume any of them at any width)
/// and `ret` reads the return value in `%rax`.
pub fn inst_reads(inst: &Inst) -> ByteSet {
    abi_reads_kills(inst, &inst.effects()).0
}

/// The register bytes one instruction overwrites under the System-V
/// ABI (the kill set): its [`Inst::effects`] writes, except that
/// `call` clobbers every caller-saved register and `%rsp`.
pub fn inst_kills(inst: &Inst) -> ByteSet {
    abi_reads_kills(inst, &inst.effects()).1
}

/// [`inst_reads`] and [`inst_kills`] of `inst`, whose effects `e` the
/// caller already holds.
#[inline]
pub(crate) fn abi_reads_kills(inst: &Inst, e: &Effects) -> (ByteSet, ByteSet) {
    match inst {
        Inst::Call { .. } => (CALL_READS, CALL_KILLS),
        Inst::Ret => (reg_bytes(Gpr::Rax), e.gpr_write),
        _ => (e.gpr_read, e.gpr_write),
    }
}

/// The `(reads, kills)` of every instruction of block `bi` of `f`.
fn block_reads_kills(
    f: &AsmFunction,
    bi: usize,
) -> impl DoubleEndedIterator<Item = (ByteSet, ByteSet)> + ExactSizeIterator + '_ {
    f.blocks[bi]
        .insts
        .iter()
        .map(|ai| abi_reads_kills(&ai.inst, &ai.inst.effects()))
}

/// A block's upward-exposed reads and its kills, from the
/// `(reads, kills)` of its instructions in order.
pub(crate) fn use_def(insts: impl Iterator<Item = (ByteSet, ByteSet)>) -> (ByteSet, ByteSet) {
    insts.fold((0, 0), |(uses, defs), (reads, kills)| {
        (uses | reads & !defs, defs | kills)
    })
}

/// Overwrites `after` with the register bytes live immediately after
/// each instruction of a block, from the `(reads, kills)` of its
/// instructions and the block's live-out set: one backward sweep.
pub(crate) fn live_after(
    insts: impl DoubleEndedIterator<Item = (ByteSet, ByteSet)> + ExactSizeIterator,
    live_out: ByteSet,
    after: &mut Vec<ByteSet>,
) {
    after.clear();
    after.resize(insts.len(), 0);
    let mut live = live_out;
    for (i, (reads, kills)) in insts.enumerate().rev() {
        after[i] = live;
        live = reads | (live & !kills);
    }
}

/// Byte-granular liveness facts for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Register bytes live on entry to each block.
    pub live_in: Vec<ByteSet>,
    /// Register bytes live on exit from each block.
    pub live_out: Vec<ByteSet>,
}

impl Liveness {
    /// Computes block-level liveness for `f` using `cfg`.
    ///
    /// Calls are treated as reading the argument registers and
    /// clobbering the caller-saved set, and `ret` as reading `%rax`
    /// (the return value) — both conservative.
    pub fn compute(f: &AsmFunction, cfg: &Cfg) -> Liveness {
        let blocks: Vec<(ByteSet, ByteSet)> = (0..f.blocks.len())
            .map(|bi| use_def(block_reads_kills(f, bi)))
            .collect();
        Liveness::solve(cfg, &blocks)
    }

    /// The liveness fixpoint over `cfg`, from each block's [`use_def`]
    /// pair.
    pub(crate) fn solve(cfg: &Cfg, blocks: &[(ByteSet, ByteSet)]) -> Liveness {
        let n = blocks.len();
        let mut live_in = vec![0 as ByteSet; n];
        let mut live_out = vec![0 as ByteSet; n];
        let order = cfg.reverse_post_order();
        let mut changed = true;
        while changed {
            changed = false;
            for &bi in order.iter().rev() {
                let mut out: ByteSet = 0;
                for &s in &cfg.succs[bi] {
                    out |= live_in[s];
                }
                let (uses, defs) = blocks[bi];
                let inp = uses | (out & !defs);
                if out != live_out[bi] || inp != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inp;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// True if any byte of `g` is live on entry to block `bi`
    /// (conservative whole-register view).
    pub fn live_in_contains(&self, bi: usize, g: Gpr) -> bool {
        self.live_in[bi] & reg_bytes(g) != 0
    }

    /// True if any byte of `g` is live on exit from block `bi`
    /// (conservative whole-register view).
    pub fn live_out_contains(&self, bi: usize, g: Gpr) -> bool {
        self.live_out[bi] & reg_bytes(g) != 0
    }

    /// True if byte `byte` of `g` is live on entry to block `bi`.
    pub fn live_in_contains_byte(&self, bi: usize, g: Gpr, byte: u8) -> bool {
        self.live_in[bi] & byte_bit(g, byte) != 0
    }

    /// True if byte `byte` of `g` is live on exit from block `bi`.
    pub fn live_out_contains_byte(&self, bi: usize, g: Gpr, byte: u8) -> bool {
        self.live_out[bi] & byte_bit(g, byte) != 0
    }

    /// The register bytes live **immediately after** each instruction of
    /// block `bi` — i.e. `result[i]` is the live set at the fault
    /// injector's write-back point of instruction `i`.  Computed by one
    /// backward sweep from the block's `live_out`.
    pub fn live_after_each(&self, f: &AsmFunction, bi: usize) -> Vec<ByteSet> {
        let mut after = Vec::new();
        live_after(block_reads_kills(f, bi), self.live_out[bi], &mut after);
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cc;
    use crate::inst::{AluOp, Inst};
    use crate::operand::Operand;
    use crate::program::{AsmBlock, AsmFunction};
    use crate::provenance::Provenance;
    use crate::reg::{Reg, Width};

    fn block(label: &str, insts: Vec<Inst>) -> AsmBlock {
        let mut b = AsmBlock::new(label);
        for i in insts {
            b.push(i, Provenance::Synthetic);
        }
        b
    }

    fn mov_imm(dst: Gpr, v: i64) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Imm(v),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    fn add_rr(src: Gpr, dst: Gpr) -> Inst {
        Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    #[test]
    fn value_defined_in_pred_used_in_succ_is_live_across() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![mov_imm(Gpr::Rbx, 1)]));
        f.blocks
            .push(block("b", vec![add_rr(Gpr::Rbx, Gpr::Rax), Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_out_contains(0, Gpr::Rbx));
        assert!(lv.live_in_contains(1, Gpr::Rbx));
        // rbx defined in a, so not live-in there.
        assert!(!lv.live_in_contains(0, Gpr::Rbx));
    }

    #[test]
    fn dead_register_is_not_live() {
        let mut f = AsmFunction::new("main");
        f.blocks
            .push(block("a", vec![mov_imm(Gpr::R10, 7), Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.live_out_contains(0, Gpr::R10));
    }

    #[test]
    fn loop_keeps_induction_register_live() {
        // a: mov rbx,0 ; b: add rbx,rax; jne b ; c: ret
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![mov_imm(Gpr::Rbx, 0)]));
        f.blocks.push(block(
            "b",
            vec![
                add_rr(Gpr::Rbx, Gpr::Rax),
                Inst::Jcc {
                    cc: Cc::Ne,
                    target: "b".into(),
                },
            ],
        ));
        f.blocks.push(block("c", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_in_contains(1, Gpr::Rbx));
        assert!(lv.live_out_contains(1, Gpr::Rbx)); // back edge keeps it live
    }

    #[test]
    fn multi_block_loop_back_edge_keeps_loop_carried_register_live() {
        // pre: mov rbx,0        (loop-carried accumulator)
        // head: jcc exit
        // body: add rax,rbx     (uses + redefines rbx)
        // latch: jmp head       (back-edge)
        // exit: ret
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("pre", vec![mov_imm(Gpr::Rbx, 0)]));
        f.blocks.push(block(
            "head",
            vec![Inst::Jcc {
                cc: Cc::E,
                target: "exit".into(),
            }],
        ));
        f.blocks
            .push(block("body", vec![add_rr(Gpr::Rax, Gpr::Rbx)]));
        f.blocks.push(block(
            "latch",
            vec![Inst::Jmp {
                target: "head".into(),
            }],
        ));
        f.blocks.push(block("exit", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        // The back-edge latch -> head must carry rbx's liveness all the
        // way around the loop even though the use is two blocks away.
        assert!(lv.live_out_contains(3, Gpr::Rbx), "latch live-out");
        assert!(lv.live_in_contains(3, Gpr::Rbx), "latch live-in");
        assert!(lv.live_in_contains(1, Gpr::Rbx), "head live-in");
        assert!(lv.live_out_contains(0, Gpr::Rbx), "preheader live-out");
        // rax is read by body and by ret, so it also circulates.
        assert!(lv.live_in_contains(2, Gpr::Rax));
    }

    #[test]
    fn register_dead_after_loop_body_redefinition_each_iteration() {
        // head: jcc exit ; body: mov r10,5; add r10,rbx ; latch: jmp head
        // r10 is freshly defined every iteration, never live across the
        // back-edge.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "head",
            vec![Inst::Jcc {
                cc: Cc::E,
                target: "exit".into(),
            }],
        ));
        f.blocks.push(block(
            "body",
            vec![mov_imm(Gpr::R10, 5), add_rr(Gpr::R10, Gpr::Rbx)],
        ));
        f.blocks.push(block(
            "latch",
            vec![Inst::Jmp {
                target: "head".into(),
            }],
        ));
        f.blocks.push(block("exit", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.live_in_contains(1, Gpr::R10), "body defines r10 first");
        assert!(!lv.live_out_contains(2, Gpr::R10), "not live on back-edge");
        // But the accumulator rbx IS loop-carried.
        assert!(lv.live_out_contains(2, Gpr::Rbx));
        assert!(lv.live_in_contains(0, Gpr::Rbx));
    }

    #[test]
    fn ret_keeps_rax_live() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![mov_imm(Gpr::Rax, 3)]));
        f.blocks.push(block("b", vec![Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_in_contains(1, Gpr::Rax));
        assert!(lv.live_out_contains(0, Gpr::Rax));
    }

    #[test]
    fn call_overlay_reads_arguments_and_kills_caller_saved() {
        // The ABI view replaces a call's physical `%rsp` (and `%rdi`)
        // read with every argument register, and adds the caller-saved
        // clobber to its `%rsp` write.
        let args = reg_bytes(Gpr::Rdi)
            | reg_bytes(Gpr::Rsi)
            | reg_bytes(Gpr::Rdx)
            | reg_bytes(Gpr::Rcx)
            | reg_bytes(Gpr::R8)
            | reg_bytes(Gpr::R9);
        let clobbers = args | reg_bytes(Gpr::Rax) | reg_bytes(Gpr::R10) | reg_bytes(Gpr::R11);
        for target in ["helper", crate::PRINT_I64] {
            let call = Inst::Call {
                target: target.into(),
            };
            assert_eq!(inst_reads(&call), args, "{target}");
            assert_eq!(
                inst_kills(&call),
                clobbers | reg_bytes(Gpr::Rsp),
                "{target}"
            );
        }
    }

    #[test]
    fn ret_overlay_reads_the_return_value() {
        assert_eq!(inst_reads(&Inst::Ret), reg_bytes(Gpr::Rax));
        assert_eq!(inst_kills(&Inst::Ret), Inst::Ret.effects().gpr_write);
        assert_eq!(inst_kills(&Inst::Ret), reg_bytes(Gpr::Rsp));
    }

    #[test]
    fn every_other_instruction_is_the_table() {
        let push = Inst::Push {
            src: Operand::Reg(Reg::q(Gpr::R10)),
        };
        let setl = Inst::Setcc {
            cc: Cc::L,
            dst: Operand::Reg(Reg::b(Gpr::Rbx)),
        };
        for inst in [mov_imm(Gpr::Rbx, 1), add_rr(Gpr::Rax, Gpr::Rcx), push, setl] {
            let e = inst.effects();
            assert_eq!(
                (inst_reads(&inst), inst_kills(&inst)),
                (e.gpr_read, e.gpr_write)
            );
        }
    }

    #[test]
    fn call_clobbers_caller_saved() {
        // r10 defined before call, "used" after — but the call kills it,
        // so it is NOT live into the block before the use... we model the
        // call as defining r10, hence the use after the call sees the
        // call's def, not the earlier one.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                mov_imm(Gpr::R10, 1),
                Inst::Call {
                    target: "print_i64".into(),
                },
            ],
        ));
        f.blocks
            .push(block("b", vec![add_rr(Gpr::R10, Gpr::Rax), Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        // b needs r10 live-in...
        assert!(lv.live_in_contains(1, Gpr::R10));
        // ...but block a defines it via the call clobber, so a's live-in
        // does not include r10.
        assert!(!lv.live_in_contains(0, Gpr::R10));
    }

    // ---- byte-granularity regression tests -------------------------

    #[test]
    fn sete_partial_def_does_not_kill_upper_bytes() {
        // mov rbx, 1 ; sete %bl ; mov (store) rbx — the W8 def merges,
        // so bytes 1..8 of rbx flow from the first mov THROUGH the sete.
        // The old whole-register analysis treated sete as a full kill
        // and called rbx dead before it (unsound for byte faults).
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                mov_imm(Gpr::Rbx, 1),
                Inst::Setcc {
                    cc: Cc::E,
                    dst: Operand::Reg(Reg::b(Gpr::Rbx)),
                },
            ],
        ));
        f.blocks.push(block(
            "b",
            vec![
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(Gpr::Rbx)),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        // Upper bytes survive the sete: live out of block a's mov even
        // though byte 0 is redefined.
        for byte in 1..8 {
            assert!(
                lv.live_in_contains(0, Gpr::Rbx) || !lv.live_in_contains_byte(0, Gpr::Rbx, byte),
                "sanity"
            );
        }
        let after = lv.live_after_each(&f, 0);
        // After the first mov, ALL bytes of rbx are live (byte 0 reaches
        // the sete's merge, bytes 1..8 reach the W64 read in block b).
        for byte in 1..8 {
            assert!(
                after[0] & byte_bit(Gpr::Rbx, byte) != 0,
                "byte {byte} must survive the W8 partial def"
            );
        }
        // Whole-register wrapper agrees (conservative).
        assert!(lv.live_out_contains(0, Gpr::Rbx));
    }

    #[test]
    fn movslq_w32_read_leaves_upper_source_bytes_dead() {
        // movslq %ecx, %rax reads only bytes 0..4 of rcx: a fault in
        // rcx byte 5 before it is masked if nothing else reads rcx.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                mov_imm(Gpr::Rcx, 7),
                Inst::Movsx {
                    src_w: Width::W32,
                    dst_w: Width::W64,
                    src: Operand::Reg(Reg::l(Gpr::Rcx)),
                    dst: Reg::q(Gpr::Rax),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let after = lv.live_after_each(&f, 0);
        // After the mov that defines rcx: low four bytes live (movslq
        // reads them), high four dead.
        for byte in 0..4 {
            assert!(after[0] & byte_bit(Gpr::Rcx, byte) != 0, "low byte {byte}");
        }
        for byte in 4..8 {
            assert!(after[0] & byte_bit(Gpr::Rcx, byte) == 0, "high byte {byte}");
        }
        // The conservative whole-register view still reports rcx live.
        assert!(lv.live_in_contains(0, Gpr::Rcx) || after[0] & reg_bytes(Gpr::Rcx) != 0);
    }

    #[test]
    fn w32_write_kills_upper_bytes_by_zero_extension() {
        // mov rbx, -1 ; movl $5, %ebx ; use rbx — the W32 write
        // zero-extends, so the original upper bytes never reach the use.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                mov_imm(Gpr::Rbx, -1),
                Inst::Mov {
                    w: Width::W32,
                    src: Operand::Imm(5),
                    dst: Operand::Reg(Reg::l(Gpr::Rbx)),
                },
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(Gpr::Rbx)),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let after = lv.live_after_each(&f, 0);
        // Nothing of rbx survives past the W32 redefinition.
        assert_eq!(after[0] & reg_bytes(Gpr::Rbx), 0);
        // After the W32 write all eight bytes are live (W64 read next).
        assert_eq!(after[1] & reg_bytes(Gpr::Rbx), reg_bytes(Gpr::Rbx));
    }

    #[test]
    fn w16_write_merges_and_preserves_upper_liveness() {
        // mov rbx, imm ; movw $5, %bx ; movq %rbx, %rax — bytes 2..8
        // flow through the W16 merge; bytes 0..2 are killed by it.
        let mut f = AsmFunction::new("main");
        f.blocks.push(block(
            "a",
            vec![
                mov_imm(Gpr::Rbx, 0x1234_5678),
                Inst::Mov {
                    w: Width::W16,
                    src: Operand::Imm(5),
                    dst: Operand::Reg(Reg::gpr(Gpr::Rbx, Width::W16)),
                },
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(Gpr::Rbx)),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                },
                Inst::Ret,
            ],
        ));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let after = lv.live_after_each(&f, 0);
        for byte in 0..2 {
            assert!(
                after[0] & byte_bit(Gpr::Rbx, byte) == 0,
                "byte {byte} killed by W16 write"
            );
        }
        for byte in 2..8 {
            assert!(
                after[0] & byte_bit(Gpr::Rbx, byte) != 0,
                "byte {byte} flows through the merge"
            );
        }
    }

    #[test]
    fn live_after_each_matches_block_boundaries() {
        let mut f = AsmFunction::new("main");
        f.blocks.push(block("a", vec![mov_imm(Gpr::Rbx, 1)]));
        f.blocks
            .push(block("b", vec![add_rr(Gpr::Rbx, Gpr::Rax), Inst::Ret]));
        let cfg = Cfg::build(&f);
        let lv = Liveness::compute(&f, &cfg);
        let after_a = lv.live_after_each(&f, 0);
        // The live set after a block's last instruction is its live_out.
        assert_eq!(*after_a.last().unwrap(), lv.live_out[0]);
    }
}
