//! The instruction AST and its static properties.
//!
//! The properties exposed here — destination register, flag effects,
//! registers read/written — drive the fault-site enumeration (which
//! dynamic instructions have an injectable destination) and the protection
//! passes (where checkers may be inserted without clobbering live flags).

use crate::analysis::liveness::{kill_bytes, read_bytes, reg_bytes, ByteSet};
use crate::flags::Cc;
use crate::operand::{MemRef, Operand};
use crate::program::Label;
use crate::reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm};

/// Two-operand ALU operations (`dst = dst OP src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
}

impl AluOp {
    /// AT&T mnemonic stem (width suffix appended separately).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
        }
    }
}

/// Single-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

impl UnaryOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
        }
    }
}

/// Shift operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl ShiftOp {
    /// AT&T mnemonic stem.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

/// Shift amount: an immediate or the `%cl` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftAmount {
    Imm(u8),
    Cl,
}

/// The modelled instruction set.
///
/// Operand order follows AT&T syntax: source first, destination last.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `mov{bwlq} src, dst` (at most one memory operand).
    Mov {
        w: Width,
        src: Operand,
        dst: Operand,
    },
    /// Sign-extending move, e.g. `movslq src, dst` (W32 → W64).
    Movsx {
        src_w: Width,
        dst_w: Width,
        src: Operand,
        dst: Reg,
    },
    /// Zero-extending move, e.g. `movzbl src, dst`.
    Movzx {
        src_w: Width,
        dst_w: Width,
        src: Operand,
        dst: Reg,
    },
    /// `lea mem, dst` — effective-address computation, no flags.
    Lea { mem: MemRef, dst: Reg },
    /// Two-operand ALU: `dst = dst OP src`, writes flags.
    Alu {
        op: AluOp,
        w: Width,
        src: Operand,
        dst: Operand,
    },
    /// Two-operand signed multiply: `imul src, dst` (register destination).
    Imul { w: Width, src: Operand, dst: Reg },
    /// Unary ALU on a register or memory operand, writes flags.
    Unary { op: UnaryOp, w: Width, dst: Operand },
    /// Shift by immediate or `%cl`, writes flags.
    Shift {
        op: ShiftOp,
        w: Width,
        amount: ShiftAmount,
        dst: Operand,
    },
    /// `cqo`/`cdq`: sign-extend `%rax` into `%rdx` (width of the pair).
    Cqo { w: Width },
    /// Signed divide of `rdx:rax` by `src`; quotient → `%rax`, remainder →
    /// `%rdx`.
    Idiv { w: Width, src: Operand },
    /// `cmp src, dst`: computes `dst - src`, writes only flags.
    Cmp {
        w: Width,
        src: Operand,
        dst: Operand,
    },
    /// `test src, dst`: computes `dst & src`, writes only flags.
    Test {
        w: Width,
        src: Operand,
        dst: Operand,
    },
    /// `set<cc> dst` — materialise a condition into a byte.
    Setcc { cc: Cc, dst: Operand },
    /// Unconditional jump.
    Jmp { target: Label },
    /// Conditional jump.
    Jcc { cc: Cc, target: Label },
    /// Call a function (or intrinsic) by name.
    Call { target: Label },
    /// Return from the current function.
    Ret,
    /// Push a 64-bit value.
    Push { src: Operand },
    /// Pop a 64-bit value.
    Pop { dst: Operand },
    /// `movq src, %xmmN` — move 64 bits from a GPR or memory into lane 0
    /// of an XMM register, zeroing the rest (the duplication idiom of
    /// Fig. 6 in the paper).
    MovqToXmm { src: Operand, dst: Xmm },
    /// `movq %xmmN, dst` — move lane 0 of an XMM register to a GPR.
    MovqFromXmm { src: Xmm, dst: Reg },
    /// `pinsrq $lane, src, %xmmN` — insert 64 bits into lane 0 or 1.
    Pinsrq { lane: u8, src: Operand, dst: Xmm },
    /// `pextrq $lane, %xmmN, dst` — extract 64 bits from lane 0 or 1.
    Pextrq { lane: u8, src: Xmm, dst: Reg },
    /// `vinserti128 $lane, %xmm, %ymm, %ymm` — widen two XMM halves into
    /// a YMM register.
    Vinserti128 {
        lane: u8,
        src: Xmm,
        src2: Ymm,
        dst: Ymm,
    },
    /// `vpxor %ymm, %ymm, %ymm` — 256-bit XOR (three-operand AVX form).
    Vpxor { a: Ymm, b: Ymm, dst: Ymm },
    /// `vptest %ymm, %ymm` — sets ZF if `a & b == 0` (the batched
    /// mismatch check of Fig. 6).
    Vptest { a: Ymm, b: Ymm },
    /// `vpxor %xmm, %xmm, %xmm` — 128-bit XOR (zeroes the upper YMM
    /// half, VEX semantics).  Used when a FERRUM batch flushes with two
    /// or fewer entries.
    Vpxor128 { a: Xmm, b: Xmm, dst: Xmm },
    /// `vptest %xmm, %xmm` — 128-bit mismatch test.
    Vptest128 { a: Xmm, b: Xmm },
    /// `vinserti64x4 $lane, %ymm, %zmm, %zmm` — AVX-512: widen two YMM
    /// halves into a ZMM register (the 512-bit analogue of
    /// `vinserti128`, paper §III-B3).
    Vinserti64x4 {
        lane: u8,
        src: Ymm,
        src2: Zmm,
        dst: Zmm,
    },
    /// `vpxorq %zmm, %zmm, %zmm` — 512-bit XOR.
    Vpxor512 { a: Zmm, b: Zmm, dst: Zmm },
    /// 512-bit mismatch test, modelled as a fused
    /// `vptestmq`+`kortestb` setting ZF when `a & b == 0` (AVX-512 has
    /// no direct `vptest`; the mask-register round trip is folded into
    /// one modelled instruction — see DESIGN.md).
    Vptest512 { a: Zmm, b: Zmm },
    /// No operation.
    Nop,
}

/// A byte-exact SIMD access: the register index and a mask of its
/// bytes (bit *i* is byte *i* of the 64-byte ZMM view).  A zero mask
/// is no access.
pub type SimdBytes = (u8, u64);

/// The architectural register effects of one instruction, byte-exact:
/// the one description of which register bytes an instruction reads
/// and writes.  Spare-register scanning (§III-B1) takes the registers
/// it touches, liveness and the coverage taint scan take its bytes,
/// and the decoded engine's convergence compare takes the registers it
/// writes.  It covers what *executing this one instruction* does:
/// callee effects of a `call` belong to the callee's instructions, and
/// the calling convention (argument reads, caller-saved clobbers) is
/// [`analysis::liveness`](crate::analysis::liveness)'s ABI overlay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// GPR bytes read: operands at their access width, address
    /// registers in full, and the implicit operands (`%rsp` of
    /// `push`/`pop`/`call`/`ret`, `%cl` of a variable shift,
    /// `%rax`/`%rdx` of `cqo`/`idiv`, `%rdi` of `call print_i64`).
    pub gpr_read: ByteSet,
    /// GPR bytes written, per [`merge_write`](crate::reg::merge_write):
    /// a 32-bit write zero-extends and so writes all eight bytes.
    pub gpr_write: ByteSet,
    /// The address registers of memory operands, in full (a subset of
    /// `gpr_read`).
    pub addr: ByteSet,
    /// SIMD bytes read, from at most two registers.
    pub simd_read: [SimdBytes; 2],
    /// SIMD bytes written, in at most one register.
    pub simd_write: SimdBytes,
}

impl Effects {
    /// Records a read of `op` at width `w`.
    #[inline]
    fn read(&mut self, op: &Operand, w: Width) {
        match op {
            Operand::Reg(r) => self.gpr_read |= read_bytes(r.gpr, w),
            Operand::Mem(m) => self.mem(m),
            Operand::Imm(_) => {}
        }
    }

    /// Records a write of `op` at width `w`: a register's bytes per
    /// `merge_write`, a memory operand's address registers.
    #[inline]
    fn write(&mut self, op: &Operand, w: Width) {
        match op {
            Operand::Reg(r) => self.gpr_write |= kill_bytes(r.gpr, w),
            Operand::Mem(m) => self.mem(m),
            Operand::Imm(_) => {}
        }
    }

    /// Records the address registers of `m`, read in full.
    #[inline]
    fn mem(&mut self, m: &MemRef) {
        for g in m.regs_read() {
            self.addr |= reg_bytes(g);
        }
        self.gpr_read |= self.addr;
    }

    /// Records the implicit `%rsp` update of a stack instruction.
    #[inline]
    fn stack(&mut self) {
        self.gpr_read |= reg_bytes(Gpr::Rsp);
        self.gpr_write |= reg_bytes(Gpr::Rsp);
    }
}

/// Architectural destination written by an instruction, as seen by the
/// fault injector ("destination register" in §IV-A2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DestClass {
    /// A general-purpose register view.
    Gpr(Reg),
    /// Both `%rax` and `%rdx` (division); the injector picks one.
    RaxRdxPair(Width),
    /// The RFLAGS register (`cmp`/`test`/`vptest`).
    Rflags,
    /// An XMM register (128 bits).
    Xmm(Xmm),
    /// A YMM register (256 bits).
    Ymm(Ymm),
    /// A ZMM register (512 bits).
    Zmm(Zmm),
    /// No injectable destination (stores, branches, pushes, ...).
    None,
}

impl DestClass {
    /// [`Inst::injectable_bits`] of an instruction with this
    /// destination.
    #[inline]
    pub fn injectable_bits(self) -> Option<u32> {
        match self {
            DestClass::Gpr(r) if !r.gpr.is_frame() => Some(r.width.bits()),
            DestClass::Gpr(_) => None,
            DestClass::RaxRdxPair(w) => Some(2 * w.bits()),
            DestClass::Rflags => Some(4),
            DestClass::Xmm(_) => Some(128),
            DestClass::Ymm(_) => Some(256),
            DestClass::Zmm(_) => Some(512),
            DestClass::None => None,
        }
    }
}

impl Inst {
    /// The destination the fault injector may corrupt after this
    /// instruction writes back.
    ///
    /// Memory destinations report [`DestClass::None`]: the fault model
    /// assumes ECC-protected memory (§II-A).  Stack-pointer side effects
    /// of `push`/`pop`/`call`/`ret` are likewise excluded — stack-pointer
    /// corruption almost always crashes rather than silently corrupting
    /// data, and PIN-based injectors target the explicit destination.
    pub fn dest_class(&self) -> DestClass {
        match self {
            Inst::Mov { w, dst, .. } | Inst::Alu { w, dst, .. } => match dst {
                Operand::Reg(r) => DestClass::Gpr(r.with_width(*w)),
                _ => DestClass::None,
            },
            Inst::Movsx { dst_w, dst, .. } | Inst::Movzx { dst_w, dst, .. } => {
                DestClass::Gpr(dst.with_width(*dst_w))
            }
            Inst::Lea { dst, .. } => DestClass::Gpr(dst.with_width(Width::W64)),
            Inst::Imul { w, dst, .. } => DestClass::Gpr(dst.with_width(*w)),
            Inst::Unary { w, dst, .. } | Inst::Shift { w, dst, .. } => match dst {
                Operand::Reg(r) => DestClass::Gpr(r.with_width(*w)),
                _ => DestClass::None,
            },
            Inst::Cqo { w } => DestClass::Gpr(Reg::gpr(Gpr::Rdx, *w)),
            Inst::Idiv { w, .. } => DestClass::RaxRdxPair(*w),
            Inst::Cmp { .. }
            | Inst::Test { .. }
            | Inst::Vptest { .. }
            | Inst::Vptest128 { .. }
            | Inst::Vptest512 { .. } => DestClass::Rflags,
            Inst::Setcc { dst, .. } => match dst {
                Operand::Reg(r) => DestClass::Gpr(r.with_width(Width::W8)),
                _ => DestClass::None,
            },
            Inst::Pop { dst } => match dst {
                Operand::Reg(r) => DestClass::Gpr(r.with_width(Width::W64)),
                _ => DestClass::None,
            },
            Inst::MovqFromXmm { dst, .. } | Inst::Pextrq { dst, .. } => {
                DestClass::Gpr(dst.with_width(Width::W64))
            }
            Inst::MovqToXmm { dst, .. } | Inst::Pinsrq { dst, .. } | Inst::Vpxor128 { dst, .. } => {
                DestClass::Xmm(*dst)
            }
            Inst::Vinserti128 { dst, .. } | Inst::Vpxor { dst, .. } => DestClass::Ymm(*dst),
            Inst::Vinserti64x4 { dst, .. } | Inst::Vpxor512 { dst, .. } => DestClass::Zmm(*dst),
            Inst::Jmp { .. }
            | Inst::Jcc { .. }
            | Inst::Call { .. }
            | Inst::Ret
            | Inst::Push { .. }
            | Inst::Nop => DestClass::None,
        }
    }

    /// Width in bits of the injectable fault destination, or `None` when
    /// the instruction is not an eligible fault site.
    ///
    /// Frame-register (`%rsp`/`%rbp`) destinations are excluded: faults
    /// there are overwhelmingly crash-inducing, and PIN-style samplers
    /// target data destinations (see the fault-model discussion in
    /// DESIGN.md).  The protection passes and the fault injector share
    /// this single definition, which is what makes the 100%-coverage
    /// claim checkable.
    pub fn injectable_bits(&self) -> Option<u32> {
        self.dest_class().injectable_bits()
    }

    /// The general-purpose register written, if any (convenience over
    /// [`Inst::dest_class`]).
    pub fn dest_gpr(&self) -> Option<Reg> {
        match self.dest_class() {
            DestClass::Gpr(r) => Some(r),
            _ => None,
        }
    }

    /// True if executing this instruction overwrites RFLAGS.
    pub fn writes_flags(&self) -> bool {
        matches!(
            self,
            Inst::Alu { .. }
                | Inst::Imul { .. }
                | Inst::Unary { .. }
                | Inst::Shift { .. }
                | Inst::Cmp { .. }
                | Inst::Test { .. }
                | Inst::Vptest { .. }
                | Inst::Vptest128 { .. }
                | Inst::Vptest512 { .. }
        )
    }

    /// True if this instruction reads RFLAGS.
    pub fn reads_flags(&self) -> bool {
        matches!(self, Inst::Jcc { .. } | Inst::Setcc { .. })
    }

    /// True if this instruction ends a basic block (terminator).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jmp { .. } | Inst::Ret)
    }

    /// True for control-transfer instructions of any kind.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } | Inst::Ret
        )
    }

    /// The branch/call target label, if any.
    pub fn target(&self) -> Option<&Label> {
        match self {
            Inst::Jmp { target } | Inst::Jcc { target, .. } | Inst::Call { target } => Some(target),
            _ => None,
        }
    }

    /// What executing this instruction architecturally reads and
    /// writes, byte-exact (see [`Effects`]).
    // Always inlined, so that a caller reading one field — liveness's
    // `inst_reads`/`inst_kills` on the `-O1` hot path — computes only
    // that field.
    #[inline(always)]
    pub fn effects(&self) -> Effects {
        const X: u64 = 0xffff; // 16 bytes
        const Y: u64 = 0xffff_ffff; // 32 bytes
        const Z: u64 = u64::MAX; // 64 bytes
        let mut e = Effects::default();
        match self {
            Inst::Mov { w, src, dst } => {
                e.read(src, *w);
                e.write(dst, *w);
            }
            Inst::Movsx {
                src_w,
                dst_w,
                src,
                dst,
            }
            | Inst::Movzx {
                src_w,
                dst_w,
                src,
                dst,
            } => {
                e.read(src, *src_w);
                e.gpr_write |= kill_bytes(dst.gpr, *dst_w);
            }
            Inst::Lea { mem, dst } => {
                e.mem(mem);
                e.gpr_write |= kill_bytes(dst.gpr, Width::W64);
            }
            Inst::Alu { w, src, dst, .. } => {
                e.read(src, *w);
                e.read(dst, *w);
                e.write(dst, *w);
            }
            Inst::Cmp { w, src, dst } | Inst::Test { w, src, dst } => {
                e.read(src, *w);
                e.read(dst, *w);
            }
            Inst::Imul { w, src, dst } => {
                e.read(src, *w);
                e.gpr_read |= read_bytes(dst.gpr, *w);
                e.gpr_write |= kill_bytes(dst.gpr, *w);
            }
            Inst::Unary { w, dst, .. } => {
                e.read(dst, *w);
                e.write(dst, *w);
            }
            Inst::Shift { w, amount, dst, .. } => {
                if matches!(amount, ShiftAmount::Cl) {
                    e.gpr_read |= read_bytes(Gpr::Rcx, Width::W8);
                }
                e.read(dst, *w);
                e.write(dst, *w);
            }
            Inst::Cqo { w } => {
                e.gpr_read |= read_bytes(Gpr::Rax, *w);
                e.gpr_write |= kill_bytes(Gpr::Rdx, *w);
            }
            Inst::Idiv { w, src } => {
                e.gpr_read |= read_bytes(Gpr::Rax, *w) | read_bytes(Gpr::Rdx, *w);
                e.read(src, *w);
                e.gpr_write |= kill_bytes(Gpr::Rax, *w) | kill_bytes(Gpr::Rdx, *w);
            }
            Inst::Setcc { dst, .. } => e.write(dst, Width::W8),
            Inst::Push { src } => {
                e.read(src, Width::W64);
                e.stack();
            }
            Inst::Pop { dst } => {
                e.write(dst, Width::W64);
                e.stack();
            }
            // A real call pushes the return address through `%rsp`; the
            // print intrinsic reads its argument from `%rdi`.
            Inst::Call { target } => {
                if target == crate::PRINT_I64 {
                    e.gpr_read |= reg_bytes(Gpr::Rdi);
                }
                e.stack();
            }
            Inst::Ret => e.stack(),
            // `movq` writes lane 0 and zeroes lane 1; the upper lanes
            // keep their value.
            Inst::MovqToXmm { src, dst } => {
                e.read(src, Width::W64);
                e.simd_write = (dst.0, X);
            }
            Inst::MovqFromXmm { src, dst } => {
                e.simd_read[0] = (src.0, 0xff);
                e.gpr_write |= kill_bytes(dst.gpr, Width::W64);
            }
            // `pinsrq` writes only its lane, so it reads nothing of its
            // destination: the other lanes pass through unchanged.
            Inst::Pinsrq { lane, src, dst } => {
                e.read(src, Width::W64);
                e.simd_write = (dst.0, 0xff << (8 * lane));
            }
            Inst::Pextrq { lane, src, dst } => {
                e.simd_read[0] = (src.0, 0xff << (8 * lane));
                e.gpr_write |= kill_bytes(dst.gpr, Width::W64);
            }
            // A VEX-encoded write zeroes every byte above its width.
            Inst::Vinserti128 { src, src2, dst, .. } => {
                e.simd_read = [(src.0, X), (src2.0, Y)];
                e.simd_write = (dst.0, Z);
            }
            Inst::Vpxor { a, b, dst } => {
                e.simd_read = [(a.0, Y), (b.0, Y)];
                e.simd_write = (dst.0, Z);
            }
            Inst::Vptest { a, b } => e.simd_read = [(a.0, Y), (b.0, Y)],
            Inst::Vpxor128 { a, b, dst } => {
                e.simd_read = [(a.0, X), (b.0, X)];
                e.simd_write = (dst.0, Z);
            }
            Inst::Vptest128 { a, b } => e.simd_read = [(a.0, X), (b.0, X)],
            Inst::Vinserti64x4 { src, src2, dst, .. } => {
                e.simd_read = [(src.0, Y), (src2.0, Z)];
                e.simd_write = (dst.0, Z);
            }
            Inst::Vpxor512 { a, b, dst } => {
                e.simd_read = [(a.0, Z), (b.0, Z)];
                e.simd_write = (dst.0, Z);
            }
            Inst::Vptest512 { a, b } => e.simd_read = [(a.0, Z), (b.0, Z)],
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Nop => {}
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::liveness::byte_bit;
    use crate::operand::{MemRef, Scale};

    fn mov_rr(src: Gpr, dst: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    const X: u64 = 0xffff;
    const Y: u64 = 0xffff_ffff;
    const NO_SIMD: [SimdBytes; 2] = [(0, 0); 2];

    /// GPR-only effects.
    fn gpr(gpr_read: ByteSet, gpr_write: ByteSet, addr: ByteSet) -> Effects {
        Effects {
            gpr_read,
            gpr_write,
            addr,
            ..Effects::default()
        }
    }

    /// SIMD-only effects.
    fn simd(simd_read: [SimdBytes; 2], simd_write: SimdBytes) -> Effects {
        Effects {
            simd_read,
            simd_write,
            ..Effects::default()
        }
    }

    #[test]
    fn dest_class_of_register_mov() {
        assert_eq!(
            mov_rr(Gpr::Rax, Gpr::Rcx).dest_class(),
            DestClass::Gpr(Reg::q(Gpr::Rcx))
        );
    }

    #[test]
    fn dest_class_of_store_is_none() {
        let store = Inst::Mov {
            w: Width::W32,
            src: Operand::Reg(Reg::l(Gpr::Rax)),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
        };
        assert_eq!(store.dest_class(), DestClass::None);
        let rbp = reg_bytes(Gpr::Rbp);
        let eax = read_bytes(Gpr::Rax, Width::W32);
        assert_eq!(store.effects(), gpr(eax | rbp, 0, rbp));
    }

    #[test]
    fn cmp_and_test_target_rflags() {
        let cmp = Inst::Cmp {
            w: Width::W32,
            src: Operand::Imm(0),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -4)),
        };
        assert_eq!(cmp.dest_class(), DestClass::Rflags);
        assert!(cmp.writes_flags());
        assert!(!cmp.reads_flags());
    }

    #[test]
    fn idiv_writes_both_halves() {
        let idiv = Inst::Idiv {
            w: Width::W32,
            src: Operand::Reg(Reg::l(Gpr::Rcx)),
        };
        assert_eq!(idiv.dest_class(), DestClass::RaxRdxPair(Width::W32));
        let reads = [Gpr::Rax, Gpr::Rdx, Gpr::Rcx].map(|g| read_bytes(g, Width::W32));
        // A 32-bit write zero-extends: all eight bytes of each half.
        let writes = reg_bytes(Gpr::Rax) | reg_bytes(Gpr::Rdx);
        assert_eq!(idiv.effects(), gpr(reads.into_iter().sum(), writes, 0));
    }

    #[test]
    fn setcc_reads_flags_writes_byte() {
        let s = Inst::Setcc {
            cc: Cc::E,
            dst: Operand::Reg(Reg::b(Gpr::R11)),
        };
        assert!(s.reads_flags());
        assert_eq!(s.dest_class(), DestClass::Gpr(Reg::b(Gpr::R11)));
        assert_eq!(s.effects(), gpr(0, byte_bit(Gpr::R11, 0), 0));
    }

    #[test]
    fn push_pop_track_rsp() {
        let rsp = reg_bytes(Gpr::Rsp);
        let r10 = reg_bytes(Gpr::R10);
        let push = Inst::Push {
            src: Operand::Reg(Reg::q(Gpr::R10)),
        };
        assert_eq!(push.dest_class(), DestClass::None);
        assert_eq!(push.effects(), gpr(r10 | rsp, rsp, 0));
        let pop = Inst::Pop {
            dst: Operand::Reg(Reg::q(Gpr::R10)),
        };
        assert_eq!(pop.dest_class(), DestClass::Gpr(Reg::q(Gpr::R10)));
        assert_eq!(pop.effects(), gpr(rsp, r10 | rsp, 0));
        // A stack slot's address is no memory operand.
        let pop_mem = Inst::Pop {
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
        };
        let rbp = reg_bytes(Gpr::Rbp);
        assert_eq!(pop_mem.effects(), gpr(rbp | rsp, rsp, rbp));
    }

    #[test]
    fn memory_operand_address_registers_are_read() {
        let load = Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::indexed(Gpr::Rax, Gpr::Rcx, Scale::S8, 8)),
            dst: Operand::Reg(Reg::q(Gpr::Rdx)),
        };
        let addr = reg_bytes(Gpr::Rax) | reg_bytes(Gpr::Rcx);
        assert_eq!(load.effects(), gpr(addr, reg_bytes(Gpr::Rdx), addr));
        // `lea` computes an address without accessing memory; its
        // registers still count as address registers.
        let lea = Inst::Lea {
            mem: MemRef::indexed(Gpr::Rax, Gpr::Rcx, Scale::S8, 8),
            dst: Reg::q(Gpr::Rdx),
        };
        assert_eq!(lea.effects(), load.effects());
    }

    #[test]
    fn alu_reads_its_destination() {
        let add = Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rbx)),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        };
        let rax = reg_bytes(Gpr::Rax);
        assert_eq!(add.effects(), gpr(rax | reg_bytes(Gpr::Rbx), rax, 0));
        assert!(add.writes_flags());
    }

    #[test]
    fn reads_are_at_access_width_and_writes_per_merge_write() {
        // movslq %ecx, %rax: four bytes read, eight written.
        let movslq = Inst::Movsx {
            src_w: Width::W32,
            dst_w: Width::W64,
            src: Operand::Reg(Reg::l(Gpr::Rcx)),
            dst: Reg::q(Gpr::Rax),
        };
        let ecx = read_bytes(Gpr::Rcx, Width::W32);
        assert_eq!(movslq.effects(), gpr(ecx, reg_bytes(Gpr::Rax), 0));
        // movw $5, %bx merges into the low two bytes.
        let movw = Inst::Mov {
            w: Width::W16,
            src: Operand::Imm(5),
            dst: Operand::Reg(Reg::gpr(Gpr::Rbx, Width::W16)),
        };
        assert_eq!(movw.effects(), gpr(0, read_bytes(Gpr::Rbx, Width::W16), 0));
        // movl $5, %ebx zero-extends into all eight.
        let movl = Inst::Mov {
            w: Width::W32,
            src: Operand::Imm(5),
            dst: Operand::Reg(Reg::l(Gpr::Rbx)),
        };
        assert_eq!(movl.effects(), gpr(0, reg_bytes(Gpr::Rbx), 0));
    }

    #[test]
    fn simd_reads_and_writes() {
        let ins = Inst::Vinserti128 {
            lane: 1,
            src: Xmm::new(2),
            src2: Ymm::new(0),
            dst: Ymm::new(0),
        };
        // VEX.256 zeroes the upper half of the ZMM register.
        assert_eq!(ins.effects(), simd([(2, X), (0, Y)], (0, u64::MAX)));
        let x = Inst::Vpxor {
            a: Ymm::new(1),
            b: Ymm::new(0),
            dst: Ymm::new(0),
        };
        assert_eq!(x.effects(), simd([(1, Y), (0, Y)], (0, u64::MAX)));
        let t = Inst::Vptest {
            a: Ymm::new(0),
            b: Ymm::new(0),
        };
        assert!(t.writes_flags());
        assert_eq!(t.dest_class(), DestClass::Rflags);
        assert_eq!(t.effects(), simd([(0, Y), (0, Y)], (0, 0)));
        // `pinsrq` writes its lane and reads nothing of its destination.
        let pinsr = Inst::Pinsrq {
            lane: 1,
            src: Operand::Reg(Reg::q(Gpr::Rdi)),
            dst: Xmm::new(1),
        };
        let rdi = Effects {
            gpr_read: reg_bytes(Gpr::Rdi),
            ..simd(NO_SIMD, (1, 0xff00))
        };
        assert_eq!(pinsr.effects(), rdi);
        // `movq` zeroes lane 1 and keeps the upper lanes.
        let movq = Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rdi)),
            dst: Xmm::new(1),
        };
        assert_eq!(
            movq.effects(),
            Effects {
                simd_write: (1, X),
                ..rdi
            }
        );
        let pextr = Inst::Pextrq {
            lane: 1,
            src: Xmm::new(3),
            dst: Reg::q(Gpr::Rax),
        };
        let rax = gpr(0, reg_bytes(Gpr::Rax), 0);
        assert_eq!(
            pextr.effects(),
            Effects {
                simd_read: [(3, 0xff00), (0, 0)],
                ..rax
            }
        );
        let z = Inst::Vpxor128 {
            a: Xmm::new(1),
            b: Xmm::new(2),
            dst: Xmm::new(3),
        };
        assert_eq!(z.effects(), simd([(1, X), (2, X)], (3, u64::MAX)));
    }

    #[test]
    fn control_flow_properties() {
        let jmp = Inst::Jmp {
            target: "bb1".into(),
        };
        assert!(jmp.is_terminator() && jmp.is_control());
        assert_eq!(jmp.target().map(String::as_str), Some("bb1"));
        assert_eq!(jmp.effects(), Effects::default());
        let jcc = Inst::Jcc {
            cc: Cc::Ne,
            target: "exit".into(),
        };
        assert!(!jcc.is_terminator());
        assert!(jcc.is_control() && jcc.reads_flags());
        assert!(Inst::Ret.is_terminator());
        assert_eq!(Inst::Ret.target(), None);
    }

    #[test]
    fn call_print_reads_rdi_and_rsp() {
        let rsp = reg_bytes(Gpr::Rsp);
        let print = Inst::Call {
            target: crate::PRINT_I64.into(),
        };
        assert_eq!(print.effects(), gpr(reg_bytes(Gpr::Rdi) | rsp, rsp, 0));
        // A plain function call only touches the stack pointer; the
        // calling convention is liveness's overlay.
        let call = Inst::Call {
            target: "helper".into(),
        };
        assert_eq!(call.effects(), gpr(rsp, rsp, 0));
        // `ret` pops through the stack pointer.
        assert_eq!(Inst::Ret.effects(), gpr(rsp, rsp, 0));
    }

    #[test]
    fn address_registers_are_read_in_full() {
        // Every memory operand's registers are in `addr`, and `addr`
        // is part of the reads, for every operand position.
        let m = Operand::Mem(MemRef::indexed(Gpr::R8, Gpr::R9, Scale::S4, 0));
        let r = Operand::Reg(Reg::l(Gpr::Rax));
        let zoo = [
            Inst::Mov {
                w: Width::W32,
                src: m.clone(),
                dst: r.clone(),
            },
            Inst::Mov {
                w: Width::W32,
                src: r.clone(),
                dst: m.clone(),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W32,
                src: r.clone(),
                dst: m.clone(),
            },
            Inst::Cmp {
                w: Width::W32,
                src: m.clone(),
                dst: r.clone(),
            },
            Inst::Test {
                w: Width::W32,
                src: r.clone(),
                dst: m.clone(),
            },
            Inst::Imul {
                w: Width::W32,
                src: m.clone(),
                dst: Reg::l(Gpr::Rax),
            },
            Inst::Idiv {
                w: Width::W32,
                src: m.clone(),
            },
            Inst::Unary {
                op: UnaryOp::Neg,
                w: Width::W32,
                dst: m.clone(),
            },
            Inst::Shift {
                op: ShiftOp::Sar,
                w: Width::W32,
                amount: ShiftAmount::Imm(3),
                dst: m.clone(),
            },
            Inst::Setcc {
                cc: Cc::E,
                dst: m.clone(),
            },
            Inst::Push { src: m.clone() },
            Inst::Pop { dst: m.clone() },
            Inst::MovqToXmm {
                src: m.clone(),
                dst: Xmm::new(0),
            },
            Inst::Pinsrq {
                lane: 0,
                src: m.clone(),
                dst: Xmm::new(0),
            },
        ];
        let addr = reg_bytes(Gpr::R8) | reg_bytes(Gpr::R9);
        for inst in &zoo {
            let e = inst.effects();
            assert_eq!(e.addr, addr, "{inst:?}");
            assert_eq!(e.gpr_read & addr, addr, "{inst:?}");
        }
    }

    #[test]
    fn shift_by_cl_reads_cl() {
        let s = Inst::Shift {
            op: ShiftOp::Shl,
            w: Width::W64,
            amount: ShiftAmount::Cl,
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        };
        let rax = reg_bytes(Gpr::Rax);
        assert_eq!(s.effects(), gpr(byte_bit(Gpr::Rcx, 0) | rax, rax, 0));
    }
}
