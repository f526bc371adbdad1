//! Instruction semantics.

use ferrum_asm::flags::Flags;
use ferrum_asm::inst::{AluOp, DestClass, Inst, ShiftAmount, ShiftOp, UnaryOp};
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::reg::{Gpr, Reg, Width};

use crate::image::{Image, TargetRef};
use crate::machine::RegFile;
use crate::mem::Memory;
use crate::outcome::{CrashKind, StopReason};

/// Mutable execution state.
#[derive(Debug, Clone)]
pub struct State {
    /// Register file.
    pub regs: RegFile,
    /// Memory.
    pub mem: Memory,
    /// Index of the next instruction.
    pub pc: usize,
    /// Shadow return stack (return instruction indices).
    pub call_stack: Vec<usize>,
    /// Program output.
    pub output: Vec<i64>,
}

impl State {
    /// Fresh state for an image: `%rsp` at the stack top, everything else
    /// zero.
    pub fn new(image: &Image) -> State {
        let mut regs = RegFile::new();
        regs.write64(Gpr::Rsp, crate::mem::STACK_TOP);
        State {
            regs,
            mem: Memory::new(image.globals_image.clone()),
            pc: image.entry,
            call_stack: Vec::with_capacity(16),
            output: Vec::new(),
        }
    }

    /// Effective address of a memory operand in this state (symbols are
    /// already resolved to absolute displacements at image load, so the
    /// register walk is complete).  Exposed crate-wide so the
    /// differential stepper can predict store/load targets.
    pub(crate) fn ea(&self, m: &MemRef) -> u64 {
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.regs.read64(b));
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.regs.read64(i).wrapping_mul(s.factor()));
        }
        a
    }

    fn read_op(&self, op: &Operand, w: Width) -> Result<u64, CrashKind> {
        match op {
            Operand::Reg(r) => Ok(self.regs.read(r.with_width(w))),
            Operand::Imm(v) => Ok((*v as u64) & w.mask()),
            Operand::Mem(m) => {
                let a = self.ea(m);
                self.mem
                    .load(a, w)
                    .map_err(|f| CrashKind::OutOfBounds(f.addr))
            }
        }
    }

    fn write_op(&mut self, op: &Operand, w: Width, v: u64) -> Result<(), CrashKind> {
        match op {
            Operand::Reg(r) => {
                self.regs.write(r.with_width(w), v);
                Ok(())
            }
            Operand::Imm(_) => unreachable!("immediate destination"),
            Operand::Mem(m) => {
                let a = self.ea(m);
                self.mem
                    .store(a, w, v)
                    .map_err(|f| CrashKind::OutOfBounds(f.addr))
            }
        }
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Keep going.
    Continue,
    /// The run is over.
    Stop(StopReason),
}

/// Executes the instruction at `st.pc`, advancing `st.pc`.
pub fn step(image: &Image, st: &mut State) -> StepEvent {
    let li = &image.insts[st.pc];
    let next = st.pc + 1;
    macro_rules! crash {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(k) => return StepEvent::Stop(StopReason::Crash(k)),
            }
        };
    }
    match &li.inst {
        Inst::Nop => {}
        Inst::Mov { w, src, dst } => {
            let v = crash!(st.read_op(src, *w));
            crash!(st.write_op(dst, *w, v));
        }
        Inst::Movsx {
            src_w,
            dst_w,
            src,
            dst,
        } => {
            let v = crash!(st.read_op(src, *src_w));
            let ext = src_w.sext(v) as u64;
            st.regs.write(dst.with_width(*dst_w), ext & dst_w.mask());
        }
        Inst::Movzx {
            src_w,
            dst_w,
            src,
            dst,
        } => {
            let v = crash!(st.read_op(src, *src_w));
            st.regs.write(dst.with_width(*dst_w), v & src_w.mask());
        }
        Inst::Lea { mem, dst } => {
            let a = st.ea(mem);
            st.regs.write(dst.with_width(Width::W64), a);
        }
        Inst::Alu { op, w, src, dst } => {
            let b = crash!(st.read_op(src, *w));
            let a = crash!(st.read_op(dst, *w));
            let (r, flags) = match op {
                AluOp::Add => {
                    let r = a.wrapping_add(b) & w.mask();
                    (r, Flags::from_add(a, b, *w))
                }
                AluOp::Sub => {
                    let r = a.wrapping_sub(b) & w.mask();
                    (r, Flags::from_sub(a, b, *w))
                }
                AluOp::And => {
                    let r = a & b;
                    (r, Flags::from_logic(r, *w))
                }
                AluOp::Or => {
                    let r = a | b;
                    (r, Flags::from_logic(r, *w))
                }
                AluOp::Xor => {
                    let r = a ^ b;
                    (r, Flags::from_logic(r, *w))
                }
            };
            st.regs.flags = flags;
            crash!(st.write_op(dst, *w, r));
        }
        Inst::Imul { w, src, dst } => {
            let b = crash!(st.read_op(src, *w));
            let a = st.regs.read(dst.with_width(*w));
            let full = i128::from(w.sext(a)) * i128::from(w.sext(b));
            let r = (full as u64) & w.mask();
            let overflow = full != i128::from(w.sext(r));
            let mut flags = Flags::from_logic(r, *w);
            flags.cf = overflow;
            flags.of = overflow;
            st.regs.flags = flags;
            st.regs.write(dst.with_width(*w), r);
        }
        Inst::Unary { op, w, dst } => {
            let v = crash!(st.read_op(dst, *w));
            match op {
                UnaryOp::Neg => {
                    let r = 0u64.wrapping_sub(v) & w.mask();
                    st.regs.flags = Flags::from_sub(0, v, *w);
                    crash!(st.write_op(dst, *w, r));
                }
                UnaryOp::Not => {
                    // NOT does not affect flags (x86 semantics).
                    crash!(st.write_op(dst, *w, !v & w.mask()));
                }
            }
        }
        Inst::Shift { op, w, amount, dst } => {
            let amt_mask = if *w == Width::W64 { 63 } else { 31 };
            let amt = match amount {
                ShiftAmount::Imm(n) => u32::from(*n) & amt_mask,
                ShiftAmount::Cl => (st.regs.read(Reg::b(Gpr::Rcx)) as u32) & amt_mask,
            };
            let v = crash!(st.read_op(dst, *w));
            // A zero count leaves the flags untouched but still writes
            // the destination, so a 32-bit shift clears bits 32-63.
            let r = if amt == 0 {
                v
            } else {
                let bits = w.bits();
                let (r, cf) = match op {
                    ShiftOp::Shl => {
                        let r = v.wrapping_shl(amt) & w.mask();
                        let cf = amt <= bits && (v >> (bits - amt)) & 1 == 1;
                        (r, cf)
                    }
                    ShiftOp::Shr => {
                        let r = (v & w.mask()) >> amt.min(63);
                        let cf = (v >> (amt - 1)) & 1 == 1;
                        (r, cf)
                    }
                    ShiftOp::Sar => {
                        let s = w.sext(v);
                        let r = (s >> amt.min(63) as i64) as u64 & w.mask();
                        let cf = (v >> (amt - 1)) & 1 == 1;
                        (r, cf)
                    }
                };
                let mut flags = Flags::from_logic(r, *w);
                flags.cf = cf;
                st.regs.flags = flags;
                r
            };
            crash!(st.write_op(dst, *w, r));
        }
        Inst::Cqo { w } => match w {
            Width::W64 => {
                let rax = st.regs.read64(Gpr::Rax) as i64;
                st.regs.write64(Gpr::Rdx, (rax >> 63) as u64);
            }
            _ => {
                let eax = st.regs.read(Reg::l(Gpr::Rax));
                let sign = (Width::W32.sext(eax) >> 31) as u64;
                st.regs.write(Reg::l(Gpr::Rdx), sign & Width::W32.mask());
            }
        },
        Inst::Idiv { w, src } => {
            let divisor = w.sext(crash!(st.read_op(src, *w)));
            if divisor == 0 {
                return StepEvent::Stop(StopReason::Crash(CrashKind::DivideError));
            }
            let (lo, hi) = (
                st.regs.read(Reg::gpr(Gpr::Rax, *w)),
                st.regs.read(Reg::gpr(Gpr::Rdx, *w)),
            );
            let dividend: i128 = match w {
                Width::W64 => ((i128::from(hi as i64)) << 64) | i128::from(lo),
                _ => {
                    let bits = w.bits();
                    ((i128::from(w.sext(hi))) << bits) | i128::from(lo)
                }
            };
            let quot = dividend / i128::from(divisor);
            let rem = dividend % i128::from(divisor);
            let fits = match w {
                Width::W64 => quot >= i128::from(i64::MIN) && quot <= i128::from(i64::MAX),
                _ => {
                    let half = 1i128 << (w.bits() - 1);
                    quot >= -half && quot < half
                }
            };
            if !fits {
                return StepEvent::Stop(StopReason::Crash(CrashKind::DivideError));
            }
            st.regs
                .write(Reg::gpr(Gpr::Rax, *w), quot as u64 & w.mask());
            st.regs.write(Reg::gpr(Gpr::Rdx, *w), rem as u64 & w.mask());
        }
        Inst::Cmp { w, src, dst } => {
            let b = crash!(st.read_op(src, *w));
            let a = crash!(st.read_op(dst, *w));
            st.regs.flags = Flags::from_sub(a, b, *w);
        }
        Inst::Test { w, src, dst } => {
            let b = crash!(st.read_op(src, *w));
            let a = crash!(st.read_op(dst, *w));
            st.regs.flags = Flags::from_logic(a & b, *w);
        }
        Inst::Setcc { cc, dst } => {
            let v = u64::from(cc.eval(st.regs.flags));
            crash!(st.write_op(dst, Width::W8, v));
        }
        Inst::Jmp { .. } => match li.target {
            TargetRef::Index(t) => {
                st.pc = t;
                return StepEvent::Continue;
            }
            TargetRef::Exit => return StepEvent::Stop(StopReason::Detected),
            _ => unreachable!("jmp target resolved at load"),
        },
        Inst::Jcc { cc, .. } => {
            if cc.eval(st.regs.flags) {
                match li.target {
                    TargetRef::Index(t) => {
                        st.pc = t;
                        return StepEvent::Continue;
                    }
                    TargetRef::Exit => return StepEvent::Stop(StopReason::Detected),
                    _ => unreachable!("jcc target resolved at load"),
                }
            }
        }
        Inst::Call { .. } => match li.target {
            TargetRef::Print => {
                let v = st.regs.read64(Gpr::Rdi) as i64;
                st.output.push(v);
            }
            TargetRef::Exit => return StepEvent::Stop(StopReason::Detected),
            TargetRef::Index(t) => {
                let rsp = st.regs.read64(Gpr::Rsp).wrapping_sub(8);
                if st.mem.store(rsp, Width::W64, next as u64).is_err() {
                    return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp)));
                }
                st.regs.write64(Gpr::Rsp, rsp);
                st.call_stack.push(next);
                st.pc = t;
                return StepEvent::Continue;
            }
            TargetRef::None => unreachable!("call target resolved at load"),
        },
        Inst::Ret => match st.call_stack.pop() {
            None => return StepEvent::Stop(StopReason::MainReturned),
            Some(ret) => {
                let rsp = st.regs.read64(Gpr::Rsp);
                st.regs.write64(Gpr::Rsp, rsp.wrapping_add(8));
                st.pc = ret;
                return StepEvent::Continue;
            }
        },
        Inst::Push { src } => {
            let v = crash!(st.read_op(src, Width::W64));
            let rsp = st.regs.read64(Gpr::Rsp).wrapping_sub(8);
            if st.mem.store(rsp, Width::W64, v).is_err() {
                return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp)));
            }
            st.regs.write64(Gpr::Rsp, rsp);
        }
        Inst::Pop { dst } => {
            let rsp = st.regs.read64(Gpr::Rsp);
            let v = match st.mem.load(rsp, Width::W64) {
                Ok(v) => v,
                Err(_) => return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp))),
            };
            st.regs.write64(Gpr::Rsp, rsp.wrapping_add(8));
            crash!(st.write_op(dst, Width::W64, v));
        }
        Inst::MovqToXmm { src, dst } => {
            let v = crash!(st.read_op(src, Width::W64));
            st.regs.write_xmm_movq(*dst, v);
        }
        Inst::MovqFromXmm { src, dst } => {
            let v = st.regs.read_xmm_lane(*src, 0);
            st.regs.write(dst.with_width(Width::W64), v);
        }
        Inst::Pinsrq { lane, src, dst } => {
            let v = crash!(st.read_op(src, Width::W64));
            st.regs.write_xmm_lane(*dst, *lane, v);
        }
        Inst::Pextrq { lane, src, dst } => {
            let v = st.regs.read_xmm_lane(*src, *lane);
            st.regs.write(dst.with_width(Width::W64), v);
        }
        Inst::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => {
            let low = st.regs.read_xmm(*src);
            let base = st.regs.read_ymm(*src2);
            let out = if *lane == 0 {
                [low[0], low[1], base[2], base[3]]
            } else {
                [base[0], base[1], low[0], low[1]]
            };
            st.regs.write_ymm(*dst, out);
        }
        Inst::Vpxor { a, b, dst } => {
            let x = st.regs.read_ymm(*a);
            let y = st.regs.read_ymm(*b);
            st.regs
                .write_ymm(*dst, [x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]]);
        }
        Inst::Vptest { a, b } => {
            let x = st.regs.read_ymm(*a);
            let y = st.regs.read_ymm(*b);
            let and_zero = (0..4).all(|i| x[i] & y[i] == 0);
            let andn_zero = (0..4).all(|i| !x[i] & y[i] == 0);
            st.regs.flags = Flags {
                zf: and_zero,
                cf: andn_zero,
                sf: false,
                of: false,
                pf: false,
            };
        }
        Inst::Vpxor128 { a, b, dst } => {
            let x = st.regs.read_xmm(*a);
            let y = st.regs.read_xmm(*b);
            st.regs.write_xmm_vex(*dst, [x[0] ^ y[0], x[1] ^ y[1]]);
        }
        Inst::Vptest128 { a, b } => {
            let x = st.regs.read_xmm(*a);
            let y = st.regs.read_xmm(*b);
            let and_zero = (0..2).all(|i| x[i] & y[i] == 0);
            let andn_zero = (0..2).all(|i| !x[i] & y[i] == 0);
            st.regs.flags = Flags {
                zf: and_zero,
                cf: andn_zero,
                sf: false,
                of: false,
                pf: false,
            };
        }
        Inst::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => {
            let low = st.regs.read_ymm(*src);
            let mut out = st.regs.read_zmm(*src2);
            let off = usize::from(*lane) * 4;
            out[off..off + 4].copy_from_slice(&low);
            st.regs.write_zmm(*dst, out);
        }
        Inst::Vpxor512 { a, b, dst } => {
            let x = st.regs.read_zmm(*a);
            let y = st.regs.read_zmm(*b);
            let mut out = [0u64; 8];
            for i in 0..8 {
                out[i] = x[i] ^ y[i];
            }
            st.regs.write_zmm(*dst, out);
        }
        Inst::Vptest512 { a, b } => {
            let x = st.regs.read_zmm(*a);
            let y = st.regs.read_zmm(*b);
            let and_zero = (0..8).all(|i| x[i] & y[i] == 0);
            let andn_zero = (0..8).all(|i| !x[i] & y[i] == 0);
            st.regs.flags = Flags {
                zf: and_zero,
                cf: andn_zero,
                sf: false,
                of: false,
                pf: false,
            };
        }
    }
    st.pc = next;
    StepEvent::Continue
}

/// Width (in bits) of the injectable destination of `inst`, or `None`
/// when the instruction is not an eligible fault site.
///
/// Frame registers (`%rsp`, `%rbp`) are excluded: faults there are
/// overwhelmingly crash-inducing and PIN-style samplers target data
/// destinations (see DESIGN.md).
pub fn eligible_dest_bits(inst: &Inst) -> Option<u32> {
    inst.injectable_bits()
}

/// Applies a write-back fault to the destination of `inst`.
pub fn apply_fault(inst: &Inst, raw_bit: u16, st: &mut State) {
    match inst.dest_class() {
        DestClass::Gpr(r) => {
            st.regs.flip_gpr_bit(r, u32::from(raw_bit) % r.width.bits());
        }
        DestClass::RaxRdxPair(w) => {
            let bits = w.bits();
            let sel = u32::from(raw_bit) % (2 * bits);
            let (g, bit) = if sel < bits {
                (Gpr::Rax, sel)
            } else {
                (Gpr::Rdx, sel - bits)
            };
            st.regs.flip_gpr_bit(Reg::gpr(g, w), bit);
        }
        DestClass::Rflags => {
            let bit = ferrum_asm::flags::FlagBit::ALL[usize::from(raw_bit) % 4];
            st.regs.flags.flip(bit);
        }
        DestClass::Xmm(x) => st.regs.flip_simd_bit(x.0, u32::from(raw_bit) % 128),
        DestClass::Ymm(y) => st.regs.flip_simd_bit(y.0, u32::from(raw_bit) % 256),
        DestClass::Zmm(z) => st.regs.flip_simd_bit(z.0, u32::from(raw_bit) % 512),
        DestClass::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::program::single_block_main;

    fn run_insts(insts: Vec<Inst>) -> (State, StopReason) {
        let p = single_block_main(insts);
        let image = Image::load(&p).unwrap();
        let mut st = State::new(&image);
        for _ in 0..10_000 {
            match step(&image, &mut st) {
                StepEvent::Continue => {}
                StepEvent::Stop(r) => return (st, r),
            }
        }
        panic!("did not stop");
    }

    fn mov_imm(dst: Gpr, v: i64) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Imm(v),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    #[test]
    fn mov_and_alu() {
        let (st, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 40),
            mov_imm(Gpr::Rcx, 2),
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
        ]);
        assert_eq!(stop, StopReason::MainReturned);
        assert_eq!(st.regs.read64(Gpr::Rax), 42);
    }

    #[test]
    fn print_intrinsic_captures_rdi() {
        let (st, _) = run_insts(vec![
            mov_imm(Gpr::Rdi, -9),
            Inst::Call {
                target: "print_i64".into(),
            },
        ]);
        assert_eq!(st.output, vec![-9]);
    }

    #[test]
    fn jcc_taken_and_not_taken() {
        // cmp 1,1; je exit_function → detected
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 1),
            Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(1),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::E,
                target: "exit_function".into(),
            },
        ]);
        assert_eq!(stop, StopReason::Detected);
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 1),
            Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(2),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::E,
                target: "exit_function".into(),
            },
        ]);
        assert_eq!(stop, StopReason::MainReturned);
    }

    #[test]
    fn push_pop_round_trip() {
        let (st, _) = run_insts(vec![
            mov_imm(Gpr::R10, 1234),
            Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::R10)),
            },
            mov_imm(Gpr::R10, 0),
            Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::R10)),
            },
        ]);
        assert_eq!(st.regs.read64(Gpr::R10), 1234);
        assert_eq!(st.regs.read64(Gpr::Rsp), crate::mem::STACK_TOP);
    }

    #[test]
    fn division_and_divide_error() {
        let (st, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, -7),
            Inst::Cqo { w: Width::W64 },
            mov_imm(Gpr::Rcx, 2),
            Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
        ]);
        assert_eq!(stop, StopReason::MainReturned);
        assert_eq!(st.regs.read64(Gpr::Rax) as i64, -3);
        assert_eq!(st.regs.read64(Gpr::Rdx) as i64, -1);

        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 1),
            Inst::Cqo { w: Width::W64 },
            mov_imm(Gpr::Rcx, 0),
            Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
        ]);
        assert_eq!(stop, StopReason::Crash(CrashKind::DivideError));
    }

    #[test]
    fn oob_access_crashes() {
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 0x10),
            Inst::Mov {
                w: Width::W64,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rax, 0)),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
        ]);
        assert!(matches!(
            stop,
            StopReason::Crash(CrashKind::OutOfBounds(0x10))
        ));
    }

    #[test]
    fn simd_batch_check_detects_mismatch() {
        // Build the Fig. 6 shape with an intentional mismatch in lane 3.
        let x = |n| ferrum_asm::reg::Xmm::new(n);
        let y = |n| ferrum_asm::reg::Ymm::new(n);
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 1),
            mov_imm(Gpr::Rcx, 2),
            // dup accumulators xmm0/xmm2 and orig accumulators xmm1/xmm3
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(0),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(1),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
                dst: x(0),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
                dst: x(1),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(2),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(3),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
                dst: x(2),
            },
            // MISMATCH: lane 1 of xmm3 gets rax (1) instead of rcx (2).
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(3),
            },
            Inst::Vinserti128 {
                lane: 1,
                src: x(2),
                src2: y(0),
                dst: y(0),
            },
            Inst::Vinserti128 {
                lane: 1,
                src: x(3),
                src2: y(1),
                dst: y(1),
            },
            Inst::Vpxor {
                a: y(1),
                b: y(0),
                dst: y(0),
            },
            Inst::Vptest { a: y(0), b: y(0) },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::Ne,
                target: "exit_function".into(),
            },
        ]);
        assert_eq!(stop, StopReason::Detected);
    }

    #[test]
    fn simd_batch_check_passes_when_equal() {
        let x = |n| ferrum_asm::reg::Xmm::new(n);
        let y = |n| ferrum_asm::reg::Ymm::new(n);
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 5),
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(0),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(1),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(0),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(1),
            },
            Inst::Vinserti128 {
                lane: 1,
                src: x(0),
                src2: y(0),
                dst: y(0),
            },
            Inst::Vinserti128 {
                lane: 1,
                src: x(1),
                src2: y(1),
                dst: y(1),
            },
            Inst::Vpxor {
                a: y(1),
                b: y(0),
                dst: y(0),
            },
            Inst::Vptest { a: y(0), b: y(0) },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::Ne,
                target: "exit_function".into(),
            },
        ]);
        assert_eq!(stop, StopReason::MainReturned);
    }

    #[test]
    fn vptest128_flags() {
        let x = |n| ferrum_asm::reg::Xmm::new(n);
        let (_, stop) = run_insts(vec![
            mov_imm(Gpr::Rax, 3),
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(0),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: x(1),
            },
            Inst::Vpxor128 {
                a: x(1),
                b: x(0),
                dst: x(0),
            },
            Inst::Vptest128 { a: x(0), b: x(0) },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::Ne,
                target: "exit_function".into(),
            },
        ]);
        assert_eq!(stop, StopReason::MainReturned);
    }

    #[test]
    fn zmm_batch_check_detects_and_passes() {
        use ferrum_asm::reg::{Xmm, Ymm, Zmm};
        let x = Xmm::new(0);
        let x2 = Xmm::new(2);
        let y0 = Ymm::new(0);
        let y1 = Ymm::new(1);
        let y4 = Ymm::new(4);
        let y5 = Ymm::new(5);
        let z0 = Zmm::new(0);
        let z1 = Zmm::new(1);
        // Equal 8-lane batch: dup side zmm0, orig side zmm1, all lanes 3.
        let fill = |dst: Xmm, v: i64| -> Vec<Inst> {
            vec![
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Imm(v),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                },
                Inst::MovqToXmm {
                    src: Operand::Reg(Reg::q(Gpr::Rax)),
                    dst,
                },
                Inst::Pinsrq {
                    lane: 1,
                    src: Operand::Reg(Reg::q(Gpr::Rax)),
                    dst,
                },
            ]
        };
        let mut insts = Vec::new();
        for (i, v) in [
            (0u8, 3i64),
            (1, 3),
            (2, 3),
            (3, 3),
            (4, 3),
            (5, 3),
            (6, 3),
            (7, 9),
        ] {
            insts.extend(fill(Xmm::new(i), v));
        }
        insts.extend([
            Inst::Vinserti128 {
                lane: 1,
                src: x2,
                src2: y0,
                dst: y0,
            },
            Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(3),
                src2: y1,
                dst: y1,
            },
            Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(6),
                src2: y4,
                dst: y4,
            },
            Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(7),
                src2: y5,
                dst: y5,
            },
            Inst::Vinserti64x4 {
                lane: 1,
                src: y4,
                src2: z0,
                dst: z0,
            },
            Inst::Vinserti64x4 {
                lane: 1,
                src: y5,
                src2: z1,
                dst: z1,
            },
            Inst::Vpxor512 {
                a: z1,
                b: z0,
                dst: z0,
            },
            Inst::Vptest512 { a: z0, b: z0 },
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::Ne,
                target: "exit_function".into(),
            },
        ]);
        // Lane from xmm7 (value 9) vs xmm6 (value 3) mismatch → detected.
        let (_, stop) = run_insts(insts.clone());
        assert_eq!(stop, StopReason::Detected);
        // Make them equal → passes.
        let fixed: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::Mov {
                    w,
                    src: Operand::Imm(9),
                    dst,
                } => Inst::Mov {
                    w,
                    src: Operand::Imm(3),
                    dst,
                },
                other => other,
            })
            .collect();
        let (_, stop) = run_insts(fixed);
        assert_eq!(stop, StopReason::MainReturned);
        let _ = x;
    }

    #[test]
    fn fault_application_flips_exactly_one_bit() {
        let p = single_block_main(vec![mov_imm(Gpr::Rax, 0)]);
        let image = Image::load(&p).unwrap();
        let mut st = State::new(&image);
        step(&image, &mut st);
        apply_fault(&image.insts[0].inst, 5, &mut st);
        assert_eq!(st.regs.read64(Gpr::Rax), 1 << 5);
    }

    #[test]
    fn fault_on_cmp_flips_a_flag() {
        let cmp = Inst::Cmp {
            w: Width::W64,
            src: Operand::Imm(0),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        };
        let p = single_block_main(vec![mov_imm(Gpr::Rax, 0), cmp.clone()]);
        let image = Image::load(&p).unwrap();
        let mut st = State::new(&image);
        step(&image, &mut st);
        step(&image, &mut st);
        assert!(st.regs.flags.zf);
        apply_fault(&cmp, 0, &mut st); // raw 0 → ZF
        assert!(!st.regs.flags.zf);
    }

    #[test]
    fn eligibility_rules() {
        assert_eq!(eligible_dest_bits(&mov_imm(Gpr::Rax, 0)), Some(64));
        // Frame-register destinations are not sites.
        assert_eq!(eligible_dest_bits(&mov_imm(Gpr::Rsp, 0)), None);
        assert_eq!(
            eligible_dest_bits(&Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::Rbp))
            }),
            None
        );
        // cmp targets RFLAGS.
        let cmp = Inst::Cmp {
            w: Width::W32,
            src: Operand::Imm(0),
            dst: Operand::Reg(Reg::l(Gpr::Rax)),
        };
        assert_eq!(eligible_dest_bits(&cmp), Some(4));
        // Stores and branches are not sites.
        let store = Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
        };
        assert_eq!(eligible_dest_bits(&store), None);
        assert_eq!(eligible_dest_bits(&Inst::Ret), None);
        assert_eq!(
            eligible_dest_bits(&Inst::Idiv {
                w: Width::W32,
                src: Operand::Reg(Reg::l(Gpr::Rcx))
            }),
            Some(64)
        );
    }

    #[test]
    fn sub_register_write_semantics_in_exec() {
        let (st, _) = run_insts(vec![
            mov_imm(Gpr::Rax, -1),
            Inst::Mov {
                w: Width::W32,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::l(Gpr::Rax)),
            },
        ]);
        assert_eq!(st.regs.read64(Gpr::Rax), 7); // 32-bit write zero-extends
    }

    #[test]
    fn movsx_movzx() {
        let (st, _) = run_insts(vec![
            mov_imm(Gpr::Rcx, 0xff),
            Inst::Movsx {
                src_w: Width::W8,
                dst_w: Width::W64,
                src: Operand::Reg(Reg::b(Gpr::Rcx)),
                dst: Reg::q(Gpr::Rax),
            },
            Inst::Movzx {
                src_w: Width::W8,
                dst_w: Width::W64,
                src: Operand::Reg(Reg::b(Gpr::Rcx)),
                dst: Reg::q(Gpr::Rdx),
            },
        ]);
        assert_eq!(st.regs.read64(Gpr::Rax) as i64, -1);
        assert_eq!(st.regs.read64(Gpr::Rdx), 0xff);
    }

    #[test]
    fn shift_by_zero_preserves_flags() {
        let (st, _) = run_insts(vec![
            mov_imm(Gpr::Rax, 1),
            Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(1),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Shift {
                op: ShiftOp::Shl,
                w: Width::W64,
                amount: ShiftAmount::Imm(0),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
        ]);
        assert!(st.regs.flags.zf, "zero-count shift must not clobber flags");
    }

    #[test]
    fn zero_count_32_bit_shift_still_clears_the_upper_half() {
        // The count is masked to 5 bits, so %cl = 32 is a zero count,
        // yet the 32-bit destination is written and zero-extended.
        for op in [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar] {
            for amount in [ShiftAmount::Imm(0), ShiftAmount::Cl] {
                let (st, _) = run_insts(vec![
                    mov_imm(Gpr::Rax, 0xdead_beef_0000_0011_u64 as i64),
                    mov_imm(Gpr::Rcx, 32),
                    Inst::Shift {
                        op,
                        w: Width::W32,
                        amount,
                        dst: Operand::Reg(Reg::l(Gpr::Rax)),
                    },
                ]);
                assert_eq!(st.regs.read64(Gpr::Rax), 0x11, "{op:?} {amount:?}");
            }
        }
    }
}
