//! Instruction selection and lowering.

use std::fmt;

use ferrum_asm::flags::Cc;
use ferrum_asm::inst::{AluOp, Inst, ShiftAmount, ShiftOp};
use ferrum_asm::operand::{MemRef, Operand, Scale};
use ferrum_asm::program::{AsmBlock, AsmFunction, AsmProgram, DataObject};
use ferrum_asm::provenance::{GlueKind, Provenance};
use ferrum_asm::reg::{Gpr, Reg, Width, ARG_GPRS};
use ferrum_mir::func::Function;
use ferrum_mir::inst::{BinOp, ICmpPred, InstId, MirInst};
use ferrum_mir::module::Module;
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;

use crate::frame::{Frame, SlotKind};
use crate::opt::{optimize, OptLevel, PassStats, ProgramMeta};
use crate::regalloc::{allocate, Allocation};

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The module failed MIR verification; run
    /// [`ferrum_mir::verify::verify_module`] for details.
    InvalidModule(String),
    /// More call arguments than argument registers.
    TooManyArgs { function: String, callee: String },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidModule(m) => write!(f, "invalid module: {m}"),
            CompileError::TooManyArgs { function, callee } => {
                write!(
                    f,
                    "call to `{callee}` in `{function}` exceeds 6 register arguments"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a verified MIR module to assembly.
///
/// # Errors
///
/// Returns [`CompileError::InvalidModule`] if the module does not verify,
/// or [`CompileError::TooManyArgs`] for calls with more than six
/// arguments.
pub fn compile(m: &Module) -> Result<AsmProgram, CompileError> {
    compile_opt(m, OptLevel::O0)
}

/// Compiles at the requested optimization level.  `OptLevel::O0` is
/// byte-identical to [`compile`]; `OptLevel::O1` runs linear-scan
/// register allocation during lowering and the assembly pass bundle
/// ([`crate::opt`]) afterwards.
///
/// # Errors
///
/// Same conditions as [`compile`].
pub fn compile_opt(m: &Module, opt: OptLevel) -> Result<AsmProgram, CompileError> {
    compile_with_stats(m, opt).map(|(p, _)| p)
}

/// [`compile_opt`] plus the per-pass statistics of the `-O1` pipeline
/// (all-zero at `-O0`).
///
/// # Errors
///
/// Same conditions as [`compile`].
pub fn compile_with_stats(
    m: &Module,
    opt: OptLevel,
) -> Result<(AsmProgram, PassStats), CompileError> {
    if let Err(errs) = ferrum_mir::verify::verify_module(m) {
        return Err(CompileError::InvalidModule(
            errs.first().map(ToString::to_string).unwrap_or_default(),
        ));
    }
    let mut prog = AsmProgram::new();
    for g in &m.globals {
        prog.data
            .push(DataObject::new(g.name.clone(), g.words.clone()));
    }
    let mut stats = PassStats::default();
    for f in &m.functions {
        let alloc = match opt {
            OptLevel::O0 => None,
            OptLevel::O1 => Some(allocate(f)),
        };
        if let Some(a) = &alloc {
            stats.regalloc_candidates += a.candidates;
            stats.regalloc_allocated += a.allocated;
        }
        prog.functions.push(lower_function(m, f, alloc.as_ref())?);
    }
    if opt == OptLevel::O1 {
        let meta = ProgramMeta::from_module(m);
        stats.absorb(&optimize(&mut prog, &meta));
    }
    Ok((prog, stats))
}

/// Width at which a MIR type's arithmetic executes.
fn width_of(ty: Ty) -> Width {
    match ty {
        Ty::I32 => Width::W32,
        _ => Width::W64,
    }
}

/// Maps an icmp predicate to an x86 condition code.
pub fn pred_to_cc(pred: ICmpPred) -> Cc {
    match pred {
        ICmpPred::Eq => Cc::E,
        ICmpPred::Ne => Cc::Ne,
        ICmpPred::Slt => Cc::L,
        ICmpPred::Sle => Cc::Le,
        ICmpPred::Sgt => Cc::G,
        ICmpPred::Sge => Cc::Ge,
        ICmpPred::Ult => Cc::B,
        ICmpPred::Ule => Cc::Be,
        ICmpPred::Ugt => Cc::A,
        ICmpPred::Uge => Cc::Ae,
    }
}

struct Lowerer<'a> {
    m: &'a Module,
    f: &'a Function,
    frame: Frame,
    /// `-O1` register assignment; `None` reproduces the naive `-O0`
    /// slot-per-value lowering byte for byte.
    alloc: Option<&'a Allocation>,
    out: AsmFunction,
    cur: usize,
}

impl<'a> Lowerer<'a> {
    fn emit(&mut self, inst: Inst, prov: Provenance) {
        self.out.blocks[self.cur].push(inst, prov);
    }

    fn slot_mem(&self, off: i64) -> MemRef {
        MemRef::base_disp(Gpr::Rbp, off)
    }

    /// Loads `v` into the 64-bit view of `reg` (canonical sign-extended
    /// representation).
    fn fetch(&mut self, v: &Value, reg: Gpr, prov: Provenance) {
        match v {
            Value::Const(_, c) => self.emit(
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Imm(*c),
                    dst: Operand::Reg(Reg::q(reg)),
                },
                prov,
            ),
            Value::Arg(i) => {
                let off = self.frame.arg_offset(*i);
                self.emit(
                    Inst::Mov {
                        w: Width::W64,
                        src: Operand::Mem(self.slot_mem(off)),
                        dst: Operand::Reg(Reg::q(reg)),
                    },
                    prov,
                );
            }
            Value::Inst(id) => {
                if let Some(r) = self.alloc.and_then(|a| a.reg(*id)) {
                    if r != reg {
                        self.emit(
                            Inst::Mov {
                                w: Width::W64,
                                src: Operand::Reg(Reg::q(r)),
                                dst: Operand::Reg(Reg::q(reg)),
                            },
                            prov,
                        );
                    }
                    return;
                }
                match self.frame.slot(*id) {
                    SlotKind::Result(off) => self.emit(
                        Inst::Mov {
                            w: Width::W64,
                            src: Operand::Mem(self.slot_mem(off)),
                            dst: Operand::Reg(Reg::q(reg)),
                        },
                        prov,
                    ),
                    SlotKind::AllocaBase(off) => self.emit(
                        Inst::Lea {
                            mem: self.slot_mem(off),
                            dst: Reg::q(reg),
                        },
                        prov,
                    ),
                }
            }
            Value::Global(g) => {
                let name = &self.m.globals[g.index()].name;
                self.emit(
                    Inst::Lea {
                        mem: MemRef::global(name.clone(), 0),
                        dst: Reg::q(reg),
                    },
                    prov,
                );
            }
        }
    }

    /// Spills the 64-bit view of `reg` into `id`'s home: its assigned
    /// register at `-O1`, its result slot otherwise.
    fn spill(&mut self, id: InstId, reg: Gpr, prov: Provenance) {
        if let Some(r) = self.alloc.and_then(|a| a.reg(id)) {
            if r != reg {
                self.emit(
                    Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(reg)),
                        dst: Operand::Reg(Reg::q(r)),
                    },
                    prov,
                );
            }
            return;
        }
        let off = self.frame.result_offset(id);
        self.emit(
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(Reg::q(reg)),
                dst: Operand::Mem(self.slot_mem(off)),
            },
            prov,
        );
    }

    /// Re-canonicalises `%rax` after a 32-bit operation (sign-extend the
    /// low 32 bits across the register).
    fn canon32(&mut self, prov: Provenance) {
        self.emit(
            Inst::Movsx {
                src_w: Width::W32,
                dst_w: Width::W64,
                src: Operand::Reg(Reg::l(Gpr::Rax)),
                dst: Reg::q(Gpr::Rax),
            },
            prov,
        );
    }

    fn label(&self, bb: usize) -> String {
        format!("{}_bb{}", self.f.name, bb)
    }

    fn lower_inst(&mut self, inst: &MirInst) -> Result<(), CompileError> {
        match inst {
            MirInst::Alloca { .. } => {
                // Storage is reserved in the frame; the address is
                // materialised by `fetch` at each use.
            }
            MirInst::Load { id, ty, ptr } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(ptr, Gpr::Rax, p);
                match ty {
                    Ty::I32 => self.emit(
                        Inst::Movsx {
                            src_w: Width::W32,
                            dst_w: Width::W64,
                            src: Operand::Mem(MemRef::base_disp(Gpr::Rax, 0)),
                            dst: Reg::q(Gpr::Rax),
                        },
                        p,
                    ),
                    _ => self.emit(
                        Inst::Mov {
                            w: Width::W64,
                            src: Operand::Mem(MemRef::base_disp(Gpr::Rax, 0)),
                            dst: Operand::Reg(Reg::q(Gpr::Rax)),
                        },
                        p,
                    ),
                }
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Store { val, ptr, .. } => {
                // Staging happens *after* any IR-level check — the paper's
                // first root cause of coverage loss.
                let p = Provenance::Glue(GlueKind::StoreStaging);
                self.fetch(val, Gpr::Rcx, p);
                self.fetch(ptr, Gpr::Rax, p);
                self.emit(
                    Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(Gpr::Rcx)),
                        dst: Operand::Mem(MemRef::base_disp(Gpr::Rax, 0)),
                    },
                    p,
                );
            }
            MirInst::Bin { id, op, ty, a, b } => self.lower_bin(*id, *op, *ty, a, b),
            MirInst::ICmp { id, pred, ty, a, b } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(a, Gpr::Rax, p);
                self.fetch(b, Gpr::Rcx, p);
                let w = width_of(*ty);
                self.emit(
                    Inst::Cmp {
                        w,
                        src: Operand::Reg(Reg::gpr(Gpr::Rcx, w)),
                        dst: Operand::Reg(Reg::gpr(Gpr::Rax, w)),
                    },
                    p,
                );
                self.emit(
                    Inst::Setcc {
                        cc: pred_to_cc(*pred),
                        dst: Operand::Reg(Reg::b(Gpr::Rax)),
                    },
                    p,
                );
                self.emit(
                    Inst::Movzx {
                        src_w: Width::W8,
                        dst_w: Width::W64,
                        src: Operand::Reg(Reg::b(Gpr::Rax)),
                        dst: Reg::q(Gpr::Rax),
                    },
                    p,
                );
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Gep { id, base, index } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(base, Gpr::Rax, p);
                self.fetch(index, Gpr::Rcx, p);
                self.emit(
                    Inst::Lea {
                        mem: MemRef::indexed(Gpr::Rax, Gpr::Rcx, Scale::S8, 0),
                        dst: Reg::q(Gpr::Rax),
                    },
                    p,
                );
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Sext { id, from, v, .. } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(v, Gpr::Rax, p);
                // Canonical storage is already sign-extended; emit the
                // width-mapping move the real backend would (Table I's
                // "mapping" instruction class).
                match from {
                    Ty::I32 => self.canon32(p),
                    Ty::I8 => self.emit(
                        Inst::Movsx {
                            src_w: Width::W8,
                            dst_w: Width::W64,
                            src: Operand::Reg(Reg::b(Gpr::Rax)),
                            dst: Reg::q(Gpr::Rax),
                        },
                        p,
                    ),
                    _ => {}
                }
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Zext { id, from, v, .. } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(v, Gpr::Rax, p);
                match from {
                    // `movl %eax, %eax` — the x86 zero-extension idiom;
                    // note source == destination, which makes this a
                    // GENERAL-INSTRUCTION under FERRUM's annotation rule.
                    Ty::I32 => self.emit(
                        Inst::Mov {
                            w: Width::W32,
                            src: Operand::Reg(Reg::l(Gpr::Rax)),
                            dst: Operand::Reg(Reg::l(Gpr::Rax)),
                        },
                        p,
                    ),
                    Ty::I8 => self.emit(
                        Inst::Movzx {
                            src_w: Width::W8,
                            dst_w: Width::W64,
                            src: Operand::Reg(Reg::b(Gpr::Rax)),
                            dst: Reg::q(Gpr::Rax),
                        },
                        p,
                    ),
                    _ => {}
                }
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Trunc { id, to, v, .. } => {
                let p = Provenance::FromIr(id.0);
                self.fetch(v, Gpr::Rax, p);
                match to {
                    Ty::I32 => self.canon32(p),
                    Ty::I8 => self.emit(
                        Inst::Movsx {
                            src_w: Width::W8,
                            dst_w: Width::W64,
                            src: Operand::Reg(Reg::b(Gpr::Rax)),
                            dst: Reg::q(Gpr::Rax),
                        },
                        p,
                    ),
                    Ty::I1 => self.emit(
                        Inst::Alu {
                            op: AluOp::And,
                            w: Width::W64,
                            src: Operand::Imm(1),
                            dst: Operand::Reg(Reg::q(Gpr::Rax)),
                        },
                        p,
                    ),
                    _ => {}
                }
                self.spill(*id, Gpr::Rax, p);
            }
            MirInst::Call { id, callee, args } => {
                if callee == ferrum_mir::DETECT {
                    self.emit(
                        Inst::Jmp {
                            target: ferrum_asm::EXIT_FUNCTION.into(),
                        },
                        Provenance::Glue(GlueKind::CallGlue),
                    );
                    return Ok(());
                }
                if args.len() > ARG_GPRS.len() {
                    return Err(CompileError::TooManyArgs {
                        function: self.f.name.clone(),
                        callee: callee.clone(),
                    });
                }
                let p = Provenance::Glue(GlueKind::CallGlue);
                // Argument staging happens after IR-level checks — the
                // paper's second root cause.
                for (i, a) in args.iter().enumerate() {
                    self.fetch(a, ARG_GPRS[i], p);
                }
                self.emit(
                    Inst::Call {
                        target: callee.clone(),
                    },
                    p,
                );
                if let Some(id) = id {
                    self.spill(*id, Gpr::Rax, p);
                }
            }
            MirInst::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                let p = Provenance::Glue(GlueKind::BranchMaterialize);
                // Fig. 9 of the paper: the condition byte is re-tested
                // from its slot, creating a new flags-register fault site
                // invisible at IR level.
                match cond {
                    Value::Inst(id) => {
                        if let Some(r) = self.alloc.and_then(|a| a.reg(*id)) {
                            // The condition lives in a register: test it
                            // directly, no slot re-test needed.
                            self.emit(
                                Inst::Test {
                                    w: Width::W64,
                                    src: Operand::Reg(Reg::q(r)),
                                    dst: Operand::Reg(Reg::q(r)),
                                },
                                p,
                            );
                        } else if let SlotKind::Result(off) = self.frame.slot(*id) {
                            self.emit(
                                Inst::Cmp {
                                    w: Width::W64,
                                    src: Operand::Imm(0),
                                    dst: Operand::Mem(self.slot_mem(off)),
                                },
                                p,
                            );
                        } else {
                            self.fetch(cond, Gpr::Rax, p);
                            self.emit(
                                Inst::Test {
                                    w: Width::W64,
                                    src: Operand::Reg(Reg::q(Gpr::Rax)),
                                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                                },
                                p,
                            );
                        }
                    }
                    _ => {
                        self.fetch(cond, Gpr::Rax, p);
                        self.emit(
                            Inst::Test {
                                w: Width::W64,
                                src: Operand::Reg(Reg::q(Gpr::Rax)),
                                dst: Operand::Reg(Reg::q(Gpr::Rax)),
                            },
                            p,
                        );
                    }
                }
                self.emit(
                    Inst::Jcc {
                        cc: Cc::Ne,
                        target: self.label(then_bb.index()),
                    },
                    p,
                );
                self.emit(
                    Inst::Jmp {
                        target: self.label(else_bb.index()),
                    },
                    p,
                );
            }
            MirInst::Jmp { target } => {
                self.emit(
                    Inst::Jmp {
                        target: self.label(target.index()),
                    },
                    Provenance::Glue(GlueKind::BranchMaterialize),
                );
            }
            MirInst::Ret { val } => {
                let p = Provenance::Glue(GlueKind::RetGlue);
                if let Some(v) = val {
                    self.fetch(v, Gpr::Rax, p);
                }
                let fp = Provenance::Glue(GlueKind::FrameSetup);
                self.emit(
                    Inst::Mov {
                        w: Width::W64,
                        src: Operand::Reg(Reg::q(Gpr::Rbp)),
                        dst: Operand::Reg(Reg::q(Gpr::Rsp)),
                    },
                    fp,
                );
                self.emit(
                    Inst::Pop {
                        dst: Operand::Reg(Reg::q(Gpr::Rbp)),
                    },
                    fp,
                );
                self.emit(Inst::Ret, fp);
            }
        }
        Ok(())
    }

    fn lower_bin(&mut self, id: InstId, op: BinOp, ty: Ty, a: &Value, b: &Value) {
        let p = Provenance::FromIr(id.0);
        let w = width_of(ty);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                self.fetch(a, Gpr::Rax, p);
                self.fetch(b, Gpr::Rcx, p);
                let alu = match op {
                    BinOp::Add => AluOp::Add,
                    BinOp::Sub => AluOp::Sub,
                    BinOp::And => AluOp::And,
                    BinOp::Or => AluOp::Or,
                    _ => AluOp::Xor,
                };
                self.emit(
                    Inst::Alu {
                        op: alu,
                        w,
                        src: Operand::Reg(Reg::gpr(Gpr::Rcx, w)),
                        dst: Operand::Reg(Reg::gpr(Gpr::Rax, w)),
                    },
                    p,
                );
                if w == Width::W32 {
                    self.canon32(p);
                }
                self.spill(id, Gpr::Rax, p);
            }
            BinOp::Mul => {
                self.fetch(a, Gpr::Rax, p);
                self.fetch(b, Gpr::Rcx, p);
                self.emit(
                    Inst::Imul {
                        w,
                        src: Operand::Reg(Reg::gpr(Gpr::Rcx, w)),
                        dst: Reg::gpr(Gpr::Rax, w),
                    },
                    p,
                );
                if w == Width::W32 {
                    self.canon32(p);
                }
                self.spill(id, Gpr::Rax, p);
            }
            BinOp::SDiv | BinOp::SRem => {
                self.fetch(a, Gpr::Rax, p);
                self.fetch(b, Gpr::Rcx, p);
                self.emit(Inst::Cqo { w }, p);
                self.emit(
                    Inst::Idiv {
                        w,
                        src: Operand::Reg(Reg::gpr(Gpr::Rcx, w)),
                    },
                    p,
                );
                if op == BinOp::SRem {
                    self.emit(
                        Inst::Mov {
                            w: Width::W64,
                            src: Operand::Reg(Reg::q(Gpr::Rdx)),
                            dst: Operand::Reg(Reg::q(Gpr::Rax)),
                        },
                        p,
                    );
                }
                if w == Width::W32 {
                    self.canon32(p);
                }
                self.spill(id, Gpr::Rax, p);
            }
            BinOp::Shl | BinOp::AShr | BinOp::LShr => {
                self.fetch(a, Gpr::Rax, p);
                self.fetch(b, Gpr::Rcx, p);
                let sop = match op {
                    BinOp::Shl => ShiftOp::Shl,
                    BinOp::AShr => ShiftOp::Sar,
                    _ => ShiftOp::Shr,
                };
                // Logical right shift must operate on the zero-extended
                // narrow value; at 64-bit width the canonical form is the
                // value itself.
                if op == BinOp::LShr && w == Width::W32 {
                    self.emit(
                        Inst::Mov {
                            w: Width::W32,
                            src: Operand::Reg(Reg::l(Gpr::Rax)),
                            dst: Operand::Reg(Reg::l(Gpr::Rax)),
                        },
                        p,
                    );
                }
                self.emit(
                    Inst::Shift {
                        op: sop,
                        w,
                        amount: ShiftAmount::Cl,
                        dst: Operand::Reg(Reg::gpr(Gpr::Rax, w)),
                    },
                    p,
                );
                if w == Width::W32 {
                    self.canon32(p);
                }
                self.spill(id, Gpr::Rax, p);
            }
        }
    }
}

fn lower_function(
    m: &Module,
    f: &Function,
    alloc: Option<&Allocation>,
) -> Result<AsmFunction, CompileError> {
    let frame = Frame::layout(f);
    let mut out = AsmFunction::new(f.name.clone());
    // Prologue block.
    let mut prologue = AsmBlock::new(format!("{}_prologue", f.name));
    let fp = Provenance::Glue(GlueKind::FrameSetup);
    prologue.push(
        Inst::Push {
            src: Operand::Reg(Reg::q(Gpr::Rbp)),
        },
        fp,
    );
    prologue.push(
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rsp)),
            dst: Operand::Reg(Reg::q(Gpr::Rbp)),
        },
        fp,
    );
    if frame.size > 0 {
        prologue.push(
            Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                src: Operand::Imm(frame.size),
                dst: Operand::Reg(Reg::q(Gpr::Rsp)),
            },
            fp,
        );
    }
    // Spill incoming arguments to their slots.
    for (i, _) in f.params.iter().enumerate() {
        let off = frame.arg_offset(i as u32);
        prologue.push(
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(Reg::q(ARG_GPRS[i])),
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, off)),
            },
            fp,
        );
    }
    out.blocks.push(prologue);

    let mut lw = Lowerer {
        m,
        f,
        frame,
        alloc,
        out,
        cur: 0,
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        lw.out.blocks.push(AsmBlock::new(lw.label(bi)));
        lw.cur = lw.out.blocks.len() - 1;
        for inst in &b.insts {
            lw.lower_inst(inst)?;
        }
    }
    Ok(lw.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::Global;

    fn compile_main(build: impl FnOnce(&mut FunctionBuilder)) -> AsmProgram {
        let mut b = FunctionBuilder::new("main", &[], None);
        build(&mut b);
        let m = Module::from_functions(vec![b.finish()]);
        compile(&m).expect("compiles")
    }

    #[test]
    fn trivial_main_compiles_and_validates() {
        let p = compile_main(|b| b.ret(None));
        assert!(p.validate().is_ok());
        let main = p.function("main").unwrap();
        // prologue + ret lowering
        assert!(main.len() >= 4);
    }

    #[test]
    fn branch_lowering_materialises_cmp() {
        let p = compile_main(|b| {
            let t = b.create_block("t");
            let e = b.create_block("e");
            let one = b.iconst(Ty::I64, 1);
            let two = b.iconst(Ty::I64, 2);
            let c = b.icmp(ICmpPred::Slt, Ty::I64, one, two);
            b.br(c, t, e);
            b.switch_to(t);
            b.ret(None);
            b.switch_to(e);
            b.ret(None);
        });
        assert!(p.validate().is_ok());
        let main = p.function("main").unwrap();
        // There must be a BranchMaterialize cmp against $0 (Fig. 9).
        let has_matcmp = main.insts().any(|ai| {
            ai.prov == Provenance::Glue(GlueKind::BranchMaterialize)
                && matches!(
                    &ai.inst,
                    Inst::Cmp {
                        src: Operand::Imm(0),
                        ..
                    }
                )
        });
        assert!(has_matcmp, "branch materialisation cmp missing");
    }

    #[test]
    fn store_staging_is_glue() {
        let p = compile_main(|b| {
            let slot = b.alloca(Ty::I64);
            let v = b.iconst(Ty::I64, 5);
            b.store(Ty::I64, v, slot);
            b.ret(None);
        });
        let main = p.function("main").unwrap();
        let staging = main
            .insts()
            .filter(|ai| ai.prov == Provenance::Glue(GlueKind::StoreStaging))
            .count();
        assert!(
            staging >= 3,
            "value fetch, address lea, and store mov expected"
        );
    }

    #[test]
    fn call_glue_stages_arguments_in_order() {
        let mut callee = FunctionBuilder::new("f", &[Ty::I64, Ty::I64], Some(Ty::I64));
        let s = callee.add(Ty::I64, callee.arg(0), callee.arg(1));
        callee.ret(Some(s));
        let mut main = FunctionBuilder::new("main", &[], None);
        let a = main.iconst(Ty::I64, 1);
        let bv = main.iconst(Ty::I64, 2);
        let r = main.call("f", vec![a, bv], Some(Ty::I64)).unwrap();
        main.print(r);
        main.ret(None);
        let m = Module::from_functions(vec![main.finish(), callee.finish()]);
        let p = compile(&m).expect("compiles");
        assert!(p.validate().is_ok());
        let mainf = p.function("main").unwrap();
        let glue: Vec<_> = mainf
            .insts()
            .filter(|ai| ai.prov == Provenance::Glue(GlueKind::CallGlue))
            .collect();
        // Two arg movs + result spill + (print arg + call) etc.
        assert!(glue.len() >= 4);
        assert!(mainf
            .insts()
            .any(|ai| matches!(&ai.inst, Inst::Call { target } if target == "f")));
    }

    #[test]
    fn detect_lowered_to_exit_jump() {
        let mut b = FunctionBuilder::new("main", &[], None);
        b.call(ferrum_mir::DETECT, vec![], None);
        b.ret(None);
        let m = Module::from_functions(vec![b.finish()]);
        let p = compile(&m).expect("compiles");
        let main = p.function("main").unwrap();
        assert!(main.insts().any(
            |ai| matches!(&ai.inst, Inst::Jmp { target } if target == ferrum_asm::EXIT_FUNCTION)
        ));
    }

    #[test]
    fn too_many_args_rejected() {
        let mut callee = FunctionBuilder::new("f", &[Ty::I64; 7], None);
        callee.ret(None);
        let mut main = FunctionBuilder::new("main", &[], None);
        let zero = main.iconst(Ty::I64, 0);
        main.call("f", vec![zero; 7], None);
        main.ret(None);
        let m = Module::from_functions(vec![main.finish(), callee.finish()]);
        assert!(matches!(compile(&m), Err(CompileError::TooManyArgs { .. })));
    }

    #[test]
    fn invalid_module_rejected() {
        let b = FunctionBuilder::new("main", &[], None); // unterminated
        let m = Module::from_functions(vec![b.finish()]);
        assert!(matches!(compile(&m), Err(CompileError::InvalidModule(_))));
    }

    #[test]
    fn globals_become_data_objects() {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![7, 8]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let v = b.load(Ty::I64, base);
        b.print(v);
        b.ret(None);
        module.functions.push(b.finish());
        let p = compile(&module).expect("compiles");
        assert_eq!(p.data.len(), 1);
        assert_eq!(p.data[0].name, "tab");
        assert_eq!(p.data[0].words, vec![7, 8]);
        // The global is addressed via lea sym(%rip).
        assert!(p.function("main").unwrap().insts().any(|ai| matches!(
            &ai.inst,
            Inst::Lea { mem, .. } if mem.symbol.as_deref() == Some("tab")
        )));
    }

    #[test]
    fn i32_ops_recanonicalise() {
        let p = compile_main(|b| {
            let x = b.iconst(Ty::I32, -5);
            let y = b.iconst(Ty::I32, 3);
            let s = b.add(Ty::I32, x, y);
            b.print(s);
            b.ret(None);
        });
        let main = p.function("main").unwrap();
        // 32-bit add followed by movslq canonicalisation.
        let insts: Vec<_> = main.insts().map(|ai| &ai.inst).collect();
        let add_pos = insts
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Inst::Alu {
                        op: AluOp::Add,
                        w: Width::W32,
                        ..
                    }
                )
            })
            .expect("addl present");
        assert!(
            matches!(
                insts[add_pos + 1],
                Inst::Movsx {
                    src_w: Width::W32,
                    ..
                }
            ),
            "movslq after addl"
        );
    }

    #[test]
    fn backend_register_discipline_leaves_spares() {
        // The backend must never touch rbx/r10..r15 or any SIMD register,
        // so FERRUM's scanner always finds its required spares.
        let p = compile_main(|b| {
            let slot = b.alloca(Ty::I64);
            let x = b.iconst(Ty::I64, 3);
            let y = b.iconst(Ty::I64, 4);
            let s = b.mul(Ty::I64, x, y);
            b.store(Ty::I64, s, slot);
            let v = b.load(Ty::I64, slot);
            let q = b.sdiv(Ty::I64, v, x);
            b.print(q);
            b.ret(None);
        });
        let rep = ferrum_asm::analysis::regscan::SpareReport::scan(p.function("main").unwrap());
        for g in [
            Gpr::Rbx,
            Gpr::R10,
            Gpr::R11,
            Gpr::R12,
            Gpr::R13,
            Gpr::R14,
            Gpr::R15,
        ] {
            assert!(!rep.function.uses_gpr(g), "backend used {g}");
        }
        assert_eq!(rep.function.spare_simd().len(), 16);
    }
}
