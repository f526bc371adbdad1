//! Execution tracing: a bounded per-instruction record of what ran and
//! what it wrote — the tool you want when a protection pass misbehaves
//! ("which check fired, and what did the duplicate hold?").

use std::fmt;

use ferrum_asm::flags::Flags;
use ferrum_asm::inst::{DestClass, Inst};
use ferrum_asm::printer::print_inst;
use ferrum_asm::provenance::Provenance;
use ferrum_asm::reg::{Gpr, Zmm};

use crate::exec::StepEvent;
use crate::fault::FaultSpec;
use crate::machine::RegFile;
use crate::outcome::{RunResult, StopReason};
use crate::run::Cpu;
use crate::snapshot::Machine;

/// The architectural value an instruction left in its destination,
/// captured right after write-back — so an injected fault shows up as
/// the corrupted value, exactly what the destination holds going
/// forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WroteValue {
    /// No recordable destination (stores, branches, push/call glue).
    None,
    /// Plain GPR destination: the full 64-bit register afterwards.
    Gpr(u64),
    /// `idiv` writes the quotient/remainder pair.
    RaxRdx { rax: u64, rdx: u64 },
    /// A flag-writing compare/test: the resulting RFLAGS.
    Flags(Flags),
    /// SIMD destination: the register unit and its value as eight
    /// 64-bit lanes (upper lanes zero for XMM/YMM-width writes).
    Simd { reg: u8, lanes: [u64; 8] },
}

impl WroteValue {
    /// Captures the destination of `inst` from the post-write-back
    /// register file.
    pub fn capture(inst: &Inst, regs: &RegFile) -> WroteValue {
        match inst.dest_class() {
            DestClass::Gpr(r) => WroteValue::Gpr(regs.read64(r.gpr)),
            DestClass::RaxRdxPair(_) => WroteValue::RaxRdx {
                rax: regs.read64(Gpr::Rax),
                rdx: regs.read64(Gpr::Rdx),
            },
            DestClass::Rflags => WroteValue::Flags(regs.flags),
            DestClass::Xmm(x) => WroteValue::Simd {
                reg: x.0,
                lanes: regs.read_zmm(Zmm::new(x.0)),
            },
            DestClass::Ymm(y) => WroteValue::Simd {
                reg: y.0,
                lanes: regs.read_zmm(Zmm::new(y.0)),
            },
            DestClass::Zmm(z) => WroteValue::Simd {
                reg: z.0,
                lanes: regs.read_zmm(z),
            },
            DestClass::None => WroteValue::None,
        }
    }

    /// The plain-GPR value, when that is what was written (the common
    /// case, and all the trace recorded before SIMD/flag capture).
    pub fn gpr(&self) -> Option<u64> {
        match self {
            WroteValue::Gpr(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for WroteValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WroteValue::None => write!(f, "-"),
            WroteValue::Gpr(v) => write!(f, "{v:#x}"),
            WroteValue::RaxRdx { rax, rdx } => write!(f, "rax={rax:#x} rdx={rdx:#x}"),
            WroteValue::Flags(fl) => {
                let mut set = Vec::new();
                for (name, on) in [
                    ("zf", fl.zf),
                    ("sf", fl.sf),
                    ("cf", fl.cf),
                    ("of", fl.of),
                    ("pf", fl.pf),
                ] {
                    if on {
                        set.push(name);
                    }
                }
                write!(f, "flags[{}]", set.join(" "))
            }
            WroteValue::Simd { reg, lanes } => {
                let used = lanes.iter().rposition(|&l| l != 0).map_or(1, |i| i + 1);
                let rendered: Vec<String> =
                    lanes[..used].iter().map(|l| format!("{l:#x}")).collect();
                write!(f, "simd{}[{}]", reg, rendered.join(" "))
            }
        }
    }
}

/// One executed instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Position in the dynamic stream.
    pub dyn_index: u64,
    /// Static instruction index in the loaded image.
    pub pc: usize,
    /// Rendered instruction text.
    pub text: String,
    /// Provenance of the instruction.
    pub prov: Provenance,
    /// What the instruction's destination holds after write-back.
    pub wrote: WroteValue,
}

/// A bounded execution trace plus the run's result.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The recorded entries (at most the configured limit, from the
    /// start of execution).
    pub entries: Vec<TraceEntry>,
    /// The run result.
    pub result: RunResult,
}

impl Trace {
    /// Renders the trace as an annotated listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let wrote = match e.wrote {
                WroteValue::None => String::new(),
                w => format!(" ; -> {w}"),
            };
            out.push_str(&format!(
                "{:>6}  {:<40} # {}{}\n",
                e.dyn_index, e.text, e.prov, wrote
            ));
        }
        out.push_str(&format!("stop: {}\n", self.result.stop));
        out
    }
}

impl Cpu {
    /// Runs like [`Cpu::run`] while recording up to `limit` trace
    /// entries (from the start of execution; later instructions still
    /// execute, untraced): one [`Machine`] step at a time, reading the
    /// pc before each step and the destination after it.
    pub fn run_traced(&self, fault: Option<FaultSpec>, limit: usize) -> Trace {
        let image = self.image();
        let mut m = Machine::new(self);
        let mut entries = Vec::with_capacity(limit.min(4096));
        loop {
            let pc = m.state().pc;
            let ev = m.step_faulted(fault.as_slice());
            if ev == StepEvent::Stop(StopReason::Timeout) {
                break;
            }
            if entries.len() < limit {
                let li = &image.insts[pc];
                entries.push(TraceEntry {
                    dyn_index: m.dyn_insts() - 1,
                    pc,
                    text: print_inst(&li.inst),
                    prov: li.prov,
                    wrote: WroteValue::capture(&li.inst, &m.state().regs),
                });
            }
            if let StepEvent::Stop(_) = ev {
                break;
            }
        }
        Trace {
            entries,
            result: m.result(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::inst::Inst;
    use ferrum_asm::operand::Operand;
    use ferrum_asm::program::single_block_main;
    use ferrum_asm::reg::{Gpr, Reg, Width, Xmm};

    fn demo_cpu() -> Cpu {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Mov {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Operand::Reg(Reg::q(Gpr::Rdi)),
            },
            Inst::Call {
                target: "print_i64".into(),
            },
        ]);
        Cpu::load(&p).unwrap()
    }

    #[test]
    fn trace_records_writes_and_matches_run() {
        let cpu = demo_cpu();
        let trace = cpu.run_traced(None, 100);
        assert_eq!(trace.result, cpu.run(None));
        assert_eq!(trace.entries.len(), trace.result.dyn_insts as usize);
        assert_eq!(trace.entries[0].wrote, WroteValue::Gpr(7));
        assert_eq!(trace.entries[0].wrote.gpr(), Some(7));
        assert_eq!(trace.entries[0].text, "movq $7, %rax");
        assert!(trace.entries.iter().any(|e| e.text.starts_with("call")));
    }

    #[test]
    fn trace_limit_is_respected() {
        let cpu = demo_cpu();
        let trace = cpu.run_traced(None, 2);
        assert_eq!(trace.entries.len(), 2);
        // Execution still ran to completion.
        assert_eq!(trace.result.output, vec![7]);
    }

    #[test]
    fn traced_fault_shows_the_corrupted_value() {
        let cpu = demo_cpu();
        let trace = cpu.run_traced(Some(FaultSpec::new(0, 3)), 100);
        assert_eq!(
            trace.entries[0].wrote,
            WroteValue::Gpr(7 ^ 8),
            "bit 3 flipped at write-back"
        );
        assert_eq!(trace.result.output, vec![7 ^ 8], "corruption propagates");
    }

    #[test]
    fn render_is_human_readable() {
        let cpu = demo_cpu();
        let text = cpu.run_traced(None, 10).render();
        assert!(text.contains("movq $7, %rax"));
        assert!(text.contains("stop: completed"));
        assert!(text.contains("-> 0x7"));
    }

    #[test]
    fn simd_writes_are_recorded_per_lane() {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(0x2a),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Xmm::new(3),
            },
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Xmm::new(3),
            },
        ]);
        let cpu = Cpu::load(&p).unwrap();
        let trace = cpu.run_traced(None, 10);
        assert_eq!(
            trace.entries[1].wrote,
            WroteValue::Simd {
                reg: 3,
                lanes: [0x2a, 0, 0, 0, 0, 0, 0, 0]
            }
        );
        assert_eq!(
            trace.entries[2].wrote,
            WroteValue::Simd {
                reg: 3,
                lanes: [0x2a, 0x2a, 0, 0, 0, 0, 0, 0]
            }
        );
        assert_eq!(trace.entries[1].wrote.gpr(), None);
        assert!(trace.render().contains("-> simd3[0x2a 0x2a]"));
    }

    #[test]
    fn flag_writes_are_recorded() {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(5),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(5),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
        ]);
        let cpu = Cpu::load(&p).unwrap();
        let trace = cpu.run_traced(None, 10);
        match trace.entries[1].wrote {
            WroteValue::Flags(fl) => assert!(fl.zf, "5 - 5 sets ZF"),
            ref other => panic!("expected flags write, got {other:?}"),
        }
        assert!(trace.render().contains("-> flags[zf"));
    }

    #[test]
    fn idiv_records_the_pair() {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(17),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(5),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
            Inst::Cqo { w: Width::W64 },
            Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            },
        ]);
        let cpu = Cpu::load(&p).unwrap();
        let trace = cpu.run_traced(None, 10);
        assert_eq!(
            trace.entries[3].wrote,
            WroteValue::RaxRdx { rax: 3, rdx: 2 },
            "17 / 5 = 3 rem 2"
        );
    }
}
