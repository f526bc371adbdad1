//! Parser for the AT&T-style syntax produced by [`crate::printer`].
//!
//! The parser accepts exactly the printer's output language (plus
//! insignificant whitespace and `#` comments), which gives a cheap
//! round-trip property: `parse(print(i)) == i`.  `tests/properties.rs`
//! checks it on seeded random instructions and listings, and the
//! `round-trip` stage of `ferrum fuzz` on every FERRUM and hybrid
//! program the pipeline emits, provenance comments included.

use std::fmt;

use crate::flags::Cc;
use crate::inst::{AluOp, Inst, ShiftAmount, ShiftOp, UnaryOp};
use crate::operand::{MemRef, Operand, Scale};
use crate::program::{AsmBlock, AsmFunction, AsmInst, AsmProgram, DataObject};
use crate::provenance::Provenance;
use crate::reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm};

/// A parse failure, with the offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// The text being parsed when the error occurred.
    pub text: String,
}

impl ParseError {
    fn new(message: impl Into<String>, text: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            text: text.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {} in `{}`", self.message, self.text)
    }
}

impl std::error::Error for ParseError {}

/// Splits an operand list on commas that are not inside parentheses.
fn split_operands(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        parts.push(last);
    }
    parts
}

/// Parses one operand.
pub fn parse_operand(s: &str) -> Result<Operand, ParseError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('$') {
        let v: i64 = rest
            .parse()
            .map_err(|_| ParseError::new("bad immediate", s))?;
        return Ok(Operand::Imm(v));
    }
    if let Some(rest) = s.strip_prefix('%') {
        let (g, w) = Gpr::parse(rest).ok_or_else(|| ParseError::new("unknown register", s))?;
        return Ok(Operand::Reg(Reg::gpr(g, w)));
    }
    parse_memref(s).map(Operand::Mem)
}

/// Parses a memory reference like `-24(%rbp)`, `8(%rax, %rcx, 8)`,
/// `sym(%rip)`, or `sym+8(%rax)`.
pub fn parse_memref(s: &str) -> Result<MemRef, ParseError> {
    let s = s.trim();
    let (before, inner) = match s.find('(') {
        Some(i) => {
            let close = s
                .rfind(')')
                .ok_or_else(|| ParseError::new("missing )", s))?;
            (&s[..i], &s[i + 1..close])
        }
        None => (s, ""),
    };
    let mut m = MemRef {
        disp: 0,
        base: None,
        index: None,
        symbol: None,
    };
    let before = before.trim();
    if !before.is_empty() {
        if let Ok(d) = before.parse::<i64>() {
            m.disp = d;
        } else if let Some((sym, d)) = before.split_once('+') {
            m.symbol = Some(sym.trim().to_owned());
            m.disp = d
                .trim()
                .parse()
                .map_err(|_| ParseError::new("bad displacement", s))?;
        } else {
            m.symbol = Some(before.to_owned());
        }
    }
    let inner = inner.trim();
    if !inner.is_empty() && inner != "%rip" {
        let parts = split_operands(inner);
        let mut it = parts.iter();
        if let Some(first) = it.next() {
            // An empty first component is a base-less indexed form,
            // e.g. `(, %r11, 8)`.
            if !first.is_empty() {
                let name = first
                    .strip_prefix('%')
                    .ok_or_else(|| ParseError::new("expected register", s))?;
                let (g, w) = Gpr::parse(name).ok_or_else(|| ParseError::new("bad base", s))?;
                if w != Width::W64 {
                    return Err(ParseError::new("base must be 64-bit", s));
                }
                m.base = Some(g);
            }
        }
        if let Some(second) = it.next() {
            let name = second
                .strip_prefix('%')
                .ok_or_else(|| ParseError::new("expected index register", s))?;
            let (g, _) = Gpr::parse(name).ok_or_else(|| ParseError::new("bad index", s))?;
            let scale = match it.next() {
                Some(f) => {
                    Scale::from_factor(f.parse().map_err(|_| ParseError::new("bad scale", s))?)
                        .ok_or_else(|| ParseError::new("bad scale factor", s))?
                }
                None => Scale::S1,
            };
            m.index = Some((g, scale));
        }
    }
    if m.base.is_none() && m.index.is_none() && m.symbol.is_none() && m.disp == 0 && s != "0" {
        return Err(ParseError::new("empty memory reference", s));
    }
    Ok(m)
}

fn parse_xmm(s: &str) -> Result<Xmm, ParseError> {
    let n = s
        .trim()
        .strip_prefix("%xmm")
        .and_then(|d| d.parse::<u8>().ok())
        .filter(|&n| n < 16)
        .ok_or_else(|| ParseError::new("expected xmm register", s))?;
    Ok(Xmm::new(n))
}

fn parse_ymm(s: &str) -> Result<Ymm, ParseError> {
    let n = s
        .trim()
        .strip_prefix("%ymm")
        .and_then(|d| d.parse::<u8>().ok())
        .filter(|&n| n < 16)
        .ok_or_else(|| ParseError::new("expected ymm register", s))?;
    Ok(Ymm::new(n))
}

fn parse_zmm(s: &str) -> Result<Zmm, ParseError> {
    let n = s
        .trim()
        .strip_prefix("%zmm")
        .and_then(|d| d.parse::<u8>().ok())
        .filter(|&n| n < 16)
        .ok_or_else(|| ParseError::new("expected zmm register", s))?;
    Ok(Zmm::new(n))
}

fn parse_gpr_reg(s: &str) -> Result<Reg, ParseError> {
    match parse_operand(s)? {
        Operand::Reg(r) => Ok(r),
        _ => Err(ParseError::new("expected register", s)),
    }
}

fn parse_lane(s: &str) -> Result<u8, ParseError> {
    s.trim()
        .strip_prefix('$')
        .and_then(|d| d.parse::<u8>().ok())
        .ok_or_else(|| ParseError::new("expected lane immediate", s))
}

/// Parses one instruction in the printer's syntax.
pub fn parse_inst(line: &str) -> Result<Inst, ParseError> {
    let line = match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    };
    let (mn, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    let ops = split_operands(rest);
    let err = |m: &str| ParseError::new(m, line);

    // Fixed mnemonics first.
    match mn {
        "nop" => return Ok(Inst::Nop),
        "ret" => return Ok(Inst::Ret),
        "cqto" => return Ok(Inst::Cqo { w: Width::W64 }),
        "cltd" => return Ok(Inst::Cqo { w: Width::W32 }),
        "jmp" => {
            return Ok(Inst::Jmp {
                target: rest.to_owned(),
            })
        }
        "call" => {
            return Ok(Inst::Call {
                target: rest.to_owned(),
            })
        }
        "leaq" => {
            if ops.len() != 2 {
                return Err(err("lea needs 2 operands"));
            }
            return Ok(Inst::Lea {
                mem: parse_memref(ops[0])?,
                dst: parse_gpr_reg(ops[1])?,
            });
        }
        "pushq" => {
            return Ok(Inst::Push {
                src: parse_operand(rest)?,
            })
        }
        "popq" => {
            return Ok(Inst::Pop {
                dst: parse_operand(rest)?,
            })
        }
        "pinsrq" => {
            if ops.len() != 3 {
                return Err(err("pinsrq needs 3 operands"));
            }
            return Ok(Inst::Pinsrq {
                lane: parse_lane(ops[0])?,
                src: parse_operand(ops[1])?,
                dst: parse_xmm(ops[2])?,
            });
        }
        "pextrq" => {
            if ops.len() != 3 {
                return Err(err("pextrq needs 3 operands"));
            }
            return Ok(Inst::Pextrq {
                lane: parse_lane(ops[0])?,
                src: parse_xmm(ops[1])?,
                dst: parse_gpr_reg(ops[2])?,
            });
        }
        "vinserti64x4" => {
            if ops.len() != 4 {
                return Err(err("vinserti64x4 needs 4 operands"));
            }
            return Ok(Inst::Vinserti64x4 {
                lane: parse_lane(ops[0])?,
                src: parse_ymm(ops[1])?,
                src2: parse_zmm(ops[2])?,
                dst: parse_zmm(ops[3])?,
            });
        }
        "vpxorq" => {
            if ops.len() != 3 {
                return Err(err("vpxorq needs 3 operands"));
            }
            return Ok(Inst::Vpxor512 {
                a: parse_zmm(ops[0])?,
                b: parse_zmm(ops[1])?,
                dst: parse_zmm(ops[2])?,
            });
        }
        "vptestq" => {
            if ops.len() != 2 {
                return Err(err("vptestq needs 2 operands"));
            }
            return Ok(Inst::Vptest512 {
                a: parse_zmm(ops[0])?,
                b: parse_zmm(ops[1])?,
            });
        }
        "vinserti128" => {
            if ops.len() != 4 {
                return Err(err("vinserti128 needs 4 operands"));
            }
            return Ok(Inst::Vinserti128 {
                lane: parse_lane(ops[0])?,
                src: parse_xmm(ops[1])?,
                src2: parse_ymm(ops[2])?,
                dst: parse_ymm(ops[3])?,
            });
        }
        "vpxor" => {
            if ops.len() != 3 {
                return Err(err("vpxor needs 3 operands"));
            }
            if ops[0].trim().starts_with("%xmm") {
                return Ok(Inst::Vpxor128 {
                    a: parse_xmm(ops[0])?,
                    b: parse_xmm(ops[1])?,
                    dst: parse_xmm(ops[2])?,
                });
            }
            return Ok(Inst::Vpxor {
                a: parse_ymm(ops[0])?,
                b: parse_ymm(ops[1])?,
                dst: parse_ymm(ops[2])?,
            });
        }
        "vptest" => {
            if ops.len() != 2 {
                return Err(err("vptest needs 2 operands"));
            }
            if ops[0].trim().starts_with("%xmm") {
                return Ok(Inst::Vptest128 {
                    a: parse_xmm(ops[0])?,
                    b: parse_xmm(ops[1])?,
                });
            }
            return Ok(Inst::Vptest {
                a: parse_ymm(ops[0])?,
                b: parse_ymm(ops[1])?,
            });
        }
        "movq" if ops.len() == 2 => {
            // Disambiguate GPR movq / movq-to-xmm / movq-from-xmm.
            let to_xmm = ops[1].starts_with("%xmm");
            let from_xmm = ops[0].starts_with("%xmm");
            if to_xmm {
                return Ok(Inst::MovqToXmm {
                    src: parse_operand(ops[0])?,
                    dst: parse_xmm(ops[1])?,
                });
            }
            if from_xmm {
                return Ok(Inst::MovqFromXmm {
                    src: parse_xmm(ops[0])?,
                    dst: parse_gpr_reg(ops[1])?,
                });
            }
            return Ok(Inst::Mov {
                w: Width::W64,
                src: parse_operand(ops[0])?,
                dst: parse_operand(ops[1])?,
            });
        }
        _ => {}
    }

    // jcc / setcc families.
    if let Some(cc_s) = mn.strip_prefix("set") {
        if let Some(cc) = Cc::parse(cc_s) {
            return Ok(Inst::Setcc {
                cc,
                dst: parse_operand(rest)?,
            });
        }
    }
    if let Some(cc_s) = mn.strip_prefix('j') {
        if let Some(cc) = Cc::parse(cc_s) {
            return Ok(Inst::Jcc {
                cc,
                target: rest.to_owned(),
            });
        }
    }

    // movs/movz with two width suffixes (e.g. movslq, movzbl).
    for (prefix, zero) in [("movs", false), ("movz", true)] {
        if let Some(sfx) = mn.strip_prefix(prefix) {
            let chars: Vec<char> = sfx.chars().collect();
            if chars.len() == 2 {
                if let (Some(sw), Some(dw)) =
                    (Width::from_suffix(chars[0]), Width::from_suffix(chars[1]))
                {
                    if ops.len() != 2 {
                        return Err(err("movsx/movzx need 2 operands"));
                    }
                    let src = parse_operand(ops[0])?;
                    let dst = parse_gpr_reg(ops[1])?;
                    return Ok(if zero {
                        Inst::Movzx {
                            src_w: sw,
                            dst_w: dw,
                            src,
                            dst,
                        }
                    } else {
                        Inst::Movsx {
                            src_w: sw,
                            dst_w: dw,
                            src,
                            dst,
                        }
                    });
                }
            }
        }
    }

    // Width-suffixed families.
    let Some(last) = mn.chars().last() else {
        return Err(err("empty mnemonic"));
    };
    let Some(w) = Width::from_suffix(last) else {
        return Err(err("unknown mnemonic"));
    };
    let stem = &mn[..mn.len() - 1];
    let bin = |f: &dyn Fn(Operand, Operand) -> Inst| -> Result<Inst, ParseError> {
        if ops.len() != 2 {
            return Err(ParseError::new("need 2 operands", line));
        }
        Ok(f(parse_operand(ops[0])?, parse_operand(ops[1])?))
    };
    match stem {
        "mov" => bin(&|src, dst| Inst::Mov { w, src, dst }),
        "add" => bin(&|src, dst| Inst::Alu {
            op: AluOp::Add,
            w,
            src,
            dst,
        }),
        "sub" => bin(&|src, dst| Inst::Alu {
            op: AluOp::Sub,
            w,
            src,
            dst,
        }),
        "and" => bin(&|src, dst| Inst::Alu {
            op: AluOp::And,
            w,
            src,
            dst,
        }),
        "or" => bin(&|src, dst| Inst::Alu {
            op: AluOp::Or,
            w,
            src,
            dst,
        }),
        "xor" => bin(&|src, dst| Inst::Alu {
            op: AluOp::Xor,
            w,
            src,
            dst,
        }),
        "cmp" => bin(&|src, dst| Inst::Cmp { w, src, dst }),
        "test" => bin(&|src, dst| Inst::Test { w, src, dst }),
        "imul" => {
            if ops.len() != 2 {
                return Err(err("imul needs 2 operands"));
            }
            Ok(Inst::Imul {
                w,
                src: parse_operand(ops[0])?,
                dst: parse_gpr_reg(ops[1])?,
            })
        }
        "idiv" => Ok(Inst::Idiv {
            w,
            src: parse_operand(rest)?,
        }),
        "neg" => Ok(Inst::Unary {
            op: UnaryOp::Neg,
            w,
            dst: parse_operand(rest)?,
        }),
        "not" => Ok(Inst::Unary {
            op: UnaryOp::Not,
            w,
            dst: parse_operand(rest)?,
        }),
        "shl" | "shr" | "sar" => {
            let op = match stem {
                "shl" => ShiftOp::Shl,
                "shr" => ShiftOp::Shr,
                _ => ShiftOp::Sar,
            };
            if ops.len() != 2 {
                return Err(err("shift needs 2 operands"));
            }
            let amount = if ops[0] == "%cl" {
                ShiftAmount::Cl
            } else {
                let n = ops[0]
                    .strip_prefix('$')
                    .and_then(|d| d.parse::<u8>().ok())
                    .ok_or_else(|| err("bad shift amount"))?;
                ShiftAmount::Imm(n)
            };
            Ok(Inst::Shift {
                op,
                w,
                amount,
                dst: parse_operand(ops[1])?,
            })
        }
        _ => Err(err("unknown mnemonic")),
    }
}

/// Parses a whole listing produced by [`crate::printer::print_program`].
///
/// # Errors
///
/// Returns the first line that fails to parse.
pub fn parse_program(text: &str) -> Result<AsmProgram, ParseError> {
    let mut prog = AsmProgram::new();
    let mut cur_fn: Option<AsmFunction> = None;
    let mut cur_data: Option<DataObject> = None;
    let mut pending_global: Option<String> = None;

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".data ") {
            if let Some(d) = cur_data.take() {
                prog.data.push(d);
            }
            let name = rest.trim_end_matches(':').trim();
            cur_data = Some(DataObject::new(name, Vec::new()));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".quad") {
            let d = cur_data
                .as_mut()
                .ok_or_else(|| ParseError::new(".quad outside .data", line))?;
            d.words.push(
                rest.trim()
                    .parse()
                    .map_err(|_| ParseError::new("bad .quad value", line))?,
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix(".globl") {
            if let Some(d) = cur_data.take() {
                prog.data.push(d);
            }
            pending_global = Some(rest.trim().to_owned());
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if let Some(d) = cur_data.take() {
                prog.data.push(d);
            }
            if pending_global.as_deref() == Some(label) {
                // Function start.
                if let Some(f) = cur_fn.take() {
                    prog.functions.push(f);
                }
                cur_fn = Some(AsmFunction::new(label));
                pending_global = None;
            } else {
                let f = cur_fn
                    .as_mut()
                    .ok_or_else(|| ParseError::new("label outside function", line))?;
                f.blocks.push(AsmBlock::new(label));
            }
            continue;
        }
        let inst = parse_inst(line)?;
        let f = cur_fn
            .as_mut()
            .ok_or_else(|| ParseError::new("instruction outside function", line))?;
        if f.blocks.is_empty() {
            f.blocks.push(AsmBlock::new(format!("{}_entry", f.name)));
        }
        let prov = raw
            .split('#')
            .nth(1)
            .map(|c| parse_provenance(c.trim()))
            .unwrap_or(Provenance::Synthetic);
        f.blocks
            .last_mut()
            .expect("block exists")
            .insts
            .push(AsmInst::new(inst, prov));
    }
    if let Some(d) = cur_data.take() {
        prog.data.push(d);
    }
    if let Some(f) = cur_fn.take() {
        prog.functions.push(f);
    }
    Ok(prog)
}

fn parse_provenance(s: &str) -> Provenance {
    use crate::provenance::{GlueKind, Mechanism, TechniqueTag};
    if let Some(id) = s.strip_prefix("ir:") {
        if let Ok(n) = id.parse() {
            return Provenance::FromIr(n);
        }
    }
    if let Some(kind) = s.strip_prefix("glue:") {
        for k in GlueKind::ALL {
            if k.label() == kind {
                return Provenance::Glue(k);
            }
        }
    }
    if let Some(t) = s.strip_prefix("prot:") {
        // `prot:<tag>` (older listings) or `prot:<tag>:<mechanism>`.
        let (t, mech) = match t.split_once(':') {
            Some((t, m)) => (t, Mechanism::parse(m)),
            None => (t, None),
        };
        let tag = match t {
            "ir-eddi" => Some(TechniqueTag::IrEddi),
            "hybrid-asm-eddi" => Some(TechniqueTag::HybridAsmEddi),
            "ferrum" => Some(TechniqueTag::Ferrum),
            _ => None,
        };
        if let Some(tag) = tag {
            return Provenance::Protection(tag, mech.unwrap_or(Mechanism::Dup));
        }
    }
    Provenance::Synthetic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::{print_inst, print_program};
    use crate::program::single_block_main;

    fn round_trip(text: &str) {
        let inst = parse_inst(text).unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
        assert_eq!(print_inst(&inst), text, "round trip of `{text}`");
    }

    #[test]
    fn parses_paper_listing_instructions() {
        for text in [
            "movslq %ecx, %r10",
            "movslq %ecx, %rcx",
            "xorq %rcx, %r10",
            "jne exit_function",
            "cmpl -12(%rbp), %eax",
            "sete %r11b",
            "jl .LBB7_4",
            "xorb %r11b, %r12b",
            "movq -24(%rbp), %xmm0",
            "movq -24(%rbp), %rax",
            "movq %rax, %xmm1",
            "pinsrq $1, 8(%rax), %xmm0",
            "pinsrq $1, %rdi, %xmm1",
            "vinserti128 $1, %xmm2, %ymm0, %ymm0",
            "vinserti128 $1, %xmm3, %ymm1, %ymm1",
            "vpxor %ymm1, %ymm0, %ymm0",
            "vptest %ymm0, %ymm0",
            "vpxor %xmm1, %xmm0, %xmm0",
            "vptest %xmm0, %xmm0",
            "vinserti64x4 $1, %ymm2, %zmm0, %zmm0",
            "vpxorq %zmm1, %zmm0, %zmm0",
            "vptestq %zmm0, %zmm0",
            "pushq %r10",
            "popq %r10",
            "movslq -68(%rbp), %r10",
            "cmpq %rax, %r10",
            "cmpl $0, -4(%rbp)",
            "je .LBB2_2",
        ] {
            round_trip(text);
        }
    }

    #[test]
    fn parses_general_instruction_forms() {
        for text in [
            "movl $7, %eax",
            "movq %rax, -8(%rbp)",
            "addl %ecx, %eax",
            "subq $16, %rsp",
            "imulq %rcx, %rax",
            "idivl %ecx",
            "cqto",
            "cltd",
            "negl %eax",
            "notq %rdx",
            "shlq $3, %rax",
            "sarl $31, %edx",
            "shrq %cl, %rax",
            "testb %al, %al",
            "leaq 16(%rax, %rcx, 8), %rdx",
            "leaq table(%rip), %rax",
            "movzbl %al, %eax",
            "movq %xmm0, %rax",
            "pextrq $1, %xmm0, %rdi",
            "call print_i64",
            "jmp loop_header",
            "ret",
            "nop",
        ] {
            round_trip(text);
        }
    }

    #[test]
    fn comments_are_ignored() {
        let i = parse_inst("movslq %ecx, %r10 # original instruction").unwrap();
        assert_eq!(print_inst(&i), "movslq %ecx, %r10");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_inst("florble %eax").is_err());
        assert!(parse_inst("movl %eax").is_err());
        assert!(parse_inst("movl $x, %eax").is_err());
        assert!(parse_inst("pinsrq %rax, %xmm0").is_err());
    }

    #[test]
    fn memref_forms_parse() {
        assert_eq!(
            parse_memref("-24(%rbp)").unwrap(),
            MemRef::base_disp(Gpr::Rbp, -24)
        );
        assert_eq!(
            parse_memref("8(%rax, %rcx, 4)").unwrap(),
            MemRef::indexed(Gpr::Rax, Gpr::Rcx, Scale::S4, 8)
        );
        assert_eq!(parse_memref("tab(%rip)").unwrap(), MemRef::global("tab", 0));
        assert_eq!(
            parse_memref("tab+16(%rip)").unwrap(),
            MemRef::global("tab", 16)
        );
        assert!(parse_memref("(%eax)").is_err()); // 32-bit base rejected
                                                  // Base-less indexed form.
        assert_eq!(
            parse_memref("-8(, %r11, 8)").unwrap(),
            MemRef {
                disp: -8,
                base: None,
                index: Some((Gpr::R11, Scale::S8)),
                symbol: None
            }
        );
    }

    #[test]
    fn program_round_trips_through_listing() {
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W32,
                src: Operand::Imm(5),
                dst: Operand::Reg(Reg::l(Gpr::Rax)),
            },
            Inst::Call {
                target: "print_i64".into(),
            },
        ]);
        let text = print_program(&p);
        let back = parse_program(&text).expect("program parses");
        assert_eq!(back, p);
    }

    #[test]
    fn program_with_data_round_trips() {
        let mut p = single_block_main(vec![Inst::Nop]);
        p.data.push(DataObject::new("input", vec![1, -2, 3]));
        let text = print_program(&p);
        let back = parse_program(&text).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn provenance_comments_round_trip() {
        use crate::provenance::{GlueKind, Mechanism, TechniqueTag};
        let mut p = single_block_main(vec![]);
        let b = &mut p.functions[0].blocks[0];
        b.insts.clear();
        b.push(Inst::Nop, Provenance::FromIr(12));
        b.push(Inst::Nop, Provenance::Glue(GlueKind::BranchMaterialize));
        for m in Mechanism::ALL {
            b.push(Inst::Nop, Provenance::Protection(TechniqueTag::Ferrum, m));
        }
        b.push(Inst::Ret, Provenance::Synthetic);
        let back = parse_program(&print_program(&p)).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn bare_prot_tag_parses_with_default_mechanism() {
        use crate::provenance::{Mechanism, TechniqueTag};
        assert_eq!(
            parse_provenance("prot:ferrum"),
            Provenance::Protection(TechniqueTag::Ferrum, Mechanism::Dup)
        );
        assert_eq!(
            parse_provenance("prot:ferrum:flag-recheck"),
            Provenance::Protection(TechniqueTag::Ferrum, Mechanism::FlagRecheck)
        );
        assert_eq!(parse_provenance("prot:florble"), Provenance::Synthetic);
    }
}
