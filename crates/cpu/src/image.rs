//! Program loading: flattening an [`AsmProgram`] into an indexable
//! instruction array with resolved jump/call targets and global symbols.
//!
//! Loading once and executing many times is what makes 1000-fault
//! campaigns per benchmark affordable.

use std::collections::HashMap;
use std::fmt;

use ferrum_asm::inst::Inst;
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::program::AsmProgram;
use ferrum_asm::provenance::Provenance;

/// Resolved control-transfer target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef {
    /// Not a control transfer.
    None,
    /// Jump/call to this instruction index.
    Index(usize),
    /// Transfer to `exit_function` (detection).
    Exit,
    /// Call to the `print_i64` intrinsic.
    Print,
}

/// One flattened instruction.
#[derive(Debug, Clone)]
pub struct LoadedInst {
    /// The instruction with memory symbols pre-resolved to absolute
    /// displacements.
    pub inst: Inst,
    /// Its provenance tag.
    pub prov: Provenance,
    /// Its resolved control target.
    pub target: TargetRef,
}

/// Load failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Structural validation failed.
    Invalid(String),
    /// A memory operand names an unknown global symbol.
    UnknownSymbol(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Invalid(m) => write!(f, "invalid program: {m}"),
            LoadError::UnknownSymbol(s) => write!(f, "unknown global symbol `{s}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One function's contiguous span of flattened instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpan {
    /// Function name.
    pub name: String,
    /// Index of the function's first instruction.
    pub start: usize,
    /// One past the function's last instruction.
    pub end: usize,
}

/// A loaded, executable program image.
#[derive(Debug, Clone)]
pub struct Image {
    /// Flattened instructions.
    pub insts: Vec<LoadedInst>,
    /// Index of `main`'s first instruction.
    pub entry: usize,
    /// Initial contents of the global data segment.
    pub globals_image: Vec<u8>,
    /// Base address of each global, by name.
    pub symbol_bases: HashMap<String, u64>,
    /// Function spans in layout order (ascending, contiguous) — the
    /// static side of per-function profile rollups.
    pub funcs: Vec<FuncSpan>,
}

impl Image {
    /// Loads and resolves `p`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Invalid`] if `p` fails validation and
    /// [`LoadError::UnknownSymbol`] for unresolved data references.
    pub fn load(p: &AsmProgram) -> Result<Image, LoadError> {
        if let Err(errs) = p.validate() {
            return Err(LoadError::Invalid(
                errs.first().map(ToString::to_string).unwrap_or_default(),
            ));
        }
        let (globals_image, bases) = crate::mem::build_globals(&p.data);
        let symbol_bases: HashMap<String, u64> = bases.into_iter().collect();

        // First pass: assign indices to every instruction and record the
        // index of each label (block labels and function entries).
        let mut label_index: HashMap<&str, usize> = HashMap::new();
        let mut funcs = Vec::with_capacity(p.functions.len());
        let mut idx = 0usize;
        for f in &p.functions {
            label_index.insert(f.name.as_str(), idx);
            let start = idx;
            for b in &f.blocks {
                label_index.insert(b.label.as_str(), idx);
                idx += b.insts.len();
            }
            funcs.push(FuncSpan {
                name: f.name.clone(),
                start,
                end: idx,
            });
        }
        let entry = *label_index
            .get("main")
            .ok_or_else(|| LoadError::Invalid("no main".into()))?;

        // Second pass: emit resolved instructions.
        let mut insts = Vec::with_capacity(idx);
        for f in &p.functions {
            for b in &f.blocks {
                for ai in &b.insts {
                    let target = match ai.inst.target() {
                        None => TargetRef::None,
                        Some(t) if t == ferrum_asm::EXIT_FUNCTION => TargetRef::Exit,
                        Some(t) if t == ferrum_asm::PRINT_I64 => TargetRef::Print,
                        Some(t) => TargetRef::Index(
                            *label_index
                                .get(t.as_str())
                                .ok_or_else(|| LoadError::Invalid(format!("label {t}")))?,
                        ),
                    };
                    let mut inst = ai.inst.clone();
                    resolve_symbols(&mut inst, &symbol_bases)?;
                    insts.push(LoadedInst {
                        inst,
                        prov: ai.prov,
                        target,
                    });
                }
            }
        }
        Ok(Image {
            insts,
            entry,
            globals_image,
            symbol_bases,
            funcs,
        })
    }

    /// Number of flattened instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the image is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Index (into [`Image::funcs`]) of the function containing `pc`.
    /// Spans are contiguous and ascending, so this is a binary search.
    pub fn func_of(&self, pc: usize) -> Option<usize> {
        let i = self.funcs.partition_point(|f| f.end <= pc);
        (i < self.funcs.len() && self.funcs[i].start <= pc).then_some(i)
    }

    /// The name of the function containing `pc`, or `"?"`.
    pub fn func_name(&self, pc: usize) -> &str {
        self.func_of(pc)
            .map_or("?", |i| self.funcs[i].name.as_str())
    }
}

/// Resolves, in place, every memory operand of `inst` that names a
/// global symbol into an absolute displacement.
fn resolve_symbols(inst: &mut Inst, syms: &HashMap<String, u64>) -> Result<(), LoadError> {
    fn mem(op: &mut Operand) -> Option<&mut MemRef> {
        match op {
            Operand::Mem(m) => Some(m),
            Operand::Reg(_) | Operand::Imm(_) => None,
        }
    }
    let mems = match inst {
        Inst::Mov { src, dst, .. }
        | Inst::Alu { src, dst, .. }
        | Inst::Cmp { src, dst, .. }
        | Inst::Test { src, dst, .. } => [mem(src), mem(dst)],
        Inst::Movsx { src, .. }
        | Inst::Movzx { src, .. }
        | Inst::Idiv { src, .. }
        | Inst::Imul { src, .. }
        | Inst::Push { src }
        | Inst::MovqToXmm { src, .. }
        | Inst::Pinsrq { src, .. } => [mem(src), None],
        Inst::Unary { dst, .. }
        | Inst::Shift { dst, .. }
        | Inst::Setcc { dst, .. }
        | Inst::Pop { dst } => [mem(dst), None],
        Inst::Lea { mem, .. } => [Some(mem), None],
        _ => [None, None],
    };
    for m in mems.into_iter().flatten() {
        if let Some(s) = m.symbol.take() {
            let base = syms.get(&s).ok_or(LoadError::UnknownSymbol(s))?;
            m.disp += *base as i64;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::program::{single_block_main, DataObject};
    use ferrum_asm::reg::{Gpr, Reg};

    #[test]
    fn flattening_assigns_entry() {
        let p = single_block_main(vec![Inst::Nop]);
        let img = Image::load(&p).unwrap();
        assert_eq!(img.entry, 0);
        assert_eq!(img.len(), 2);
        assert!(!img.is_empty());
    }

    #[test]
    fn function_spans_cover_the_image_contiguously() {
        let p = single_block_main(vec![Inst::Nop, Inst::Nop]);
        let img = Image::load(&p).unwrap();
        assert!(!img.funcs.is_empty());
        let mut next = 0;
        for f in &img.funcs {
            assert_eq!(f.start, next, "spans must be contiguous");
            assert!(f.end >= f.start);
            next = f.end;
        }
        assert_eq!(next, img.len(), "spans must cover every instruction");
        for pc in 0..img.len() {
            let fi = img.func_of(pc).expect("every pc is inside a function");
            assert!(img.funcs[fi].start <= pc && pc < img.funcs[fi].end);
        }
        assert_eq!(img.func_of(img.len()), None);
        assert_eq!(img.func_name(img.entry), "main");
    }

    #[test]
    fn targets_resolved_to_indices() {
        let p = single_block_main(vec![Inst::Jmp {
            target: "main_entry".into(),
        }]);
        let img = Image::load(&p).unwrap();
        assert_eq!(img.insts[0].target, TargetRef::Index(0));
    }

    #[test]
    fn exit_and_print_targets() {
        let p = single_block_main(vec![
            Inst::Jcc {
                cc: ferrum_asm::flags::Cc::Ne,
                target: "exit_function".into(),
            },
            Inst::Call {
                target: "print_i64".into(),
            },
        ]);
        let img = Image::load(&p).unwrap();
        assert_eq!(img.insts[0].target, TargetRef::Exit);
        assert_eq!(img.insts[1].target, TargetRef::Print);
    }

    #[test]
    fn symbols_resolved_into_displacements() {
        let mut p = single_block_main(vec![Inst::Lea {
            mem: MemRef::global("tab", 8),
            dst: Reg::q(Gpr::Rax),
        }]);
        p.data.push(DataObject::new("other", vec![0, 0]));
        p.data.push(DataObject::new("tab", vec![1, 2, 3]));
        let img = Image::load(&p).unwrap();
        match &img.insts[0].inst {
            Inst::Lea { mem, .. } => {
                assert_eq!(mem.symbol, None);
                assert_eq!(mem.disp as u64, crate::mem::GLOBALS_BASE + 16 + 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_symbol_rejected() {
        let p = single_block_main(vec![Inst::Lea {
            mem: MemRef::global("ghost", 0),
            dst: Reg::q(Gpr::Rax),
        }]);
        assert_eq!(
            Image::load(&p).unwrap_err(),
            LoadError::UnknownSymbol("ghost".into())
        );
    }

    #[test]
    fn invalid_program_rejected() {
        let p = AsmProgram::new();
        assert!(matches!(Image::load(&p), Err(LoadError::Invalid(_))));
    }
}
